"""tools/uncovered.py, run on one small test file."""

import re
import subprocess
import sys

from conftest import ROOT


def _line_of(path: str, source: str) -> str:
    """``path:line: source`` for the one line of ``path`` whose stripped text is ``source``."""
    lines = [line.strip() for line in (ROOT / path).read_text(encoding="utf-8").splitlines()]
    assert lines.count(source) == 1, source
    return f"{path}:{lines.index(source) + 1}: {source}"


def test_uncovered_lists_the_statements_a_test_file_never_runs():
    # On test_so3.py alone: pytest's report and exit code, then one
    # "path:line: source" line per src/modrotor statement never run, in
    # order, never a docstring or a def/class header. A flight's statement
    # is listed; a statement of is_rotation, which the file tests, is not.
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "uncovered.py"),
                           str(ROOT / "tests" / "test_so3.py"), "-q"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("src/modrotor/"))
    assert re.search(r"^\d+ passed in ", "\n".join(lines[:first]), re.M)
    listed = lines[first:]
    keys = []
    for line in listed:
        path, number, source = re.fullmatch(r"(src/modrotor/\w+\.py):(\d+): (\S.*)", line).groups()
        assert not source.startswith(("def ", "class ", "@", '"""')), line
        assert (ROOT / path).read_text(encoding="utf-8").splitlines()[int(number) - 1].strip() \
            == source, line
        keys.append((path, int(number)))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert _line_of("src/modrotor/sim.py",
                    "params = params if params is not None else SimParams()") in listed
    assert _line_of("src/modrotor/so3.py", "d0 = a0 * a0 + a1 * a1 + a2 * a2 - 1.0") not in listed
