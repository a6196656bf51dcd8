import dataclasses
import inspect
import math
import re
from functools import partial

import numpy as np
import pytest

from modrotor import module_design
from modrotor.module_design import (
    ModuleSpec,
    PropellerSpec,
    Wrench,
    build_r_module,
    check_balanced,
)
from modrotor.structure import ModulePlacement, assemble
from modrotor.so3 import E3, rot_x, rot_y


def test_propeller_orientation_identity():
    np.testing.assert_array_equal(build_r_module(alpha=0.0, beta=0.0).tilt, np.eye(3))


def test_propeller_orientation_pitch_only_matches_y_rotation():
    np.testing.assert_array_equal(
        build_r_module(alpha=0.0, beta=np.pi / 18).tilt, rot_y(np.pi / 18)
    )


def test_propeller_orientation_combined_tilt_direction():
    # Hand evaluation: rot_y(30) applied to rot_x(30) e3 = (0, -1/2, cos30)
    # gives (sin30 cos30, -1/2, cos30^2).
    axis = build_r_module(alpha=np.pi / 6, beta=np.pi / 6).tilt @ E3
    expected = np.array([0.4330127018922193, -0.5, 0.75])
    np.testing.assert_allclose(axis, expected, atol=1e-15)
    assert axis[0] > 0 and axis[1] < 0


def test_propeller_orientation_range_check():
    with pytest.raises(ValueError):
        build_r_module(alpha=np.pi)
    with pytest.raises(ValueError):
        build_r_module(beta=-2.0)


def test_cuboid_inertia_values():
    # m (l^2 + h^2)/12 and m (2 l^2)/12 for the bench-scale module.
    i = build_r_module(mass=0.135, base=0.12, height=0.06).inertia
    np.testing.assert_allclose(np.diag(i), [2.025e-4, 2.025e-4, 3.24e-4], rtol=1e-12)
    assert np.all(i == np.diag(np.diag(i)))


def test_build_r_module_geometry():
    m = build_r_module(0.135, 0.12, 0.06, 0.0, np.pi / 18)
    d = 0.03
    np.testing.assert_array_equal(m.propellers[0].position, [d, -d, 0.0])
    np.testing.assert_array_equal(m.propellers[1].position, [d, d, 0.0])
    np.testing.assert_array_equal(m.propellers[2].position, [-d, d, 0.0])
    np.testing.assert_array_equal(m.propellers[3].position, [-d, -d, 0.0])
    assert [p.spin for p in m.propellers] == [1, -1, 1, -1]
    for p in m.propellers:
        np.testing.assert_array_equal(p.orientation, m.tilt)


def test_bench_module_is_balanced():
    report = check_balanced(build_r_module(0.135, 0.12, 0.06, 0.0, np.pi / 18))
    assert report.is_balanced
    assert abs(report.thrust_gain - 4.0) < 1e-12


def test_flat_module_balance_is_exact():
    report = check_balanced(build_r_module())
    assert report.is_balanced
    np.testing.assert_array_equal(report.torque_from_forces, np.zeros(3))
    np.testing.assert_array_equal(report.torque_from_drag, np.zeros(3))
    np.testing.assert_array_equal(report.total_force_axis, E3)
    assert report.thrust_gain == 4.0


def test_thirty_degree_module_orientations():
    m = build_r_module(beta=np.pi / 6)
    for p in m.propellers:
        np.testing.assert_array_equal(p.orientation, rot_y(np.pi / 6))


def test_random_shared_tilt_modules_balanced():
    rng = np.random.default_rng(11)
    for _ in range(50):
        alpha, beta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        report = check_balanced(build_r_module(alpha=alpha, beta=beta))
        assert report.is_balanced
        assert abs(report.thrust_gain - 4.0) < 1e-12
        assert np.max(np.abs(report.torque_from_forces)) < 1e-12
        assert np.max(np.abs(report.torque_from_drag)) < 1e-12


def test_perturbed_orientation_breaks_balance():
    m = build_r_module(beta=np.pi / 18)
    props = list(m.propellers)
    props[1] = dataclasses.replace(props[1], orientation=rot_x(0.2) @ props[1].orientation)
    perturbed = ModuleSpec(
        mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
        propellers=tuple(props), tilt=m.tilt,
    )
    report = check_balanced(perturbed)
    assert not report.is_balanced
    # The drag constraint is violated by construction: one axis rotated away.
    assert np.max(np.abs(report.torque_from_drag)) > 1e-3


def module_wrench(module, u):
    """Force and torque of one module for rotor thrusts ``u``: the thrust
    map of the module assembled alone, whose frame is the module's own."""
    return assemble([ModulePlacement(module)]).thrust_map @ np.asarray(u, dtype=float)


def test_module_wrench_zero_input():
    w = module_wrench(build_r_module(), np.zeros(4))
    np.testing.assert_array_equal(w, np.zeros(6))


def test_module_wrench_uniform_flat():
    w = module_wrench(build_r_module(), np.ones(4))
    np.testing.assert_allclose(w[:3], 4.0 * E3, atol=0)
    np.testing.assert_allclose(w[3:], np.zeros(3), atol=1e-15)


def test_module_wrench_alternating_pairs_spin_torque():
    # Opposite rotor pairs give the same lift but mirrored drag torque:
    # spins (+, -, +, -) so [1,0,1,0] picks +2 k_m/k_f and [0,1,0,1] -2.
    m = build_r_module()
    w13 = module_wrench(m, [1.0, 0.0, 1.0, 0.0])
    w24 = module_wrench(m, [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_allclose(w13[:3], 2.0 * E3, atol=1e-15)
    np.testing.assert_allclose(w24[:3], 2.0 * E3, atol=1e-15)
    np.testing.assert_allclose(w13[3:], [0.0, 0.0, 0.012], atol=1e-15)
    np.testing.assert_allclose(w24[3:], [0.0, 0.0, -0.012], atol=1e-15)


def test_module_wrench_linear_in_thrust():
    rng = np.random.default_rng(12)
    m = build_r_module(alpha=0.4, beta=-0.25)
    for _ in range(20):
        u1, u2 = rng.uniform(0, 0.5, size=(2, 4))
        a, b = rng.uniform(0, 1.5, size=2)
        combined = module_wrench(m, a * u1 + b * u2)
        np.testing.assert_allclose(
            combined, a * module_wrench(m, u1) + b * module_wrench(m, u2), atol=1e-12
        )


def test_module_wrench_uniform_force_along_tilt_axis():
    rng = np.random.default_rng(13)
    for _ in range(20):
        alpha, beta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        m = build_r_module(alpha=alpha, beta=beta)
        w = module_wrench(m, np.ones(4))
        assert np.linalg.norm(np.cross(w[:3], m.tilt @ E3)) < 1e-12


def test_module_spec_validation():
    m = build_r_module()
    with pytest.raises(ValueError):
        ModuleSpec(mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=m.propellers[:3], tilt=m.tilt)
    bad_spins = [dataclasses.replace(p, spin=1) for p in m.propellers]
    with pytest.raises(ValueError):
        ModuleSpec(mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=tuple(bad_spins), tilt=m.tilt)
    with pytest.raises(ValueError):
        PropellerSpec(position=np.zeros(3), orientation=np.eye(3), spin=2)
    with pytest.raises(ValueError):
        PropellerSpec(position=np.zeros(3), orientation=np.eye(3), spin=1, k_f=0.0)


@pytest.mark.parametrize("offset, mirrored", [(0.0, True), (5e-13, True), (5e-12, False),
                                               (1e-6, False)])
def test_mirrored_pairs_within_1e12(offset, mirrored):
    # p1 = -p3 and p2 = -p4 must hold to 1e-12 m in every coordinate.
    m = build_r_module()
    props = list(m.propellers)
    props[2] = dataclasses.replace(props[2], position=props[2].position + [0.0, offset, 0.0])
    make = partial(ModuleSpec, mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=tuple(props), tilt=m.tilt)
    if mirrored:
        make()
    else:
        with pytest.raises(ValueError, match="mirrored pairs"):
            make()


@pytest.mark.parametrize("field, value", [
    ("mass", float("nan")), ("mass", float("inf")), ("mass", -0.1),
    ("base", float("nan")), ("height", float("inf")),
    ("k_f", float("nan")), ("k_f", 0.0),
    ("k_m", float("nan")), ("k_m", float("inf")), ("k_m", -0.001),
    ("f_max", float("nan")), ("f_max", float("inf")), ("f_max", 0.0),
    ("height", float("nan")), ("height", -1.0),
])
def test_build_r_module_names_bad_field(field, value):
    # Each bad scalar is a ValueError naming its field, before any numpy
    # call can fail on it (LinAlgError) or warn (RuntimeWarning is an error
    # in this suite).
    with pytest.raises(ValueError, match=rf"^{field} must be (positive|non-negative) and finite"):
        build_r_module(**{field: value})


@pytest.mark.parametrize("inertia, message", [
    ([[2e-4, 1e-6, 0.0], [0.0, 2e-4, 0.0], [0.0, 0.0, 3e-4]], "^inertia tensor must be symmetric"),
    (np.diag([2e-4, -2e-4, 3e-4]), "^inertia tensor must be positive definite"),
    ([[2e-4, 3e-4, 0.0], [3e-4, 2e-4, 0.0], [0.0, 0.0, 3e-4]],
     "^inertia tensor must be positive definite"),
    (np.eye(2), r"^inertia must be a finite array of shape \(3, 3\)"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0]], r"^inertia must be a finite array of shape \(3, 3\)"),
], ids=["non_symmetric", "negative_diagonal", "indefinite", "wrong_shape", "ragged"])
def test_build_r_module_names_bad_inertia(inertia, message):
    with pytest.raises(ValueError, match=message):
        build_r_module(inertia=inertia)


_BAD_INPUTS = {"base": float("nan"), "alpha": 2.0, "beta": -2.0, "k_f": 0.0, "k_m": -1.0,
               "f_max": float("inf"), "mass": float("nan"), "height": -1.0, "inertia": np.eye(2)}


@pytest.mark.parametrize("first", list(_BAD_INPUTS))
def test_build_r_module_reports_the_first_bad_input(first):
    # With this input and every one after it bad, the error names this one:
    # base, alpha, beta, k_f, k_m, f_max, mass, height, then inertia.
    names = list(_BAD_INPUTS)
    bad = {name: _BAD_INPUTS[name] for name in names[names.index(first):]}
    with pytest.raises(ValueError, match=rf"^{first} "):
        build_r_module(**bad)


@pytest.mark.parametrize("override", [True, False], ids=["inertia_override", "cuboid_model"])
def test_build_r_module_checks_in_its_documented_order(override):
    # Every argument bad, then fixed one at a time in the order the
    # docstring gives: each error names the next argument, and with all
    # fixed the module builds. Without an inertia override the eight float
    # scalars take the kept path.
    doc = " ".join(inspect.getdoc(build_r_module).split())
    order = re.search(r"checked in the order ([\w, ]+);", doc).group(1).split(", ")
    assert order == list(_BAD_INPUTS)
    bad = {name: value for name, value in _BAD_INPUTS.items() if override or name != "inertia"}
    for name in list(bad):
        with pytest.raises(ValueError, match=rf"^{name} "):
            build_r_module(**bad)
        del bad[name]
    assert build_r_module(**bad) is build_r_module()


def build_draws(seed, count):
    """Seeded build_r_module keyword sets, all accepted and none kept (the
    scalars are numpy floats): tilts cover [-pi/2, pi/2] with both ends,
    bases 1e-300 to 1e150 (an inertia override where the cuboid model would
    underflow), zero drag and diagonal inertia overrides."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        # Each angle is an end of the range, zero, or a uniform draw.
        alpha, beta = rng.choice([-np.pi / 2, 0.0, np.pi / 2, *rng.uniform(-np.pi / 2, np.pi / 2, 3)],
                                 size=2)
        base = 10.0 ** rng.uniform(-300, 150)
        override = base < 1e-150 or i % 2 == 0
        yield dict(
            mass=10.0 ** rng.uniform(-3, 3), base=base, height=10.0 ** rng.uniform(-3, 1),
            alpha=alpha, beta=beta, k_f=10.0 ** rng.uniform(-2, 2),
            k_m=0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-4, -1), f_max=10.0 ** rng.uniform(-1, 2),
            inertia=np.diag(10.0 ** rng.uniform(-6, 2, size=3)) if override else None,
        )


def test_built_modules_pass_the_public_constructors():
    # build_r_module builds its rotors and the module through these
    # constructors; rebuilding from the fields they hold must pass them too.
    for kwargs in build_draws(14, 400):
        m = build_r_module(**kwargs)
        for p in m.propellers:
            PropellerSpec(position=p.position, orientation=p.orientation, spin=p.spin, k_f=p.k_f,
                          k_m=p.k_m, f_max=p.f_max)
            assert p.orientation.tobytes() == m.tilt.tobytes()
            assert (p.k_f, p.k_m, p.f_max) == (kwargs["k_f"], kwargs["k_m"], kwargs["f_max"])
        ModuleSpec(mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=m.propellers, tilt=m.tilt)
        assert (m.mass, m.base, m.height) == (kwargs["mass"], kwargs["base"], kwargs["height"])
        np.testing.assert_array_equal(m.tilt, rot_y(kwargs["beta"]) @ rot_x(kwargs["alpha"]))


def test_zero_drag_coefficient_accepted():
    assert build_r_module(k_m=0.0).propellers[0].drag_ratio == 0.0


@pytest.mark.parametrize("position", [
    [0.03, 0.03], [0.03, 0.03, 0.0, 0.0], [0.03, float("nan"), 0.0], [float("inf"), 0.0, 0.0],
    [[0.03], [0.03, 0.0]], "abc", [[0.03, 0.03, 0.0]],
])
def test_propeller_position_must_be_finite_3_vector(position):
    with pytest.raises(ValueError, match=r"^position must be a finite array of shape \(3,\)"):
        PropellerSpec(position=position, orientation=np.eye(3), spin=1)


def _with_inertia(module, inertia):
    return ModuleSpec(mass=module.mass, inertia=inertia, base=module.base,
                      height=module.height, propellers=module.propellers, tilt=module.tilt)


@pytest.mark.parametrize("inertia, message", [
    (np.eye(2), r"^inertia must be a finite array of shape \(3, 3\)"),
    (np.diag([1.0, float("nan"), 1.0]), r"^inertia must be a finite array"),
    (np.diag([1.0, float("inf"), 1.0]), r"^inertia must be a finite array"),
    ([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "symmetric"),
    (np.diag([1.0, 1.0, 0.0]), "positive definite"),
    (np.diag([1.0, -1.0, 1.0]), "positive definite"),
    # Positive diagonal, yet indefinite: eigenvalues 3, -1 and 1.
    ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "positive definite"),
    ([[1.0, 0.0, 0.9], [0.0, 1.0, 0.9], [0.9, 0.9, 1.0]], "positive definite"),
])
def test_module_inertia_validation(inertia, message):
    with pytest.raises(ValueError, match=message):
        _with_inertia(build_r_module(), inertia)


def test_positive_definite_rule_matches_eigenvalues():
    # numpy's Cholesky factorization accepts exactly the symmetric matrices
    # whose eigenvalues are all positive, away from the boundary.
    rng = np.random.default_rng(31)
    module = build_r_module()
    outcomes = set()
    for _ in range(400):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        evals = rng.uniform(-1.0, 1.0, size=3) * 10.0 ** rng.integers(-4, 1)
        evals[np.abs(evals) < 1e-6] = 1e-3
        inertia = q @ np.diag(evals) @ q.T
        inertia = (inertia + inertia.T) / 2.0
        definite = bool(np.all(np.linalg.eigvalsh(inertia) > 0.0))
        outcomes.add(definite)
        if definite:
            _with_inertia(module, inertia)
        else:
            with pytest.raises(ValueError, match="positive definite"):
                _with_inertia(module, inertia)
    assert outcomes == {True, False}


def _power_of_two_definite(inertia):
    """Whether the symmetric ``inertia`` is positive definite, by numpy's
    eigenvalues of it scaled by the power of two (exact) that brings its
    largest entry near 1."""
    scale = -math.frexp(float(np.abs(inertia).max()))[1]
    return bool(np.linalg.eigvalsh(np.ldexp(inertia, scale)).min() > 0.0)


def test_positive_definite_rule_holds_at_extreme_magnitudes():
    # Exactly symmetric matrices with eigenvalues of either sign between
    # 0.01 and 1 in size, scaled by 1e+-175 to 1e+-300, where products of
    # entries leave float range.
    rng = np.random.default_rng(47)
    module = build_r_module()
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        evals = rng.choice([-1.0, 1.0], size=3, p=[0.3, 0.7]) * rng.uniform(0.01, 1.0, size=3)
        lower = np.tril(q @ np.diag(evals) @ q.T)
        exponent = int(rng.integers(175, 301)) * int(rng.choice([-1, 1]))
        inertia = (lower + np.tril(lower, -1).T) * 10.0 ** exponent
        definite = _power_of_two_definite(inertia)
        outcomes[definite] += 1
        if definite:
            _with_inertia(module, inertia)
        else:
            with pytest.raises(ValueError, match="^inertia tensor must be positive definite"):
                _with_inertia(module, inertia)
    assert min(outcomes.values()) > 200


@pytest.mark.parametrize("inertia, definite", [
    # Eigenvalues -1, 1 and 3 (times 1e-200): the squared coupling underflows.
    (1e-200 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]), False),
    # Eigenvalues 0.5, 1 and 1.5 (times 1e160): the squared coupling overflows.
    (1e160 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]), True),
    # Definite, though numpy's eigenvalues of it are not all positive.
    (np.diag([1e-300, 1.0, 1e300]), True),
], ids=["indefinite_1e-200", "definite_1e160", "diag_1e-300_1e300"])
def test_positive_definite_rule_on_extreme_inertias(inertia, definite):
    if definite:
        assert build_r_module(inertia=inertia).inertia.tobytes() == inertia.tobytes()
    else:
        with pytest.raises(ValueError, match="^inertia tensor must be positive definite"):
            build_r_module(inertia=inertia)


# ---------------------------------------------------------------- module values
# build_r_module keeps each module built from Python float inputs alone and
# returns it again; modules and their balance reports are immutable values.

def _memo_corpus():
    """Seeded build_r_module keyword sets, accepted and rejected: tilts at
    and inside +-pi/2, bases 1e-300 to 1e200, NaN, inf and negative
    scalars, ints, Python and numpy floats and inertia overrides."""
    rng = np.random.default_rng(15)
    bad = [float("nan"), float("inf"), -1.0, 0.0]
    corpus = []
    for i in range(300):
        alpha, beta = rng.choice([-np.pi / 2, 0.0, np.pi / 2, *rng.uniform(-np.pi / 2, np.pi / 2, 3)],
                                 size=2)
        kwargs = dict(mass=10.0 ** rng.uniform(-3, 3), base=10.0 ** rng.uniform(-300, 200),
                      height=10.0 ** rng.uniform(-3, 1), alpha=float(alpha),
                      beta=beta if i % 3 == 0 else float(beta),
                      k_f=10.0 ** rng.uniform(-2, 2), k_m=0.0 if i % 5 == 0 else 0.006,
                      f_max=10.0 ** rng.uniform(-1, 2))
        if i % 4 == 1:  # one scalar out of range
            name = list(kwargs)[rng.integers(len(kwargs))]
            kwargs[name] = 2.0 if name in ("alpha", "beta") else bad[rng.integers(len(bad))]
        if i % 7 == 2:
            kwargs["inertia"] = np.diag(10.0 ** rng.uniform(-6, 2, size=3))
        if i % 11 == 3:
            kwargs["mass"] = int(rng.integers(1, 5))
        corpus.append(kwargs)
    return corpus


def _module_fields(module):
    """Every value a module holds, as (type, repr, bytes, dtype, write flag) records."""
    def record(value):
        if isinstance(value, np.ndarray):
            return (type(value), repr(value), value.tobytes(), value.dtype, value.flags.writeable)
        return (type(value), repr(value))
    rows = [record(getattr(module, f.name)) for f in dataclasses.fields(module)
            if f.name != "propellers"]
    for p in module.propellers:
        rows += [record(getattr(p, f.name)) for f in dataclasses.fields(p)]
    return rows


def _outcome(build, kwargs):
    try:
        return build(**kwargs)
    except ValueError as exc:
        return str(exc)


def _fresh(**kwargs):
    """The uncached build of build_r_module's arguments."""
    params = inspect.signature(build_r_module).parameters
    return module_design._build_module(*(kwargs.get(name, p.default) for name, p in params.items()))


def test_memo_returns_the_fresh_build_and_never_keeps_errors():
    accepted = rejected = kept = 0
    for kwargs in _memo_corpus():
        first, again = _outcome(build_r_module, kwargs), _outcome(build_r_module, kwargs)
        fresh = _outcome(_fresh, kwargs)
        if isinstance(fresh, str):
            rejected += 1
            assert first == again == fresh, kwargs
            continue
        accepted += 1
        # Keyed means every argument a Python float; a numpy float is not one.
        keyed = "inertia" not in kwargs and all(type(v) is float for v in kwargs.values())
        kept += keyed
        assert (first is again) == keyed, kwargs
        assert _module_fields(first) == _module_fields(fresh) == _module_fields(again), kwargs
    assert accepted > 100 and rejected > 50 and 50 < kept < accepted - 50


@pytest.mark.parametrize("name, values", [
    ("beta", (0.0, -0.0)), ("alpha", (0.0, -0.0)), ("mass", (1, 1.0, True, np.float64(1.0))),
    ("k_m", (0.0, -0.0)),
])
def test_memo_keys_on_type_and_bits(name, values):
    # Equal values of another type or sign of zero are other inputs: each
    # gets its own module, with the bits of its own fresh build. Only a
    # Python float is kept; an int, a bool or a numpy float builds anew.
    modules = [build_r_module(**{name: v}) for v in values]
    assert len({id(m) for m in modules}) == len(values)
    for value, module in zip(values, modules):
        assert _module_fields(module) == _module_fields(_fresh(**{name: value}))
        keyed = type(value) is float
        assert (build_r_module(**{name: value}) is module) == keyed


@pytest.mark.parametrize("kwargs", [
    {"inertia": np.diag([2e-4, 2e-4, 3e-4])},
    {"mass": np.array(0.135)},
    {"beta": np.float32(0.1)},
    {"mass": np.float64(0.135)},
    {"mass": 1},
], ids=["inertia_override", "zero_d_array", "float32", "float64", "int"])
def test_unkeyable_calls_build_a_new_module_each_time(kwargs):
    info = module_design._kept_module.cache_info()
    first, again = build_r_module(**kwargs), build_r_module(**kwargs)
    assert first is not again
    assert _module_fields(first) == _module_fields(again)
    assert module_design._kept_module.cache_info() == info


def test_memo_never_grows_past_its_bound():
    bound = module_design._kept_module.cache_info().maxsize
    assert bound == 256
    masses = 0.1 + 1e-3 * np.arange(bound + 40)
    for mass in masses.tolist():
        module = build_r_module(mass=mass)
        assert module_design._kept_module.cache_info().currsize <= bound
    assert build_r_module(mass=masses[-1].item()) is module


def _arrays(module):
    yield module.inertia
    yield module.tilt
    for p in module.propellers:
        yield p.position
        yield p.orientation
    report = check_balanced(module)
    yield report.torque_from_forces
    yield report.torque_from_drag
    yield report.total_force_axis


@pytest.mark.parametrize("make", [
    lambda: build_r_module(alpha=0.2, beta=-0.3),
    lambda: build_r_module(inertia=np.diag([2e-4, 2e-4, 3e-4])),
    lambda: _rebuilt(build_r_module(beta=0.3)),
], ids=["built", "inertia_override", "public_constructors"])
def test_module_and_report_arrays_are_read_only(make):
    for arr in _arrays(make()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def _rebuilt(module):
    """``module`` rebuilt through the public constructors from writable copies."""
    props = tuple(PropellerSpec(position=p.position.copy(), orientation=p.orientation.copy(),
                                spin=p.spin, k_f=p.k_f, k_m=p.k_m, f_max=p.f_max)
                  for p in module.propellers)
    return ModuleSpec(mass=module.mass, inertia=module.inertia.copy(), base=module.base,
                      height=module.height, propellers=props, tilt=module.tilt.copy())


def test_caller_arrays_are_copied():
    m = build_r_module(beta=0.3)
    position, orientation = m.propellers[0].position.copy(), m.tilt.copy()
    inertia, tilt = m.inertia.copy(), m.tilt.copy()
    prop = PropellerSpec(position=position, orientation=orientation, spin=1)
    module = ModuleSpec(mass=m.mass, inertia=inertia, base=m.base, height=m.height,
                        propellers=m.propellers, tilt=tilt)
    override = build_r_module(beta=0.3, inertia=inertia)
    report = check_balanced(module)
    assert report.is_balanced
    for arr in (position, orientation, inertia, tilt):
        arr[...] = rot_x(np.pi) if arr.shape == (3, 3) else 5.0
    np.testing.assert_array_equal(prop.position, m.propellers[0].position)
    np.testing.assert_array_equal(prop.orientation, m.tilt)
    for held in (module, override):
        np.testing.assert_array_equal(held.inertia, m.inertia)
        np.testing.assert_array_equal(held.tilt, m.tilt)
    assert check_balanced(module) is report and report.is_balanced
    assert module_design._balance_report(module).is_balanced


def test_wrench_keeps_read_only_copies_of_3_vectors():
    force = np.array([1.0, 2.0, 3.0])
    wrench = Wrench(force, [0, 0, 0])
    force[0] = 9.0
    assert wrench.force.tolist() == [1.0, 2.0, 3.0]
    assert not (wrench.force.flags.writeable or wrench.torque.flags.writeable)
    message = r"^force must be a finite array of shape \(3,\), got \[1, 2\]$"
    with pytest.raises(ValueError, match=message):
        Wrench([1, 2], [0, 0, 0])


def test_balance_report_is_computed_once_per_module():
    # A module keeps its report; every later call returns it, and it holds
    # the values of a fresh one.
    m = build_r_module(alpha=0.1, beta=0.4)
    report = check_balanced(m)
    assert check_balanced(m) is report
    fresh = module_design._balance_report(m)
    assert fresh is not report
    for f in dataclasses.fields(fresh):
        np.testing.assert_array_equal(getattr(report, f.name), getattr(fresh, f.name))


def test_check_balanced_takes_only_the_module():
    # The report is at the one fixed tolerance 1e-9, so there is nothing to set.
    assert list(inspect.signature(check_balanced).parameters) == ["module"]
    with pytest.raises(TypeError):
        check_balanced(build_r_module(), 1e-6)


@pytest.mark.filterwarnings("error")
def test_moments_past_float_range_are_infinite_residuals():
    # Rotors near the float limit: their moments overflow to inf without a
    # warning, and the module reports itself unbalanced.
    tilt, d = rot_y(0.7), 1.5e308
    props = [PropellerSpec(position=(x, y, 0.0), orientation=tilt, spin=spin)
             for x, y, spin in ((d, -d, 1), (d, d, -1), (-d, d, 1), (-d, -d, -1))]
    module = ModuleSpec(mass=1.0, inertia=np.eye(3), base=1.0, height=1.0, propellers=props,
                        tilt=tilt)
    report = check_balanced(module)
    assert report.torque_from_forces.tolist() == [0.0, -np.inf, 0.0]
    assert report.thrust_gain == 4.0 and not report.is_balanced


def test_replaced_module_gets_its_own_report():
    m = build_r_module(beta=np.pi / 18)
    assert check_balanced(m).is_balanced
    flipped = dataclasses.replace(m, tilt=rot_x(np.pi) @ m.tilt)
    assert not check_balanced(flipped).is_balanced
    assert check_balanced(m).is_balanced
