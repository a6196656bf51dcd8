"""Dataclass fields built on first read, instances built unchecked, the
checks on caller input, and the one memo rule.

The closed loop passes states, samples and controller outputs between
layers as Python floats. Their array fields are for callers that read them,
so an instance made by a kernel may leave them out and build each one from
its floats when it is first read.

One rule covers validation: values the library builds from inputs it has
already checked skip re-validation through :func:`unchecked`; values from
callers always go through the constructor and its checks. A number goes
through :func:`checked`, an array through :func:`finite_array` and a
rotation through :func:`rotation`. Each returns floats or raises one form
of ValueError, "<name> must be <rule>, got <value>", with the value shown by
:func:`shown`, which never raises. Modules and their balance reports,
built from float arguments alone, are kept by :func:`remembered`, keyed by
each argument's type and bits.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from .so3 import is_rotation

_MAX = sys.float_info.max
# Bounds on a caller's number, (lowest, highest, wording); NaN fails all.
FINITE = (-_MAX, _MAX, "finite")
POSITIVE = (math.ulp(0.0), _MAX, "positive and finite")
NON_NEGATIVE = (0.0, _MAX, "non-negative and finite")
TILT = (-math.pi / 2.0, math.pi / 2.0, "within [-pi/2, pi/2]")
SPIN = (-1.0, 1.0, "+1 or -1")  # PropellerSpec also rejects the values in between
QUARTERS = (0.0, 3.0, "0, 1, 2 or 3")  # ModulePlacement also rejects non-integers


class _LazyField:
    """Non-data descriptor: an instance that holds the field in its
    ``__dict__`` never reaches it; for one that does not, the first read
    builds the value and stores it there."""

    def __init__(self, name: str, build):
        self.name = name
        self.build = build

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


def lazy_fields(**builders):
    """Class decorator, placed above ``@dataclass``: each keyword names a
    field that instances may leave out, and the function that builds its
    value from the instance on first read. Instances made by the dataclass
    constructor hold every field and are unaffected."""

    def decorate(cls):
        for name, build in builders.items():
            setattr(cls, name, _LazyField(name, build))
        return cls

    return decorate


def unchecked(cls, **fields):
    """An instance of ``cls`` holding ``fields``, made without running
    ``__init__`` or ``__post_init__``: for values the library built from
    inputs it has already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def checked(name: str, value, bound=FINITE) -> float:
    """``value`` as a float within ``bound``; otherwise, or when ``float()``
    cannot convert it, a ValueError naming ``name``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if bound[0] <= x <= bound[1]:
        return x
    raise ValueError(f"{name} must be {bound[2]}, got {shown(value)}")


def finite_array(name: str, value, shape: tuple | None) -> np.ndarray:
    """``value`` as a new read-only float array of ``shape``, every entry
    finite; otherwise a ValueError naming ``name``. A None entry of
    ``shape`` matches any length, and a None ``shape`` any shape."""
    arr = float_array(value)
    fits = shape is None or arr.shape == shape or (
        len(arr.shape) == len(shape) and all(w in (None, h) for h, w in zip(arr.shape, shape)))
    # A few dozen entries are tested faster one by one than by a numpy call.
    if fits and (all(map(math.isfinite, arr.ravel().tolist())) if arr.size <= 32
                 else np.isfinite(arr).all()):
        arr.setflags(write=False)
        return arr
    of_shape = "" if shape is None else f" of shape {shape}"
    raise ValueError(f"{name} must be a finite array{of_shape}, got {shown(value)}")


def rotation(name: str, value) -> np.ndarray:
    """``value`` as a new read-only float 3x3 rotation matrix (see
    :func:`~modrotor.so3.is_rotation`); otherwise a ValueError naming
    ``name``."""
    if not is_rotation(value):
        raise ValueError(f"{name} must be a finite 3x3 rotation matrix, got {shown(value)}")
    return read_only(value)


def shown(value) -> str:
    """``value`` as a rejection shows it: an array as its nested list, an
    int beyond float range by that phrase, anything else by its repr. It
    never raises, so a rejection is always the ValueError that names the
    argument, not an error from printing it."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, int) and abs(value) > _MAX:
        return "an int beyond float range"
    try:
        return repr(value)
    except Exception:  # whatever repr raises, as it does for an int past the str() digit limit
        return "a value too large to print"


def float_array(values) -> np.ndarray:
    """A new float array of ``values``; where numpy cannot convert them (text,
    ragged nesting, an int beyond float range), NaN in their shape, which the
    caller's own finiteness or shape check rejects."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return np.full(np.shape(np.array(values, dtype=object)), math.nan)


def read_only(values, shape=None) -> np.ndarray:
    """A new float array of ``values`` (see :func:`float_array`), optionally
    reshaped, that cannot be written to: it shows floats its owner keeps and
    the kernels read, so a write to it would not reach them."""
    arr = float_array(values)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


# Past this many entries a memo of :func:`remembered` drops its oldest one.
MEMO_SIZE = 256
_FLOAT_TYPES = frozenset((float, np.float64))


def remembered(memo: dict, args: tuple, build):
    """``build(*args)``, kept in ``memo`` when every argument is a Python or
    numpy float, under each one's type and exact bits (so 0.0 and -0.0, or
    1.0 and np.float64(1.0), are different keys); later calls with such
    arguments return the kept value. At most MEMO_SIZE values are kept, the
    oldest dropped first. Other arguments build a new value on every call,
    and a build that raises keeps nothing. Its users are
    :func:`~modrotor.module_design.build_r_module` and
    :func:`~modrotor.module_design.check_balanced`."""
    types = tuple(map(type, args))
    if not _FLOAT_TYPES.issuperset(types):
        return build(*args)
    key = types, struct.pack(f"<{len(args)}d", *args)
    value = memo.get(key)
    if value is None:
        value = build(*args)
        while len(memo) >= MEMO_SIZE:
            memo.pop(next(iter(memo)), None)
        memo[key] = value
    return value
