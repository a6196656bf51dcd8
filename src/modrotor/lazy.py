"""Dataclass fields built on first read, and instances built unchecked.

The closed loop passes states, samples and controller outputs between
layers as Python floats. Their array fields are for callers that read them,
so an instance made by a kernel may leave them out and build each one from
its floats when it is first read.

One rule covers validation: values the library builds from inputs it has
already checked skip re-validation through :func:`unchecked`; values from
callers always go through the constructor and its checks, which read
numbers through :func:`checked` and arrays through :func:`float_array`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_MAX = sys.float_info.max
# Bounds on a caller's number, (lowest, highest, wording); NaN fails all.
FINITE = (-_MAX, _MAX, "finite")
POSITIVE = (math.ulp(0.0), _MAX, "positive and finite")
NON_NEGATIVE = (0.0, _MAX, "non-negative and finite")
TILT = (-math.pi / 2.0, math.pi / 2.0, "within [-pi/2, pi/2]")


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
    got = "an int beyond float range" if isinstance(value, int) and x != x else repr(value)
    raise ValueError(f"{name} must be {bound[2]}, got {got}")


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
    arr.flags.writeable = False
    return arr
