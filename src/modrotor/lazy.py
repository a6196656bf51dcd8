"""Instances built unchecked and the checks on caller input.

One rule covers validation: every record goes through its constructor and
its checks, except the values a per-step kernel builds from checked inputs
(the samples, the integrator's state, the step's ``Wrench``), which skip
them through :func:`unchecked`. A number goes through :func:`checked`, a
record argument through :func:`of_type`, an array through
:func:`finite_array` and a rotation through :func:`rotation`. Each returns
its value or raises one form of ValueError, "<name> must be <rule>, got
<value>", with the value shown by :func:`shown`, which never raises.
"""

from __future__ import annotations

import math
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


def unchecked(cls, **fields):
    """An instance of ``cls`` holding ``fields``, made without running
    ``__init__`` or ``__post_init__``: for the values a per-step kernel
    builds from inputs it has already checked."""
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


def of_type(name: str, value, cls):
    """``value`` if it is a ``cls``; otherwise a ValueError naming ``name``."""
    if isinstance(value, cls):
        return value
    raise ValueError(f"{name} must be a {cls.__name__}, got {shown(value)}")


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
    ``name``. The value is converted once, by :func:`float_array`, and the
    converted array is the one tested and kept."""
    arr = float_array(value)
    if not is_rotation(arr):
        raise ValueError(f"{name} must be a finite 3x3 rotation matrix, got {shown(value)}")
    arr.setflags(write=False)
    return arr


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
    """A new float array of a caller's ``values``; where numpy cannot convert
    them (text, ragged nesting, an int beyond float range), NaN in their
    shape, which :func:`finite_array`'s finiteness or shape check rejects."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return np.full(np.shape(np.array(values, dtype=object)), math.nan)


def read_only(values, shape=None) -> np.ndarray:
    """A new float array of ``values``, optionally reshaped, that cannot be
    written to, so the frozen value holding it stays as it was built.
    ``values`` are the library's own or already checked, so numpy converts
    them directly; a caller's array goes through :func:`finite_array`."""
    arr = np.array(values, dtype=float)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr

