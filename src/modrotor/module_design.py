"""Quadrotor module construction and hover-balance analysis.

A module is a cuboid-framed quadrotor whose four propellers sit in a square
on the body xy-plane but may be tilted away from vertical. A module is
balanced when identical thrust on all four rotors produces zero net torque
and a net force along the module's declared thrust axis, so it can hover
without rotating. Modules whose rotors all share one tilt rotation are
balanced by construction and are the building block used everywhere else.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lazy import NON_NEGATIVE, POSITIVE, SPIN, TILT, checked, finite_array, rotation, shown
from .so3 import E3, rot_x, rot_y


@dataclass(frozen=True, eq=False)
class Wrench:
    """Force (N) and torque (N*m) pair, expressed in one frame: each a
    finite 3-vector, kept as a read-only copy."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        for name in ("force", "torque"):
            object.__setattr__(self, name, finite_array(name, getattr(self, name), (3,)))


@dataclass(frozen=True, eq=False)
class PropellerSpec:
    """One rotor of a module.

    position: rotor location in the module frame, m
    orientation: rotor frame in the module frame; thrust acts along its z-axis
    spin: +1 or -1, sign of the drag torque about the thrust axis
    k_f / k_m: thrust and drag coefficients; only the ratio k_m/k_f enters
        the torque model
    f_max: thrust ceiling, N

    ``position`` must be a finite 3-vector and ``orientation`` a rotation;
    ``spin`` is kept as the int 1 or -1; ``k_f`` and ``f_max`` must be
    positive and ``k_m`` non-negative, all finite. A bad field raises
    ValueError naming it. Both arrays are kept as read-only copies.
    """

    position: np.ndarray
    orientation: np.ndarray
    spin: int
    k_f: float = 1.0
    k_m: float = 0.006
    f_max: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "position", finite_array("position", self.position, (3,)))
        object.__setattr__(self, "orientation", rotation("orientation", self.orientation))
        spin = checked("spin", self.spin, SPIN)
        if spin not in (1.0, -1.0):
            raise ValueError(f"spin must be +1 or -1, got {shown(self.spin)}")
        object.__setattr__(self, "spin", int(spin))
        for name, bound in (("k_f", POSITIVE), ("k_m", NON_NEGATIVE), ("f_max", POSITIVE)):
            object.__setattr__(self, name, checked(name, getattr(self, name), bound))

    @property
    def drag_ratio(self) -> float:
        """Torque per unit thrust about the rotor axis, m."""
        return self.k_m / self.k_f


@dataclass(frozen=True, eq=False)
class ModuleSpec:
    """A cuboid quadrotor module.

    The four propellers are numbered counterclockwise starting front-right,
    with opposite rotors mirrored through the center (p1 = -p3, p2 = -p4,
    each coordinate within 1e-12 m) and alternating spin signs. ``tilt`` is
    the declared common rotor rotation whose z-column is the design thrust
    axis. ``mass``, ``base`` and ``height`` must be positive and finite.
    ``inertia`` must be a finite 3x3 matrix, symmetric within 1e-12 in the
    Frobenius norm of I - I^T, and positive definite: every pivot of the
    LDL^T factorisation of its lower triangle must be positive (Sylvester's
    criterion, tested without forming the determinants). The checks run on
    floats; each failure is a ValueError naming the field.

    A module is an immutable value: ``inertia``, ``tilt`` and the
    propellers' arrays are read-only copies, so neither a write nor a
    caller's array can change it. So :func:`build_r_module`, which builds
    every module through this constructor, may hand one module to every
    caller, and its rotor table ``_rotors`` and balance report ``_balance``
    are cached properties, built once and not fields, so
    ``dataclasses.replace`` gives a module without them.
    """

    mass: float
    inertia: np.ndarray
    base: float
    height: float
    propellers: tuple[PropellerSpec, ...]
    tilt: np.ndarray

    def __post_init__(self):
        for name in ("mass", "base", "height"):
            object.__setattr__(self, name, checked(name, getattr(self, name), POSITIVE))
        inertia = finite_array("inertia", self.inertia, (3, 3))
        (i0, i1, i2), (i3, i4, i5), (i6, i7, i8) = inertia.tolist()
        if math.hypot(i1 - i3, i1 - i3, i2 - i6, i2 - i6, i5 - i7, i5 - i7) >= 1e-12:
            raise ValueError("inertia tensor must be symmetric")
        if not _ldl_pivots_positive(i0, i3, i4, i6, i7, i8):
            raise ValueError("inertia tensor must be positive definite")
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "tilt", rotation("tilt", self.tilt))
        props = tuple(self.propellers)
        object.__setattr__(self, "propellers", props)
        if len(props) != 4:
            raise ValueError(f"a module needs exactly 4 propellers, got {len(props)}")
        p1, p2, p3, p4 = (p.position.tolist() for p in props)
        if not all(abs(a + b) <= 1e-12 for a, b in zip(p1 + p2, p3 + p4, strict=True)):
            raise ValueError("propellers must sit in mirrored pairs: p1 = -p3, p2 = -p4")
        if [p.spin for p in props] != [1, -1, 1, -1]:
            raise ValueError("propeller spins must alternate +1, -1, +1, -1")

    @cached_property
    def _rotors(self) -> np.ndarray:
        """Read-only 4 x 9 table, a row per rotor: position (columns 0-2) and
        thrust axis (3-5) in the module frame, spin, k_m / k_f and f_max."""
        props = self.propellers
        axes = (np.array([p.orientation for p in props]) @ E3).tolist()
        table = np.array([[*p.position.tolist(), *axis, p.spin, p.drag_ratio, p.f_max]
                          for p, axis in zip(props, axes)])
        table.setflags(write=False)
        return table

    @cached_property
    def _balance(self) -> BalanceReport:
        """:func:`check_balanced`'s report."""
        return _balance_report(self)


def _ldl_pivots_positive(i0, i3, i4, i6, i7, i8) -> bool:
    """True when the three pivots of the LDL^T factorisation of the
    symmetric matrix with lower triangle (i0; i3, i4; i6, i7, i8) are all
    positive, which is when that matrix is positive definite."""
    if not i0 > 0.0:
        return False
    l3, l6 = i3 / i0, i6 / i0
    d4 = i4 - l3 * i3
    if not d4 > 0.0:
        return False
    l7 = i7 - l6 * i3
    return i8 - l6 * i6 - l7 * l7 / d4 > 0.0


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Residuals of the hover-balance constraints under unit thrust.

    torque_from_forces: net moment of the four unit thrusts, N*m
    torque_from_drag: spin-weighted sum of the four thrust axes (the drag
        torque up to the k_m/k_f factor)
    total_force_axis: unit direction of the summed thrust, zero if degenerate
    thrust_gain: magnitude of the summed thrust vector (4 for a shared-tilt module)

    The arrays of a report from :func:`check_balanced` are read-only.
    """

    torque_from_forces: np.ndarray
    torque_from_drag: np.ndarray
    total_force_axis: np.ndarray
    thrust_gain: float
    is_balanced: bool


# check_balanced's tolerance on every residual.
_TOL = 1e-9


def build_r_module(
    mass: float = 0.135,
    base: float = 0.12,
    height: float = 0.06,
    alpha: float = 0.0,
    beta: float = 0.0,
    k_f: float = 1.0,
    k_m: float = 0.006,
    f_max: float = 2.0,
    inertia: np.ndarray | None = None,
) -> ModuleSpec:
    """Build a module whose four rotors share the tilt (alpha, beta).

    Rotors sit at the corners of a square with half-diagonal base/4, numbered
    counterclockwise from front-right, all with the same orientation. Inertia
    defaults to the solid-cuboid model but can be overridden.

    The inputs are checked in the order base, alpha, beta, k_f, k_m, f_max,
    mass, height, inertia; the first bad one raises a ValueError naming
    it. The rotors and the module are built through the public
    ``PropellerSpec`` and ``ModuleSpec`` constructors and their checks.

    The module is an immutable value, so the same inputs return the same
    object: without an ``inertia`` override, and with every other argument
    a Python float, the module is kept under the arguments' exact bits (so
    0.0 and -0.0 are different inputs) and later calls return it; the 256
    most recently used are kept. Any other call (np.float64, int, 0-d
    array or float32 arguments among them) builds a new module, and a call
    that raises is never kept, so a bad input raises the same error on
    every call.
    """
    scalars = (mass, base, height, alpha, beta, k_f, k_m, f_max)
    if inertia is None and {*map(type, scalars)} == {float}:
        return _kept_module(struct.pack("<8d", *scalars))
    return _build_module(*scalars, inertia)


@lru_cache(maxsize=256)
def _kept_module(key: bytes) -> ModuleSpec:
    """The module of :func:`build_r_module`'s eight float arguments, packed
    bit for bit in ``key``."""
    return _build_module(*struct.unpack("<8d", key))


def _build_module(mass, base, height, alpha, beta, k_f, k_m, f_max, inertia=None) -> ModuleSpec:
    """A new module from :func:`build_r_module`'s arguments, checked in its
    order: the constructors check all but the inputs they are built from."""
    base = checked("base", base, POSITIVE)  # first: the rotor positions are built from it
    d = base / 4.0
    # Roll tilt, then pitch tilt; both within [-pi/2, pi/2], so the thrust
    # axis never points below the rotor plane.
    alpha, beta = checked("alpha", alpha, TILT), checked("beta", beta, TILT)
    orientation = rot_y(beta) @ rot_x(alpha)
    props = tuple(PropellerSpec(position=(x, y, 0.0), orientation=orientation, spin=spin,
                                k_f=k_f, k_m=k_m, f_max=f_max)
                  for x, y, spin in ((d, -d, 1), (d, d, -1), (-d, d, 1), (-d, -d, -1)))
    mass, height = checked("mass", mass, POSITIVE), checked("height", height, POSITIVE)
    if inertia is None:
        # Solid cuboid with a square base, about its center. Products, not
        # powers: a float power raises OverflowError where a product
        # overflows to inf, which ModuleSpec then rejects by name.
        ixx = mass * (base * base + height * height) / 12.0
        izz = mass * (2.0 * (base * base)) / 12.0
        inertia = np.diag([ixx, ixx, izz])
    return ModuleSpec(mass=mass, inertia=inertia, base=base, height=height, propellers=props,
                      tilt=orientation)


def check_balanced(module: ModuleSpec) -> BalanceReport:
    """Evaluate the hover-balance residuals of ``module`` under unit thrust.

    A module is balanced when both torque residuals vanish and the summed
    thrust is parallel to the declared tilt axis, each within 1e-9.
    Unbalanced modules report is_balanced=False rather than raising.

    A module is immutable, so its report is computed once and every later
    call returns it. Report arrays are read-only.
    """
    return module._balance


def _balance_report(module: ModuleSpec) -> BalanceReport:
    """A new :func:`check_balanced` report of ``module``."""
    rotors = module._rotors
    positions, axes, spins = rotors[:, :3], rotors[:, 3:6], rotors[:, 6:7]
    # A caller's module may hold positions near float range; their moments
    # overflow to inf, which is a residual like any other.
    with np.errstate(over="ignore", invalid="ignore"):
        torque_from_forces = np.cross(positions, axes).sum(axis=0)
    torque_from_drag = (spins * axes).sum(axis=0)
    force_sum = axes.sum(axis=0)
    gain = float(np.linalg.norm(force_sum))
    axis = force_sum / gain if gain > _TOL else np.zeros(3)
    target = module.tilt[:, 2]
    parallel = (
        gain > _TOL
        and np.linalg.norm(np.cross(axis, target)) < _TOL
        and axis @ target > 0.0
    )
    balanced = parallel and np.abs([torque_from_forces, torque_from_drag]).max() < _TOL
    for arr in (torque_from_forces, torque_from_drag, axis):
        arr.setflags(write=False)
    return BalanceReport(torque_from_forces=torque_from_forces, torque_from_drag=torque_from_drag,
                         total_force_axis=axis, thrust_gain=gain, is_balanced=bool(balanced))
