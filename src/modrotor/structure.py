"""Rigid assembly of modules and its actuation geometry.

Modules dock side by side on a square grid of pitch equal to the module
base length, optionally yawed by quarter turns. The assembled body is
described by a 6 x 4n map from rotor thrusts to body force and torque about
the center of mass. The top three rows (the force block) determine how many
translational directions the thrusts can span; its singular value
decomposition defines the thrust-aligned reference frame used by the
controllers, with the z-axis along the strongest force direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssemblyError
from .lazy import QUARTERS, checked, finite_array, shown
from .module_design import ModuleSpec
from .so3 import E1, E2, E3, cross3, rot_z

# Relative singular-value cutoff for rank decisions and for grouping tied
# singular values when choosing the thrust frame.
_RANK_TOL = 1e-9
# rot_z of 0, 1, 2 and 3 quarter turns, indexed by ModulePlacement.yaw_quarter_turns.
_QUARTER_TURNS = np.array([rot_z(k * np.pi / 2.0) for k in range(4)])


@dataclass(frozen=True, eq=False)
class ModulePlacement:
    """One module on the assembly grid.

    grid_offset: integer (col, row) cell, scaled by the base length into m
    yaw_quarter_turns: module yaw in the grid frame, multiples of 90 degrees

    Both are kept as ints, so 1.0 or True is taken as 1.
    """

    module: ModuleSpec
    grid_offset: tuple[int, int] = (0, 0)
    yaw_quarter_turns: int = 0

    def __post_init__(self):
        try:  # NaN and inf fail isfinite before int() would raise on them
            col, row = self.grid_offset
            whole = math.isfinite(col) and math.isfinite(row) and int(col) == col and int(row) == row
        except (TypeError, ValueError, OverflowError):  # not a pair of numbers within float range
            whole = False
        if not whole:
            raise ValueError("grid_offset entries must be finite integers, "
                             f"got {shown(self.grid_offset)}")
        object.__setattr__(self, "grid_offset", (int(col), int(row)))
        turns = checked("yaw_quarter_turns", self.yaw_quarter_turns, QUARTERS)
        if turns not in (0.0, 1.0, 2.0, 3.0):
            raise ValueError("yaw_quarter_turns must be 0, 1, 2 or 3, "
                             f"got {shown(self.yaw_quarter_turns)}")
        object.__setattr__(self, "yaw_quarter_turns", int(turns))


@dataclass(frozen=True, eq=False)
class StructureModel:
    """Assembled rigid body and its precomputed actuation data.

    The structure frame {S} sits at the center of mass with axes parallel to
    the first module's axes. ``thrust_map`` is the 6 x 4n map from rotor
    thrusts to body wrench, with propeller positions taken relative to the
    center of mass; ``force_map`` and ``torque_map`` are views of its top
    and bottom row blocks. ``r_sf`` rotates the thrust frame into {S};
    ``force_sigmas`` holds the singular values of the force block in
    descending order. ``rank_f``, ``force_sigmas``, ``r_sf`` and
    :func:`actuation_ellipsoid` all read the force block's one full SVD.
    """

    placements: tuple[ModulePlacement, ...]
    total_mass: float
    inertia: np.ndarray
    thrust_map: np.ndarray
    rank_f: int
    r_sf: np.ndarray
    force_sigmas: np.ndarray
    f_max: np.ndarray
    inertia_inv: np.ndarray
    # Left singular vectors of the force block, read by actuation_ellipsoid.
    _force_axes: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.placements)

    @cached_property
    def _rigid_body(self) -> tuple:
        """Total mass, inertia and its inverse (row-major float tuples), as
        every control and dynamics step reads them; converted once."""
        return (float(self.total_mass), tuple(self.inertia.ravel().tolist()),
                tuple(self.inertia_inv.ravel().tolist()))

    @property
    def force_map(self) -> np.ndarray:
        return self.thrust_map[:3]

    @property
    def torque_map(self) -> np.ndarray:
        return self.thrust_map[3:]


def numerical_rank(m: np.ndarray) -> int:
    """Count singular values above _RANK_TOL times the largest one.

    A zero matrix has rank 0, which flags a degenerate design upstream.
    ``m`` must be a finite 2-D array.
    """
    return _rank_of(np.linalg.svd(finite_array("m", m, (None, None)), compute_uv=False))


def _rank_of(s: np.ndarray) -> int:
    """numerical_rank of a matrix from its singular values ``s``, descending."""
    values = s.tolist()
    if not values or values[0] == 0.0:
        return 0
    cutoff = _RANK_TOL * values[0]
    return sum(x > cutoff for x in values)


def _unit_in(block: np.ndarray, preferred, signs, drop: np.ndarray | None = None) -> np.ndarray:
    """Unit vector in the span of the orthonormal ``block`` columns, less
    the unit axis ``drop``, nearest the first usable ``preferred``
    direction; a single column is taken as it is. Signed toward the first
    direction in ``signs`` that it is not orthogonal to."""
    vec = block[:, 0]
    if block.shape[1] > 1:
        for target in preferred:
            proj = block @ (block.T @ target)
            if drop is not None:
                proj = proj - drop * (drop @ proj)
            norm = np.linalg.norm(proj)
            if norm > 1e-9:
                vec = proj / norm
                break
    for target in signs:
        dot = float(vec @ target)
        if abs(dot) > 1e-12:
            return vec if dot >= 0.0 else -vec
    return vec


def _thrust_frame(force_map: np.ndarray, rank: int, svd: tuple) -> np.ndarray:
    """Rotation from the thrust frame to {S}, from ``svd``, the ``(u, s)``
    of ``np.linalg.svd(force_map)``.

    One rule at every rank, ties included; singular values within
    _RANK_TOL of a group's first one form a tied group, counted over all
    three. z is the unit vector in the top group's left singular directions
    nearest the body z-axis, else the total thrust under uniform input,
    else the body x-axis, and is signed toward that thrust. x is the unit
    vector nearest the body x-, y-, then z-axis in the rest of the top
    group, or in the next group when the top value is untied (at rank 1,
    the null space), signed toward the first of those axes it is not
    orthogonal to. A group of one direction is taken as it is. At rank 1
    every rotor must push along +z.
    """
    if rank == 0:
        raise AssemblyError("force map is zero; structure cannot produce thrust")
    u, s = svd
    # Tied groups are prefixes of the descending values, so counts name them.
    values = s.tolist()
    gap = _RANK_TOL * values[0]
    top = sum(values[0] - x <= gap for x in values)
    uniform_thrust = force_map @ np.ones(force_map.shape[1])
    z_axis = _unit_in(u[:, list(range(top))], [E3, uniform_thrust, E1], [uniform_thrust, E3, E1])
    if rank == 1:
        along = z_axis @ force_map
        if np.any(along < 0.0):
            raise AssemblyError(
                "rank-1 structure with mismatched rotor force axes; "
                f"most negative thrust along the common axis {along.min():.3e}"
            )
    group = range(top) if top > 1 else range(1, 1 + sum(values[1] - x <= gap for x in values[1:]))
    x_axis = _unit_in(u[:, list(group)], [E1, E2, E3], [E1, E2, E3], z_axis if top > 1 else None)
    x_axis = x_axis - z_axis * (z_axis @ x_axis)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.array(cross3(z_axis.tolist(), x_axis.tolist()))
    return np.column_stack([x_axis, y_axis, z_axis])


def assemble(placements) -> StructureModel:
    """Assemble placed modules into a rigid structure model.

    Computes the mass-weighted center, total inertia with parallel-axis
    terms, the 6 x 4n thrust map about the center of mass, the numerical
    rank of its force block, and the thrust frame rotation. Each product
    is one stacked pass over all modules: the module inertias, the 4n rotor
    positions and the 4n rotor axes are rotated by one batched ``matmul``
    each, and the torque columns p x a take numpy's cross-product arithmetic
    on whole rows. Two SVDs: the torque block's singular values (its rank
    must be 3) and the force block's full SVD, the one source of
    ``force_sigmas``, ``rank_f``, the thrust frame and
    :func:`actuation_ellipsoid`. Every output has the bits of the
    per-module loop it replaces. A total mass that overflows, or a total
    inertia that does, as for modules placed far apart, raises
    AssemblyError before the rank tests.
    """
    placements = tuple(placements)
    if not placements:
        raise AssemblyError("a structure needs at least one module")
    base = placements[0].module.base
    height = placements[0].module.height
    seen: dict[tuple[int, int], int] = {}
    for idx, pl in enumerate(placements):
        if pl.module.base != base or pl.module.height != height:
            raise AssemblyError(f"module {idx + 1} has frame {pl.module.base} x "
                                f"{pl.module.height}, expected {base} x {height}")
        cell = pl.grid_offset
        if cell in seen:
            raise AssemblyError(f"modules {seen[cell] + 1} and {idx + 1} both occupy grid "
                                f"cell {cell}")
        seen[cell] = idx

    masses = np.array([pl.module.mass for pl in placements])
    with np.errstate(over="ignore"):
        total_mass = float(masses.sum())
    if not math.isfinite(total_mass):
        raise AssemblyError("structure total mass is not finite; module masses too large")
    grid_pos = np.array([[pl.grid_offset[0] * base, pl.grid_offset[1] * base, 0.0] for pl in placements])
    # The structure frame is the first module's frame; rotate grid data into it.
    r_grid_to_s = _QUARTER_TURNS[placements[0].yaw_quarter_turns].T
    rotations = r_grid_to_s @ _QUARTER_TURNS[[pl.yaw_quarter_turns for pl in placements]]
    rotations_t = rotations.transpose(0, 2, 1)

    # Inertia: rotated module tensors plus the parallel-axis terms
    # m (|d|^2 I - d d^T), with |d|^2 as a stacked dot product, summed over
    # the modules in order. Far-apart modules overflow it; that is checked
    # here, before the rank tests could blame the geometry.
    inertias = np.array([pl.module.inertia for pl in placements])
    with np.errstate(over="ignore", invalid="ignore"):
        com = masses @ grid_pos / total_mass
        offsets = (grid_pos - com) @ r_grid_to_s.T
        dd = offsets[:, None, :] @ offsets[:, :, None]
        outer = offsets[:, :, None] * offsets[:, None, :]
        terms = masses[:, None, None] * (dd * np.eye(3) - outer)
        inertia = (rotations @ inertias @ rotations_t + terms).sum(axis=0)
    if not np.all(np.isfinite(inertia)):
        raise AssemblyError("structure inertia is not finite; grid offsets or inertias too large")

    # Rotor geometry: positions and axes of all 4n rotors in {S}, one stacked
    # product each; columns are rotors, rows coordinates.
    props = [p for pl in placements for p in pl.module.propellers]
    n = len(placements)
    local_pos = np.array([p.position for p in props]).reshape(n, 4, 3)
    local_axes = (np.array([p.orientation for p in props]) @ E3).reshape(n, 4, 3)
    px, py, pz = (local_pos @ rotations_t + offsets[:, None, :]).reshape(-1, 3).T
    a = np.empty((6, len(props)))
    a[:3] = (local_axes @ rotations_t).reshape(-1, 3).T
    ax, ay, az = a[:3]
    drag = np.array([p.spin * p.drag_ratio for p in props])
    # p x a + drag a, with the float cross product of np.cross.
    a[3] = py * az - pz * ay + drag * ax
    a[4] = pz * ax - px * az + drag * ay
    a[5] = px * ay - py * ax + drag * az
    f_max = np.array([p.f_max for p in props])

    if _rank_of(np.linalg.svd(a[3:], compute_uv=False)) != 3:
        raise AssemblyError("torque block is rank-deficient; module geometry is degenerate")

    u, sigmas, _ = np.linalg.svd(a[:3])
    rank_f = _rank_of(sigmas)
    r_sf = _thrust_frame(a[:3], rank_f, (u, sigmas))

    inertia_inv = np.linalg.inv(inertia)
    for arr in (a, f_max, inertia, sigmas, r_sf, inertia_inv, u):
        arr.setflags(write=False)
    return StructureModel(
        placements=placements,
        total_mass=total_mass,
        inertia=inertia,
        thrust_map=a,
        rank_f=rank_f,
        r_sf=r_sf,
        force_sigmas=sigmas,
        f_max=f_max,
        inertia_inv=inertia_inv,
        _force_axes=u,
    )


def actuation_ellipsoid(structure: StructureModel) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and axes of the force block.

    Returns (sigmas, axes) with sigmas descending and axes as columns, sign
    normalized so each axis's largest component is positive. The image of
    the unit thrust ball under the force map is the ellipsoid with semi-axis
    sigmas[i] along axes[:, i]. Both come from the force block's full SVD,
    which :func:`assemble` took once; this call makes none of its own.
    """
    s, u = structure.force_sigmas.copy(), structure._force_axes.copy()
    for i in range(3):
        lead = np.argmax(np.abs(u[:, i]))
        if u[lead, i] < 0.0:
            u[:, i] = -u[:, i]
    return s, u


# cos and sin of the polygon's 128 angles, evenly spaced from 0, as columns.
_COS, _SIN = (f(np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False))[:, None]
              for f in (np.cos, np.sin))


def ellipsoid_xz_polygon(structure: StructureModel) -> np.ndarray:
    """Boundary polygon of the force ellipsoid's shadow on the body xz-plane.

    Returns a (128, 2) array of (x, z) pairs tracing the projected ellipse
    once.
    """
    gram = structure.force_map @ structure.force_map.T
    evals, evecs = np.linalg.eigh(gram[::2, ::2])
    radii = np.sqrt(np.clip(evals, 0.0, None))
    return _COS * (radii[1] * evecs[:, 1]) + _SIN * (radii[0] * evecs[:, 0])
