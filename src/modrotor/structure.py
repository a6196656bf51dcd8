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
from .lazy import QUARTERS, checked, finite_array, read_only, shown, unchecked
from .module_design import ModuleSpec
from .so3 import E1, E2, E3, I3, cross3, rot_z

# Relative singular-value cutoff for rank decisions and for grouping tied
# singular values when choosing the thrust frame.
_RANK_TOL = 1e-9
# rot_z of 0, 1, 2 and 3 quarter turns, indexed by ModulePlacement.yaw_quarter_turns,
# and _TURNS[f, k] = _QUARTER_TURNS[f].T @ _QUARTER_TURNS[k]: the rotation of a
# module of k turns into the frame of a first module of f turns, by the product
# assemble took for each module. Module-level arrays are read-only.
_QUARTER_TURNS = read_only([rot_z(k * np.pi / 2.0) for k in range(4)])
_TURNS = read_only([_QUARTER_TURNS[f].T @ _QUARTER_TURNS for f in range(4)])


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
    :func:`actuation_ellipsoid` all read the force block's one SVD;
    ``inertia_inv``, read by the integrator only, is built on first read.
    """

    placements: tuple[ModulePlacement, ...]
    total_mass: float
    inertia: np.ndarray
    thrust_map: np.ndarray
    rank_f: int
    r_sf: np.ndarray
    force_sigmas: np.ndarray
    f_max: np.ndarray
    # Left singular vectors of the force block, read by actuation_ellipsoid.
    _force_axes: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.placements)

    @cached_property
    def inertia_inv(self) -> np.ndarray:
        return read_only(np.linalg.inv(self.inertia))

    @cached_property
    def _rigid_body(self) -> tuple:
        """Total mass, inertia and its inverse, as the floats every dynamics step reads."""
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
    m = finite_array("m", m, (None, None))
    s = np.linalg.svd(m, compute_uv=False)
    if s.size and not math.isfinite(s[0]):
        # The largest singular value overflowed: rank m scaled by a power of
        # two, which is exact, so that its largest entry is below 1.
        scale = -math.frexp(float(np.abs(m).max()))[1]
        s = np.linalg.svd(np.ldexp(m, scale), compute_uv=False)
    return _rank_of(s)


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
    direction in ``signs`` that it is not orthogonal to. A body axis there
    is its index, and its test reads that component, the dot product's
    value wherever |dot| > 1e-12 can hold; other directions take numpy's dot."""
    vec = block[:, 0]
    if block.shape[1] > 1:
        for target in preferred:
            proj = block @ (block.T @ target)
            if drop is not None:
                proj = proj - drop * (drop @ proj)
            norm = math.sqrt(proj.dot(proj))  # np.linalg.norm's own formula
            if norm > 1e-9:
                vec = proj / norm
                break
    entries = vec.tolist()
    for target in signs:
        dot = entries[target] if type(target) is int else float(vec @ target)
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
    every rotor must push along +z. ``rank`` is at least 1: every column is
    a rotor's unit thrust axis, the z-column of a checked rotation.
    """
    u, s = svd
    # Tied groups are prefixes of the descending values, so counts name them.
    values = s.tolist()
    gap = _RANK_TOL * values[0]
    top = sum(values[0] - x <= gap for x in values)
    uniform_thrust = force_map @ np.ones(force_map.shape[1])
    # Each group's columns are copied column-major, the layout that indexing
    # by a list of columns gives, which the products below are pinned to.
    z_axis = _unit_in(u[:, :top].copy("F"), [E3, uniform_thrust, E1], [uniform_thrust, 2, 0])
    if rank == 1:
        lowest = min((z_axis @ force_map).tolist())
        if lowest < 0.0:
            raise AssemblyError(
                "rank-1 structure with mismatched rotor force axes; "
                f"most negative thrust along the common axis {lowest:.3e}"
            )
    group = slice(top) if top > 1 else slice(1, 1 + sum(values[1] - x <= gap for x in values[1:]))
    x_axis = _unit_in(u[:, group].copy("F"), [E1, E2, E3], [0, 1, 2], z_axis if top > 1 else None)
    # x less its z part, then normalized: the two dot products stay numpy's,
    # the entrywise steps run on floats with numpy's operations in its order.
    along_z = float(z_axis @ x_axis)
    z = z_axis.tolist()
    x = np.array([xi - zi * along_z for xi, zi in zip(x_axis.tolist(), z)])
    norm = math.sqrt(x.dot(x))
    x = [xi / norm for xi in x.tolist()]
    return np.array(list(zip(x, cross3(z, x), z)))


def assemble(placements) -> StructureModel:
    """Assemble placed modules into a rigid structure model.

    Computes the mass-weighted center, total inertia with parallel-axis
    terms, the 6 x 4n thrust map about the center of mass, the numerical
    rank of its force block, and the thrust frame rotation. Each module's
    rotors come from its rotor table, ``ModuleSpec._rotors``, built once.
    Products, sums and factorizations stay numpy's, whose bits floats
    cannot reproduce: module rotations come from a table of their products,
    the inertias, rotor positions and axes are rotated by one batched
    ``matmul`` each, and the torque columns p x a take np.cross's
    arithmetic. Finiteness and sign tests run on floats. Two SVDs: the
    torque block's singular values (its rank must be 3) and the force
    block's SVD without its unused right factor, the one source of
    ``force_sigmas``, ``rank_f``, the thrust frame and
    :func:`actuation_ellipsoid`. Every output has the bits of the
    per-module loop it replaces. A total mass that overflows, or a total
    inertia that does, as for modules placed far apart, raises
    AssemblyError before the rank tests; a rank-deficient torque block, from
    degenerate geometry or a huge but finite k_m, raises it naming the
    largest k_m.
    """
    placements = tuple(placements)
    if not placements:
        raise AssemblyError("a structure needs at least one module")
    base = placements[0].module.base
    height = placements[0].module.height
    seen: dict[tuple[int, int], int] = {}
    tables = []
    for idx, pl in enumerate(placements):
        if pl.module.base != base or pl.module.height != height:
            raise AssemblyError(f"module {idx + 1} has frame {pl.module.base} x "
                                f"{pl.module.height}, expected {base} x {height}")
        cell = pl.grid_offset
        if cell in seen:
            raise AssemblyError(f"modules {seen[cell] + 1} and {idx + 1} both occupy grid "
                                f"cell {cell}")
        seen[cell] = idx
        tables.append(pl.module._rotors)

    masses = np.array([pl.module.mass for pl in placements])
    grid_pos = np.array([[pl.grid_offset[0] * base, pl.grid_offset[1] * base, 0.0] for pl in placements])
    # The structure frame is the first module's frame; rotate grid data into it.
    turns = [pl.yaw_quarter_turns for pl in placements]
    rotations = _TURNS[turns[0]].take(turns, 0)
    rotations_t = rotations.transpose(0, 2, 1)

    # Inertia: rotated module tensors plus the parallel-axis terms
    # m (|d|^2 I - d d^T), with |d|^2 as a stacked dot product, summed over
    # the modules in order. Heavy modules overflow the total mass, and
    # far-apart ones the inertia; both are checked here, before the rank
    # tests could blame the geometry.
    inertias = np.array([pl.module.inertia for pl in placements])
    with np.errstate(over="ignore", invalid="ignore"):
        total_mass = float(masses.sum())
        if not math.isfinite(total_mass):
            raise AssemblyError("structure total mass is not finite; module masses too large")
        com = masses @ grid_pos / total_mass
        offsets = (grid_pos - com) @ _QUARTER_TURNS[turns[0]]
        dd = offsets[:, None, :] @ offsets[:, :, None]
        outer = offsets[:, :, None] * offsets[:, None, :]
        terms = masses[:, None, None] * (dd * I3 - outer)
        inertia = (rotations @ inertias @ rotations_t + terms).sum(axis=0)
    if not all(map(math.isfinite, inertia.ravel().tolist())):
        raise AssemblyError("structure inertia is not finite; grid offsets or inertias too large")

    # Rotor geometry: positions p and axes of all 4n rotors in {S}, one
    # stacked product each over the modules' rotor tables, a row per rotor.
    # The torque p x a + drag a takes np.cross's arithmetic on whole columns:
    # p1 a2 - p2 a1, p2 a0 - p0 a2, p0 a1 - p1 a0.
    tables = np.array(tables)
    p = (tables[:, :, :3] @ rotations_t + offsets[:, None, :]).reshape(-1, 3)
    axes = (tables[:, :, 3:6] @ rotations_t).reshape(-1, 3)
    drag = (tables[:, :, 6] * tables[:, :, 7]).reshape(-1, 1)  # spin is +-1.0: exact
    torque = (p.take((1, 2, 0), 1) * axes.take((2, 0, 1), 1)
              - p.take((2, 0, 1), 1) * axes.take((1, 2, 0), 1) + drag * axes)
    a = np.empty((6, len(axes)))
    a[:3], a[3:] = axes.T, torque.T
    f_max = tables[:, :, 8].ravel()

    if _rank_of(np.linalg.svd(a[3:], compute_uv=False)) != 3:
        raise AssemblyError("torque block is rank-deficient; module geometry is degenerate, "
                            f"or the largest k_m ({tables[:, :, 7].max():.3e} m) "
                            "swamps the rotor arms")

    u, sigmas, _ = np.linalg.svd(a[:3], full_matrices=False)
    rank_f = _rank_of(sigmas)
    r_sf = _thrust_frame(a[:3], rank_f, (u, sigmas))

    for arr in (a, f_max, inertia, sigmas, r_sf, u):
        arr.setflags(write=False)
    return unchecked(
        StructureModel,
        placements=placements,
        total_mass=total_mass,
        inertia=inertia,
        thrust_map=a,
        rank_f=rank_f,
        r_sf=r_sf,
        force_sigmas=sigmas,
        f_max=f_max,
        _force_axes=u,
    )


def actuation_ellipsoid(structure: StructureModel) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and axes of the force block.

    Returns (sigmas, axes) with sigmas descending and axes as columns, sign
    normalized so each axis's largest component is positive. The image of
    the unit thrust ball under the force map is the ellipsoid with semi-axis
    sigmas[i] along axes[:, i]. Both come from the force block's SVD,
    which :func:`assemble` took once; this call makes none of its own. The
    sign rule runs on floats: a column's lead is its first entry of largest
    magnitude, as ``np.argmax`` picks it, and a column is flipped by
    multiplying it by -1.0, which negates every entry exactly.
    """
    u = structure._force_axes
    signs = [-1.0 if max(column, key=abs) < 0.0 else 1.0 for column in zip(*u.tolist())]
    return structure.force_sigmas.copy(), u * signs


# cos and sin of the polygon's 128 angles, evenly spaced from 0, as columns.
_COS, _SIN = (read_only(f(np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False))[:, None])
              for f in (np.cos, np.sin))


def ellipsoid_xz_polygon(structure: StructureModel) -> np.ndarray:
    """Boundary polygon of the force ellipsoid's shadow on the body xz-plane.

    Returns a (128, 2) array of (x, z) pairs tracing the projected ellipse
    once.
    """
    gram = structure.force_map @ structure.force_map.T
    evals, evecs = np.linalg.eigh(gram[::2, ::2])
    # np.sqrt(np.clip(evals, 0.0, None)) on floats; -0.0 clips to 0.0.
    r0, r1 = (math.sqrt(e) if e > 0.0 else 0.0 for e in evals.tolist())
    return _COS * (r1 * evecs[:, 1]) + _SIN * (r0 * evecs[:, 0])
