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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError
from .module_design import ModuleSpec
from .so3 import E1, E2, E3, rot_z

# Relative singular-value cutoff for rank decisions and for grouping tied
# singular values when choosing the thrust frame.
_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ModulePlacement:
    """One module on the assembly grid.

    grid_offset: integer (col, row) cell, scaled by the base length into m
    yaw_quarter_turns: module yaw in the grid frame, multiples of 90 degrees
    """

    module: ModuleSpec
    grid_offset: tuple[int, int] = (0, 0)
    yaw_quarter_turns: int = 0

    def __post_init__(self):
        col, row = self.grid_offset
        if int(col) != col or int(row) != row:
            raise ValueError("grid_offset entries must be integers")
        object.__setattr__(self, "grid_offset", (int(col), int(row)))
        if self.yaw_quarter_turns not in (0, 1, 2, 3):
            raise ValueError("yaw_quarter_turns must be 0, 1, 2 or 3")


@dataclass(frozen=True, eq=False)
class StructureModel:
    """Assembled rigid body and its precomputed actuation data.

    The structure frame {S} sits at the center of mass with axes parallel to
    the first module's axes. ``thrust_map`` is the 6 x 4n map from rotor
    thrusts to body wrench, with propeller positions taken relative to the
    center of mass; ``force_map`` and ``torque_map`` are views of its top
    and bottom row blocks. ``r_sf`` rotates the thrust frame into {S};
    ``force_sigmas`` holds the singular values of the force block in
    descending order.
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
    """
    m = np.asarray(m, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_TOL * s[0]))


def _singular_clusters(s: np.ndarray, rank: int) -> list[list[int]]:
    """Group the first ``rank`` singular values that are equal within _RANK_TOL."""
    gap = _RANK_TOL * s[0]
    clusters: list[list[int]] = [[0]]
    for i in range(1, rank):
        if s[clusters[-1][0]] - s[i] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _pick_in_subspace(basis: np.ndarray, preferred: list[np.ndarray]) -> np.ndarray:
    """Unit vector in the span of ``basis`` columns closest to the first
    usable preferred direction; falls back to the first basis vector."""
    for target in preferred:
        proj = basis @ (basis.T @ target)
        norm = np.linalg.norm(proj)
        if norm > 1e-9:
            return proj / norm
    return basis[:, 0]


def _orient_sign(vec: np.ndarray, preferred: list[np.ndarray]) -> np.ndarray:
    """Flip ``vec`` so its projection on the first non-orthogonal preferred
    direction is non-negative."""
    for target in preferred:
        dot = float(vec @ target)
        if abs(dot) > 1e-12:
            return vec if dot >= 0.0 else -vec
    return vec


def _thrust_frame(force_map: np.ndarray, rank: int, first_rotor_rotation: np.ndarray) -> np.ndarray:
    """Rotation from the thrust frame to {S}.

    Rank 1: every rotor pushes along one axis, so the frame is the shared
    rotor rotation of the first module (all force axes must agree). Rank 2
    or 3: the z-axis is the left singular direction of the largest singular
    value and the x-axis the next one. Ties within _RANK_TOL are resolved by
    picking, inside the tied subspace, the direction closest to the body
    z-axis (for z) or x-axis (for x). Signs align z with the total thrust
    under uniform input and x with the body x-axis where possible.
    """
    if rank == 0:
        raise AssemblyError("force map is zero; structure cannot produce thrust")
    if rank == 1:
        cols = force_map / np.linalg.norm(force_map, axis=0, keepdims=True)
        spread = np.max(np.abs(cols - cols[:, [0]]))
        if spread > 1e-8:
            raise AssemblyError(
                "rank-1 structure with mismatched rotor force axes; "
                f"largest deviation {spread:.3e}"
            )
        frame = np.array(first_rotor_rotation, dtype=float)
        if np.linalg.norm(frame @ E3 - cols[:, 0]) > 1e-8:
            raise AssemblyError("first module rotor rotation disagrees with the common force axis")
        return frame

    u, s, _ = np.linalg.svd(force_map)
    clusters = _singular_clusters(s, rank)
    uniform_thrust = force_map @ np.ones(force_map.shape[1])

    top = u[:, clusters[0]]
    if top.shape[1] == 1:
        z_axis = _orient_sign(top[:, 0], [uniform_thrust, E3, E1])
    else:
        z_axis = _pick_in_subspace(top, [E3, uniform_thrust])
        z_axis = _orient_sign(z_axis, [uniform_thrust, E3, E1])

    # Directions still available for the x-axis: the remainder of the top
    # cluster, then the next cluster down.
    if top.shape[1] > 1:
        residual = top - np.outer(z_axis, z_axis @ top)
        q, r = np.linalg.qr(residual)
        keep = np.abs(np.diag(r)) > 1e-9
        x_basis = q[:, keep]
    elif len(clusters) > 1:
        x_basis = u[:, clusters[1]]
    else:
        raise AssemblyError("no second force direction available for the thrust frame")

    if x_basis.shape[1] == 1:
        x_axis = _orient_sign(x_basis[:, 0], [E1, E2, E3])
    else:
        x_axis = _pick_in_subspace(x_basis, [E1, E2, E3])
        x_axis = _orient_sign(x_axis, [E1, E2, E3])
    x_axis = x_axis - z_axis * (z_axis @ x_axis)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    return np.column_stack([x_axis, y_axis, z_axis])


def assemble(placements) -> StructureModel:
    """Assemble placed modules into a rigid structure model.

    Computes the mass-weighted center, total inertia with parallel-axis
    terms, the 6 x 4n thrust map about the center of mass, the numerical
    rank of its force block, and the thrust frame rotation.
    """
    placements = tuple(placements)
    if not placements:
        raise AssemblyError("a structure needs at least one module")
    base = placements[0].module.base
    height = placements[0].module.height
    seen: dict[tuple[int, int], int] = {}
    for idx, pl in enumerate(placements):
        if pl.module.base != base or pl.module.height != height:
            raise AssemblyError(
                f"module {idx + 1} has frame {pl.module.base} x {pl.module.height}, "
                f"expected {base} x {height}"
            )
        cell = pl.grid_offset
        if cell in seen:
            raise AssemblyError(
                f"modules {seen[cell] + 1} and {idx + 1} both occupy grid cell {cell}"
            )
        seen[cell] = idx

    masses = np.array([pl.module.mass for pl in placements])
    total_mass = float(masses.sum())
    grid_pos = np.array([[pl.grid_offset[0] * base, pl.grid_offset[1] * base, 0.0] for pl in placements])
    com = masses @ grid_pos / total_mass

    # The structure frame is the first module's frame; rotate grid data into it.
    r_grid_to_s = rot_z(placements[0].yaw_quarter_turns * np.pi / 2.0).T
    offsets = (grid_pos - com) @ r_grid_to_s.T
    rotations = np.array(
        [r_grid_to_s @ rot_z(pl.yaw_quarter_turns * np.pi / 2.0) for pl in placements]
    )

    n = len(placements)
    a = np.zeros((6, 4 * n))
    f_max = np.zeros(4 * n)
    inertia = np.zeros((3, 3))
    for i, pl in enumerate(placements):
        r_m = rotations[i]
        d = offsets[i]
        inertia += r_m @ pl.module.inertia @ r_m.T + pl.module.mass * (
            (d @ d) * np.eye(3) - np.outer(d, d)
        )
        for j, prop in enumerate(pl.module.propellers):
            k = 4 * i + j
            p = d + r_m @ prop.position
            axis = r_m @ prop.axis
            a[:3, k] = axis
            a[3:, k] = np.cross(p, axis) + prop.spin * prop.drag_ratio * axis
            f_max[k] = prop.f_max

    if numerical_rank(a[3:]) != 3:
        raise AssemblyError("torque block is rank-deficient; module geometry is degenerate")

    sigmas = np.linalg.svd(a[:3], compute_uv=False)
    rank_f = numerical_rank(a[:3])
    first_rotor = rotations[0] @ placements[0].module.propellers[0].orientation
    r_sf = _thrust_frame(a[:3], rank_f, first_rotor)

    inertia_inv = np.linalg.inv(inertia)
    for arr in (a, f_max, inertia, sigmas, r_sf, inertia_inv):
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
    )


def actuation_ellipsoid(structure: StructureModel) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and axes of the force block.

    Returns (sigmas, axes) with sigmas descending and axes as columns, sign
    normalized so each axis's largest component is positive. The image of
    the unit thrust ball under the force map is the ellipsoid with semi-axis
    sigmas[i] along axes[:, i].
    """
    u, s, _ = np.linalg.svd(structure.force_map)
    for i in range(3):
        lead = np.argmax(np.abs(u[:, i]))
        if u[lead, i] < 0.0:
            u[:, i] = -u[:, i]
    return s, u


def ellipsoid_xz_polygon(structure: StructureModel, points: int = 128) -> np.ndarray:
    """Boundary polygon of the force ellipsoid's shadow on the body xz-plane.

    Returns a (points, 2) array of (x, z) pairs tracing the projected
    ellipse once.
    """
    gram = structure.force_map @ structure.force_map.T
    g2 = gram[np.ix_([0, 2], [0, 2])]
    evals, evecs = np.linalg.eigh(g2)
    evals = np.clip(evals, 0.0, None)
    phi = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    return np.outer(np.cos(phi), np.sqrt(evals[1]) * evecs[:, 1]) + np.outer(
        np.sin(phi), np.sqrt(evals[0]) * evecs[:, 0]
    )
