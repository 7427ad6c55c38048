"""Topological degree of sphere self-maps and signed zero counting in boxes.

Two independent routes to the degree are provided: a pullback integral of
the volume form against oriented tangent frames, and signed preimage
counting at a regular value.  A separate family of helpers handles maps on
Euclidean box regions whose coordinates split into two blocks (a, b), the
b-dependent conjugation Psi(a, b) = (R_b x R_b) f(R_b a, -b), and the parity
relation between the degrees of f and Psi on reflected regions.
"""

from dataclasses import dataclass
import math
from typing import Callable, Optional

import numpy as np

from ._newton import damped_newton
from .errors import DomainError, EvaluationError, ResolutionError
from .quadrature import build_sphere_rule, sphere_volume
from .sphere_geom import _central_differences, _reflect, _tangent_retract, tangent_basis

__all__ = [
    "SphereSelfMap",
    "DegreeResult",
    "degree_integral",
    "degree_regular_value",
    "SymmetryReport",
    "reflection_symmetry_check",
    "EuclideanRegion",
    "EuclideanDegreeResult",
    "euclidean_degree",
    "block_involution",
    "reflection_conjugate",
    "involuted_region",
    "PairedDegreeReport",
    "paired_degree_check",
    "shifted_identity_example",
    "zero_free_example",
    "identity_map",
    "antipodal_map",
    "block_flip_map",
    "warped_block_flip",
    "block_rotation_map",
    "circle_doubling",
    "registry",
]


@dataclass(frozen=True)
class SphereSelfMap:
    """A self-map of the unit sphere of dimension `dim`.

    func takes points of shape (N, dim+1) with unit rows and must return
    unit rows of the same shape.  jacobian, when given, returns the ambient
    derivative (N, dim+1, dim+1) of the map along the sphere.
    """

    dim: int
    func: Callable
    jacobian: Optional[Callable] = None
    name: str = ""


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    raw: float
    distance: float
    method: str
    preimages: Optional[np.ndarray] = None
    signs: Optional[np.ndarray] = None


# Settings shared by both zero counts and the symmetry check; no caller varies them.
SPHERE_FD_STEP = 1e-5  # central-difference step along tangent frames
BOX_FD_STEP = 1e-6  # central-difference step along the box axes
RESIDUAL_TOL = 1e-10  # a Newton start has converged once |residual| <= this
DEDUPE_TOL = 1e-6  # converged points closer than this count as one zero
MIN_JACOBIAN = 1e-8  # a zero with |det| below this is not regular
BOX_GRID = 4  # grid starts per axis of a box (when grid**dim <= 256)
BOX_EXTRA_STARTS = 200  # seeded uniform starts added in every box
SYMMETRY_SAMPLES = 256
SYMMETRY_TOL = 1e-9
MIN_BLOCK = 1e-3  # symmetry samples keep both blocks at least this long


def _map_images(sphere_map, points):
    values = np.asarray(sphere_map.func(points), dtype=float)
    if values.shape != points.shape:
        raise EvaluationError(
            f"map {sphere_map.name or '<anonymous>'} returned shape {values.shape}, "
            f"expected {points.shape}"
        )
    norms = np.linalg.norm(values, axis=-1)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if not worst <= 1e-6:  # a non-finite value makes worst NaN or inf
        problem = (
            f"leaves the sphere (worst |value| deviation {worst:.3e})"
            if math.isfinite(worst)
            else "returned non-finite values"
        )
        raise EvaluationError(f"map {sphere_map.name or '<anonymous>'} {problem}")
    return values / norms[..., None]


def _tangent_images(sphere_map, points, frames):
    """Columns D(phi)u for each frame vector u, analytically or by central FD."""
    if sphere_map.jacobian is not None:
        jac = np.asarray(sphere_map.jacobian(points), dtype=float)
        return np.einsum("kij,kjd->kid", jac, frames)
    return _central_differences(
        lambda probes: _map_images(sphere_map, probes),
        points, frames, SPHERE_FD_STEP, on_sphere=True,
    )


def _pullback_dets(sphere_map, points):
    """det[phi(y), Dphi u_1, ..., Dphi u_d] over frames with det[y | u] = +1."""
    frames = tangent_basis(points)
    flip = np.linalg.det(np.concatenate([points[..., None], frames], axis=-1)) < 0.0
    frames[flip, :, -1] *= -1.0
    images = _map_images(sphere_map, points)
    tans = _tangent_images(sphere_map, points, frames)
    return np.linalg.det(np.concatenate([images[..., None], tans], axis=-1))


def _newton_roots(residual, jacobian, retract, starts, step_cap, steps):
    """Full Newton steps from every start at once; returns (points, converged mask).

    A step is the minimum-norm least-squares s = -pinv(J) r (lstsq's cutoff),
    J = jacobian(points), capped at |s| <= step_cap; retract(points, s) moves
    along it, NaN where it rejects the move.  A row converges at |residual| <=
    RESIDUAL_TOL, and stops after `steps` steps, once J is not finite, or at a
    step that does not lower |residual|.
    """

    def step(points, res, _):
        jac = jacobian(points)
        jac[~np.all(np.isfinite(jac), axis=(1, 2))] = 0.0  # a zero step: the row stops
        cutoff = max(jac.shape[1:]) * np.finfo(float).eps
        return -(np.linalg.pinv(jac, rcond=cutoff) @ res[..., None])[..., 0]

    points, size, _, _, _ = damped_newton(
        lambda rows, pts, aux: (residual(pts), aux), step, retract, starts, residual(starts),
        np.empty((len(starts), 0)), RESIDUAL_TOL, steps, step_cap, 1.0,
    )
    return points, size <= RESIDUAL_TOL


def _distinct(points):
    """Points farther than DEDUPE_TOL from every earlier kept one, in order."""
    kept = []
    for point in points:
        if all(np.linalg.norm(point - known) >= DEDUPE_TOL for known in kept):
            kept.append(point)
    return np.array(kept).reshape(-1, points.shape[1])


def _signs(dets, what):
    """Signs of the determinants at the zeros; ResolutionError if one is singular."""
    if np.any(np.abs(dets) < MIN_JACOBIAN):
        raise ResolutionError(f"{what} (min |det| = {float(np.min(np.abs(dets))):.3e})")
    return np.sign(dets).astype(int)


def degree_integral(sphere_map, rule=None, resolution=0.05):
    """Degree as the normalized pullback of the volume form.

    Integrates det[phi(y), Dphi u_1, ..., Dphi u_d] over positively oriented
    tangent frames and divides by the sphere volume; the result must land
    within `resolution` of an integer or a ResolutionError is raised.
    """
    d = sphere_map.dim
    if rule is None:
        rule = build_sphere_rule(d, 16)
    if rule.dim != d:
        raise DomainError(f"rule is for S^{rule.dim}, map lives on S^{d}")
    terms = rule.weights * _pullback_dets(sphere_map, rule.nodes)
    raw = math.fsum(terms.tolist()) / sphere_volume(d)
    nearest = float(np.rint(raw))
    distance = abs(raw - nearest)
    if distance > resolution:
        raise ResolutionError(
            f"degree integral {raw:.6f} is {distance:.3f} from the nearest integer; "
            "refine the rule or shrink the finite-difference step"
        )
    return DegreeResult(
        degree=int(nearest), raw=raw, distance=distance, method="integral"
    )


def _start_points(dim, seed, budget=200):
    rule = build_sphere_rule(dim, 12)
    nodes = rule.nodes
    if nodes.shape[0] > budget:
        stride = int(np.ceil(nodes.shape[0] / budget))
        nodes = nodes[::stride]
    rng = np.random.default_rng(seed)
    extra = rng.normal(size=(32, dim + 1))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([nodes, extra], axis=0)


def degree_regular_value(sphere_map, seed=0):
    """Degree as the signed count of preimages of a regular value.

    The target is a seeded random unit vector.  Newton runs in moving tangent
    charts from a spread of deterministic and seeded random starts; the
    converged preimages are deduped and each contributes the sign of
    det[phi(y), Dphi u_1, ..., Dphi u_d].
    """
    d = sphere_map.dim
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d + 1)
    target = vec / np.linalg.norm(vec)
    points, converged = _newton_roots(
        lambda pts: _map_images(sphere_map, pts) - target,
        lambda pts: _tangent_images(sphere_map, pts, tangent_basis(pts)),
        _tangent_retract,
        _start_points(d, seed + 1),
        step_cap=0.5,
        steps=40,
    )
    preimages = _distinct(points[converged])
    signs = np.zeros(0, dtype=int)
    if preimages.shape[0]:  # no map call on zero points
        signs = _signs(
            _pullback_dets(sphere_map, preimages),
            "target is not a regular value: a preimage has a (near-)singular "
            "tangent determinant",
        )
    degree = int(np.sum(signs))
    return DegreeResult(
        degree=degree,
        raw=float(degree),
        distance=0.0,
        method="regular-value",
        preimages=preimages,
        signs=signs,
    )


# --- block reflection symmetry --------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    passes: bool
    pair_deviation: float
    equator_deviation: float
    half_dim: int
    samples: int


def reflection_symmetry_check(sphere_map, half_dim, seed=0):
    """Check invariance under (a, b) -> (R_b a, -b) followed by R_b x R_b.

    A map on S^(2n+1) with coordinates split into blocks a, b of size n+1
    passes when (R_b x R_b) phi(R_b a, -b) agrees with phi(a, b) to within
    SYMMETRY_TOL at SYMMETRY_SAMPLES seeded samples with both blocks at
    least MIN_BLOCK long (pair_deviation), and phi fixes the b = 0 equator
    pointwise (equator_deviation).
    """
    k = half_dim + 1
    if sphere_map.dim != 2 * half_dim + 1:
        raise DomainError(
            f"map lives on S^{sphere_map.dim}, expected S^{2 * half_dim + 1} "
            f"for block size {k}"
        )
    rng = np.random.default_rng(seed)
    points = np.zeros((0, 2 * k))
    while points.shape[0] < SYMMETRY_SAMPLES:
        batch = rng.normal(size=(2 * SYMMETRY_SAMPLES, 2 * k))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        keep = (np.linalg.norm(batch[:, k:], axis=1) >= MIN_BLOCK) & (
            np.linalg.norm(batch[:, :k], axis=1) >= MIN_BLOCK
        )
        points = np.concatenate([points, batch[keep]], axis=0)
    points = points[:SYMMETRY_SAMPLES]

    conjugated = reflection_conjugate(lambda pts: _map_images(sphere_map, pts), half_dim)(points)
    direct = _map_images(sphere_map, points)
    pair_dev = float(np.max(np.linalg.norm(conjugated - direct, axis=1)))

    eq_a = rng.normal(size=(SYMMETRY_SAMPLES, k))
    eq_a /= np.linalg.norm(eq_a, axis=1, keepdims=True)
    equator = np.concatenate([eq_a, np.zeros((SYMMETRY_SAMPLES, k))], axis=1)
    eq_values = _map_images(sphere_map, equator)
    eq_dev = float(np.max(np.linalg.norm(eq_values - equator, axis=1)))

    return SymmetryReport(
        passes=bool(pair_dev <= SYMMETRY_TOL and eq_dev <= SYMMETRY_TOL),
        pair_deviation=pair_dev,
        equator_deviation=eq_dev,
        half_dim=half_dim,
        samples=SYMMETRY_SAMPLES,
    )


# --- Euclidean degree on box regions ---------------------------------------


@dataclass(frozen=True)
class EuclideanRegion:
    """A bounded region: a coordinate box intersected with an optional test."""

    lower: np.ndarray
    upper: np.ndarray
    membership: Optional[Callable] = None
    name: str = ""

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.all((pts >= self.lower) & (pts <= self.upper), axis=1)
        if self.membership is not None and np.any(inside):
            sub = np.zeros_like(inside)
            sub[inside] = np.asarray(self.membership(pts[inside]), dtype=bool)
            inside = sub
        return inside


@dataclass(frozen=True)
class EuclideanDegreeResult:
    degree: int
    zeros: np.ndarray
    signs: np.ndarray


def euclidean_degree(func, region, seed=0):
    """Signed count of zeros of func inside a box region.

    Newton with central-difference Jacobians runs from a grid of starts plus
    seeded uniform draws; zeros outside the region are discarded and each
    kept zero contributes the sign of its Jacobian determinant.
    """
    lower = np.asarray(region.lower, dtype=float)
    upper = np.asarray(region.upper, dtype=float)
    m = lower.shape[0]
    span = upper - lower

    rng = np.random.default_rng(seed)
    if BOX_GRID**m <= 256:
        axes = [np.linspace(lower[i], upper[i], BOX_GRID + 2)[1:-1] for i in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        starts = np.stack([g.ravel() for g in mesh], axis=1)
    else:
        starts = lower + rng.uniform(size=(256, m)) * span
    random_starts = lower + rng.uniform(size=(BOX_EXTRA_STARTS, m)) * span
    starts = np.concatenate([starts, random_starts], axis=0)

    def jacobians(points):
        return _central_differences(func, points, np.eye(m)[None], BOX_FD_STEP, False)

    far_lo, far_hi = lower - 1.5 * span, upper + 1.5 * span

    def retract(points, steps):
        moved = points + steps
        moved[~np.all((moved >= far_lo) & (moved <= far_hi), axis=1)] = np.nan
        return moved

    points, converged = _newton_roots(
        lambda pts: np.atleast_2d(np.asarray(func(pts), dtype=float)),
        jacobians,
        retract,
        starts,
        step_cap=float(np.max(span)),
        steps=59,
    )
    found = points[converged]
    zeros = _distinct(found[region.contains(found)])
    signs = np.zeros(0, dtype=int)
    if zeros.shape[0]:  # no map call on zero points
        signs = _signs(
            np.linalg.det(jacobians(zeros)),
            f"degenerate zero: Jacobian determinant below {MIN_JACOBIAN:.1e}",
        )
    return EuclideanDegreeResult(degree=int(np.sum(signs)), zeros=zeros, signs=signs)


def block_involution(points, half_dim):
    """(a, b) -> (R_b a, -b) on rows split into two blocks of size half_dim+1."""
    k = half_dim + 1
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2 * k:
        raise DomainError(f"expected rows of length {2 * k}, got {pts.shape[1]}")
    a, b = pts[:, :k], pts[:, k:]
    return np.concatenate([_reflect(a, b, False), -b], axis=1)


def reflection_conjugate(func, half_dim):
    """The map Psi(a, b) = (R_b x R_b) func(R_b a, -b)."""
    k = half_dim + 1

    def conjugated(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        b = pts[:, k:]
        values = np.atleast_2d(
            np.asarray(func(block_involution(pts, half_dim)), dtype=float)
        )
        return np.concatenate(
            [_reflect(values[:, :k], b, False), _reflect(values[:, k:], b, False)], axis=1
        )

    return conjugated


def involuted_region(region, half_dim):
    """Image of a box region under the block involution.

    The a-block box is enlarged to a symmetric box of the same norm radius
    (reflections preserve norms), the b-block box flips sign, and exact
    membership defers to the original region through the involution.
    """
    k = half_dim + 1
    lower = np.asarray(region.lower, dtype=float)
    upper = np.asarray(region.upper, dtype=float)
    a_radius = float(np.linalg.norm(np.maximum(np.abs(lower[:k]), np.abs(upper[:k]))))
    new_lower = np.concatenate([-a_radius * np.ones(k), -upper[k:]])
    new_upper = np.concatenate([a_radius * np.ones(k), -lower[k:]])

    def membership(points):
        return region.contains(block_involution(points, half_dim))

    return EuclideanRegion(
        lower=new_lower,
        upper=new_upper,
        membership=membership,
        name=(region.name + "-reflected") if region.name else "reflected",
    )


@dataclass(frozen=True)
class PairedDegreeReport:
    degree_minus: int
    degree_plus: int
    parity: int
    holds: bool
    zeros_minus: np.ndarray
    zeros_plus: np.ndarray


def paired_degree_check(func, plus_region, half_dim, seed=0):
    """Compare deg(func, reflected region) with parity * deg(conjugate, region).

    The b-block of plus_region must stay away from zero so the involution is
    smooth throughout.  parity is (-1)**half_dim.
    """
    k = half_dim + 1
    b_lower = np.asarray(plus_region.lower, dtype=float)[k:]
    b_upper = np.asarray(plus_region.upper, dtype=float)[k:]
    if np.all((b_lower <= 0.0) & (b_upper >= 0.0)):
        raise DomainError("plus region must exclude b = 0")
    minus_region = involuted_region(plus_region, half_dim)
    result_minus = euclidean_degree(func, minus_region, seed=seed)
    psi = reflection_conjugate(func, half_dim)
    result_plus = euclidean_degree(psi, plus_region, seed=seed + 1)
    parity = -1 if half_dim % 2 else 1
    return PairedDegreeReport(
        degree_minus=result_minus.degree,
        degree_plus=result_plus.degree,
        parity=parity,
        holds=bool(result_minus.degree == parity * result_plus.degree),
        zeros_minus=result_minus.zeros,
        zeros_plus=result_plus.zeros,
    )


def _example_region(half_dim):
    k = half_dim + 1
    lower = np.concatenate([-0.5 * np.ones(k), [0.3], -0.35 * np.ones(k - 1)])
    upper = np.concatenate([0.5 * np.ones(k), [1.0], 0.35 * np.ones(k - 1)])
    return EuclideanRegion(lower=lower, upper=upper, name="plus-box")


def shifted_identity_example(half_dim=1):
    """A translation with exactly one zero in the reflected region.

    Returns (func, plus_region, expected_degree_minus).
    """
    k = half_dim + 1
    region = _example_region(half_dim)
    a_part = np.full(k, 0.1)
    if k > 1:
        a_part[1] = -0.2
    interior = np.concatenate([a_part, [0.6], np.full(k - 1, 0.1)])
    shift = block_involution(interior[None], half_dim)[0]

    def func(points):
        return np.atleast_2d(np.asarray(points, dtype=float)) - shift

    return func, region, 1


def zero_free_example(half_dim=1):
    """A translation whose zero lies outside both regions (degree 0)."""
    k = half_dim + 1
    region = _example_region(half_dim)
    shift = np.full(2 * k, 5.0)

    def func(points):
        return np.atleast_2d(np.asarray(points, dtype=float)) - shift

    return func, region, 0


# --- example sphere maps ----------------------------------------------------


def _linear_map(matrix, dim, name):
    mat = np.asarray(matrix, dtype=float)

    def func(points):
        return np.atleast_2d(np.asarray(points, dtype=float)) @ mat.T

    def jacobian(points):
        pts = np.atleast_2d(points)
        return np.broadcast_to(mat, (pts.shape[0],) + mat.shape)

    return SphereSelfMap(dim=dim, func=func, jacobian=jacobian, name=name)


def identity_map(dim):
    return _linear_map(np.eye(dim + 1), dim, f"identity-s{dim}")


def antipodal_map(dim):
    return _linear_map(-np.eye(dim + 1), dim, f"antipodal-s{dim}")


def block_flip_map(half_dim):
    """(a, b) -> (a, -b) on S^(2 half_dim + 1)."""
    k = half_dim + 1
    mat = np.diag(np.concatenate([np.ones(k), -np.ones(k)]))
    return _linear_map(mat, 2 * half_dim + 1, "flip-b")


def block_rotation_map(half_dim, angle=0.7):
    """(a, b) -> (a, Q b) for a fixed rotation Q of the b-block.

    Not symmetric under the block reflection pairing: the rotation does not
    commute with reflections across moving mirrors.
    """
    k = half_dim + 1
    if k < 2:
        raise DomainError("b-block rotation needs blocks of size at least 2")
    mat = np.eye(2 * k)
    c, s = math.cos(angle), math.sin(angle)
    mat[k, k] = c
    mat[k, k + 1] = -s
    mat[k + 1, k] = s
    mat[k + 1, k + 1] = c
    return _linear_map(mat, 2 * half_dim + 1, "rotate-b")


def warped_block_flip(half_dim, strength=0.8):
    """Normalized (a (1 + strength |b|^2), -b): a nonlinear symmetric map."""
    k = half_dim + 1

    def func(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a, b = pts[:, :k], pts[:, k:]
        scale = 1.0 + strength * np.sum(b * b, axis=1, keepdims=True)
        raw = np.concatenate([a * scale, -b], axis=1)
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    return SphereSelfMap(
        dim=2 * half_dim + 1, func=func, name=f"warped-flip({strength:g})"
    )


def circle_doubling():
    """The squaring map of the unit circle (degree two)."""

    def func(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c, s = pts[:, 0], pts[:, 1]
        return np.stack([c * c - s * s, 2.0 * c * s], axis=1)

    def jacobian(points):
        pts = np.atleast_2d(points)
        c, s = pts[:, 0], pts[:, 1]
        jac = np.empty((pts.shape[0], 2, 2))
        jac[:, 0, 0] = 2.0 * c
        jac[:, 0, 1] = -2.0 * s
        jac[:, 1, 0] = 2.0 * s
        jac[:, 1, 1] = 2.0 * c
        return jac

    return SphereSelfMap(dim=1, func=func, jacobian=jacobian, name="doubling-s1")


def registry():
    """Named example maps for the command-line interface."""
    return {
        "identity-s3": identity_map(3),
        "antipodal-s3": antipodal_map(3),
        "flip-b": block_flip_map(1),
        "warped-flip": warped_block_flip(1),
        "rotate-b": block_rotation_map(1),
        "doubling-s1": circle_doubling(),
        "identity-s2": identity_map(2),
        "antipodal-s2": antipodal_map(2),
    }
