"""Trial-map machinery: pushforward measures, hyperbolic centering, vector
fields, and the energy chain bounding the second Laplacian eigenvalue.

The trial maps are the components of T_{-c} o fold o veronese on the unit
sphere: the Veronese embedding of projective space, folded into a spherical
cap, then Moebius-translated so the image measure has hyperbolic center of
mass at the origin.
"""

from dataclasses import dataclass
from functools import lru_cache
import math
from typing import Optional

import numpy as np
from scipy.optimize import minimize  # noqa: F401  (perfbench wraps trial_bound.minimize)

from . import spectral
from .bounds import bound_constants
from ._newton import damped_newton
from .errors import ConvergenceError, DomainError, NumericError
from .quadrature import QuadratureRule, build_sphere_rule, projective_volume
from .sphere_geom import (
    SphericalCap,
    _cap_reflect,
    _cap_reflect_differential,
    _cap_reflect_factor,
    _dot,
    _fold,
    _moebius,
    _moebius_differential,
    _moebius_factor,
    _norm,
    _tangent_retract,
    as_ball,
    as_unit,
    moebius_apply,
    tangent_basis,
)
from .veronese import constants as veronese_constants
from .veronese import output_dim, quadratic_forms, veronese_apply, veronese_jacobian

__all__ = [
    "PushforwardMeasure",
    "pushforward_measure",
    "moebius_shifted_uniform",
    "CenterResult",
    "center_of_mass",
    "VFieldResult",
    "vector_field",
    "extended_vector_field",
    "SearchResult",
    "search_vector_field_zero",
    "ChainStage",
    "ChainReport",
    "rayleigh_chain",
    "TheoremReport",
    "theorem_check",
]


# ---------------------------------------------------------------------------
# Pushforward measures and the hyperbolic center of mass


@dataclass(frozen=True)
class PushforwardMeasure:
    """Finite atomic measure on a unit sphere (atom rows, positive weights).

    Atoms and weights are validated once, here, and stored as read-only float
    copies, so no later write can bypass the checks; the centering loops
    trust them.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        for name, values in (("points", pts), ("weights", wts)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if pts.ndim != 2 or wts.ndim != 1 or pts.shape[0] != wts.shape[0] or not wts.size:
            raise DomainError("measure needs (N, m) atoms and (N,) weights, N >= 1")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise DomainError("measure atoms and weights must be finite")
        if np.min(wts) <= 0:
            raise DomainError("measure weights must be positive")
        dev = np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))
        if dev > 1e-9:
            raise DomainError(f"measure atoms off the unit sphere by {dev:.3g}")
        if np.max(wts) >= 0.5 * np.sum(wts):
            raise DomainError("an atom carries at least half the mass; center of mass undefined")

    @property
    def mass(self):
        return float(np.sum(self.weights))

    @property
    def ambient_dim(self):
        return self.points.shape[1]


def _computed_measure(points, weights):
    """A measure of atoms computed from a rule.  A heavy atom there is valid
    input that the rule is too coarse for: a numerical failure."""
    try:
        return PushforwardMeasure(points=points, weights=weights)
    except DomainError as exc:
        raise NumericError(str(exc)) from exc


def pushforward_measure(w, cap, rule=None):
    """Image of the metric volume under fold o veronese, as an atomic measure.

    One rule node per antipodal pair (projective space) carries its weight
    times the volume density w^{n/2}; atoms are the nodes' folded Veronese
    images in the cap.  NumericError if one atom carries half the mass.
    """
    if rule is None:
        rule = spectral.default_rule(w.sphere_dim)
    ws = _FieldWorkspace(w, rule)
    return _computed_measure(_fold(cap, ws.images), ws.weights)


def moebius_shifted_uniform(ambient_dim, shift, pairs=128, seed=0):
    """Moebius image of a symmetric atom cloud; exact center of mass = shift.

    Atoms come in antipodal pairs, so the uncentered cloud has vanishing
    first moment and the translated cloud is centered exactly at `shift`.
    """
    if pairs < 1:
        raise DomainError(f"a cloud needs at least one antipodal pair, got {pairs}")
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((pairs, ambient_dim))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    cloud = np.concatenate([half, -half], axis=0)
    shifted = moebius_apply(np.asarray(shift, dtype=float), cloud)
    weights = np.full(cloud.shape[0], 1.0 / cloud.shape[0])
    return PushforwardMeasure(points=shifted, weights=weights)


@dataclass(frozen=True)
class CenterResult:
    center: np.ndarray
    residual: float  # |mean of T_{-c}| per unit mass
    iterations: int
    history: tuple
    verified_residual: float  # recomputed with exact (fsum) summation


COM_TOL = 1e-10      # default centering tolerance: the residual per unit mass
COM_MAX_ITER = 500   # default cap on centering rounds


def _centered(points, weights, centers, mass, strict=True):
    moved = _moebius(-centers[:, None, :], points, True, strict)
    return weights @ moved / mass, moved


def _center_iterate(points, weights, tol, max_iter, start=None):
    """Newton centering of K measures at once: atoms (K, N, m), weights (N,).

    A measure leaves the batch at residual <= tol, or with ConvergenceError
    once no halving of its step down to SEARCH_MIN_SCALE lowers the residual,
    after max_iter rounds, or at a non-finite residual; the message names which.
    A trial center off the open ball or with a degenerate Moebius denominator
    is a rejected step.
    """
    mass = float(np.sum(weights))
    count, _, dim = points.shape
    centers = np.zeros((count, dim)) if start is None else np.array(start, dtype=float)
    mean, moved = _centered(points, weights, centers, mass)

    def step(centers, mean, moved):
        # Newton in the recentred frame: the sum of T_{-d}(y) over the moved
        # atoms has Jacobian -2 (mass I - sum w y y^T) at d = 0
        second = np.swapaxes(moved * weights[:, None], 1, 2) @ moved / mass
        return 0.5 * np.linalg.solve(np.eye(dim) - second, mean[..., None])[..., 0]

    def retract(centers, shifts):
        trial = _moebius(centers, shifts, False)
        trial[_dot(trial, trial) >= 1.0] = np.nan
        return trial

    centers, res, moved, iterations, history = damped_newton(
        lambda rows, trial, _: _centered(points[rows], weights, trial, mass, False),
        step, retract, centers, mean, moved, tol, max_iter, 0.9, SEARCH_MIN_SCALE,
    )
    worst = int(np.argmax(res))  # the first NaN, if any
    if not res[worst] <= tol:
        k = int(iterations[worst])  # rows stop at the cap or after a round that did not help
        if not np.isfinite(res[worst]):
            reason = "non-finite residual"
        elif k == max_iter and (k == 0 or history[k][worst] < history[k - 1][worst]):
            reason = f"iteration cap {max_iter} reached"
        else:
            reason = f"no step halving to 2^{math.log2(SEARCH_MIN_SCALE):g} lowered the residual"
        raise ConvergenceError(
            f"center of mass stopped at residual {res[worst]:.3g} after "
            f"{k} iterations (tolerance {tol:.3g}): {reason}",
            [float(h[worst]) for h in history],
        )
    return centers, moved, res, iterations, history


def center_of_mass(measure, tol=COM_TOL, max_iter=COM_MAX_ITER, start=None):
    """Hyperbolic center: the c with integral of T_{-c} against the measure = 0.

    Newton's method from c = 0 (or `start`) in the recentred frame: with the
    atoms moved by T_{-c}, their mean m and second moment S per unit mass,
    the step d = (I - S)^{-1} m / 2 solves the linearised centering, and c
    moves to T_c(d).  T_{-T_c(d)} is T_{-d} o T_{-c} up to a rotation, so the
    update keeps the zero set.  Steps are capped at |d| <= 0.9 and halved,
    down to SEARCH_MIN_SCALE, until the residual decreases.  The returned
    residual is re-verified with exactly rounded summation.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be a positive finite residual, got {tol!r}")
    if not max_iter >= 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter!r}")
    if start is not None:
        start = as_ball(start)[None]
    centers, moved, res, iterations, history = _center_iterate(
        measure.points[None], measure.weights, tol, max_iter, start=start
    )
    exact = [math.fsum(column) for column in (moved[0] * measure.weights[:, None]).T.tolist()]
    return CenterResult(
        center=centers[0],
        residual=float(res[0]),
        iterations=int(iterations[0]),
        history=tuple(float(h[0]) for h in history),
        verified_residual=float(np.linalg.norm(exact) / measure.mass),
    )


# ---------------------------------------------------------------------------
# Trial maps and vector fields


class _FieldWorkspace:
    """Precomputed node data for repeated vector-field evaluations."""

    def __init__(self, w, rule, f=None):
        nodes, _, self.weights, _ = spectral._projective_weights(w, rule)
        self.mass = float(np.sum(self.weights))
        self.images = as_unit(veronese_apply(w.sphere_dim, nodes))
        self.f_values = None if f is None else np.asarray(f(nodes), dtype=float)

    def field(self, poles, ts, com_tol=COM_TOL, com_start=None):
        """V on the K caps (poles (K, m), t (K,)): V, centers, residuals."""
        atoms = _fold(SphericalCap(poles[:, None, :], ts[:, None, None]), self.images)
        centers, moved, res, _, _ = _center_iterate(
            atoms, self.weights, com_tol, COM_MAX_ITER, start=com_start
        )
        return (self.weights * self.f_values) @ moved, centers, res


@dataclass(frozen=True)
class VFieldResult:
    vector: np.ndarray
    residual: float  # |vector| / mass
    center: np.ndarray
    center_residual: float
    mass: float


def vector_field(w, f, cap, rule=None, com_tol=COM_TOL):
    """V(pole, t): the f-weighted first moment of the centered pushforward.

    The unweighted moment vanishes by the centering, so V measures the
    obstruction carried by f alone.
    """
    if rule is None:
        rule = spectral.default_rule(w.sphere_dim)
    ws = _FieldWorkspace(w, rule, f=f)
    vec, center, res = ws.field(cap.pole[None], np.array([cap.t]), com_tol=com_tol)
    return VFieldResult(
        vector=vec[0],
        residual=float(np.linalg.norm(vec[0])) / ws.mass,
        center=center[0],
        center_residual=float(res[0]),
        mass=ws.mass,
    )


def extended_vector_field(w, f, cap, ball_point, rule=None):
    """Joint field (moment, f-moment) after translating by an arbitrary x.

    At x = center-of-mass the first block vanishes; as |x| -> 1 the first
    block approaches -mass * x/|x| and the second block approaches zero.
    """
    if rule is None:
        rule = spectral.default_rule(w.sphere_dim)
    ws = _FieldWorkspace(w, rule, f=f)
    moved = moebius_apply(np.asarray(ball_point, dtype=float) * -1.0, _fold(cap, ws.images))
    first = np.einsum("i,ij->j", ws.weights, moved)
    second = np.einsum("i,ij->j", ws.weights * ws.f_values, moved)
    return np.concatenate([first, second])


@dataclass(frozen=True)
class SearchResult:
    pole: np.ndarray
    t: float
    center: np.ndarray
    residual: float  # |V| / mass at the optimum
    mass: float
    trace: tuple  # best-so-far residuals, one entry per objective evaluation
    evaluations: int
    start_results: tuple  # (residual, t) where each polished start ended


SEARCH_TOL = 1e-14         # |V| / mass at which a polished start has converged
SEARCH_FD_STEP = 1.5e-8    # forward-difference step in the pole's tangent coordinates and t
SEARCH_STEP_CAP = 0.5      # largest Gauss-Newton step
SEARCH_MIN_SCALE = 2.0**-10  # a step halved below this has collapsed (search and centering)
SEARCH_PROGRESS = 0.99     # a round must cut a residual below this share of the last
SEARCH_COM_TOL = 1e-12     # centering tolerance: V is only as accurate as its center


def _principal_slice_basis(w, f, seed=0):
    """Pole directions adapted to the quadratic part of f.

    Fits the best quadratic form f(y) ~ y^T A y, takes the eigenframe of A
    (the standard frame when f has no quadratic part), and returns the
    image-coordinate vectors of the diagonal traceless quadratics in that
    frame (an orthonormal family of n directions).  The field restricted to
    poles in their span stays in that span, so a zero of the restricted field
    is a genuine zero; the slice gives strong starts even when f is only
    approximately quadratic.
    """
    n = w.sphere_dim
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((20 * (n + 1) ** 2, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    design = np.einsum("ki,kj->kij", pts, pts).reshape(pts.shape[0], -1)
    coef, *_ = np.linalg.lstsq(design, f(pts), rcond=None)
    quad = coef.reshape(n + 1, n + 1)
    quad = 0.5 * (quad + quad.T)
    quad -= np.trace(quad) / (n + 1) * np.eye(n + 1)
    frame = np.linalg.eigh(quad)[1] if np.linalg.norm(quad) >= 1e-6 else np.eye(n + 1)

    # diag(e_i - e_{i+1}) in the frame; the Veronese forms are Frobenius-
    # orthogonal with squared norm (n+1)/n, so Frobenius products with them
    # are image coordinates
    outer = np.einsum("ai,bi->iab", frame, frame)
    forms = outer[:-1] - outer[1:]
    coords = np.einsum("kab,iab->ki", quadratic_forms(n), forms) * (n / (n + 1))
    q, _ = np.linalg.qr(coords)
    return q


def search_vector_field_zero(
    w,
    basis_degree=None,
    starts=32,
    seed=0,
    t_max=0.999,
    maxiter=250,
):
    """Zero of V(pole, t): slice-grid scan, then lockstep Gauss-Newton.

    w is volume-normalized first, on a rule exact to degree 12, and f is its
    first excited eigenfunction.  All cells of a grid over t and over poles in
    the principal slice of f's quadratic part (where the field is tangent to
    the slice) are evaluated in one batch.  The `starts` best cells are then
    polished together by damped Gauss-Newton on V / mass over the pole's
    tangent coordinates and t, for at most `maxiter` rounds, each with one
    batch of forward-difference Jacobians.  A start stops at |V| / mass <=
    SEARCH_TOL, when no halving of its step lowers the residual, or when a
    round fails to cut it below SEARCH_PROGRESS times the last.  t runs over
    [0, min(t_max, 0.999)]; t_max must be >= 0 (DomainError).  `seed` seeds
    the slice fit; the result is deterministic.  V is only as accurate as its
    center, so the centering tolerance SEARCH_COM_TOL sits below the
    polish's target.
    """
    if not 0.0 <= t_max:
        raise DomainError(f"t_max must be >= 0, got {t_max!r}")
    rule = build_sphere_rule(w.sphere_dim, 12)
    w = spectral.normalize_volume(w, rule=rule)
    f = spectral.first_excited_state(spectral.eigenvalues(w, basis_degree))
    ws = _FieldWorkspace(w, rule, f=f)
    t_cap = min(t_max, 0.999)
    trace = []
    best = {"residual": np.inf, "pole": None, "t": None, "center": None}

    def field(poles, ts, com_start=None):
        vecs, centers, _ = ws.field(poles, ts, com_tol=SEARCH_COM_TOL, com_start=com_start)
        vecs /= ws.mass
        for k, residual in enumerate(np.linalg.norm(vecs, axis=1).tolist()):
            if residual < best["residual"]:
                best.update(residual=residual, pole=poles[k], t=float(ts[k]), center=centers[k])
            trace.append(best["residual"])
        return vecs, centers

    slice_basis = _principal_slice_basis(w, f, seed=seed)
    angles = np.linspace(0.0, 2.0 * math.pi, 24 * slice_basis.shape[1], endpoint=False)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ slice_basis[:, :2].T
    poles = as_unit(np.repeat(directions, 10, axis=0))
    ts = np.tile(np.linspace(0.0, min(0.9, t_cap), 10), angles.size)
    # the fold is the identity on a cap holding every image, so V takes one
    # value on all such caps: evaluate the first one only
    whole = SphericalCap(poles[:, None], ts[:, None, None]).contains(ws.images).all(axis=1)
    keep = ~whole | (np.cumsum(whole) == 1)
    vec, center = field(poles[keep], ts[keep])
    order = np.argsort(np.linalg.norm(vec, axis=1), kind="stable")[:starts]
    x, vec, center = np.column_stack([poles, ts])[keep][order], vec[order], center[order]

    dim = poles.shape[1]  # unknowns: the pole's dim - 1 tangent coordinates, and t
    cutoff = dim * np.finfo(float).eps

    def retract(x, steps):
        pole = _tangent_retract(x[:, :-1], steps[:, :-1])
        return np.column_stack([pole, np.clip(x[:, -1] + steps[:, -1], 0.0, t_cap)])

    def step(x, vec, center):
        # forward differences, warm-started at each start's center
        base = np.repeat(np.arange(len(x)), dim)
        probes = retract(x[base], np.tile(SEARCH_FD_STEP * np.eye(dim), (len(x), 1)))
        probe_vec, _ = field(probes[:, :-1], probes[:, -1], center[base])
        jac = ((probe_vec - vec[base]) / SEARCH_FD_STEP).reshape(-1, dim, dim).transpose(0, 2, 1)
        steps = -(np.linalg.pinv(jac, rcond=cutoff) @ vec[..., None])[..., 0]
        # a step pushing t below 0 where t = 0 moves the pole alone
        jac[(x[:, -1] <= 0.0) & (steps[:, -1] < 0.0), :, -1] = 0.0
        return -(np.linalg.pinv(jac, rcond=cutoff) @ vec[..., None])[..., 0]

    x, res, _, _, _ = damped_newton(
        lambda rows, x, center: field(x[:, :-1], x[:, -1], center),
        step, retract, x, vec, center,
        SEARCH_TOL, maxiter, SEARCH_STEP_CAP, SEARCH_MIN_SCALE, SEARCH_PROGRESS,
    )
    return SearchResult(
        pole=best["pole"],
        t=best["t"],
        center=best["center"],
        residual=best["residual"],
        mass=ws.mass,
        trace=tuple(trace),
        evaluations=len(trace),
        start_results=tuple(zip(res.tolist(), x[:, -1].tolist())),
    )


# ---------------------------------------------------------------------------
# The energy chain


@dataclass(frozen=True)
class ChainStage:
    stage_id: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    margin: float


@dataclass(frozen=True)
class ChainReport:
    sphere_dim: int
    pole: np.ndarray
    t: float
    center: np.ndarray
    stages: tuple
    values: dict

    @property
    def passed(self):
        return all(stage.passed for stage in self.stages)


def _ineq_stage(stage_id, lhs, rhs, rel_tol):
    slack = rel_tol * max(abs(lhs), abs(rhs), 1e-300)
    return ChainStage(
        stage_id=stage_id,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=rel_tol,
        passed=bool(lhs <= rhs + slack),
        margin=float(rhs - lhs),
    )


def _eq_stage(stage_id, lhs, rhs, rel_tol):
    scale = max(abs(lhs), abs(rhs), 1e-300)
    dev = abs(lhs - rhs) / scale
    return ChainStage(
        stage_id=stage_id,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=rel_tol,
        passed=bool(dev <= rel_tol),
        margin=float(rel_tol - dev),
    )


@dataclass(frozen=True)
class _ChainTables:
    """Read-only node data of the energy chain, fixed per rule.

    images (N, m) holds the Veronese images of the rule's projective nodes,
    and frames (N, n, m) the images of their orthonormal tangent frames
    (tangent_basis) under the Veronese Jacobian, one tangent vector per row.
    """

    rule: QuadratureRule
    images: np.ndarray
    frames: np.ndarray


def _tables_on(n, rule):
    nodes = rule.nodes[: rule.size // 2]
    images = veronese_apply(n, nodes)
    frames = np.swapaxes(veronese_jacobian(n, nodes) @ tangent_basis(nodes), 1, 2).copy()
    for array in (images, frames):
        array.flags.writeable = False
    return _ChainTables(rule, images, frames)


@lru_cache(maxsize=None)
def _chain_tables(n, degree):
    rule = build_sphere_rule(n, degree)
    for array in (rule.nodes, rule.weights):
        array.flags.writeable = False
    return _tables_on(n, rule)


def rayleigh_chain(w, cap, center=None, rule=None):
    """Verify the energy chain bounding the trial maps' Rayleigh quotients.

    Numerators and the n-energy are computed twice, both exactly: from the
    Jacobian of the trial map (the product of the Veronese, cap-reflection and
    Moebius differentials along each node's fold branch), and from the
    conformal stretch factors.  The two routes share no derivative code and
    are cross-checked against each other to rounding (the `fd` in stage ids
    and value keys names the Jacobian route).  Inequality stages are
    evaluated node-wise on the stretch route, where they hold up to floating
    point rounding.  The cap's pole and a given center must be single points
    of the Veronese image space (DomainError); without a center, the chain
    solves for the one center_of_mass returns.
    """
    n = w.sphere_dim
    cst = veronese_constants(n)
    dim = output_dim(n)
    if cap.pole.shape != (dim,):
        raise DomainError(f"cap pole must be one point of R^{dim}, got shape {cap.pole.shape}")
    if center is not None:
        center = as_ball(center)
        if center.shape != (dim,):
            raise DomainError(f"center must be one point of R^{dim}, got shape {center.shape}")
    # the reflected-branch stretch concentrates near the cap complement, so
    # the chain needs a finer rule than the Galerkin assembly does
    tables = _chain_tables(n, 60 if n == 2 else 40) if rule is None else _tables_on(n, rule)
    rule, images = tables.rule, tables.images
    nodes, wv, mass_weights, energy_weights = spectral._projective_weights(w, rule)
    half_weights = rule.weights[: nodes.shape[0]]  # the round measure on projective space
    metric_vol = math.fsum(mass_weights.tolist())
    round_vol = projective_volume(n)

    inside = cap.contains(images)
    reflected = _cap_reflect(cap, images)
    atoms = np.where(inside[:, None], images, reflected)
    if center is None:
        # center_of_mass's solve, keeping the atoms it moved to the center
        measure = _computed_measure(atoms, mass_weights)
        centers, moved, _, _, _ = _center_iterate(
            measure.points[None], measure.weights, COM_TOL, COM_MAX_ITER
        )
        center, centered = centers[0], moved[0]
    else:
        centered = _moebius(-center, atoms, True)

    # -- trial components: unit images, denominators
    unit_dev = float(np.max(np.abs(_norm(centered) - 1.0)))
    denominators = np.einsum("k,kj->j", mass_weights, centered * centered)
    den_sum = math.fsum(denominators.tolist())

    # -- Jacobian route: the exact differential of T_{-center} o fold, applied
    # to the Veronese images of orthonormal tangent frames, on each node's branch
    deriv = tables.frames.copy()  # (N, n, m)
    deriv[~inside] = _cap_reflect_differential(cap, images[~inside], deriv[~inside])
    deriv = _moebius_differential(-center, atoms, deriv)
    comp_grad_sq = np.einsum("kim,kim->km", deriv, deriv)
    gram = np.einsum("kim,kjm->kij", deriv, deriv)
    grad_sq = np.trace(gram, axis1=1, axis2=2)  # sum_j |grad u_j|^2 at each node

    numerators = np.einsum("k,kj->j", energy_weights, comp_grad_sq)
    energy_fd = math.fsum(numerators.tolist())
    n_energy_fd_round = math.fsum((half_weights * grad_sq ** (n / 2.0)).tolist())
    n_energy_fd_metric = math.fsum(
        (mass_weights * (grad_sq / wv) ** (n / 2.0)).tolist()
    )

    # -- analytic conformal-stretch route
    stretch_plain = cst.conformal_scale * _moebius_factor(-center, images)
    stretch_reflected = (
        cst.conformal_scale
        * _cap_reflect_factor(cap, images)
        * _moebius_factor(-center, reflected)
    )
    stretch_fold = np.where(inside, stretch_plain, stretch_reflected)
    grad_sq_analytic = n * stretch_fold**2
    energy_analytic = math.fsum((energy_weights * grad_sq_analytic).tolist())
    split_vol = math.fsum((half_weights * stretch_fold**n).tolist())
    vol_plain = math.fsum((half_weights * stretch_plain**n).tolist())
    vol_reflected = math.fsum((half_weights * stretch_reflected**n).tolist())
    n_energy_analytic = n ** (n / 2.0) * split_vol

    # -- conformality of the composite at every node: trace / det^(1/n) = n
    frame_dev = float(np.max(np.abs(grad_sq / np.linalg.det(gram) ** (1.0 / n) - n)))

    conf_volume_cap = cst.conformal_scale**n * round_vol
    final_a = 2.0 * n ** (n / 2.0) * cst.conformal_scale**n * round_vol
    final_b = 2.0 * (2.0 * n + 2.0) ** (n / 2.0) * round_vol
    holder_rhs = n_energy_analytic ** (2.0 / n) * metric_vol ** (1.0 - 2.0 / n)
    endpoint = final_b ** (2.0 / n) * metric_vol ** (1.0 - 2.0 / n)

    stages = (
        ChainStage("unit-image", unit_dev, 1e-10, 1e-10, unit_dev <= 1e-10, 1e-10 - unit_dev),
        _eq_stage("denominator-sum", den_sum, metric_vol, 1e-10),
        _eq_stage("numerators-fd-vs-analytic", energy_fd, energy_analytic, 1e-10),
        _ineq_stage("hoelder", energy_analytic, holder_rhs, 1e-9),
        _eq_stage("conformal-invariance", n_energy_fd_metric, n_energy_fd_round, 1e-10),
        _eq_stage("energy-vs-split-volume", n_energy_fd_round, n_energy_analytic, 1e-10),
        _eq_stage("frame-identity", frame_dev + n, n, 1e-10),
        _ineq_stage(
            "drop-intersections",
            n_energy_analytic,
            n ** (n / 2.0) * (vol_plain + vol_reflected),
            1e-9,
        ),
        _ineq_stage("conformal-volume-plain", vol_plain, conf_volume_cap, 1e-9),
        _ineq_stage("conformal-volume-reflected", vol_reflected, conf_volume_cap, 1e-9),
        _eq_stage("final-constant", final_a, final_b, 1e-12),
        _ineq_stage("chain-total", energy_analytic, endpoint, 1e-9),
    )
    values = {
        "metric_volume": metric_vol,
        "round_volume": round_vol,
        "numerators": numerators.tolist(),
        "denominators": denominators.tolist(),
        "energy_fd": energy_fd,
        "energy_analytic": energy_analytic,
        "n_energy_fd_round": n_energy_fd_round,
        "n_energy_fd_metric": n_energy_fd_metric,
        "n_energy_analytic": n_energy_analytic,
        "split_volume": split_vol,
        "volume_plain": vol_plain,
        "volume_reflected": vol_reflected,
        "conformal_volume_bound": conf_volume_cap,
        "final_bound": final_b,
        "endpoint_energy_form": endpoint,
        "mean_rayleigh": energy_analytic / metric_vol,
    }
    return ChainReport(
        sphere_dim=n,
        pole=cap.pole,
        t=cap.t,
        center=center,
        stages=stages,
        values=values,
    )


# ---------------------------------------------------------------------------
# Main theorem check


@dataclass(frozen=True)
class TheoremReport:
    sphere_dim: int
    basis_degree: int
    factor_label: str
    lambda_2: float
    bound: float
    margin: float
    passed: bool
    eigenvalues: tuple
    tight_bound: float  # sharp 2-D constant, reported for comparison only
    convergence_gap: Optional[float] = None


def theorem_check(w, basis_degree=None, include_gap=False):
    """Check lambda_2(w) < 2^{2/n} (2n+2) for the volume-normalized metric.

    lambda_2 is the third Galerkin eigenvalue (two below it, counting
    multiplicity, starting from the zero mode).  Optionally reports the shift
    of lambda_2 when the basis degree grows by 2 (convergence diagnostic).
    """
    n = w.sphere_dim
    basis_degree = spectral._basis_degree(n, basis_degree)
    rule = spectral._basis_tables(n, basis_degree).rule
    normalized = spectral.normalize_volume(w, rule=rule)
    result = spectral.eigenvalues(normalized, basis_degree)
    lam2 = float(result.eigenvalues[2])
    pair = bound_constants(n)
    gap = None
    if include_gap:
        finer = spectral.eigenvalues(normalized, basis_degree + 2)
        gap = abs(float(finer.eigenvalues[2]) - lam2)
    return TheoremReport(
        sphere_dim=n,
        basis_degree=basis_degree,
        factor_label=w.label,
        lambda_2=lam2,
        bound=pair.coarse,
        margin=pair.coarse - lam2,
        passed=bool(lam2 < pair.coarse),
        eigenvalues=tuple(float(v) for v in result.eigenvalues[: min(12, result.eigenvalues.size)]),
        tight_bound=pair.tight,
        convergence_gap=gap,
    )
