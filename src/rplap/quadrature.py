"""Quadrature on round spheres S^1, S^2, S^3 and on parametric surfaces.

Sphere rules are product rules (Gauss nodes in polar variables, uniform nodes
in the periodic angle) with a stated total polynomial exactness degree.  Node
sets are antipodally symmetric, so integrals over projective space are half
the sphere integral of an even integrand.
"""

from dataclasses import dataclass, replace
import math
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_chebyu

from .errors import DomainError, EvaluationError
from .sphere_geom import _central_differences

__all__ = [
    "QuadratureRule",
    "sphere_volume",
    "projective_volume",
    "build_sphere_rule",
    "integrate",
    "integrate_projective",
    "antipodal_permutation",
    "ParamSurface",
    "surface_measure",
    "interval_rule",
    "graded_interval_rule",
    "product_rectangle_rule",
]


def sphere_volume(n):
    """Riemannian volume of the unit n-sphere."""
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def projective_volume(n):
    """Volume of real projective n-space with the round metric."""
    return 0.5 * sphere_volume(n)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on the unit n-sphere, exact for polynomials up to a degree."""

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise DomainError("node/weight count mismatch")
        if self.nodes.shape[1] != self.dim + 1:
            raise DomainError("node ambient dimension mismatch")

    @property
    def size(self):
        return self.nodes.shape[0]


def _circle_rule(degree):
    count = degree + 1
    if count % 2:
        count += 1
    angles = 2.0 * math.pi * np.arange(count) / count
    nodes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    weights = np.full(count, 2.0 * math.pi / count)
    return nodes, weights


def _s2_rule(degree):
    n_polar = (degree + 2) // 2
    z, wz = np.polynomial.legendre.leggauss(n_polar)
    n_angle = degree + 1
    if n_angle % 2:
        n_angle += 1
    angles = 2.0 * math.pi * np.arange(n_angle) / n_angle
    sin_polar = np.sqrt(1.0 - z * z)
    nodes = np.empty((n_polar * n_angle, 3))
    nodes[:, 0] = np.outer(sin_polar, np.cos(angles)).ravel()
    nodes[:, 1] = np.outer(sin_polar, np.sin(angles)).ravel()
    nodes[:, 2] = np.repeat(z, n_angle)
    weights = np.repeat(wz * (2.0 * math.pi / n_angle), n_angle)
    return nodes, weights


def _s3_rule(degree):
    # Gauss rule for the polar weight sin^2(chi): Chebyshev second kind in
    # u = cos(chi), times an S^2 rule on the cross-section sphere.
    n_polar = (degree + 2) // 2
    u, wu = roots_chebyu(n_polar)
    base_nodes, base_weights = _s2_rule(degree)
    sin_polar = np.sqrt(1.0 - u * u)
    k = base_nodes.shape[0]
    nodes = np.empty((n_polar * k, 4))
    nodes[:, :3] = (sin_polar[:, None, None] * base_nodes[None, :, :]).reshape(-1, 3)
    nodes[:, 3] = np.repeat(u, k)
    weights = (wu[:, None] * base_weights[None, :]).ravel()
    return nodes, weights


def build_sphere_rule(n, degree):
    """Product quadrature on S^n exact for polynomials of total degree <= degree.

    Supported n: 1, 2, 3.  Node sets are antipodally symmetric.
    """
    if degree < 2:
        raise DomainError(f"exactness degree must be >= 2, got {degree}")
    if n == 1:
        nodes, weights = _circle_rule(degree)
    elif n == 2:
        nodes, weights = _s2_rule(degree)
    elif n == 3:
        nodes, weights = _s3_rule(degree)
    else:
        raise DomainError(f"no sphere rule for n = {n} (supported: 1, 2, 3)")
    return QuadratureRule(dim=n, nodes=nodes, weights=weights, exactness=int(degree))


def _values_at_nodes(f, nodes, what="integrand"):
    values = np.asarray(f(nodes), dtype=float)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))
        idx = int(bad[0][0])
        raise EvaluationError(
            f"{what} non-finite at node {idx}: {nodes[idx].tolist()}"
        )
    return values

def integrate(rule, f):
    """Integrate f over the sphere.

    f maps the (N, n+1) node array to values of shape (N,) or (N, k).
    Summation is exactly-rounded (math.fsum) in ascending node order, per
    output component, so results are independent of threading.
    """
    values = _values_at_nodes(f, rule.nodes)
    if values.ndim == 1:
        return math.fsum((values * rule.weights).tolist())
    if values.ndim == 2:
        weighted = values * rule.weights[:, None]
        return np.array([math.fsum(weighted[:, j].tolist()) for j in range(values.shape[1])])
    raise DomainError("integrand must return scalars or 1-D vectors per node")


def integrate_projective(rule, f):
    """Integrate an even integrand over projective space (= half sphere integral)."""
    sample = rule.nodes[: min(32, rule.size)]
    plus = np.asarray(f(sample), dtype=float)
    minus = np.asarray(f(-sample), dtype=float)
    scale = np.max(np.abs(plus)) + 1.0
    if np.max(np.abs(plus - minus)) > 1e-9 * scale:
        raise DomainError("integrand is not even; projective integral undefined")
    result = integrate(rule, f)
    return 0.5 * result


def antipodal_permutation(rule, tol=1e-10):
    """Index permutation sending each node to its antipode; error if absent."""
    keyed = {}
    for i, node in enumerate(rule.nodes):
        keyed[tuple(np.round(node / tol).astype(np.int64))] = i
    perm = np.empty(rule.size, dtype=int)
    for i, node in enumerate(rule.nodes):
        key = tuple(np.round(-node / tol).astype(np.int64))
        j = keyed.get(key)
        if j is None:
            # rounding straddled a bin edge; fall back to direct search
            dist = np.linalg.norm(rule.nodes + node, axis=1)
            j = int(np.argmin(dist))
            if dist[j] > tol * 100:
                raise DomainError(f"node set not antipodally symmetric at index {i}")
        perm[i] = j
    return perm


# ---------------------------------------------------------------------------
# Parametric surfaces


_FD_STEP = 1e-6  # central-difference step for charts without a jacobian


@dataclass
class ParamSurface:
    """Surface chart into a sphere with a quadrature rule on its parameters.

    chart maps parameter rows (N, param_dim) -> ambient rows (N, M+1).
    jacobian, when given, returns (N, M+1, param_dim) and skips finite
    differences.
    """

    param_dim: int
    chart: Callable[[np.ndarray], np.ndarray]
    nodes: np.ndarray
    weights: np.ndarray
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    param_range: Optional[tuple] = None  # exact domain: (lo, hi), or one such per axis

    def with_rule(self, nodes, weights):
        return replace(
            self,
            nodes=np.asarray(nodes, dtype=float),
            weights=np.asarray(weights, dtype=float),
        )

    def jacobian_at(self, params):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(params), dtype=float)
        params = np.atleast_2d(np.asarray(params, dtype=float))
        axes = np.eye(self.param_dim)[None]
        return _central_differences(self.chart, params, axes, _FD_STEP, on_sphere=False)


def surface_measure(surface, weight=None, nodes=None, weights=None):
    """Weighted area of the chart image, counted with multiplicity.

    Computes sum_i w_i * weight(chart(z_i)) * sqrt(det(J^T J))(z_i) over the
    surface's parameter rule (or an override rule).
    """
    nodes = surface.nodes if nodes is None else np.asarray(nodes, dtype=float)
    weights = surface.weights if weights is None else np.asarray(weights, dtype=float)
    points = _values_at_nodes(surface.chart, nodes, what="chart")
    jac = surface.jacobian_at(nodes)
    gram = np.einsum("nij,nik->njk", jac, jac)
    if gram.shape[-1] == 1:
        density = np.sqrt(gram[..., 0, 0])
    else:
        det = np.linalg.det(gram)
        if np.min(det) < -1e-12:
            raise EvaluationError("negative Gram determinant in surface measure")
        density = np.sqrt(np.maximum(det, 0.0))
    if weight is None:
        factors = density
    else:
        wvals = _values_at_nodes(weight, points, what="surface weight")
        factors = density * wvals
    if not np.all(np.isfinite(factors)):
        raise EvaluationError("non-finite surface measure integrand")
    return math.fsum((weights * factors).tolist())


def interval_rule(a, b, count):
    """Gauss-Legendre rule on [a, b], as (N, 1) parameter nodes and weights."""
    x, w = np.polynomial.legendre.leggauss(count)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid + half * x)[:, None], half * w


def graded_interval_rule(a, b, focus, levels=20, panel_points=10, ratio=0.5):
    """Panel rule on [a, b] geometrically refined toward an interior focus.

    Panels shrink by `ratio` per level approaching the focus from both
    sides, resolving integrands that concentrate there.
    """
    if not a <= focus <= b:
        focus = min(max(focus, a), b)
    breakpoints = {a, b, focus}
    for outer in (a, b):
        span = abs(outer - focus)
        if span < 1e-15:
            continue
        step = span
        for _ in range(levels):
            step *= ratio
            breakpoints.add(focus + math.copysign(step, outer - focus))
    cuts = sorted(breakpoints)
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-300:
            continue
        pn, pw = interval_rule(lo, hi, panel_points)
        nodes.append(pn)
        weights.append(pw)
    return np.concatenate(nodes, axis=0), np.concatenate(weights)


def _tensor_rule(rule_x, rule_y):
    """Tensor product of two interval rules, nodes shaped (N, 2)."""
    (nx, wx), (ny, wy) = rule_x, rule_y
    nodes = np.stack(
        [np.repeat(nx[:, 0], ny.shape[0]), np.tile(ny[:, 0], nx.shape[0])], axis=-1
    )
    return nodes, (wx[:, None] * wy[None, :]).ravel()


def product_rectangle_rule(x_range, y_range, count_x, count_y):
    """Tensor Gauss-Legendre rule on a rectangle, nodes shaped (N, 2)."""
    return _tensor_rule(interval_rule(*x_range, count_x), interval_rule(*y_range, count_y))
