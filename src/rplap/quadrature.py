"""Quadrature on round spheres S^1, S^2, S^3 and on parametric surfaces.

Sphere rules are product rules (Gauss nodes in polar variables, uniform nodes
in the periodic angle) with a stated total polynomial exactness degree.  Each
rule of N nodes is a hemisphere followed by its exact negation, so its first
N/2 nodes hold one representative of every antipodal pair, and an even
integrand's integral over projective space is its sum over those nodes.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.special import roots_chebyu

from .errors import DomainError, EvaluationError

__all__ = [
    "QuadratureRule",
    "sphere_volume",
    "projective_volume",
    "build_sphere_rule",
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
        m = self.nodes.shape[0] // 2
        if not (
            2 * m == self.nodes.shape[0]
            and (self.nodes[m:] == -self.nodes[:m]).all()
            and (self.weights[m:] == self.weights[:m]).all()
        ):
            raise DomainError("rule is not a hemisphere followed by its negation")

    @property
    def size(self):
        return self.nodes.shape[0]


def _doubled(nodes, weights):
    """A hemisphere rule followed by its exact negation: the full sphere rule."""
    return np.concatenate([nodes, -nodes]), np.concatenate([weights, weights])


def _half_rule(n, degree):
    """The hemisphere half of the product rule on S^n, as (nodes, weights).

    On S^1: the first half of an even count of equally spaced angles.  On
    S^n, n = 2, 3: a Gauss rule in the last coordinate u for the polar weight
    (1 - u^2)^((n-2)/2) (Legendre, Chebyshev second kind; ascending and
    symmetric) times the full S^(n-1) rule on each slice.  The half keeps the
    u < 0 slices and, when there is a u = 0 slice, the S^(n-1) half on it.
    """
    if n == 1:
        count = degree + 1 + (degree + 1) % 2
        angles = 2.0 * math.pi * np.arange(count // 2) / count
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        return nodes, np.full(count // 2, 2.0 * math.pi / count)
    n_polar = (degree + 2) // 2
    u, wu = _gauss_legendre(n_polar) if n == 2 else roots_chebyu(n_polar)
    south = n_polar // 2
    base_half, base_half_weights = _half_rule(n - 1, degree)
    base, base_weights = _doubled(base_half, base_half_weights)
    sin_polar = np.sqrt(1.0 - u[:south] ** 2)
    nodes = np.empty((south * base.shape[0], n + 1))
    nodes[:, :n] = (sin_polar[:, None, None] * base[None, :, :]).reshape(-1, n)
    nodes[:, n] = np.repeat(u[:south], base.shape[0])
    weights = (wu[:south, None] * base_weights[None, :]).ravel()
    if n_polar % 2:
        equator = np.column_stack([base_half, np.zeros(base_half.shape[0])])
        nodes = np.concatenate([nodes, equator])
        weights = np.concatenate([weights, wu[south] * base_half_weights])
    return nodes, weights


def build_sphere_rule(n, degree):
    """Product quadrature on S^n exact for polynomials of total degree <= degree.

    Supported n: 1, 2, 3.  The rule is a hemisphere followed by its exact
    negation, so node i + N/2 is the antipode of node i.
    """
    if degree < 2:
        raise DomainError(f"exactness degree must be >= 2, got {degree}")
    if n not in (1, 2, 3):
        raise DomainError(f"no sphere rule for n = {n} (supported: 1, 2, 3)")
    nodes, weights = _doubled(*_half_rule(n, degree))
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


# ---------------------------------------------------------------------------
# Parametric surfaces


def _chart_density(surface):
    """Chart points and area density sqrt(det(J^T J)) at the nodes of `surface`,
    any object with chart, jacobian, nodes and weights."""
    points = _values_at_nodes(surface.chart, surface.nodes, what="chart")
    jac = np.asarray(surface.jacobian(surface.nodes), dtype=float)
    gram = np.einsum("nij,nik->njk", jac, jac)
    if gram.shape[-1] == 1:
        return points, np.sqrt(gram[..., 0, 0])
    det = np.linalg.det(gram)
    if np.min(det) < -1e-12:
        raise EvaluationError("negative Gram determinant in surface measure")
    return points, np.sqrt(np.maximum(det, 0.0))


def _weighted_area(surface, points, density, weight):
    """sum_i w_i * weight(points_i) * density_i over the `weights` w_i of any surface."""
    if weight is not None:
        density = density * _values_at_nodes(weight, points, what="surface weight")
    if not np.all(np.isfinite(density)):
        raise EvaluationError("non-finite surface measure integrand")
    return math.fsum((surface.weights * density).tolist())


def surface_measure(surface, weight=None):
    """Weighted area of the chart image, counted with multiplicity.

    Computes sum_i w_i * weight(chart(z_i)) * sqrt(det(J^T J))(z_i) over the rule
    (z_i, w_i) of `surface`: any object with a `chart` (N, param_dim) -> (N, M+1),
    its `jacobian` (N, M+1, param_dim), and the rule's `nodes` and `weights`.
    """
    return _weighted_area(surface, *_chart_density(surface), weight)


@lru_cache(maxsize=64)
def _gauss_legendre(count):
    """numpy's Gauss-Legendre nodes and weights on [-1, 1], computed once per count, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def interval_rule(a, b, count):
    """Gauss-Legendre rule on [a, b], as (N, 1) parameter nodes and weights."""
    x, w = _gauss_legendre(count)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid + half * x)[:, None], half * w


def _graded_panels(lo, hi, high, levels, points):
    """Gauss-Legendre panels with interval_rule's arithmetic on each [lo, hi], halving levels[i]
    times toward its end `high` (not under 1e-15); nodes, weights and node counts."""
    levels = np.where(hi - lo < 1e-15, 0, levels)
    which = np.repeat(np.arange(lo.size), levels + 1)
    k = np.arange(which.size) - np.repeat(np.cumsum(levels + 1) - levels - 1, levels + 1)
    up = high == hi
    depth, near, far = levels[which], high[which], np.where(up, lo, hi)[which]
    k, span = np.where(up[which], k, depth - k), far - near  # panels ascend
    cut = lambda j: np.where(j == 0, far, np.where(j > depth, near, near + span * 0.5**j))
    start, stop = np.minimum(cut(k), cut(k + 1)), np.maximum(cut(k), cut(k + 1))
    keep = stop - start >= 1e-300
    mid, half = 0.5 * (start[keep] + stop[keep]), 0.5 * (stop[keep] - start[keep])
    x, w = _gauss_legendre(points)
    counts = np.bincount(which[keep], minlength=lo.size) * points
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel(), counts


def graded_interval_rule(a, b, focus, levels=20, panel_points=10):
    """Panel rule on [a, b] halving `levels` times toward `focus`, clamped to [a, b]."""
    focus = min(max(focus, a), b)
    pieces = np.array([[a, focus], [focus, b]])
    lo, hi = pieces[pieces[:, 1] > pieces[:, 0]].T
    nodes, weights, _ = _graded_panels(lo, hi, 0.0 * lo + focus, levels, panel_points)
    return nodes[:, None], weights


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
