"""Generalized Veronese maps: quadratic sphere embeddings and Jacobians.

The degree-n map sends R^{n+1} -> R^{m} with m = n(n+3)/2, is even, satisfies
|map(x)| = |x|^2, and restricts on the unit sphere to a conformal embedding of
the projective space with stretch sqrt(2(n+1)/n).  It is defined inductively:
the base case on R^2 is (2 x1 x2, x1^2 - x2^2), and each step appends the
products x_i x_{n+1} and a trace-balancing component.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError
from .sphere_geom import _dot

__all__ = [
    "VeroneseConstants",
    "constants",
    "output_dim",
    "veronese_apply",
    "veronese_jacobian",
]


def output_dim(n):
    """Number of components of the degree-n map: n(n+3)/2."""
    if n < 1:
        raise DomainError(f"Veronese degree must be >= 1, got {n}")
    return n * (n + 3) // 2


@dataclass(frozen=True)
class VeroneseConstants:
    """Scaling constants of the degree-n map.

    conformal_scale: stretch factor on tangent vectors at |x| = 1,
        sqrt(2(n+1)/n).
    radial_coeff: sqrt(2(n-1)/n); the Jacobian Gram matrix is
        conformal_scale^2 |x|^2 I + radial_coeff^2 x x^T.
    trace_coeff: sqrt(2/(n(n+1))); gradient weight of the trace-balancing
        component in the inductive step.
    """

    dim: int
    out_dim: int
    conformal_scale: float
    radial_coeff: float
    trace_coeff: float


@lru_cache(maxsize=None)
def constants(n):
    if n < 1:
        raise DomainError(f"Veronese degree must be >= 1, got {n}")
    return VeroneseConstants(
        dim=n,
        out_dim=output_dim(n),
        conformal_scale=math.sqrt(2.0 * (n + 1) / n),
        radial_coeff=math.sqrt(2.0 * (n - 1) / n),
        trace_coeff=math.sqrt(2.0 / (n * (n + 1))),
    )


def _base_apply(x):
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([2.0 * x1 * x2, x1 * x1 - x2 * x2], axis=-1)


def veronese_apply(n, x):
    """Evaluate the degree-n map at x (last axis has n+1 coordinates)."""
    if n < 1:
        raise DomainError(f"Veronese degree must be >= 1, got {n}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n + 1:
        raise DomainError(f"expected {n + 1} coordinates, got {x.shape[-1]}")
    out = _base_apply(x)
    for k in range(2, n + 1):
        scale = constants(k).conformal_scale
        prev_scale = constants(k - 1).conformal_scale
        head = x[..., :k]
        tail = x[..., k : k + 1]
        trace_part = (_dot(head, head)[..., None] - k * tail * tail) / (k * scale)
        out = scale * np.concatenate([out / prev_scale, head * tail, trace_part], axis=-1)
    return out


def _base_jacobian(x):
    x1, x2 = x[..., 0], x[..., 1]
    jac = np.empty(x.shape[:-1] + (2, 2))
    jac[..., 0, 0] = 2.0 * x2
    jac[..., 0, 1] = 2.0 * x1
    jac[..., 1, 0] = 2.0 * x1
    jac[..., 1, 1] = -2.0 * x2
    return jac


def veronese_jacobian(n, x):
    """Jacobian of the degree-n map, shape (..., out_dim, n+1).

    Built by the same induction as the map itself; the Gram identity
    J^T J = conformal_scale^2 |x|^2 I + radial_coeff^2 x x^T holds exactly.
    """
    if n < 1:
        raise DomainError(f"Veronese degree must be >= 1, got {n}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n + 1:
        raise DomainError(f"expected {n + 1} coordinates, got {x.shape[-1]}")
    jac = _base_jacobian(x)
    for k in range(2, n + 1):
        cst = constants(k)
        scale = cst.conformal_scale
        prev_scale = constants(k - 1).conformal_scale
        head = x[..., :k]
        tail = x[..., k]
        rows_prev = jac.shape[-2]
        new = np.zeros(x.shape[:-1] + (rows_prev + k + 1, k + 1))
        new[..., :rows_prev, :k] = jac * (scale / prev_scale)
        # product components x_i * x_{k+1}
        idx = np.arange(k)
        new[..., rows_prev + idx, idx] = scale * tail[..., None]
        new[..., rows_prev : rows_prev + k, k] = scale * head
        # trace-balancing component
        new[..., rows_prev + k, :k] = scale * cst.trace_coeff * head
        new[..., rows_prev + k, k] = -2.0 * tail
        jac = new
    return jac
