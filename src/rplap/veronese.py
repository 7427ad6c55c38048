"""Generalized Veronese maps: quadratic sphere embeddings and Jacobians.

The degree-n map sends R^{n+1} -> R^{m} with m = n(n+3)/2, is even, satisfies
|map(x)| = |x|^2, and restricts on the unit sphere to a conformal embedding of
the projective space with stretch sqrt(2(n+1)/n).  Component k is the
quadratic form x^T Q_k x, and the forms are defined inductively: the base
case on R^2 is (2 x1 x2, x1^2 - x2^2), and each step appends the products
x_i x_{n+1} and a trace-balancing component.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "VeroneseConstants",
    "constants",
    "output_dim",
    "quadratic_forms",
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
    """

    conformal_scale: float
    radial_coeff: float


@lru_cache(maxsize=None)
def constants(n):
    output_dim(n)  # rejects n < 1
    return VeroneseConstants(
        conformal_scale=math.sqrt(2.0 * (n + 1) / n),
        radial_coeff=math.sqrt(2.0 * (n - 1) / n),
    )


@lru_cache(maxsize=None)
def quadratic_forms(n):
    """The map's quadratic forms: read-only Q of shape (out_dim, n+1, n+1),
    symmetric, with component k of the map equal to x^T Q[k] x.

    The forms are traceless and Frobenius-orthogonal, each with squared
    Frobenius norm (n+1)/n, so they span the traceless symmetric matrices.
    """
    output_dim(n)  # rejects n < 1
    forms = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    for k in range(2, n + 1):
        scale = constants(k).conformal_scale
        old, head = forms.shape[0], np.arange(k)
        new = np.zeros((old + k + 1, k + 1, k + 1))
        new[:old, :k, :k] = forms * (scale / constants(k - 1).conformal_scale)
        new[old + head, head, k] = new[old + head, k, head] = 0.5 * scale  # x_i x_{k+1}
        new[-1] = np.diag(np.r_[np.ones(k), -k]) / k  # trace balancing
        forms = new
    forms.flags.writeable = False
    return forms


@lru_cache(maxsize=None)
def _contractions(n):
    """Q as matrices for the two batched contractions: the map is the
    degree-2 monomials x_i x_j (i <= j) times `pairs`, the Jacobian is x times
    `rows` reshaped, with row k of the Jacobian equal to 2 Q[k] x."""
    forms = quadratic_forms(n)
    upper = np.triu_indices(n + 1)
    pairs = (forms * (2.0 - np.eye(n + 1)))[:, upper[0], upper[1]].T.copy()
    rows = np.ascontiguousarray(2.0 * forms.transpose(2, 0, 1).reshape(n + 1, -1))
    return upper, pairs, rows


def _checked(n, x):
    output_dim(n)  # rejects n < 1
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n + 1:
        raise DomainError(f"expected {n + 1} coordinates, got {x.shape[-1]}")
    return x


def veronese_apply(n, x):
    """Evaluate the degree-n map at x (last axis has n+1 coordinates)."""
    x = _checked(n, x)
    (left, right), pairs, _ = _contractions(n)
    return (x[..., left] * x[..., right]) @ pairs


def veronese_jacobian(n, x):
    """Jacobian of the degree-n map, shape (..., out_dim, n+1): row k is
    2 Q[k] x.  The Gram identity
    J^T J = conformal_scale^2 |x|^2 I + radial_coeff^2 x x^T holds exactly.
    """
    x = _checked(n, x)
    rows = _contractions(n)[2]
    return (x @ rows).reshape(x.shape[:-1] + (output_dim(n), n + 1))
