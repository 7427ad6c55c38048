"""Real spherical harmonics on S^n as explicit harmonic polynomials.

Each degree block is a basis of homogeneous harmonic polynomials in n+1
variables that the maths fixes, not a solver's choice of basis.  Every
monomial y^alpha with alpha_0 <= 1 leads exactly one harmonic: itself plus
monomials with alpha_0 >= 2, whose coefficients one triangular solve of
Laplace's equation gives.  Gram-Schmidt in that monomial order against the
exact half-sphere (projective) inner product, the inverse Cholesky factor of
the Gram matrix, makes the projective mass matrix the identity and keeps the
basis a continuous function of the monomial integrals.  Explicit monomial
coefficients give exact evaluation and exact ambient gradients: one
recursive table holds the monomials of every degree at the points (level k is
level k-1 times one coordinate), and each block maps its level to values and
the level below to gradients with one matrix product each.  Each ambient
partial of a degree-k harmonic is a harmonic of degree k - 1, so the partials
of the even basis are fixed linear maps onto the odd harmonics below it.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
import math
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.special import gammaln

from .errors import DomainError, NumericError

__all__ = ["HarmonicBasis", "basis", "gradient_maps", "harmonic_space_dim", "round_eigenvalue"]


def round_eigenvalue(degree, n):
    """Laplacian eigenvalue of degree-`degree` harmonics on the round S^n."""
    return float(degree * (degree + n - 1))


def harmonic_space_dim(n, degree):
    """Dimension of the space of degree-`degree` harmonics on S^n."""
    d = n + 1
    if degree == 0:
        return 1
    return (2 * degree + d - 2) * math.comb(degree + d - 3, degree - 1) // (degree)


@lru_cache(maxsize=None)
def _monomial_exponents(dim, degree):
    """All exponent tuples of total degree `degree` in `dim` variables."""
    exps = set()
    for combo in combinations_with_replacement(range(dim), degree):
        alpha = [0] * dim
        for var in combo:
            alpha[var] += 1
        exps.add(tuple(alpha))
    return tuple(sorted(exps, reverse=True))


@lru_cache(maxsize=None)
def _monomial_tails(dim, degree):
    """Per variable y_v, where its run of degree - 1 monomials starts.

    In descending order, the degree-`degree` monomials whose first nonzero
    exponent is that of y_v are one run: y_v times the degree - 1 monomials
    from the first one free of y_0 .. y_{v-1} to the last, in order.
    """
    lower = _monomial_exponents(dim, degree - 1)
    return tuple(next(i for i, a in enumerate(lower) if not any(a[:v])) for v in range(dim))


def _monomial_levels(points, degree):
    """Monomials of each degree 0..degree at the points, one (n_mono, N) array per degree.

    Level k is level k - 1 times one coordinate per run, written in place.
    """
    coords = np.ascontiguousarray(points.T)
    levels = [np.ones((1, coords.shape[1]))]
    for k in range(1, degree + 1):
        runs = [levels[-1][start:] for start in _monomial_tails(coords.shape[0], k)]
        level = np.empty((sum(run.shape[0] for run in runs), coords.shape[1]))
        row = 0
        for run, coord in zip(runs, coords):
            np.multiply(run, coord, out=level[row : row + run.shape[0]])
            row += run.shape[0]
        levels.append(level)
    return levels


def _partial_matrix(exps, exps_lower, var, order):
    """Matrix of the order-th partial in y_var from coefficients over exps to exps_lower."""
    index = {alpha: i for i, alpha in enumerate(exps_lower)}
    mat = np.zeros((len(exps_lower), len(exps)))
    for j, alpha in enumerate(exps):
        if alpha[var] >= order:
            lower = list(alpha)
            lower[var] -= order
            mat[index[tuple(lower)], j] = math.perm(alpha[var], order)
    return mat


@dataclass(frozen=True)
class _Block:
    degree: int
    coeffs: np.ndarray  # (n_mono_k, n_harmonics), over _monomial_exponents(d, degree)
    # ambient gradients over the degree k-1 monomials, axis-major; None at k = 0
    grad_coeffs: Optional[np.ndarray]  # (n_mono_{k-1}, d * n_harmonics)


@lru_cache(maxsize=None)
def _harmonic_block(n, degree):
    d = n + 1
    exps = _monomial_exponents(d, degree)
    exp_arr = np.array(exps, dtype=int)
    # alpha -> alpha - 2 e_0 maps the monomials that are not free onto the
    # degree - 2 ones in order: their Laplacian columns are upper triangular
    free = exp_arr[:, 0] <= 1
    lower = [(alpha[0] - 2,) + alpha[1:] for alpha in exps if alpha[0] >= 2]
    lap = sum(_partial_matrix(exps, lower, var, 2) for var in range(d))
    coeffs = np.zeros((len(exps), int(free.sum())))
    coeffs[free] = np.eye(coeffs.shape[1])
    coeffs[~free] = -solve_triangular(lap[:, ~free], lap[:, free])
    # projective integral of y^b: prod Gamma((b_i + 1) / 2) / Gamma((|b| + d) / 2)
    # if every b_i is even, else 0
    sums = exp_arr[:, None, :] + exp_arr[None, :, :]
    log_gram = gammaln((sums + 1) / 2.0).sum(axis=-1) - gammaln((sums.sum(axis=-1) + d) / 2.0)
    mono_gram = np.where(np.all(sums % 2 == 0, axis=-1), np.exp(log_gram), 0.0)
    try:
        chol = cholesky(coeffs.T @ mono_gram @ coeffs)
    except LinAlgError as exc:
        raise NumericError(f"harmonic Gram matrix not positive at degree {degree}") from exc
    coeffs = solve_triangular(chol, coeffs.T, trans="T").T
    grad_coeffs = None
    if degree > 0:
        lower = _monomial_exponents(d, degree - 1)
        grad_coeffs = np.concatenate(
            [_partial_matrix(exps, lower, var, 1) @ coeffs for var in range(d)], axis=1
        )
        grad_coeffs.flags.writeable = False
    coeffs.flags.writeable = False
    return _Block(degree=degree, coeffs=coeffs, grad_coeffs=grad_coeffs)


@dataclass(frozen=True)
class HarmonicBasis:
    """Harmonic basis on S^n of one parity up to a maximal degree.

    `basis` gives the even degrees; `gradient_maps` the odd ones below them.

    Functions are indexed by (degree block, position inside block); the mass
    matrix over projective space (half sphere) is the identity.
    """

    sphere_dim: int
    max_degree: int
    blocks: tuple

    @property
    def size(self):
        return sum(b.coeffs.shape[1] for b in self.blocks)

    @property
    def degrees(self):
        """Degree of each basis function, aligned with evaluation columns."""
        return np.repeat([b.degree for b in self.blocks], [b.coeffs.shape[1] for b in self.blocks])

    def index_of(self, degree, position):
        offset = 0
        for b in self.blocks:
            if b.degree == degree:
                if not 0 <= position < b.coeffs.shape[1]:
                    raise DomainError(
                        f"harmonic index {position} out of range for degree {degree}"
                    )
                return offset + position
            offset += b.coeffs.shape[1]
        raise DomainError(f"no degree-{degree} block in basis (max {self.max_degree})")

    def _values(self, levels):
        return np.concatenate([levels[b.degree].T @ b.coeffs for b in self.blocks], axis=1)

    def evaluate(self, points):
        """Values of all basis functions, shape (N, size)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self._values(_monomial_levels(points, self.max_degree))

    def tangential_gradients(self, points):
        """Sphere gradients at unit points, grad P - degree * P * y, shape (N, size, d).

        The result is the swapaxes view of a C-contiguous (N, d, size) array.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        levels = _monomial_levels(points, self.max_degree)
        values = self._values(levels)
        count, d = points.shape
        out = np.zeros((count, d, self.size))
        start = 0
        for b in self.blocks:
            cols = slice(start, start + b.coeffs.shape[1])
            start = cols.stop
            if b.grad_coeffs is not None:
                out[:, :, cols] = (levels[b.degree - 1].T @ b.grad_coeffs).reshape(count, d, -1)
        out -= (values * self.degrees)[:, None, :] * points[:, :, None]
        return np.swapaxes(out, 1, 2)


@lru_cache(maxsize=None)
def basis(n, max_degree):
    """Even-degree harmonic basis on S^n (degrees 0, 2, ..., max_degree)."""
    if n not in (2, 3):
        raise DomainError(f"harmonic basis needs dimension 2 or 3, got {n}")
    if max_degree < 0 or max_degree % 2:
        raise DomainError(f"max_degree must be even and >= 0, got {max_degree}")
    blocks = tuple(_harmonic_block(n, deg) for deg in range(0, max_degree + 1, 2))
    return HarmonicBasis(sphere_dim=n, max_degree=max_degree, blocks=blocks)


@lru_cache(maxsize=None)
def gradient_maps(n, max_degree):
    """Odd basis Z of degrees 1, 3, ..., max_degree - 1 and maps C of shape (d, Z.size, size).

    For the even basis Y = basis(n, max_degree), the ambient partial d_a Y is
    Z C[a] exactly: a harmonic of degree k - 1 is fixed by its coefficients on
    the monomials with y_0 exponent at most 1, where the block coefficients are
    an invertible triangle.  C is read-only.
    """
    even = basis(n, max_degree)
    odd = HarmonicBasis(
        sphere_dim=n,
        max_degree=max_degree - 1,
        blocks=tuple(_harmonic_block(n, deg) for deg in range(1, max_degree, 2)),
    )
    d = n + 1
    maps = np.zeros((d, odd.size, even.size))
    row, col = 0, even.blocks[0].coeffs.shape[1]  # degree 0 has no gradient
    for lower, upper in zip(odd.blocks, even.blocks[1:]):
        rows, cols = lower.coeffs.shape[1], upper.coeffs.shape[1]
        free = np.array(_monomial_exponents(d, lower.degree))[:, 0] <= 1
        partials = np.linalg.solve(lower.coeffs[free], upper.grad_coeffs[free])
        maps[:, row : row + rows, col : col + cols] = partials.reshape(rows, d, cols).swapaxes(0, 1)
        row, col = row + rows, col + cols
    maps.flags.writeable = False
    return odd, maps
