"""Laplacian spectra of conformal metrics on real projective space.

A metric is specified by a conformal factor w = scale * exp(u) against the
round metric on S^n (n = 2 or 3), with u a finite expansion in even
harmonics, so w is positive and even by construction.  One weighting,
`_projective_weights`, serves every integral over projective space: it keeps
the rule's first half, one node per antipodal pair, and multiplies those
nodes' weights by the volume density w^{n/2} or the Dirichlet-energy weight
w^{(n-2)/2}; it is also the one check that w is representable there.
Every integrand is even, so this sum equals half the full-sphere sum.
Eigenvalues are computed by Galerkin projection onto even-degree spherical
harmonics.  The mass matrix is the Gram product of the basis values at the
projective nodes, reweighted per factor by the square roots of its weights;
those values do not depend on w and are computed once per (n, degree).  The
stiffness needs no gradient table.  In n = 2 the energy weight is 1, so the
stiffness does not depend on w either: diag(k(k+1)) up to the basis's
rounding, computed once per degree.  In n = 3 each ambient partial of a basis
function is a fixed combination of the odd harmonics one degree lower, so
the stiffness is two more weighted Gram products, of the odd and the even
values, mapped through those fixed combinations.  A Cholesky factorization
of the mass matrix inside the dense symmetric eigensolver reduces the
generalized problem.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
import math
import sys
from typing import Optional

import numpy as np
import scipy.linalg

from . import harmonics
from ._blas import single_thread
from .errors import AssemblyError, ConfigError, DomainError, NumericError
from .quadrature import QuadratureRule, build_sphere_rule, projective_volume

__all__ = [
    "DEFAULT_BASIS_DEGREE",
    "HarmonicExpansion",
    "ConformalFactor",
    "round_factor",
    "constant_factor",
    "zonal_factor",
    "harmonic_factor",
    "parse_factor",
    "default_rule",
    "volume",
    "normalize_volume",
    "assemble_matrices",
    "eigenvalues",
    "EigenResult",
    "first_excited_state",
    "cluster_eigenvalues",
]

DEFAULT_BASIS_DEGREE = {2: 8, 3: 6}
_RULE_MARGIN = 8  # degrees of exactness beyond twice the basis degree


@dataclass(frozen=True)
class HarmonicExpansion:
    """Scalar field given by harmonic-basis coefficients."""

    basis: harmonics.HarmonicBasis
    coeffs: np.ndarray

    def __call__(self, points):
        return self.basis.evaluate(points) @ self.coeffs

    def tangential_gradient(self, points):
        return np.swapaxes(self.basis.tangential_gradients(points), 1, 2) @ self.coeffs


@dataclass(frozen=True)
class ConformalFactor:
    """Positive even weight w = scale * exp(u) on S^n defining the metric w * g.

    u, the `log`, is a finite expansion in even harmonics, so w is even and
    positive by construction.  normalize_volume adjusts only the scale;
    `label` is carried into reports.
    """

    log: HarmonicExpansion
    scale: float = 1.0
    label: str = "custom"

    @property
    def sphere_dim(self):
        return self.log.basis.sphere_dim

    def values(self, points):
        return self.scale * np.exp(self.log(points))

    def density(self, points):
        """Volume density w^{n/2} against the round measure."""
        return self.values(points) ** (self.sphere_dim / 2.0)


def _factor(n, label, terms=(), scale=1.0):
    """scale * exp(u), u the sum of c * Y over the (degree, index, c) terms.

    The one constructor of the factor families: harmonics.basis rejects any
    dimension but 2 and 3, and the scale and every coefficient must be finite.
    """
    base = harmonics.basis(n, max((d for d, _, _ in terms), default=0))
    coeffs = np.zeros(base.size)
    for d, i, c in terms:
        coeffs[base.index_of(d, i)] += c
    if not (math.isfinite(scale) and np.all(np.isfinite(coeffs))):
        raise DomainError(f"conformal factor '{label}' not finite")
    if scale <= 0:
        raise DomainError(f"conformal factor '{label}' not positive")
    return ConformalFactor(HarmonicExpansion(base, coeffs), float(scale), label)


def round_factor(n):
    """The round metric: w identically 1."""
    return _factor(n, "round")


def constant_factor(n, value):
    return _factor(n, f"const:{value:g}", scale=value)


@lru_cache(maxsize=None)
def _zonal_quadratic(n):
    """Degree-2 block coefficients of the harmonic quadratic y_n^2 - |y|^2 / (n+1)."""
    block = harmonics.basis(n, 2).blocks[1]
    exps = np.array(harmonics._monomial_exponents(n + 1, 2))
    target = (exps[:, n] == 2) - (exps.max(axis=1) == 2) / (n + 1.0)
    return np.linalg.lstsq(block.coeffs, target, rcond=None)[0]


def zonal_factor(n, eps):
    """w = exp(eps * (y_n^2 - 1/(n+1))): a zonal degree-2 perturbation."""
    terms = [(2, i, eps * c) for i, c in enumerate(_zonal_quadratic(n))]
    return _factor(n, f"zonal:{eps:g}", terms)


def harmonic_factor(n, triples):
    """w = exp(u) with u given by (degree, index, coefficient) triples.

    Degrees must be even and nonnegative; coefficients are real.  Index i in
    a degree block names the orthonormal harmonic (unit mass over projective
    space) led by the block's i-th monomial with y_0 exponent at most 1, in
    descending exponent order.
    """
    triples = tuple((int(d), int(i), float(c)) for d, i, c in triples)
    if not triples:
        raise DomainError("empty harmonic coefficient list")
    label = "exp:" + ";".join(f"{d},{i},{c:g}" for d, i, c in triples)
    return _factor(n, label, triples)


def parse_factor(text, n):
    """Parse a conformal-factor specification string.

    Formats: "round" | "const:VALUE" | "zonal:EPS" (alias "zonal-eps:EPS") |
    "exp:DEG,IDX,COEF[;DEG,IDX,COEF...]".
    """
    text = text.strip()
    try:
        if text == "round":
            return round_factor(n)
        if text.startswith("const:"):
            return constant_factor(n, float(text.split(":", 1)[1]))
        if text.startswith("zonal:") or text.startswith("zonal-eps:"):
            return zonal_factor(n, float(text.split(":", 1)[1]))
        if text.startswith("exp:"):
            items = [part for part in text.split(":", 1)[1].split(";") if part.strip()]
            triples = []
            for item in items:
                d, i, c = item.split(",")
                triples.append((int(d), int(i), float(c)))
            return harmonic_factor(n, triples)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad conformal factor spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown conformal factor spec {text!r}")


def _basis_degree(n, basis_degree):
    """basis_degree, or if None the default for dimension n (DomainError unless 2 or 3)."""
    if basis_degree is not None:
        return basis_degree
    if n not in DEFAULT_BASIS_DEGREE:
        raise DomainError(f"no default basis degree for dimension {n}; supported: 2, 3")
    return DEFAULT_BASIS_DEGREE[n]


def default_rule(n, basis_degree=None):
    """Assembly quadrature: exact through twice the basis degree plus _RULE_MARGIN."""
    return build_sphere_rule(n, 2 * _basis_degree(n, basis_degree) + _RULE_MARGIN)


def _projective_weights(w, rule):
    """The rule's projective nodes, w there, and the metric's weights there.

    The projective nodes are the rule's first half, one node per antipodal
    pair.  Returns (nodes, wv, mass, energy) with mass = rule weight *
    w^{n/2} and energy = rule weight * w^{(n-2)/2} at those nodes.  Raises
    AssemblyError unless every mass weight is positive and their sum is
    finite: an underflow of w reads as not positive, an overflow as not finite.
    """
    n = w.sphere_dim
    m = rule.size // 2
    nodes, weights = rule.nodes[:m], rule.weights[:m]
    # exp(u) underflows or overflows where |u| is large: the checks below
    # report either, so numpy's overflow warning is silenced
    with np.errstate(over="ignore"):
        wv = w.values(nodes)
        mass = weights * wv ** (n / 2.0)
        total = np.sum(mass)
    if not np.all(mass > 0):
        raise AssemblyError("conformal factor not positive at quadrature nodes")
    if not np.isfinite(total):
        raise AssemblyError("conformal factor not finite at quadrature nodes")
    return nodes, wv, mass, weights * wv ** ((n - 2) / 2.0)


def volume(w, rule=None):
    """Volume of projective space under the metric w * g."""
    if rule is None:
        rule = default_rule(w.sphere_dim)
    _, _, mass, _ = _projective_weights(w, rule)
    return math.fsum(mass.tolist())


def normalize_volume(w, rule=None):
    """Rescale w so the metric volume equals the round projective volume.

    Only the scalar scale changes; applying the operation twice is a no-op.
    A volume below the smallest normal float has lost its precision, and one
    whose rescaled scale overflows cannot be rescaled: either is an
    AssemblyError, worded as the underflow of w it comes from.
    """
    current = volume(w, rule=rule)
    scale = w.scale * (projective_volume(w.sphere_dim) / current) ** (2.0 / w.sphere_dim)
    if current < sys.float_info.min or not math.isfinite(scale):
        raise AssemblyError("conformal factor not positive at quadrature nodes")
    return replace(w, scale=scale)


@dataclass(frozen=True)
class _BasisTables:
    """Read-only tables at the default rule's projective nodes, fixed per (n, degree).

    values (N, size) holds the even basis Y.  For n = 2, stiffness is the
    stiffness matrix, which does not depend on the factor.  For n = 3,
    odd_values (N, odd size) holds the odd basis Z of harmonics.gradient_maps
    and maps its C, with the ambient partial d_a Y = Z C[a].
    """

    rule: QuadratureRule
    values: np.ndarray
    stiffness: Optional[np.ndarray] = None
    odd_values: Optional[np.ndarray] = None
    maps: Optional[np.ndarray] = None


def _gram(table, weight):
    """G^T G for G = table * sqrt(weight) row by row: exactly symmetric."""
    rows = table * np.sqrt(weight)[:, None]
    return rows.T @ rows


@lru_cache(maxsize=None)
def _basis_tables(n, basis_degree):
    if basis_degree < 2 or basis_degree % 2:
        raise DomainError(f"basis degree must be even and >= 2, got {basis_degree}")
    rule, base = default_rule(n, basis_degree), harmonics.basis(n, basis_degree)
    m = rule.size // 2
    values = base.evaluate(rule.nodes[:m])
    stiffness = odd_values = maps = None
    if n == 2:
        # Green's identity on the sphere, exact under the rule: the gradient
        # Gram is the value Gram scaled by sqrt(k_i(k_i+1) k_j(k_j+1))
        roots = np.sqrt(base.degrees * (base.degrees + 1.0))
        stiffness = _gram(values * roots, rule.weights[:m])
    else:
        odd, maps = harmonics.gradient_maps(n, basis_degree)
        odd_values = odd.evaluate(rule.nodes[:m])
    for array in (rule.nodes, rule.weights, values, stiffness, odd_values):
        if array is not None:
            array.flags.writeable = False
    return _BasisTables(rule, values, stiffness, odd_values, maps)


def assemble_matrices(w, basis_degree=None):
    """Galerkin stiffness/mass matrices over the even-harmonic basis.

    Returns (stiffness, mass, basis, rule).  Mass entries integrate
    Y_i Y_j w^{n/2} over projective space (one node per antipodal pair), a
    Gram product of the cached value table.  Stiffness entries integrate
    grad Y_i . grad Y_j w^{(n-2)/2}.  For n = 2 that weight is 1: the
    stiffness is the cached one, diag(k(k+1)) up to the basis's rounding.
    For n = 3, on the unit sphere grad_T Y_i . grad_T Y_j = sum_a d_a Y_i
    d_a Y_j - k_i k_j Y_i Y_j, so with phi = w^{1/2} the same quadrature sums
    regroup into K = sum_a C_a^T M^odd_phi C_a - D M_phi D: Gram products of
    the odd and even value tables, D = diag(k).  Both matrices are exactly
    symmetric; the mass matrix must be positive definite.
    """
    n = w.sphere_dim
    basis_degree = _basis_degree(n, basis_degree)
    tables = _basis_tables(n, basis_degree)
    base = harmonics.basis(n, basis_degree)
    _, _, mass_weight, energy_weight = _projective_weights(w, tables.rule)
    mass = _gram(tables.values, mass_weight)
    if n == 2:
        stiffness = tables.stiffness.copy()
    else:
        maps = tables.maps.reshape(-1, base.size)
        partials = (_gram(tables.odd_values, energy_weight) @ tables.maps).reshape(-1, base.size)
        stiffness = maps.T @ partials
        stiffness -= np.outer(base.degrees, base.degrees) * _gram(tables.values, energy_weight)
        stiffness = 0.5 * (stiffness + stiffness.T)
    try:
        scipy.linalg.cholesky(mass)
    except scipy.linalg.LinAlgError as exc:
        raise AssemblyError(
            "mass matrix not positive definite; quadrature too coarse for the basis"
        ) from exc
    return stiffness, mass, base, tables.rule


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues (with multiplicity) and mass-orthonormal vectors."""

    basis_degree: int
    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns, mass-orthonormal
    basis: harmonics.HarmonicBasis


def eigenvalues(w, basis_degree=None, count=None):
    """Solve the Galerkin eigenproblem for the metric w * g on RP^n.

    Returns an EigenResult with the `count` smallest eigenvalues (all by
    default), ascending, repeated by multiplicity.
    """
    if count is not None and count < 1:
        raise DomainError(f"eigenvalue count must be >= 1, got {count}")
    with single_thread():
        stiffness, mass, base, _ = assemble_matrices(w, basis_degree)
        try:
            vals, vecs = scipy.linalg.eigh(stiffness, mass)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NumericError(
                "generalized eigensolver failed; "
                f"cond(mass) = {np.linalg.cond(mass):.3e}, "
                f"cond(stiffness) = {np.linalg.cond(stiffness):.3e}"
            ) from exc
    if count is not None:
        vals = vals[:count]
        vecs = vecs[:, :count]
    return EigenResult(basis_degree=base.max_degree, eigenvalues=vals, vectors=vecs, basis=base)


def first_excited_state(result):
    """Eigenfunction of the smallest positive eigenvalue (index 1).

    With V the mass-orthonormal vectors of that eigenvalue's cluster and j
    the first row with |V[j]| > 1e-8, this is V V[j] / |V[j]|, whatever basis
    of the eigenspace the solver returned: mass-normalized, positive in its
    j-th coefficient and mass-orthogonal to the constants, hence of zero mean
    against the metric volume element.
    """
    if result.eigenvalues.shape[0] < 2:
        raise DomainError("need at least two eigenpairs for the excited state")
    count = cluster_eigenvalues(result.eigenvalues[1:])[0][1]
    vecs = result.vectors[:, 1 : 1 + count]
    row = vecs[np.flatnonzero(np.linalg.norm(vecs, axis=1) > 1e-8)[0]]
    return HarmonicExpansion(basis=result.basis, coeffs=vecs @ row / np.linalg.norm(row))


def cluster_eigenvalues(values, tol=1e-6):
    """Group ascending eigenvalues into (value, multiplicity) clusters."""
    clusters = []
    for val in np.asarray(values, dtype=float):
        if clusters and abs(val - clusters[-1][0]) <= tol * max(1.0, abs(val)):
            mean, count = clusters[-1]
            clusters[-1] = ((mean * count + val) / (count + 1), count + 1)
        else:
            clusters.append((float(val), 1))
    return [(float(v), int(c)) for v, c in clusters]
