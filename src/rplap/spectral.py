"""Laplacian spectra of conformal metrics on real projective space.

A metric is specified by a positive even conformal factor w against the round
metric on S^n (n = 2 or 3).  One weighting, `_projective_weights`, serves
every integral over projective space: it keeps the rule's first half, one
node per antipodal pair, and multiplies those nodes' weights by the volume
density w^{n/2} or the Dirichlet-energy weight w^{(n-2)/2}.  Every integrand
is even, so this sum equals half the full-sphere sum.  Eigenvalues are
computed by Galerkin projection onto even-degree spherical harmonics.  The
basis values and tangential gradients at the projective nodes do not depend
on w: they are computed once per (n, degree), and each factor only reweights
them by the square roots of its weights into the Gram products that are the
mass and stiffness matrices.  A Cholesky factorization of the mass matrix
inside the dense symmetric eigensolver reduces the generalized problem.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
import math
from typing import Callable

import numpy as np
import scipy.linalg

from . import harmonics
from .errors import AssemblyError, ConfigError, DomainError, NumericError
from .quadrature import build_sphere_rule, projective_volume

__all__ = [
    "DEFAULT_BASIS_DEGREE",
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
    "EigenFunction",
    "first_excited_state",
    "cluster_eigenvalues",
]

DEFAULT_BASIS_DEGREE = {2: 8, 3: 6}
_EVEN_CHECK_SAMPLES = 64
_EVEN_CHECK_SEED = 7
_RULE_MARGIN = 8  # degrees of exactness beyond twice the basis degree


@dataclass(frozen=True)
class ConformalFactor:
    """Positive even weight w on S^n defining the conformal metric w * g.

    `raw` evaluates the unscaled factor at sphere points; `scale` multiplies
    it (normalize_volume adjusts only the scale).  `label` is carried into
    reports; `coeffs` holds (degree, index, coefficient) triples when the
    factor is exp(u) for a finite harmonic expansion u.
    """

    sphere_dim: int
    raw: Callable[[np.ndarray], np.ndarray]
    scale: float = 1.0
    label: str = "custom"
    coeffs: tuple = ()

    def values(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vals = self.scale * np.asarray(self.raw(points), dtype=float)
        return vals

    def density(self, points):
        """Volume density w^{n/2} against the round measure."""
        return self.values(points) ** (self.sphere_dim / 2.0)

    def validate(self):
        rng = np.random.default_rng(_EVEN_CHECK_SEED)
        pts = rng.standard_normal((_EVEN_CHECK_SAMPLES, self.sphere_dim + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        plus = self.values(pts)
        minus = self.values(-pts)
        if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
            raise DomainError(f"conformal factor '{self.label}' not finite")
        if np.min(plus) <= 0.0:
            raise DomainError(f"conformal factor '{self.label}' not positive")
        dev = np.max(np.abs(plus - minus) / np.maximum(np.abs(plus), 1e-300))
        if dev > 1e-12:
            raise DomainError(
                f"conformal factor '{self.label}' not even: relative deviation {dev:.3g}"
            )
        return self


def round_factor(n):
    """The round metric: w identically 1."""
    return ConformalFactor(
        sphere_dim=n, raw=lambda pts: np.ones(pts.shape[0]), label="round"
    ).validate()


def constant_factor(n, value):
    if value <= 0:
        raise DomainError(f"constant conformal factor must be positive, got {value}")
    return ConformalFactor(
        sphere_dim=n,
        raw=lambda pts: np.full(pts.shape[0], float(value)),
        label=f"const:{value:g}",
    ).validate()


def zonal_factor(n, eps):
    """w = exp(eps * (y_last^2 - 1/(n+1))): a zonal degree-2 perturbation."""
    shift = 1.0 / (n + 1)

    def raw(pts):
        return np.exp(eps * (pts[:, -1] ** 2 - shift))

    return ConformalFactor(sphere_dim=n, raw=raw, label=f"zonal:{eps:g}").validate()


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
    max_deg = max(d for d, _, _ in triples)
    for d, i, _ in triples:
        if d < 0 or d % 2:
            raise DomainError(f"harmonic degrees must be even and >= 0, got {d}")
    base = harmonics.basis(n, max_deg)
    weights = np.zeros(base.size)
    for d, i, c in triples:
        weights[base.index_of(d, i)] += c

    def raw(pts):
        return np.exp(base.evaluate(pts) @ weights)

    label = "exp:" + ";".join(f"{d},{i},{c:g}" for d, i, c in triples)
    return ConformalFactor(
        sphere_dim=n, raw=raw, label=label, coeffs=triples
    ).validate()


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
    AssemblyError unless w is positive and finite at every node.
    """
    n = w.sphere_dim
    m = rule.size // 2
    nodes, weights = rule.nodes[:m], rule.weights[:m]
    wv = w.values(nodes)
    if np.min(wv) <= 0 or not np.all(np.isfinite(wv)):
        raise AssemblyError("conformal factor not positive at quadrature nodes")
    return nodes, wv, weights * wv ** (n / 2.0), weights * wv ** ((n - 2) / 2.0)


def volume(w, rule=None):
    """Volume of projective space under the metric w * g."""
    if rule is None:
        rule = default_rule(w.sphere_dim)
    _, _, mass, _ = _projective_weights(w, rule)
    return math.fsum(mass.tolist())


def normalize_volume(w, rule=None):
    """Rescale w so the metric volume equals the round projective volume.

    Only the scalar scale changes; applying the operation twice is a no-op.
    """
    target = projective_volume(w.sphere_dim)
    current = volume(w, rule=rule)
    if current <= 0 or not math.isfinite(current):
        raise DomainError(f"conformal volume not positive: {current}")
    bump = (target / current) ** (2.0 / w.sphere_dim)
    return replace(w, scale=w.scale * bump)


@lru_cache(maxsize=None)
def _basis_tables(n, basis_degree):
    """Read-only (rule, values, grads): the basis values (N, size) and C-contiguous
    tangential gradients (N, d, size) at the default rule's projective nodes."""
    if basis_degree < 2 or basis_degree % 2:
        raise DomainError(f"basis degree must be even and >= 2, got {basis_degree}")
    rule, base = default_rule(n, basis_degree), harmonics.basis(n, basis_degree)
    nodes = rule.nodes[: rule.size // 2]
    values = base.evaluate(nodes)
    grads = np.swapaxes(base.tangential_gradients(nodes), 1, 2)
    for array in (rule.nodes, rule.weights, values, grads):
        array.flags.writeable = False
    return rule, values, grads


def assemble_matrices(w, basis_degree=None):
    """Galerkin stiffness/mass matrices over the even-harmonic basis.

    Returns (stiffness, mass, basis, rule).  Stiffness entries integrate
    grad Y_i . grad Y_j w^{(n-2)/2}; mass entries Y_i Y_j w^{n/2}; both over
    projective space (one node per antipodal pair), as exactly symmetric Gram
    products G^T G of the cached basis tables reweighted by the square roots
    of those weights.  The mass matrix must be positive definite.
    """
    n = w.sphere_dim
    basis_degree = _basis_degree(n, basis_degree)
    rule, values, grads = _basis_tables(n, basis_degree)
    base = harmonics.basis(n, basis_degree)
    _, _, mass_weight, energy_weight = _projective_weights(w, rule)
    rows = values * np.sqrt(mass_weight)[:, None]
    mass = rows.T @ rows
    # rows (node, axis) of the (N, d, size) block
    grads = (grads * np.sqrt(energy_weight)[:, None, None]).reshape(-1, base.size)
    stiffness = grads.T @ grads
    try:
        scipy.linalg.cholesky(mass)
    except scipy.linalg.LinAlgError as exc:
        raise AssemblyError(
            "mass matrix not positive definite; quadrature too coarse for the basis"
        ) from exc
    return stiffness, mass, base, rule


@dataclass(frozen=True)
class EigenFunction:
    """Scalar field given by harmonic-basis coefficients."""

    basis: harmonics.HarmonicBasis
    coeffs: np.ndarray

    def __call__(self, points):
        return self.basis.evaluate(points) @ self.coeffs

    def tangential_gradient(self, points):
        return np.swapaxes(self.basis.tangential_gradients(points), 1, 2) @ self.coeffs


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues (with multiplicity) and mass-orthonormal vectors."""

    sphere_dim: int
    basis_degree: int
    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns, mass-orthonormal
    basis: harmonics.HarmonicBasis
    factor: ConformalFactor
    rule_exactness: int


def eigenvalues(w, basis_degree=None, count=None):
    """Solve the Galerkin eigenproblem for the metric w * g on RP^n.

    Returns an EigenResult with the `count` smallest eigenvalues (all by
    default), ascending, repeated by multiplicity.
    """
    if count is not None and count < 1:
        raise DomainError(f"eigenvalue count must be >= 1, got {count}")
    stiffness, mass, base, rule = assemble_matrices(w, basis_degree)
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
    return EigenResult(
        sphere_dim=w.sphere_dim,
        basis_degree=base.max_degree,
        eigenvalues=vals,
        vectors=vecs,
        basis=base,
        factor=w,
        rule_exactness=rule.exactness,
    )


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
    return EigenFunction(basis=result.basis, coeffs=vecs @ row / np.linalg.norm(row))


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
