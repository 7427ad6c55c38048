import numpy as np
import numpy.testing as npt
import pytest

from rplap import harmonics, spectral
from rplap.errors import DomainError
from rplap.harmonics import _monomial_exponents, basis, harmonic_space_dim, round_eigenvalue
from rplap.quadrature import build_sphere_rule
from rplap.spectral import eigenvalues, parse_factor

# dimensions of the even-degree spherical-harmonic spaces
SPACE_DIMS = {
    (2, 0): 1,
    (2, 2): 5,
    (2, 4): 9,
    (2, 6): 13,
    (2, 8): 17,
    (3, 0): 1,
    (3, 2): 9,
    (3, 4): 25,
    (3, 6): 49,
}


@pytest.mark.parametrize("key,dim", sorted(SPACE_DIMS.items()))
def test_space_dimensions(key, dim):
    n, degree = key
    assert harmonic_space_dim(n, degree) == dim


def test_round_eigenvalues_follow_degree():
    assert round_eigenvalue(2, 2) == 6.0
    assert round_eigenvalue(4, 2) == 20.0
    assert round_eigenvalue(2, 3) == 8.0
    assert round_eigenvalue(4, 3) == 24.0
    for degree in (0, 2, 4, 6):
        for n in (2, 3):
            assert round_eigenvalue(degree, n) == degree * (degree + n - 1)


@pytest.mark.parametrize("n,max_degree", [(2, 8), (3, 6)])
def test_basis_size_and_degrees(n, max_degree):
    b = basis(n, max_degree)
    assert b.max_degree == max_degree
    expected = sum(SPACE_DIMS[(n, d)] for d in range(0, max_degree + 1, 2))
    assert b.size == expected
    degs = b.degrees
    assert degs[0] == 0 and degs[-1] == max_degree
    assert np.all(np.diff(degs) >= 0)


@pytest.mark.parametrize("n,max_degree", [(2, 6), (3, 4)])
def test_mass_orthonormality_over_projective_space(n, max_degree):
    b = basis(n, max_degree)
    rule = build_sphere_rule(n, 2 * max_degree + 4)
    values = b.evaluate(rule.nodes)
    gram = (values.T * (0.5 * rule.weights)) @ values
    npt.assert_allclose(gram, np.eye(b.size), rtol=0, atol=1e-10)


def test_functions_are_even(rng):
    b = basis(2, 6)
    pts = rng.normal(size=(30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    npt.assert_allclose(b.evaluate(-pts), b.evaluate(pts), rtol=0, atol=1e-12)


def test_harmonicity_through_the_round_eigenvalue(rng):
    # spherical Laplacian via ambient second differences along tangent frames:
    # a degree-d eigenfunction must return d(d+n-1) * f
    from rplap.sphere_geom import tangent_basis

    n, h = 2, 1e-4
    b = basis(n, 4)
    pts = rng.normal(size=(6, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    values = b.evaluate(pts)
    lap = np.zeros_like(values)
    frames = tangent_basis(pts)
    for col in range(n):
        u = frames[:, :, col]
        plus = pts + h * u
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus = pts - h * u
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        lap += (b.evaluate(plus) - 2.0 * values + b.evaluate(minus)) / h**2
    eigen = b.degrees * (b.degrees + n - 1)
    npt.assert_allclose(lap, -values * eigen[None, :], rtol=0, atol=5e-3)


def test_tangential_gradients_match_finite_differences(rng):
    b = basis(3, 4)
    pts = rng.normal(size=(5, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    grads = b.tangential_gradients(pts)
    # gradients are tangent
    radial = np.einsum("kfd,kd->kf", grads, pts)
    npt.assert_allclose(radial, 0.0, rtol=0, atol=1e-11)
    from rplap.sphere_geom import tangent_basis

    h = 1e-6
    frames = tangent_basis(pts)
    for col in range(3):
        u = frames[:, :, col]
        plus = pts + h * u
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus = pts - h * u
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        fd = (b.evaluate(plus) - b.evaluate(minus)) / (2.0 * h)
        directional = np.einsum("kfd,kd->kf", grads, u)
        npt.assert_allclose(directional, fd, rtol=0, atol=1e-5)


def test_block_lookup_errors():
    b = basis(2, 4)
    assert np.count_nonzero(b.degrees == 2) == 5
    assert b.index_of(4, 0) == 6
    with pytest.raises(DomainError):
        b.index_of(6, 0)
    with pytest.raises(DomainError):
        b.index_of(2, 5)


# Reference: each monomial from a per-variable power table, and each ambient
# partial derivative from the exponent-lowered monomials, one variable at a time.
def _reference_monomials(exponents, points):
    out = np.ones((points.shape[0], exponents.shape[0]))
    for var in range(exponents.shape[1]):
        powers = exponents[:, var]
        table = points[:, var : var + 1] ** np.arange(int(powers.max()) + 1)
        out *= table[:, powers]
    return out


def _reference_tables(b, points):
    d = b.sphere_dim + 1
    values, grads = [], []
    for block in b.blocks:
        exps = np.array(_monomial_exponents(d, block.degree), dtype=int)
        values.append(_reference_monomials(exps, points) @ block.coeffs)
        ambient = np.zeros((points.shape[0], block.coeffs.shape[1], d))
        for var in range(d):
            mask = exps[:, var] > 0
            if np.any(mask):
                lowered = exps[mask].copy()
                lowered[:, var] -= 1
                mono = _reference_monomials(lowered, points) * exps[mask, var]
                ambient[:, :, var] = mono @ block.coeffs[mask]
        grads.append(ambient)
    values = np.concatenate(values, axis=1)
    radial = values * b.degrees[None, :]
    return values, np.concatenate(grads, axis=1) - radial[:, :, None] * points[:, None, :]


@pytest.mark.parametrize("n,max_degree", [(2, 10), (3, 8)])
def test_kernel_matches_the_per_variable_reference(n, max_degree, rng):
    b = basis(n, max_degree)
    pts = rng.standard_normal((300, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ref_values, ref_grads = _reference_tables(b, pts)
    values = b.evaluate(pts)
    grads = b.tangential_gradients(pts)
    assert grads.shape == (300, b.size, n + 1)
    assert np.swapaxes(grads, 1, 2).flags.c_contiguous
    assert np.max(np.abs(values - ref_values)) <= 1e-13 * np.max(np.abs(ref_values))
    assert np.max(np.abs(grads - ref_grads)) <= 1e-13 * np.max(np.abs(ref_grads))


@pytest.mark.parametrize("n,max_degree", [(2, 10), (3, 8)])
def test_each_harmonic_is_led_by_its_own_free_monomial(n, max_degree):
    # rows of the monomials with y_0 exponent <= 1, in descending order: the
    # inverse Cholesky factor of the Gram matrix, upper triangular
    for block in basis(n, max_degree).blocks:
        exps = np.array(_monomial_exponents(n + 1, block.degree))
        lead = block.coeffs[exps[:, 0] <= 1]
        assert lead.shape == (block.coeffs.shape[1],) * 2
        assert np.array_equal(lead, np.triu(lead))
        assert np.all(np.diag(lead) > 0.0)


@pytest.fixture
def rebuilt_blocks():
    """Empty the harmonic block caches and the tables built from them now, on
    request, and after the test."""

    def clear():
        harmonics._harmonic_block.cache_clear()
        harmonics.basis.cache_clear()
        harmonics.gradient_maps.cache_clear()
        spectral._basis_tables.cache_clear()

    clear()
    yield clear
    clear()


def test_exp_spectra_ignore_the_last_ulp_of_the_monomial_integrals(rebuilt_blocks, monkeypatch):
    # criterion 3's exp: factors name basis functions by index, so the basis
    # must depend continuously on the Gram matrix
    specs = {2: "exp:2,0,0.25;4,1,0.1;2,2,-0.15", 3: "exp:2,0,0.2;4,3,0.1;2,5,-0.1"}

    def spectra():
        return [eigenvalues(parse_factor(spec, n)).eigenvalues for n, spec in specs.items()]

    exact = spectra()
    rebuilt_blocks()
    noise, gammaln = np.random.default_rng(0), harmonics.gammaln
    # every log-Gamma shifted by up to 1e-15: each monomial integral changes
    # by a relative few 1e-15
    monkeypatch.setattr(
        harmonics, "gammaln", lambda x: gammaln(x) + 1e-15 * noise.uniform(-1.0, 1.0, np.shape(x))
    )
    for before, after in zip(exact, spectra()):
        assert np.max(np.abs(after - before)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("max_degree", [2, 4, 6, 8, 10])
def test_gradient_maps_reproduce_the_tangential_gradients(n, max_degree, rng):
    # d_a Y = Z C[a] with Z odd, and grad_T Y = grad Y - k Y y on the sphere
    pts = rng.normal(size=(40, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    even = basis(n, max_degree)
    odd, maps = harmonics.gradient_maps(n, max_degree)
    assert list(odd.degrees) == [k for k in range(1, max_degree, 2) for _ in range(harmonic_space_dim(n, k))]
    ambient = np.einsum("np,apj->nja", odd.evaluate(pts), maps)
    got = ambient - (even.evaluate(pts) * even.degrees)[:, :, None] * pts[:, None, :]
    assert np.max(np.abs(got - even.tangential_gradients(pts))) <= 1e-12
