from dataclasses import replace
import math
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from rplap import harmonics, spectral
from rplap.errors import AssemblyError, ConfigError, DomainError
from rplap.quadrature import projective_volume
from rplap.sphere_geom import SphericalCap
from rplap.spectral import (
    assemble_matrices,
    cluster_eigenvalues,
    constant_factor,
    default_rule,
    eigenvalues,
    first_excited_state,
    harmonic_factor,
    normalize_volume,
    parse_factor,
    round_factor,
    volume,
    zonal_factor,
)
from rplap.trial_bound import pushforward_measure, rayleigh_chain, theorem_check
from rplap.veronese import veronese_apply

# regression anchor: zonal:0.5 on S^2, basis degree 8, unnormalized
ZONAL_HALF_HEAD = [0.0, 5.435194338268, 5.647867029543, 5.647867029543]


def test_round_spectrum_s2():
    result = eigenvalues(round_factor(2))
    clusters = cluster_eigenvalues(result.eigenvalues, tol=1e-8)
    values = [(round(v, 9), m) for v, m in clusters[:3]]
    assert values == [(0.0, 1), (6.0, 5), (20.0, 9)]
    npt.assert_allclose(result.eigenvalues[0], 0.0, rtol=0, atol=1e-10)


def test_round_spectrum_s3():
    result = eigenvalues(round_factor(3))
    clusters = cluster_eigenvalues(result.eigenvalues, tol=1e-8)
    values = [(round(v, 9), m) for v, m in clusters[:3]]
    assert values == [(0.0, 1), (8.0, 9), (24.0, 25)]


def test_zonal_regression_head():
    result = eigenvalues(zonal_factor(2, 0.5), count=4)
    npt.assert_allclose(result.eigenvalues, ZONAL_HALF_HEAD, rtol=0, atol=1e-9)


def test_zonal_splits_the_first_cluster():
    result = eigenvalues(zonal_factor(2, 0.5), count=6)
    clusters = cluster_eigenvalues(result.eigenvalues, tol=1e-6)
    assert [m for _, m in clusters[:4]] == [1, 1, 2, 2]


def test_zonal_tends_to_round():
    tiny = eigenvalues(zonal_factor(2, 1e-4), count=2)
    assert abs(tiny.eigenvalues[1] - 6.0) < 1e-3


def test_galerkin_is_stable_in_the_basis_degree():
    w = zonal_factor(2, 0.5)
    coarse = eigenvalues(w, basis_degree=8).eigenvalues[1]
    fine = eigenvalues(w, basis_degree=12).eigenvalues[1]
    assert fine <= coarse + 1e-12  # enlarging the trial space cannot raise it
    assert abs(fine - coarse) < 1e-8


def test_constant_rescale_scales_inversely():
    c = 2.5
    base = eigenvalues(round_factor(2), count=4).eigenvalues
    scaled = eigenvalues(constant_factor(2, c), count=4).eigenvalues
    npt.assert_allclose(scaled, base / c, rtol=0, atol=1e-10)


def test_volume_and_normalization():
    w = zonal_factor(3, 0.7)
    normalized = normalize_volume(w)
    npt.assert_allclose(volume(normalized), projective_volume(3), rtol=1e-12)
    # normalization only rescales: eigenvalues shift by the volume ratio
    ratio = volume(w) / projective_volume(3)
    lam = eigenvalues(w, count=2).eigenvalues[1]
    lam_norm = eigenvalues(normalized, count=2).eigenvalues[1]
    npt.assert_allclose(lam_norm, lam * ratio ** (2.0 / 3.0), rtol=1e-10)


def test_harmonic_factor_round_trip():
    w = harmonic_factor(2, [(2, 0, 0.3), (4, 2, 0.15)])
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    assert np.all(w.values(pts) > 0)
    npt.assert_allclose(w.values(-pts), w.values(pts), rtol=0, atol=1e-13)
    with pytest.raises(DomainError):
        harmonic_factor(2, [(3, 0, 0.1)])  # odd degree has no even harmonics


def test_parse_factor_grammar():
    assert parse_factor("round", 2).label == "round"
    assert parse_factor("zonal:0.4", 3).label.startswith("zonal")
    assert parse_factor("const:2", 2).label == "const:2"
    mixed = parse_factor("exp:2,0,0.3;4,1,0.1", 2)
    base = mixed.log.basis
    expected = np.zeros(base.size)
    expected[[base.index_of(2, 0), base.index_of(4, 1)]] = [0.3, 0.1]
    assert (base.max_degree, mixed.scale) == (4, 1.0)
    assert np.array_equal(mixed.log.coeffs, expected)
    for bad in ("triangle", "zonal:abc", "exp:1,0,0.1", "const:-1", "const:0", "const:inf",
                "zonal:nan", "exp:2,0,inf"):
        with pytest.raises(ConfigError):
            parse_factor(bad, 2)


def test_first_excited_state_has_zero_metric_mean():
    w = zonal_factor(2, 0.8)
    result = eigenvalues(w, count=3)
    u = first_excited_state(result)
    rule = default_rule(2)
    wv = w.values(rule.nodes)
    mean = math.fsum((0.5 * rule.weights * wv * u(rule.nodes)).tolist())
    assert abs(mean) < 1e-10
    # mass normalization
    sq = math.fsum((0.5 * rule.weights * wv * u(rule.nodes) ** 2).tolist())
    npt.assert_allclose(sq, 1.0, rtol=1e-10)


def test_eigenfunction_gradient_consistency(rng):
    result = eigenvalues(round_factor(2), count=3)
    u = first_excited_state(result)
    pts = rng.normal(size=(5, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    grads = u.tangential_gradient(pts)
    npt.assert_allclose(np.einsum("kd,kd->k", grads, pts), 0.0, rtol=0, atol=1e-12)


def test_first_excited_state_ignores_the_basis_of_its_eigenspace():
    result = eigenvalues(round_factor(3))
    assert cluster_eigenvalues(result.eigenvalues)[1][1] == 9
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((9, 9)))
    vectors = result.vectors.copy()
    vectors[:, 1:10] = vectors[:, 1:10] @ q
    rotated = first_excited_state(replace(result, vectors=vectors))
    npt.assert_allclose(rotated.coeffs, first_excited_state(result).coeffs, rtol=0, atol=1e-12)


def test_cluster_eigenvalues_grouping():
    vals = [0.0, 5.9999999, 6.0000001, 6.1, 20.0]
    clusters = cluster_eigenvalues(vals, tol=1e-6)
    assert [m for _, m in clusters] == [1, 2, 1, 1]


def test_assembly_rejects_nonpositive_factor():
    # exp(u) of a valid expansion underflows to 0 where u << 0: not positive
    # at the nodes, a numerical failure, and not caught before them
    bad = harmonic_factor(2, [(0, 0, -2500.0)])
    with pytest.raises(AssemblyError, match="not positive"):
        eigenvalues(bad)
    # every projective integral goes through the same positivity check
    bad = harmonic_factor(3, [(0, 0, -2500.0)])
    cap = SphericalCap(veronese_apply(3, np.eye(4)[:1])[0], 0.3)
    for integral in (volume, normalize_volume):
        with pytest.raises(AssemblyError, match="not positive"):
            integral(bad)
    with pytest.raises(AssemblyError, match="not positive"):
        rayleigh_chain(bad, cap)
    with pytest.raises(AssemblyError, match="not positive"):
        pushforward_measure(bad, cap)


@pytest.mark.parametrize("n, coeff", [(2, 2500.0), (3, 2500.0), (2, 1775.0)])
def test_overflowing_factor_is_not_finite_at_the_nodes(n, coeff, recwarn):
    # exp(u) overflows at every node, or (2, 1775) stays finite at each node
    # while the metric volume overflows
    w = harmonic_factor(n, [(0, 0, coeff)])
    for integral in (volume, normalize_volume, eigenvalues):
        with pytest.raises(AssemblyError, match="not finite"):
            integral(w)
    assert not [warning for warning in recwarn if warning.category is RuntimeWarning]


@pytest.mark.parametrize("n", [2, 3])
def test_every_family_is_scale_times_exp_of_an_even_expansion(n, rng):
    pts = rng.normal(size=(50, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    zonal = zonal_factor(n, 0.7)
    npt.assert_allclose(
        zonal.values(pts), np.exp(0.7 * (pts[:, n] ** 2 - 1.0 / (n + 1))), rtol=1e-14
    )
    npt.assert_allclose(zonal.log(pts), zonal.log(-pts), rtol=0, atol=1e-15)
    assert zonal.log.basis.max_degree == 2
    for w, scale in ((round_factor(n), 1.0), (constant_factor(n, 2.5), 2.5)):
        assert (w.log.basis.max_degree, w.scale, w.sphere_dim) == (0, scale, n)
        assert np.array_equal(w.values(pts), np.full(50, scale))


@pytest.mark.parametrize(
    "n, spec", [(2, "zonal:0.7"), (2, "exp:2,1,0.2;4,3,-0.05"), (3, "exp:2,0,0.2")]
)
def test_gram_assembly_matches_the_einsum_reference(n, spec):
    w = parse_factor(spec, n)
    stiffness, mass, base, rule = assemble_matrices(w)
    # reference: the weighted sums over nodes written out term by term
    half = 0.5 * rule.weights
    wv = w.values(rule.nodes)
    values = base.evaluate(rule.nodes)
    grads = base.tangential_gradients(rule.nodes)
    ref_mass = np.einsum("k,ki,kj->ij", half * wv ** (n / 2.0), values, values)
    ref_stiffness = np.einsum(
        "k,kid,kjd->ij", half * wv ** ((n - 2) / 2.0), grads, grads
    )
    for got, ref in ((mass, ref_mass), (stiffness, ref_stiffness)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(got, got.T)


def _gradient_gram_assembly(w, basis_degree):
    """(stiffness, mass) as Gram products of freshly evaluated basis values and
    tangential gradients at the default rule's projective nodes."""
    n = w.sphere_dim
    rule = default_rule(n, basis_degree)
    base = harmonics.basis(n, basis_degree)
    m = rule.size // 2
    nodes, weights = rule.nodes[:m], rule.weights[:m]
    wv = w.values(nodes)
    rows = base.evaluate(nodes) * np.sqrt(weights * wv ** (n / 2.0))[:, None]
    grads = np.swapaxes(base.tangential_gradients(nodes), 1, 2)
    grads = grads * np.sqrt(weights * wv ** ((n - 2) / 2.0))[:, None, None]
    grads = grads.reshape(-1, base.size)
    return grads.T @ grads, rows.T @ rows


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n, spec", [(2, "zonal:0.5"), (3, "exp:2,0,0.2")])
@pytest.mark.parametrize("extra", [0, 2])
def test_cached_tables_assemble_bitwise_the_fresh_matrices(n, spec, extra):
    degree = spectral.DEFAULT_BASIS_DEGREE[n] + extra
    w, other = parse_factor(spec, n), constant_factor(n, 2.5)
    first = assemble_matrices(w, degree)
    assemble_matrices(other, degree)
    again = assemble_matrices(w, degree)
    cached = spectral._basis_tables(n, degree)
    spectral._basis_tables.cache_clear()
    harmonics.gradient_maps.cache_clear()
    fresh = assemble_matrices(w, degree)
    assert spectral._basis_tables(n, degree) is not cached
    for got in (first, again):
        for array, ref in zip(got[:2], fresh[:2]):
            assert np.array_equal(array, ref)


def test_cached_tables_and_harmonic_blocks_are_read_only():
    two, three = (spectral._basis_tables(n, spectral.DEFAULT_BASIS_DEGREE[n]) for n in (2, 3))
    block = harmonics._harmonic_block(2, 4)
    arrays = [block.coeffs, block.grad_coeffs, two.stiffness, three.odd_values, three.maps]
    for tables in (two, three):
        arrays += [tables.rule.nodes, tables.rule.weights, tables.values]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array *= 1.0
    # the returned stiffness is the caller's own
    assert assemble_matrices(round_factor(2))[0].flags.writeable


@pytest.mark.parametrize("extra", [0, 2])
def test_two_dimensional_stiffness_is_the_round_spectrum(extra):
    # the energy weight w^0 = 1: one stiffness for every factor
    degree = spectral.DEFAULT_BASIS_DEGREE[2] + extra
    base = harmonics.basis(2, degree)
    exact = np.diag(base.degrees * (base.degrees + 1.0))
    first = None
    for spec in ("round", "const:2.5", "zonal:0.7", "zonal:-0.9", "exp:2,1,0.2;4,3,-0.05"):
        w = parse_factor(spec, 2)
        stiffness = assemble_matrices(w, degree)[0]
        assert _relative_gap(stiffness, exact) <= 1e-12
        assert _relative_gap(stiffness, _gradient_gram_assembly(w, degree)[0]) <= 1e-12
        assert first is None or np.array_equal(stiffness, first)
        first = stiffness


@pytest.mark.parametrize("spec, scale", [("round", 1.0), ("const:2.5", 2.5)])
@pytest.mark.parametrize("extra", [0, 2])
def test_three_dimensional_constant_stiffness_is_the_round_spectrum(spec, scale, extra):
    # phi = w^{1/2} = sqrt(scale) weights the round stiffness diag(k(k+2))
    degree = spectral.DEFAULT_BASIS_DEGREE[3] + extra
    base = harmonics.basis(3, degree)
    stiffness = assemble_matrices(parse_factor(spec, 3), degree)[0]
    exact = math.sqrt(scale) * np.diag(base.degrees * (base.degrees + 2.0))
    assert _relative_gap(stiffness, exact) <= 1e-12


def _sweep_specs(seed):
    """The spectral-sweep benchmark's make-up: fixed families, seeded parameters."""
    rng = np.random.default_rng(seed)

    def exp_spec(n):
        dims = {k: harmonics.harmonic_space_dim(n, k) for k in (2, 4)}
        terms = [
            (2, int(rng.integers(dims[2])), float(rng.uniform(-0.25, 0.25))),
            (2, int(rng.integers(dims[2])), float(rng.uniform(-0.25, 0.25))),
            (4, int(rng.integers(dims[4])), float(rng.uniform(-0.1, 0.1))),
        ]
        return "exp:" + ";".join(f"{d},{i},{c!r}" for d, i, c in terms)

    return [
        (2, "round"),
        (2, f"const:{rng.uniform(0.5, 3.0)!r}"),
        (2, f"zonal:{rng.uniform(-1.0, -0.1)!r}"),
        (2, f"zonal:{rng.uniform(0.1, 1.0)!r}"),
        (2, exp_spec(2)),
        (2, exp_spec(2)),
        (3, f"const:{rng.uniform(0.5, 3.0)!r}"),
        (3, f"zonal:{rng.uniform(0.1, 1.0)!r}"),
        (3, exp_spec(3)),
    ]


CRITERION_3_SPECS = [
    (n, spec)
    for n, exp_spec in ((2, "exp:2,0,0.25;4,1,0.1;2,2,-0.15"), (3, "exp:2,0,0.2;4,3,0.1;2,5,-0.1"))
    for spec in ("round", "zonal:0.2", "zonal:0.5", "zonal:1.0", exp_spec, "const:2.5")
]


@pytest.mark.parametrize("n, spec", _sweep_specs(1) + _sweep_specs(2) + CRITERION_3_SPECS)
def test_theorem_check_eigenvalues_match_the_gradient_gram_route(n, spec):
    w = parse_factor(spec, n)
    report = theorem_check(w)
    normalized = normalize_volume(w, rule=default_rule(n))
    stiffness, mass = _gradient_gram_assembly(normalized, spectral.DEFAULT_BASIS_DEGREE[n])
    ref = scipy.linalg.eigh(stiffness, mass, eigvals_only=True)[:12]
    assert np.max(np.abs(np.array(report.eigenvalues) - ref)) <= 1e-12
    assert report.passed == bool(ref[2] < report.bound)


@pytest.mark.parametrize("n, coeff", [(2, -1800.0), (3, -1500.0)])
def test_subnormal_volume_cannot_be_normalized(n, coeff):
    # every node weight is positive, but the volume is below the smallest
    # normal float: rescaling it would overflow the scale
    w = harmonic_factor(n, [(0, 0, coeff)])
    assert 0.0 < volume(w) < sys.float_info.min
    with pytest.raises(AssemblyError, match="not positive"):
        normalize_volume(w)


@pytest.mark.parametrize("n, spec", [(2, "exp:2,1,0.2;4,3,-0.05"), (3, "zonal:0.6")])
def test_projective_sums_match_the_full_sphere_half_weights(n, spec):
    # one node per antipodal pair against every node at half weight
    w = parse_factor(spec, n)
    rule = default_rule(n)
    full = math.fsum((0.5 * rule.weights * w.density(rule.nodes)).tolist())
    assert abs(volume(w, rule=rule) - full) <= 1e-14 * full
    cap = SphericalCap(veronese_apply(n, np.eye(n + 1)[:1])[0], 0.4)
    measure = pushforward_measure(w, cap, rule=rule)
    assert measure.points.shape[0] == rule.size // 2
    assert abs(math.fsum(measure.weights.tolist()) - full) <= 1e-14 * full


def test_odd_basis_degree_rejected():
    with pytest.raises(DomainError):
        eigenvalues(round_factor(2), basis_degree=5)


@pytest.mark.parametrize("n", [1, 4])
def test_default_basis_degree_only_for_two_and_three(n):
    with pytest.raises(DomainError, match="dimension"):
        default_rule(n)
    with pytest.raises(DomainError, match="dimension"):
        eigenvalues(round_factor(n))


@pytest.mark.parametrize("count", [0, -2])
def test_nonpositive_eigenvalue_count_rejected(count):
    with pytest.raises(DomainError, match="count"):
        eigenvalues(round_factor(2), count=count)
