from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from rplap.degree_lab import (
    EuclideanRegion,
    antipodal_map,
    block_involution,
    circle_doubling,
    degree_integral,
    degree_regular_value,
    euclidean_degree,
    identity_map,
    involuted_region,
    paired_degree_check,
    reflection_conjugate,
    reflection_symmetry_check,
    registry,
    shifted_identity_example,
    warped_block_flip,
    zero_free_example,
)
from rplap.errors import DomainError, EvaluationError, ResolutionError
from rplap.quadrature import build_sphere_rule
from rplap.degree_lab import SphereSelfMap

EXPECTED_DEGREES = {
    "identity-s3": 1,
    "antipodal-s3": 1,
    "flip-b": 1,
    "warped-flip": 1,
    "rotate-b": 1,
    "doubling-s1": 2,
    "identity-s2": 1,
    "antipodal-s2": -1,
}


def test_registry_exposes_the_expected_maps():
    assert set(registry()) == set(EXPECTED_DEGREES)


@pytest.mark.parametrize("name", sorted(EXPECTED_DEGREES))
def test_both_degree_methods_agree(name):
    sphere_map = registry()[name]
    by_integral = degree_integral(sphere_map)
    by_count = degree_regular_value(sphere_map, seed=5)
    assert by_integral.degree == EXPECTED_DEGREES[name]
    assert by_count.degree == EXPECTED_DEGREES[name]
    assert by_integral.distance <= 0.01
    assert by_integral.method == "integral"
    assert by_count.method == "regular-value"


def test_doubling_map_has_two_positive_preimages():
    result = degree_regular_value(circle_doubling(), seed=1)
    assert result.degree == 2
    assert result.preimages.shape == (2, 2)
    assert list(result.signs) == [1, 1]
    # the two preimages of z are +/- its square roots
    npt.assert_allclose(result.preimages[0], -result.preimages[1], rtol=0, atol=1e-9)


def _counted(func):
    calls = []

    def wrapped(points):
        calls.append(len(points))
        return func(points)

    return wrapped, calls


def test_newton_runs_every_start_in_one_batch():
    # one residual call at the starts, then one finite-difference and one
    # residual call per full step (40 on the sphere, 59 in a box), plus the
    # calls of the sign check; a step that was halved would call again
    warped = registry()["warped-flip"]
    func, calls = _counted(warped.func)
    assert degree_regular_value(replace(warped, func=func), seed=5).degree == 1
    assert len(calls) <= 2 * 41 + 2

    func, region, expected = shifted_identity_example(1)
    counted, calls = _counted(func)
    assert euclidean_degree(counted, involuted_region(region, 1)).degree == expected
    assert len(calls) <= 2 * 60 + 1

    for example in (shifted_identity_example, zero_free_example):
        func, region, expected = example(1)
        counted, calls = _counted(func)
        assert paired_degree_check(counted, region, 1).degree_minus == expected
        assert len(calls) <= 2 * (2 * 60 + 1)  # two boxes


def test_constant_map_has_no_preimages():
    pole = np.eye(3)[0]
    constant = SphereSelfMap(dim=2, func=lambda pts: np.tile(pole, (len(pts), 1)))
    result = degree_regular_value(constant, seed=3)
    assert result.degree == 0
    assert result.preimages.shape == (0, 3)
    assert result.signs.shape == (0,)


def test_orientation_reversal_shows_in_the_signs():
    result = degree_regular_value(antipodal_map(2), seed=2)
    assert result.degree == -1
    assert list(result.signs) == [-1]


def test_integral_resolution_guard():
    # the warped flip needs a finer rule than the raw default to certify
    # five decimal places
    with pytest.raises(ResolutionError):
        degree_integral(warped_block_flip(1), resolution=1e-5)
    result = degree_integral(warped_block_flip(1), resolution=0.05)
    assert result.degree == 1
    assert 1e-6 < result.distance < 1e-3


def test_rule_dimension_mismatch():
    with pytest.raises(DomainError):
        degree_integral(identity_map(2), rule=build_sphere_rule(3, 8))


def test_maps_must_stay_on_the_sphere():
    off = SphereSelfMap(dim=2, func=lambda pts: 1.1 * np.atleast_2d(pts), name="off")
    with pytest.raises(EvaluationError):
        degree_integral(off)


def test_non_finite_map_values_are_evaluation_errors():
    # NaN fails every comparison, so a norm check alone lets it through
    broken = SphereSelfMap(
        dim=2, func=lambda pts: np.full(np.shape(pts), np.nan), name="nan"
    )
    with pytest.raises(EvaluationError, match="non-finite"):
        degree_integral(broken)
    with pytest.raises(EvaluationError, match="non-finite"):
        degree_regular_value(broken)


# ---------------------------------------------------------------------------
# Reflection symmetry


def test_symmetry_pass_fail_matrix():
    passing = ["identity-s3", "flip-b", "warped-flip"]
    for name in passing:
        report = reflection_symmetry_check(registry()[name], half_dim=1)
        assert report.passes, name
        assert report.pair_deviation <= 1e-9
        assert report.equator_deviation <= 1e-9

    # rotate-b fixes the b = 0 equator pointwise, so only the pairing fails
    rotated = reflection_symmetry_check(registry()["rotate-b"], half_dim=1)
    assert not rotated.passes
    assert rotated.pair_deviation > 1.0
    assert rotated.equator_deviation <= 1e-12


def test_symmetry_equator_failure():
    report = reflection_symmetry_check(registry()["antipodal-s3"], half_dim=1)
    assert not report.passes
    # antipodal sends every equator point to its opposite, at distance 2
    npt.assert_allclose(report.equator_deviation, 2.0, rtol=0, atol=1e-12)


def test_symmetry_dimension_guard():
    with pytest.raises(DomainError):
        reflection_symmetry_check(identity_map(2), half_dim=1)


def test_block_involution_is_an_involution(rng):
    pts = rng.normal(size=(20, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    twice = block_involution(block_involution(pts, 1), 1)
    npt.assert_allclose(twice, pts, rtol=0, atol=1e-14)


def test_block_involution_and_conjugate_accept_no_rows():
    empty = np.zeros((0, 4))
    assert block_involution(empty, 1).shape == (0, 4)
    func, _, _ = shifted_identity_example(1)
    assert reflection_conjugate(func, 1)(empty).shape == (0, 4)


def test_reflection_conjugate_is_an_involution(rng):
    func, region, _ = shifted_identity_example(1)
    back = reflection_conjugate(reflection_conjugate(func, 1), 1)
    pts = rng.uniform(-0.5, 0.5, size=(10, 4))
    pts[:, 2] += 1.0  # keep the b block away from zero
    npt.assert_allclose(back(pts), func(pts), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Euclidean degree and the paired count


def test_euclidean_translation_degree():
    box = EuclideanRegion(lower=-np.ones(3), upper=np.ones(3))
    inside = np.array([0.3, -0.4, 0.1])

    result = euclidean_degree(lambda pts: np.atleast_2d(pts) - inside, box, seed=1)
    assert result.degree == 1
    npt.assert_allclose(result.zeros[0], inside, rtol=0, atol=1e-8)

    outside = np.array([3.0, 0.0, 0.0])
    result = euclidean_degree(lambda pts: np.atleast_2d(pts) - outside, box, seed=1)
    assert result.degree == 0
    assert result.zeros.shape == (0, 3)


def test_paired_count_shifted_identity():
    func, region, expected_minus = shifted_identity_example(1)
    report = paired_degree_check(func, region, half_dim=1)
    assert report.holds
    assert report.degree_minus == expected_minus == 1
    assert report.parity == -1
    assert report.degree_plus == -1
    assert report.zeros_minus.shape == (1, 4)


def test_paired_count_zero_free():
    func, region, expected = zero_free_example(1)
    report = paired_degree_check(func, region, half_dim=1)
    assert report.holds
    assert report.degree_minus == expected == 0
    assert report.degree_plus == 0


def test_paired_region_must_avoid_the_mirror():
    func, _, _ = shifted_identity_example(1)
    straddling = EuclideanRegion(lower=-0.5 * np.ones(4), upper=0.5 * np.ones(4))
    with pytest.raises(DomainError):
        paired_degree_check(func, straddling, half_dim=1)


def test_homotopy_family_keeps_degree_one():
    for strength in np.linspace(0.0, 0.8, 3):
        assert degree_regular_value(warped_block_flip(1, strength), seed=7).degree == 1
