import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rplap.errors import DomainError
from rplap.quadrature import (
    QuadratureRule,
    _gauss_legendre,
    build_sphere_rule,
    graded_interval_rule,
    interval_rule,
    product_rectangle_rule,
    projective_volume,
    sphere_volume,
    surface_measure,
)
from rplap.degen_limits import circle_arc

VOLUMES = {1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_volume_closed_forms(n):
    npt.assert_allclose(sphere_volume(n), VOLUMES[n], rtol=1e-15)
    npt.assert_allclose(projective_volume(n), VOLUMES[n] / 2.0, rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rule_weights_sum_to_volume(n):
    rule = build_sphere_rule(n, 16)
    npt.assert_allclose(math.fsum(rule.weights.tolist()), VOLUMES[n], rtol=1e-13)
    npt.assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=0, atol=1e-13)


def sphere_monomial_integral(alpha):
    # classical closed form: 2 prod Gamma((a_i+1)/2) / Gamma(sum (a_i+1)/2)
    if any(a % 2 for a in alpha):
        return 0.0
    halves = [(a + 1) / 2.0 for a in alpha]
    num = 2.0 * np.prod([math.gamma(h) for h in halves])
    return num / math.gamma(sum(halves))


@pytest.mark.parametrize(
    "n,alpha",
    [
        (1, (4, 2)),
        (2, (2, 2, 2)),
        (2, (6, 0, 2)),
        (2, (0, 8, 4)),
        (3, (2, 2, 2, 2)),
        (3, (6, 2, 0, 4)),
        (3, (0, 0, 10, 2)),
    ],
)
def test_monomial_exactness(n, alpha):
    rule = build_sphere_rule(n, sum(alpha))

    def mono(pts):
        out = np.ones(pts.shape[0])
        for i, a in enumerate(alpha):
            out *= pts[:, i] ** a
        return out

    total = math.fsum((rule.weights * mono(rule.nodes)).tolist())
    npt.assert_allclose(total, sphere_monomial_integral(alpha), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("degree", [2, 5, 10, 13, 24])
def test_rule_halves_are_exact_antipodes(n, degree):
    rule = build_sphere_rule(n, degree)
    m = rule.size // 2
    assert rule.size == 2 * m
    assert np.array_equal(rule.nodes[m:], -rule.nodes[:m])
    assert np.array_equal(rule.weights[m:], rule.weights[:m])
    # one representative per pair: no node of the first half is its own
    # pair's partner or another first-half node's antipode
    gaps, _ = cKDTree(rule.nodes[:m]).query(-rule.nodes[:m])
    assert gaps.min() > 1e-8


def test_rule_that_breaks_the_antipodal_layout_is_rejected():
    rule = build_sphere_rule(2, 6)
    m = rule.size // 2
    swapped = rule.nodes.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    with pytest.raises(DomainError):
        QuadratureRule(dim=2, nodes=swapped, weights=rule.weights, exactness=6)
    skewed = rule.weights.copy()
    skewed[-1] *= 1.0 + 1e-15
    with pytest.raises(DomainError):
        QuadratureRule(dim=2, nodes=rule.nodes, weights=skewed, exactness=6)
    with pytest.raises(DomainError):
        QuadratureRule(dim=2, nodes=rule.nodes[:-1], weights=rule.weights[:-1], exactness=6)


@pytest.mark.parametrize("count", [1, 6, 10, 41])
def test_gauss_legendre_nodes_are_computed_once_and_read_only(count):
    nodes, weights = _gauss_legendre(count)
    expected = np.polynomial.legendre.leggauss(count)
    assert np.array_equal(nodes, expected[0]) and np.array_equal(weights, expected[1])
    assert _gauss_legendre(count)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0


@given(st.integers(min_value=1, max_value=12))
def test_interval_rule_polynomial_exactness(count):
    nodes, weights = interval_rule(-0.75, 1.25, count)
    degree = 2 * count - 1
    exact = (1.25 ** (degree + 1) - (-0.75) ** (degree + 1)) / (degree + 1)
    npt.assert_allclose(float(weights @ nodes[:, 0] ** degree), exact, rtol=1e-12, atol=1e-14)


def test_graded_rule_covers_the_domain_exactly():
    nodes, weights = graded_interval_rule(-1.5, 2.5, 0.3, levels=24, panel_points=8)
    npt.assert_allclose(math.fsum(weights.tolist()), 4.0, rtol=1e-14)
    assert np.min(nodes) > -1.5 and np.max(nodes) < 2.5
    # panels refine symmetrically toward the focus from both sides
    gaps = np.abs(nodes[:, 0] - 0.3)
    assert gaps.min() < 1e-7


@given(st.floats(0.05, 0.95))
def test_graded_rule_resolves_an_integrable_singularity(focus):
    nodes, weights = graded_interval_rule(0.0, 1.0, focus, levels=40, panel_points=12)
    value = float(weights @ (1.0 / np.sqrt(np.abs(nodes[:, 0] - focus))))
    exact = 2.0 * (math.sqrt(focus) + math.sqrt(1.0 - focus))
    npt.assert_allclose(value, exact, rtol=1e-5)


def _graded_rule_per_panel(a, b, focus, levels, panel_points):
    """The graded rule assembled one interval_rule per panel."""
    focus = min(max(focus, a), b)
    breakpoints = {a, b, focus}
    for outer in (a, b):
        span = abs(outer - focus)
        if span < 1e-15:
            continue
        step = span
        for _ in range(levels):
            step *= 0.5
            breakpoints.add(focus + math.copysign(step, outer - focus))
    cuts = sorted(breakpoints)
    panels = [
        interval_rule(lo, hi, panel_points)
        for lo, hi in zip(cuts[:-1], cuts[1:])
        if hi - lo >= 1e-300
    ]
    return np.concatenate([n for n, _ in panels]), np.concatenate([w for _, w in panels])


@pytest.mark.parametrize("focus", [0.3, -1.5, 2.5, -4.0, 7.0])
@pytest.mark.parametrize("levels, panel_points", [(0, 1), (3, 5), (20, 12), (26, 16)])
def test_graded_rule_equals_the_per_panel_rule_bitwise(focus, levels, panel_points):
    nodes, weights = graded_interval_rule(-1.5, 2.5, focus, levels, panel_points)
    ref_nodes, ref_weights = _graded_rule_per_panel(-1.5, 2.5, focus, levels, panel_points)
    assert nodes.shape == ref_nodes.shape == (weights.shape[0], 1)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_product_rectangle_rule_is_separable():
    nodes, weights = product_rectangle_rule((0.0, 2.0), (-1.0, 1.0), 6, 5)
    value = float(weights @ (nodes[:, 0] ** 4 * nodes[:, 1] ** 2))
    npt.assert_allclose(value, (2.0**5 / 5.0) * (2.0 / 3.0), rtol=1e-13)


# --- parametric surfaces ------------------------------------------------------


def test_circle_arc_measure_is_its_angle():
    arc = circle_arc(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]), (-0.4, 1.1))
    npt.assert_allclose(surface_measure(arc), 1.5, rtol=1e-12)
    assert arc.ranges == ((-0.4, 1.1),)


def test_surface_measure_accepts_rule_overrides():
    arc = circle_arc(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), (0.0, 2.0))
    nodes, weights = interval_rule(0.0, 2.0, 40)
    npt.assert_allclose(surface_measure(arc.with_rule(nodes, weights)), 2.0, rtol=1e-12)
    half = surface_measure(arc, weight=lambda pts: (pts[:, 1] >= 0).astype(float))
    npt.assert_allclose(half, 2.0, rtol=1e-12)  # the arc stays in y >= 0


def test_with_rule_swaps_nodes_only():
    arc = circle_arc(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), (0.0, 1.0))
    nodes, weights = interval_rule(0.0, 1.0, 11)
    swapped = arc.with_rule(nodes, weights)
    assert swapped.nodes.shape[0] == 11
    assert swapped.ranges == arc.ranges
    assert swapped.frame is arc.frame
    npt.assert_allclose(surface_measure(swapped), 1.0, rtol=1e-12)
