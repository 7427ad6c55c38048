import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rplap.degen_limits import (
    FrameChart,
    _height_lines,
    cap_patch,
    circle_arc,
    fold_limit_volume,
    moebius_limit_volume,
    veronese_patch,
)
from rplap import sphere_geom as sg
from rplap.errors import DomainError
from rplap.quadrature import surface_measure
from rplap.sphere_geom import moebius_apply, moebius_factor
from rplap.veronese import veronese_apply

POLE = np.array([0.0, 0.0, 1.0])
ORTH = np.array([1.0, 0.0, 0.0])


def test_circle_arc_length():
    full = circle_arc(POLE, ORTH, (-math.pi, math.pi))
    npt.assert_allclose(surface_measure(full), 2.0 * math.pi, rtol=1e-12)
    half = circle_arc(POLE, ORTH, (-math.pi / 2, math.pi / 2))
    npt.assert_allclose(surface_measure(half), math.pi, rtol=1e-12)


def test_circle_arc_rejects_parallel_direction():
    with pytest.raises(DomainError):
        circle_arc(POLE, 2.0 * POLE)


def test_cap_patch_area_closed_form():
    patch = cap_patch(POLE, 0.8)
    npt.assert_allclose(
        surface_measure(patch), 2.0 * math.pi * (1.0 - math.cos(0.8)), rtol=1e-10
    )
    with pytest.raises(DomainError):
        cap_patch(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)


def test_veronese_patch_area_scales_by_three():
    # the quadratic map stretches every tangent direction by sqrt(3) on S^2,
    # so patch areas triple
    patch = veronese_patch((math.pi / 2 - 0.5, math.pi / 2 + 0.5), (-0.5, 0.5))
    base_area = 2.0 * math.sin(0.5) * 1.0
    npt.assert_allclose(surface_measure(patch), 3.0 * base_area, rtol=1e-10)


CHARTS = pytest.mark.parametrize(
    "surface",
    [
        circle_arc(np.array([0.6, 0.0, 0.8]), np.array([0.3, -1.0, 0.2]), (-2.0, 2.5)),
        cap_patch(np.array([0.48, -0.6, 0.64]), 0.8),
        cap_patch(np.array([0.96, 0.0, 0.28]), 1.3),
        veronese_patch((0.3, 2.2), (-2.5, 1.0)),
    ],
    ids=["arc", "cap", "cap-near-e1", "veronese"],
)


@CHARTS
def test_surface_jacobians_match_central_differences(surface):
    # each column, signs included: the areas above only see sqrt(det J^T J)
    nodes, step = surface.nodes, 1e-6
    jac = surface.jacobian(nodes)
    for axis in np.eye(surface.param_dim):
        fd = (surface.chart(nodes + step * axis) - surface.chart(nodes - step * axis)) / (2 * step)
        npt.assert_allclose(jac @ axis, fd, rtol=0, atol=1e-8)


@CHARTS
@given(
    arrays(float, 5, elements=st.floats(-1.0, 1.0)),
    arrays(float, (8, 2), elements=st.floats(0.0, 1.0)),
)
def test_height_lines_give_the_chart_height(surface, direction, fractions):
    # the contract the kink cuts rely on: on the line of fixed phi, chart . e is
    # mean + amp cos(frequency r - psi), for any direction e
    direction = direction[: surface.chart(surface.nodes[:1]).shape[1]]
    assume(np.linalg.norm(direction) > 0.1)
    direction /= np.linalg.norm(direction)
    low, high = np.array(surface.ranges).T
    params = low + fractions[:, : surface.param_dim] * (high - low)
    r, phi = params[:, 0], params[:, 1] if surface.param_dim == 2 else np.zeros(len(params))
    frequency, lines = _height_lines(surface, direction)
    mean, amp, psi = lines(phi)
    height = mean + amp * np.cos(frequency * r - psi)
    npt.assert_allclose(surface.chart(params) @ direction, height, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Fold degeneration


def test_fold_half_circle_approaches_three_pi():
    half = circle_arc(POLE, ORTH, (-math.pi / 2, math.pi / 2))
    rows = fold_limit_volume(half, POLE, [0.0, 0.9, 0.999])
    assert all(row.within_bound for row in rows)
    npt.assert_allclose(rows[0].bound, 3.0 * math.pi, rtol=1e-12)
    # t = 0: plain reflection, an isometry; the length is preserved
    npt.assert_allclose(rows[0].volume, math.pi, rtol=1e-9)
    # t -> 1: the folded image covers the sphere once plus the original arc
    npt.assert_allclose(rows[-1].volume, 9.4207766070, rtol=0, atol=1e-6)
    assert abs(rows[-1].volume - 3.0 * math.pi) < 0.005 * 3.0 * math.pi
    assert rows[0].volume < rows[1].volume < rows[2].volume


def test_fold_fixes_arcs_inside_the_cap():
    quarter = circle_arc(-POLE, ORTH, (-math.pi / 4, math.pi / 4))
    rows = fold_limit_volume(quarter, POLE, [0.0, 0.5, 0.999])
    for row in rows:
        npt.assert_allclose(row.volume, math.pi / 2, rtol=1e-9)


def test_fold_cap_patch_matches_closed_form():
    patch = cap_patch(POLE, 0.8)
    patch_area = 2.0 * math.pi * (1.0 - math.cos(0.8))
    rows = fold_limit_volume(patch, POLE, [0.0, 0.6, 0.9])
    assert all(row.within_bound for row in rows)
    npt.assert_allclose(rows[0].bound, 4.0 * math.pi + patch_area, rtol=1e-12)
    # t = 0 reflects the patch isometrically
    npt.assert_allclose(rows[0].volume, patch_area, rtol=1e-9)
    # once the complement cap sits inside the patch, the folded volume is
    # (patch minus complement) + (sphere minus complement), exactly
    for row, t in ((rows[1], 0.6), (rows[2], 0.9)):
        tau = 2.0 * t / (1.0 + t * t)
        small = 2.0 * math.pi * (1.0 - tau)
        exact = (patch_area - small) + (4.0 * math.pi - small)
        npt.assert_allclose(row.volume, exact, rtol=1e-10)
    npt.assert_allclose(rows[2].volume, 14.40259110, rtol=0, atol=1e-8)


def test_fold_veronese_patch_stays_bounded():
    patch = veronese_patch((math.pi / 2 - 0.5, math.pi / 2 + 0.5), (-0.5, 0.5))
    pole = veronese_apply(2, np.array([[1.0, 0.0, 0.0]]))[0]
    rows = fold_limit_volume(patch, pole, [0.0, 0.3, 0.6, 0.9])
    assert all(row.within_bound for row in rows)
    vols = [row.volume for row in rows]
    assert vols == sorted(vols)
    assert vols[-1] < rows[-1].bound


# ---------------------------------------------------------------------------
# Moebius degeneration


def test_moebius_full_circle_keeps_its_length():
    # the circle through the blow-up point -x balances compression against
    # stretch exactly, at every radius
    full = circle_arc(-POLE, ORTH, (-math.pi, math.pi))
    rows = moebius_limit_volume(full, [r * POLE for r in (0.5, 0.9, 0.99, 0.999)])
    for row in rows:
        npt.assert_allclose(row.volume, 2.0 * math.pi, rtol=0.0, atol=1e-11)
        assert row.within_bound


def test_moebius_arc_away_from_the_blowup_point_collapses():
    avoid = circle_arc(POLE, ORTH, (-math.pi / 4, math.pi / 4))
    rows = moebius_limit_volume(avoid, [0.999 * POLE])
    assert rows[0].volume < 0.01 * 2.0 * math.pi
    npt.assert_allclose(rows[0].volume, 8.29e-4, rtol=0.05)


def test_moebius_cap_patch_matches_the_image_cap():
    patch = cap_patch(POLE, 0.8)
    boundary = np.array([math.sin(0.8), 0.0, math.cos(0.8)])
    for depth, frozen in ((0.5, 7.74943046), (0.9, 12.37460614)):
        x = -depth * POLE
        rows = moebius_limit_volume(patch, [x])
        # the image of a cap is a cap; its boundary height gives the area
        height = moebius_apply(x, boundary[None])[0][2]
        npt.assert_allclose(rows[0].volume, 2.0 * math.pi * (1.0 - height), rtol=1e-6)
        npt.assert_allclose(rows[0].volume, frozen, rtol=0, atol=1e-6)
        assert rows[0].within_bound


def test_moebius_two_routes_agree():
    # the chart weighted by the conformal stretch to the surface's dimension,
    # and the Moebius-composed chart with its exact differential, give one
    # image volume
    patch = cap_patch(POLE, 0.8)
    cases = [(patch, np.array([0.0, d * 0.6, -d * 0.8]), 1e-7) for d in (0.3, 0.6, 0.9)]
    half = circle_arc(POLE, ORTH, (-math.pi / 2, math.pi / 2))
    cases.append((half, np.array([0.2, -0.3, 0.4]), 1e-9))
    for surface, x, rtol in cases:
        dim = surface.param_dim
        weighted = surface_measure(surface, lambda pts: moebius_factor(x, pts) ** dim)
        chart = lambda params: moebius_apply(x, surface.chart(params))
        jacobian = lambda params: sg._moebius_differential(
            x, surface.chart(params), np.swapaxes(surface.jacobian(params), 1, 2)
        ).swapaxes(1, 2)
        rule = {"nodes": surface.nodes, "weights": surface.weights}
        direct = surface_measure(SimpleNamespace(chart=chart, jacobian=jacobian, **rule))
        npt.assert_allclose(weighted, direct, rtol=rtol)


# ---------------------------------------------------------------------------
# Limit tables


def _counting(surface):
    calls = []

    class Counting(FrameChart):  # with_rule keeps the class, so ruled copies count too
        def chart(self, params):
            calls.append(len(params))
            return super().chart(params)

    return Counting(**vars(surface)), calls


V_POLE = veronese_apply(2, np.array([[1.0, 0.0, 0.0]]))[0]


def _v_patch():
    return veronese_patch((math.pi / 2 - 0.5, math.pi / 2 + 0.5), (-0.5, 0.5))


def test_fold_veronese_patch_matches_independent_references():
    # nested adaptive quadrature with the kink as a break point gives these
    rows = fold_limit_volume(_v_patch(), V_POLE, [0.3, 0.6, 0.9])
    npt.assert_allclose(rows[0].volume, 9.99262075684672, rtol=1e-10)
    npt.assert_allclose(rows[1].volume, 14.011357764331274, rtol=1e-10)
    npt.assert_allclose(rows[2].volume, 15.3737789933, rtol=1e-9)


def _half_circle_fold_length(t):
    # the arc inside the cap keeps its length pi - 2a; the rest is reflected
    # onto the remaining 2 pi - 2a of the great circle
    a = math.acos(2.0 * t / (1.0 + t * t))
    return 3.0 * math.pi - 4.0 * a


def _cap_patch_fold_area(t, alpha):
    # for alpha above the cap angle a: (patch minus complement) + (sphere minus complement)
    a = math.acos(2.0 * t / (1.0 + t * t))
    assert alpha > a
    return 2.0 * math.pi * (math.cos(a) - math.cos(alpha)) + 2.0 * math.pi * (1.0 + math.cos(a))


def _moebius_arc_length(r, half_angle):
    # T_{r d} scales tan(theta/2) by (1-r)/(1+r) along great circles through d
    return 4.0 * math.atan((1.0 - r) / (1.0 + r) * math.tan(0.5 * half_angle))


def _closed_form_tables():
    half = circle_arc(POLE, ORTH, (-math.pi / 2, math.pi / 2))
    patch = cap_patch(POLE, 0.8)
    full = circle_arc(-POLE, ORTH, (-math.pi, math.pi))
    avoid = circle_arc(POLE, ORTH, (-math.pi / 4, math.pi / 4))
    ts, radii = [0.5, 0.9, 0.99, 0.999], [0.5, 0.9, 0.99, 0.999]
    return [
        (fold_limit_volume(half, POLE, ts), _half_circle_fold_length),
        (fold_limit_volume(patch, POLE, [0.6, 0.9, 0.99, 0.999]), lambda t: _cap_patch_fold_area(t, 0.8)),
        (moebius_limit_volume(full, [r * POLE for r in radii]), lambda r: 2.0 * math.pi),
        (
            moebius_limit_volume(avoid, [r * POLE for r in radii]),
            lambda r: _moebius_arc_length(r, math.pi / 4),
        ),
    ]


def test_limit_rows_match_their_closed_forms():
    # the fold rows to 1e-12, the Moebius rows to 1e-10
    for k, (rows, exact) in enumerate(_closed_form_tables()):
        for row in rows:
            npt.assert_allclose(row.volume, exact(row.parameter), rtol=1e-12 if k < 2 else 1e-10)


def test_quad_error_bounds_the_true_error():
    # up to the weights' own rounding: 1 - |x|^2 cancels as |x| -> 1
    for rows, exact in _closed_form_tables():
        for row in rows:
            target = exact(row.parameter)
            assert abs(row.volume - target) <= row.quad_error + 1e-13 * target, row


def test_limit_tables_stay_within_their_node_budget():
    # the chart rows each table evaluates, its surface measure included
    patch, calls = _counting(_v_patch())
    fold_limit_volume(patch, V_POLE, [0.0, 0.3, 0.6, 0.9])
    assert sum(calls) <= 250_000
    half, calls = _counting(circle_arc(POLE, ORTH, (-math.pi / 2, math.pi / 2)))
    fold_limit_volume(half, POLE, [0.0, 0.5, 0.9, 0.99, 0.999])
    assert sum(calls) <= 5_000


def test_collinear_ball_points_share_their_rules():
    # one coarse and one fine rule for all collinear points; a new direction
    # brings its own pair
    full, calls = _counting(circle_arc(-POLE, ORTH, (-math.pi, math.pi)))
    moebius_limit_volume(full, [r * POLE for r in (0.5, 0.9, 0.99, 0.999)])
    assert len(calls) == 2
    calls.clear()
    moebius_limit_volume(full, [0.5 * POLE, 0.9 * POLE, 0.5 * ORTH])
    assert len(calls) == 4


def test_weights_equal_to_one_give_the_surface_measure_exactly():
    # no direction at x = 0, and no kink on an arc the reflected region misses
    full = circle_arc(-POLE, ORTH, (-math.pi, math.pi))
    row = moebius_limit_volume(full, [np.zeros(3), 0.5 * POLE])[0]
    assert (row.volume, row.quad_error) == (surface_measure(full), 0.0)
    quarter = circle_arc(-POLE, ORTH, (-math.pi / 4, math.pi / 4))
    for row in fold_limit_volume(quarter, POLE, [0.0, 0.5, 0.999]):
        assert (row.volume, row.quad_error) == (surface_measure(quarter), 0.0)


@pytest.mark.parametrize("band", [math.inf, math.nan, -0.5])
def test_limit_tables_need_a_finite_nonnegative_band(band):
    # an infinite band let every row pass whatever its volume
    arc = circle_arc(POLE, ORTH, (-0.5 * math.pi, 0.5 * math.pi))
    with pytest.raises(DomainError, match="band"):
        fold_limit_volume(arc, POLE, [0.5], band=band)
    with pytest.raises(DomainError, match="band"):
        moebius_limit_volume(arc, [0.5 * POLE], band=band)
