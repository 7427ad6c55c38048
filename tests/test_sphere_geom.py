import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rplap import sphere_geom as sg
from rplap.errors import DomainError
from rplap.sphere_geom import (
    CAP_T_MAX,
    SPHERE_DETECT_TOL,
    SphericalCap,
    as_ball,
    as_unit,
    cap_reflect,
    fold_apply,
    fold_factor,
    moebius_apply,
    moebius_factor,
    tangent_basis,
)
from rplap.veronese import output_dim, veronese_apply, veronese_jacobian

FD_STEP = 1e-6


def coords(dim):
    return arrays(np.float64, (dim,), elements=st.floats(-1.0, 1.0, allow_nan=False))


def unit_rows(raw):
    raw = np.atleast_2d(raw)
    norms = np.linalg.norm(raw, axis=1)
    if np.min(norms) < 1e-3:
        raw = raw + np.eye(raw.shape[1])[0] * 2.0
        norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None]


@given(coords(4), coords(4))
def test_moebius_is_a_sphere_bijection(x, y):
    y = unit_rows(y)
    x = 0.8 * x / (1.0 + np.linalg.norm(x))
    image = moebius_apply(x, y)
    npt.assert_allclose(np.linalg.norm(image, axis=1), 1.0, rtol=0, atol=1e-12)
    # T_{-x} inverts T_x
    npt.assert_allclose(moebius_apply(-x, image), y, rtol=0, atol=1e-10)


@given(st.integers(0, 2**31 - 1))
def test_moebius_translations_compose_up_to_a_rotation(seed):
    # T_{-T_a(b)} o T_a o T_b fixes the origin, so it is orthogonal.  With
    # |a|, |b| <= 0.75, |T_a(b)| <= 0.96 and T_{-T_a(b)} stretches by <= 49.
    rng = np.random.default_rng(seed)
    a, b = (rng.uniform(0.0, 0.75) * unit_rows(rng.normal(size=5))[0] for _ in range(2))
    y = unit_rows(rng.normal(size=(40, 5)))
    image = moebius_apply(-moebius_apply(a, b), moebius_apply(a, moebius_apply(b, y)))
    rotation, *_ = np.linalg.lstsq(y, image, rcond=None)
    npt.assert_allclose(y @ rotation, image, rtol=0, atol=1e-12)
    npt.assert_allclose(rotation.T @ rotation, np.eye(5), rtol=0, atol=1e-12)


def test_moebius_identity_at_origin(rng):
    y = unit_rows(rng.normal(size=(32, 5)))
    npt.assert_allclose(moebius_apply(np.zeros(5), y), y, rtol=0, atol=1e-15)
    npt.assert_allclose(moebius_factor(np.zeros(5), y), 1.0, atol=0)


@given(coords(3), coords(3))
def test_moebius_factor_is_the_local_stretch(x, y):
    y = unit_rows(y)
    x = 0.7 * x / (1.0 + np.linalg.norm(x))
    frame = tangent_basis(y)[0]
    factor = moebius_factor(x, y)[0]
    for col in range(frame.shape[1]):
        u = frame[:, col]
        plus = (y[0] + FD_STEP * u) / np.linalg.norm(y[0] + FD_STEP * u)
        minus = (y[0] - FD_STEP * u) / np.linalg.norm(y[0] - FD_STEP * u)
        stretch = np.linalg.norm(
            moebius_apply(x, plus[None])[0] - moebius_apply(x, minus[None])[0]
        ) / (2.0 * FD_STEP)
        npt.assert_allclose(stretch, factor, rtol=1e-5)


def test_moebius_factor_closed_form(rng):
    x = np.array([0.3, -0.2, 0.0, 0.4])
    s = unit_rows(rng.normal(size=(16, 4)))
    expected = (1.0 - x @ x) / (1.0 + x @ x + 2.0 * s @ x)
    npt.assert_allclose(moebius_factor(x, s), expected, rtol=1e-14)


def test_as_unit_rejects_off_sphere_points():
    with pytest.raises(DomainError):
        as_unit(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        as_ball(np.array([1.0, 0.2]))


def test_tangent_basis_is_orthonormal_and_tangent(rng):
    x = unit_rows(rng.normal(size=(40, 6)))
    frames = tangent_basis(x)
    gram = np.einsum("kiu,kiv->kuv", frames, frames)
    npt.assert_allclose(gram, np.broadcast_to(np.eye(5), gram.shape), rtol=0, atol=1e-12)
    npt.assert_allclose(np.einsum("ki,kiu->ku", x, frames), 0.0, rtol=0, atol=1e-12)


@given(coords(3), coords(3))
def test_reflect_is_an_involutive_isometry(mirror, y):
    if np.linalg.norm(mirror) < 1e-2:
        mirror = np.array([1.0, 0.0, 0.0])
    mirror = mirror / np.linalg.norm(mirror)
    y = unit_rows(y)
    once = sg._reflect(y, mirror, True)
    npt.assert_allclose(np.linalg.norm(once, axis=1), 1.0, rtol=0, atol=1e-12)
    npt.assert_allclose(sg._reflect(once, mirror, True), y, rtol=0, atol=1e-12)
    npt.assert_allclose(once @ mirror, -(y @ mirror), rtol=0, atol=1e-12)


# --- spherical caps and the fold ---------------------------------------------


def test_cap_family_limits():
    pole = np.array([0.0, 0.0, 1.0])
    hemi = SphericalCap(pole, 0.0)
    equator_pt = np.array([[1.0, 0.0, 0.0]])
    assert hemi.contains(equator_pt)[0]
    assert hemi.contains(-pole[None])[0]
    assert not hemi.contains((pole - 1e-9)[None] / np.linalg.norm(pole - 1e-9))
    with pytest.raises(DomainError):
        SphericalCap(pole, CAP_T_MAX * 1.5)
    with pytest.raises(DomainError):
        SphericalCap(pole, -0.1)


def test_stacked_cap_error_names_the_first_parameter_outside():
    ts = np.full((2000, 1, 1), 0.5)
    ts[7], ts[9] = np.nan, -1.0
    with pytest.raises(DomainError) as info:
        SphericalCap(np.eye(3)[:1, None], ts)
    assert str(info.value) == f"cap parameter t = nan outside [0, {CAP_T_MAX}]"


@given(st.floats(0.0, 0.95))
def test_cap_boundary_height(t):
    pole = np.array([0.0, 1.0, 0.0, 0.0])
    cap = SphericalCap(pole, t)
    tau = 2.0 * t / (1.0 + t * t)
    below = unit_rows(np.array([math.sqrt(max(0.0, 1 - (tau - 1e-6) ** 2)), tau - 1e-6, 0, 0]))
    above = unit_rows(np.array([math.sqrt(max(0.0, 1 - (tau + 1e-6) ** 2)), tau + 1e-6, 0, 0]))
    assert cap.contains(below)[0]
    assert not cap.contains(above)[0]


@given(st.floats(0.05, 0.95), coords(4))
def test_cap_reflect_involution(t, y):
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    cap = SphericalCap(pole, t)
    y = unit_rows(y)
    image = cap_reflect(cap, y)
    npt.assert_allclose(np.linalg.norm(image, axis=1), 1.0, rtol=0, atol=1e-12)
    npt.assert_allclose(cap_reflect(cap, image), y, rtol=0, atol=1e-9)


@given(st.floats(0.05, 0.9))
def test_cap_reflect_swaps_poles_with_known_stretch(t):
    pole = np.array([0.0, 0.0, 1.0])
    cap = SphericalCap(pole, t)
    npt.assert_allclose(cap_reflect(cap, pole[None])[0], -pole, rtol=0, atol=1e-12)
    npt.assert_allclose(cap_reflect(cap, -pole[None])[0], pole, rtol=0, atol=1e-12)
    blowup = ((1.0 + t) / (1.0 - t)) ** 2
    npt.assert_allclose(sg._cap_reflect_factor(cap, pole[None])[0], blowup, rtol=1e-12)
    npt.assert_allclose(sg._cap_reflect_factor(cap, -pole[None])[0], 1.0 / blowup, rtol=1e-12)


def test_cap_reflect_fixes_the_boundary_circle():
    t = 0.4
    tau = 2.0 * t / (1.0 + t * t)
    cap = SphericalCap(np.array([0.0, 0.0, 1.0]), t)
    ring = math.sqrt(1.0 - tau * tau)
    angles = np.linspace(0.0, 2.0 * math.pi, 9)
    boundary = np.stack(
        [ring * np.cos(angles), ring * np.sin(angles), np.full_like(angles, tau)], axis=-1
    )
    npt.assert_allclose(cap_reflect(cap, boundary), boundary, rtol=0, atol=1e-12)


@given(st.floats(0.05, 0.9), coords(3))
def test_fold_branches(t, y):
    cap = SphericalCap(np.array([0.0, 0.0, 1.0]), t)
    y = unit_rows(y)
    folded = fold_apply(cap, y)
    factor = fold_factor(cap, y)
    if cap.contains(y)[0]:
        npt.assert_allclose(folded, y, rtol=0, atol=1e-15)
        npt.assert_allclose(factor, 1.0, atol=0)
    else:
        npt.assert_allclose(folded, cap_reflect(cap, y), rtol=0, atol=1e-15)
        s = as_unit(y, tol=SPHERE_DETECT_TOL)
        npt.assert_allclose(factor, sg._cap_reflect_factor(cap, s), atol=0)
    # fold always lands on the kept side
    assert cap.contains(folded)[0] or abs(folded[0] @ cap.pole - cap.threshold) < 1e-9


def test_fold_factor_is_unit_on_the_kept_side(rng):
    cap = SphericalCap(np.array([1.0, 0.0, 0.0, 0.0]), 0.35)
    pts = unit_rows(rng.normal(size=(200, 4)))
    inside = cap.contains(pts)
    npt.assert_array_equal(fold_factor(cap, pts)[inside], 1.0)
    assert np.all(fold_factor(cap, pts)[~inside] > 1.0)


# --- kernels and their validating public wrappers -----------------------------


def ball_rows(raw, radius=0.9):
    raw = np.atleast_2d(raw)
    return radius * raw / (1.0 + np.linalg.norm(raw, axis=1, keepdims=True))


@given(coords(4), arrays(np.float64, (5, 4), elements=st.floats(-1.0, 1.0)))
def test_kernels_equal_their_wrappers_on_sphere_points(x, raw):
    x = ball_rows(x)[0]
    y = unit_rows(raw)
    s = as_unit(y, tol=SPHERE_DETECT_TOL)
    npt.assert_array_equal(sg._moebius(x, y, True), moebius_apply(x, y))
    npt.assert_array_equal(sg._moebius_factor(x, s), moebius_factor(x, y))


@given(coords(4), arrays(np.float64, (5, 4), elements=st.floats(-1.0, 1.0)))
def test_kernels_equal_their_wrappers_on_ball_points(x, raw):
    x = ball_rows(x)[0]
    y = ball_rows(raw)
    npt.assert_array_equal(sg._moebius(x, y, False), moebius_apply(x, y))


@given(st.floats(0.0, 0.9), coords(3), arrays(np.float64, (6, 3), elements=st.floats(-1.0, 1.0)))
def test_cap_kernels_equal_their_wrappers(t, pole, raw):
    cap = SphericalCap(unit_rows(pole)[0], t)
    y = unit_rows(raw)
    s = as_unit(y, tol=SPHERE_DETECT_TOL)
    npt.assert_array_equal(sg._cap_reflect(cap, s), cap_reflect(cap, y))
    npt.assert_array_equal(sg._fold(cap, s), fold_apply(cap, y))
    npt.assert_array_equal(sg._fold_factor(cap, s), fold_factor(cap, y))


def test_non_finite_points_are_rejected():
    for point in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0, np.nan]):
        with pytest.raises(DomainError):
            as_unit(np.array(point))
        with pytest.raises(DomainError):
            as_ball(0.5 * np.array(point))
    with pytest.raises(DomainError):
        SphericalCap(np.array([np.nan, 0.0, 0.0]), 0.3)


# --- the contracted row dot products against summed references ---------------


def row_sum(a, b):
    return np.sum(a * b, axis=-1, keepdims=True)


@given(
    st.sampled_from([3, 5, 9]),
    st.integers(0, 4),
    st.integers(0, 6),
    st.integers(0, 2**31 - 1),
)
def test_dot_matches_the_summed_products(m, count, rows, seed):
    rng = np.random.default_rng(seed)
    for a_shape, b_shape in (((count, 1, m), (count, rows, m)), ((rows, m), (m,))):
        a, b = rng.uniform(-1.0, 1.0, a_shape), rng.uniform(-1.0, 1.0, b_shape)
        expected = row_sum(a, b)[..., 0]
        assert sg._dot(a, b).shape == expected.shape
        npt.assert_allclose(sg._dot(a, b), expected, rtol=0, atol=1e-14)
        npt.assert_allclose(sg._dot(b, a), expected, rtol=0, atol=1e-14)


def moebius_reference(x, y):
    xy, yy, xx = row_sum(x, y), row_sum(y, y), row_sum(x, x)
    out = ((1.0 + 2.0 * xy + yy) * x + (1.0 - xx) * y) / (1.0 + 2.0 * xy + xx * yy)
    return out / np.sqrt(row_sum(out, out))


def cap_reflect_reference(pole, t, y):
    d, q, m = y - pole, y + pole, y - t * pole
    dd = row_sum(d, d)
    denom = row_sum(m, m) ** 2 + t * t * dd * row_sum(q, q)
    out = ((1.0 - t * t) ** 2 * d + ((1.0 + t * t) ** 2 * dd - (1.0 - t) ** 4) * pole) / denom
    return out / np.sqrt(row_sum(out, out))


@given(st.sampled_from([3, 5, 9]), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_kernels_match_summed_references(m, count, seed):
    # unit-scale inputs as the centering and search stack them: K shifts or
    # caps (K, 1, m) against N unit rows (N, m)
    rng = np.random.default_rng(seed)
    y = unit_rows(rng.normal(size=(7, m)))
    x = rng.uniform(0.0, 0.5, (count, 1, 1)) * unit_rows(rng.normal(size=(count, m)))[:, None]
    npt.assert_allclose(sg._moebius(x, y, True), moebius_reference(x, y), rtol=0, atol=1e-14)
    factor = (1.0 - row_sum(x, x)) / row_sum(x + y, x + y)
    npt.assert_allclose(sg._moebius_factor(x, y), factor[..., 0], rtol=0, atol=1e-14)

    pole = unit_rows(rng.normal(size=(count, m)))[:, None]
    t = rng.uniform(0.0, 0.5, (count, 1, 1))
    cap = SphericalCap(pole, t)
    margin = (2.0 * t / (1.0 + t * t) - row_sum(y, pole))[..., 0]
    npt.assert_allclose(cap.signed_margin(y), margin, rtol=0, atol=1e-14)
    reflected = cap_reflect_reference(pole, t, y)
    npt.assert_allclose(sg._cap_reflect(cap, y), reflected, rtol=0, atol=1e-14)
    folded = np.where(margin[..., None] >= -sg.MEMBERSHIP_TOL, y, reflected)
    npt.assert_allclose(sg._fold(cap, y), folded, rtol=0, atol=1e-14)


@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_central_differences_match_the_veronese_jacobian_on_tangent_frames(n, seed):
    x = unit_rows(np.random.default_rng(seed).normal(size=(7, n + 1)))
    frames = tangent_basis(x)
    cols = sg._central_differences(
        lambda p: veronese_apply(n, p), x, frames, 1e-5, on_sphere=True
    )
    assert cols.shape == (7, output_dim(n), n)
    npt.assert_allclose(cols, veronese_jacobian(n, x) @ frames, rtol=0, atol=1e-8)


@given(arrays(np.float64, (3, 4), elements=st.floats(-2.0, 2.0)), st.integers(0, 2**31 - 1))
def test_central_differences_recover_a_linear_map(matrix, seed):
    points = np.random.default_rng(seed).normal(size=(5, 4))
    cols = sg._central_differences(
        lambda p: p @ matrix.T, points, np.eye(4)[None], 1e-6, on_sphere=False
    )
    npt.assert_allclose(cols, np.broadcast_to(matrix, (5, 3, 4)), rtol=0, atol=1e-8)


# --- exact differentials --------------------------------------------------------


def assert_columns_match_central_differences(func, differential, y, directions, on_sphere):
    # errors are taken relative to each row's largest entry: the stretch here
    # spans 1/361 to 361
    cols = sg._central_differences(lambda p: func(p, on_sphere), y, directions, FD_STEP, on_sphere)
    exact = np.swapaxes(differential(y, np.swapaxes(directions, 1, 2)), 1, 2)
    scale = np.max(np.abs(exact), axis=(1, 2), keepdims=True)
    npt.assert_array_less(np.abs(exact - cols) / scale, 1e-6)


@given(st.integers(0, 2**31 - 1), st.sampled_from([3, 5]), st.floats(0.0, 0.95))
def test_moebius_differential_matches_central_differences(seed, dim, radius):
    rng = np.random.default_rng(seed)
    x = radius * unit_rows(rng.normal(size=dim))[0]
    # -x/|x| is the point of largest stretch, (1 + |x|) / (1 - |x|)
    y = np.concatenate([-unit_rows(x), unit_rows(rng.normal(size=(7, dim)))])
    # on the sphere along tangent frames; inside the ball along every axis,
    # where the terms in y.v count as well
    ball = ball_rows(rng.normal(size=y.shape))
    for rows, directions, on_sphere in ((y, tangent_basis(y), True), (ball, np.eye(dim)[None], False)):
        assert_columns_match_central_differences(
            lambda p, unit: sg._moebius(x, p, unit),
            lambda p, v: sg._moebius_differential(x, p, v),
            rows,
            directions,
            on_sphere,
        )


@given(st.integers(0, 2**31 - 1), st.sampled_from([3, 5]), st.floats(0.0, 0.9))
def test_cap_reflect_differential_matches_central_differences(seed, dim, t):
    rng = np.random.default_rng(seed)
    cap = SphericalCap(unit_rows(rng.normal(size=dim))[0], t)
    # the pole is the point of largest stretch, ((1 + t) / (1 - t))^2
    y = np.concatenate([cap.pole[None], unit_rows(rng.normal(size=(7, dim)))])
    # the cap reflection takes unit rows: along tangent frames only
    assert_columns_match_central_differences(
        lambda p, _: sg._cap_reflect(cap, p),
        lambda p, v: sg._cap_reflect_differential(cap, p, v),
        y,
        tangent_basis(y),
        True,
    )


@given(st.integers(0, 2**31 - 1), st.sampled_from([3, 5]), st.floats(0.0, 0.9))
def test_cap_reflect_closed_form_matches_the_moebius_conjugate(seed, dim, t):
    # cap_reflect = T_{tp} o L_p o T_{-tp}, written with the Moebius and mirror kernels
    rng = np.random.default_rng(seed)
    cap = SphericalCap(unit_rows(rng.normal(size=dim))[0], t)
    y = np.concatenate([cap.pole[None], -cap.pole[None], unit_rows(rng.normal(size=(16, dim)))])
    shift = t * cap.pole
    mirrored = sg._reflect(sg._moebius(-shift, y, True), cap.pole, True)
    npt.assert_allclose(cap_reflect(cap, y), sg._moebius(shift, mirrored, True), rtol=0, atol=1e-12)
    stretch = sg._moebius_factor(shift, mirrored) * sg._moebius_factor(-shift, y)
    npt.assert_allclose(sg._cap_reflect_factor(cap, y), stretch, rtol=1e-12)


# --- the stereographic chart at the cap pole -----------------------------------


@given(st.floats(0.05, 0.9), coords(3))
def test_cap_reflection_is_an_inversion_in_the_chart(t, y):
    # Centered at the cap pole, the fold's reflection becomes the classical
    # inversion z -> eps^2 z / |z|^2 with eps = (1 - t) / (1 + t).
    pole = np.array([0.0, 0.0, 1.0])
    cap = SphericalCap(pole, t)
    y = unit_rows(y)
    if abs(y[0] @ pole) > 0.99:
        y = unit_rows(np.array([0.6, -0.3, 0.5]))
    eps = (1.0 - t) / (1.0 + t)
    chart = lambda y: y[:, :2] / (1.0 + y[:, 2:])  # projects from -pole; pole -> 0
    z = chart(y)
    lhs = chart(cap_reflect(cap, y))
    rhs = eps**2 * z / np.sum(z * z, axis=1, keepdims=True)
    npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


@given(st.integers(0, 2**31 - 1), st.sampled_from([3, 5]), st.floats(0.0, 0.999))
def test_limit_weights_depend_only_on_a_height(seed, dim, t):
    # the limit tables build their rules on this: the fold stretch is a
    # closed form of h = y.pole, and the Moebius stretch of h = s.(-x/|x|)
    rng = np.random.default_rng(seed)
    pole = unit_rows(rng.normal(size=dim))[0]
    y = unit_rows(rng.normal(size=(64, dim)))
    h = y @ pole
    stretch = (1.0 - t * t) ** 2 / ((1.0 - t) ** 4 + 4.0 * t * (1.0 + t * t) * (1.0 - h))
    expected = np.where(h <= 2.0 * t / (1.0 + t * t), 1.0, stretch)
    npt.assert_allclose(fold_factor(SphericalCap(pole, t), y), expected, rtol=1e-12, atol=0)

    radius = min(t, 0.99)
    x = -radius * pole
    # the same heights, reached along other directions orthogonal to the pole
    other = rng.normal(size=(64, dim))
    other = unit_rows(other - (other @ pole)[:, None] * pole)
    twin = h[:, None] * pole + np.sqrt(np.maximum(1.0 - h * h, 0.0))[:, None] * other
    factor = moebius_factor(x, y)
    npt.assert_allclose(moebius_factor(x, twin), factor, rtol=1e-12, atol=0)
    closed = (1.0 - radius**2) / ((1.0 - radius) ** 2 + 2.0 * radius * (1.0 - h))
    npt.assert_allclose(factor, closed, rtol=1e-12, atol=0)
