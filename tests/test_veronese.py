import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rplap.errors import DomainError
from rplap.sphere_geom import tangent_basis
from rplap.veronese import (
    constants,
    output_dim,
    quadratic_forms,
    veronese_apply,
    veronese_jacobian,
)

DIMS = st.integers(min_value=1, max_value=6)


def sphere_points(draw_raw, dim):
    raw = np.atleast_2d(draw_raw)[:, : dim + 1]
    norms = np.linalg.norm(raw, axis=1)
    raw[norms < 1e-3] += np.eye(dim + 1)[0] * 2.0
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_output_dims():
    assert [output_dim(n) for n in range(1, 9)] == [2, 5, 9, 14, 20, 27, 35, 44]


def test_constants_two_dimensional_values():
    cst = constants(2)
    npt.assert_allclose(cst.conformal_scale**2, 3.0, rtol=1e-15)
    npt.assert_allclose(cst.radial_coeff**2, 1.0, rtol=1e-15)


def test_constants_collapse_at_dimension_one():
    # the tangential identity degenerates gracefully: no radial term at n = 1
    assert constants(1).radial_coeff == 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_quadratic_forms_are_an_orthogonal_traceless_family(n):
    forms = quadratic_forms(n)
    assert forms.shape == (output_dim(n), n + 1, n + 1)
    assert not forms.flags.writeable
    npt.assert_array_equal(forms, forms.transpose(0, 2, 1))
    npt.assert_allclose(np.trace(forms, axis1=1, axis2=2), 0.0, rtol=0, atol=1e-15)
    frobenius = np.einsum("kij,lij->kl", forms, forms)
    npt.assert_allclose(frobenius, (n + 1) / n * np.eye(output_dim(n)), rtol=0, atol=1e-15)


@given(
    DIMS,
    arrays(np.float64, (4, 7), elements=st.floats(-2.0, 2.0, allow_nan=False)),
)
def test_map_and_jacobian_contract_the_forms(n, raw):
    x, forms = raw[:, : n + 1], quadratic_forms(n)
    npt.assert_allclose(
        veronese_apply(n, x), np.einsum("...i,kij,...j", x, forms, x), rtol=0, atol=1e-14
    )
    npt.assert_allclose(
        veronese_jacobian(n, x), 2.0 * np.einsum("kij,...j->...ki", forms, x), rtol=0, atol=1e-14
    )


def test_frozen_images_on_s2():
    north = veronese_apply(2, np.array([[0.0, 0.0, 1.0]]))[0]
    npt.assert_allclose(north, [0.0, 0.0, 0.0, 0.0, -1.0], rtol=0, atol=1e-15)
    first = veronese_apply(2, np.array([[1.0, 0.0, 0.0]]))[0]
    npt.assert_allclose(first, [0.0, math.sqrt(3.0) / 2.0, 0.0, 0.0, 0.5], rtol=0, atol=1e-15)


@given(
    DIMS,
    arrays(np.float64, (3, 7), elements=st.floats(-1.0, 1.0, allow_nan=False)),
)
def test_image_on_unit_sphere_and_even(n, raw):
    x = sphere_points(raw, n)
    image = veronese_apply(n, x)
    assert image.shape == (3, output_dim(n))
    npt.assert_allclose(np.linalg.norm(image, axis=1), 1.0, rtol=0, atol=1e-12)
    npt.assert_allclose(veronese_apply(n, -x), image, rtol=0, atol=1e-14)


@given(
    DIMS,
    arrays(np.float64, (2, 7), elements=st.floats(-1.0, 1.0, allow_nan=False)),
)
def test_gram_identity(n, raw):
    x = sphere_points(raw, n)
    dots = veronese_apply(n, x[:1]) @ veronese_apply(n, x[1:]).T
    c = float(x[0] @ x[1])
    npt.assert_allclose(dots[0, 0], ((n + 1) * c * c - 1.0) / n, rtol=0, atol=1e-12)


@given(
    DIMS,
    arrays(np.float64, (1, 7), elements=st.floats(-1.0, 1.0, allow_nan=False)),
)
def test_jacobian_conformality(n, raw):
    x = sphere_points(raw, n)
    cst = constants(n)
    jac = veronese_jacobian(n, x)[0]
    # tangential part: J^T J restricted to x^perp is conformal_scale^2 * Id
    frame = tangent_basis(x)[0]
    pushed = jac @ frame
    npt.assert_allclose(
        pushed.T @ pushed, cst.conformal_scale**2 * np.eye(n), rtol=0, atol=1e-12
    )
    # radial part: degree-2 homogeneity gives J x = 2 Phi(x)
    npt.assert_allclose(jac @ x[0], 2.0 * veronese_apply(n, x)[0], rtol=0, atol=1e-12)


def test_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for n in (1, 2, 3, 5):
        x = sphere_points(rng.normal(size=(4, n + 1)), n)
        jac = veronese_jacobian(n, x)
        for k in range(x.shape[0]):
            for i in range(n + 1):
                step = np.zeros(n + 1)
                step[i] = h
                fd = (
                    veronese_apply(n, (x[k] + step)[None])
                    - veronese_apply(n, (x[k] - step)[None])
                ) / (2.0 * h)
                npt.assert_allclose(jac[k, :, i], fd[0], rtol=0, atol=1e-8)


def test_tangent_frame_is_conformal(rng):
    x = sphere_points(rng.normal(size=(10, 4)), 3)
    frames = veronese_jacobian(3, x) @ tangent_basis(x)
    gram = np.einsum("kmu,kmv->kuv", frames, frames)
    scale_sq = constants(3).conformal_scale ** 2
    npt.assert_allclose(
        gram, np.broadcast_to(scale_sq * np.eye(3), gram.shape), rtol=0, atol=1e-12
    )


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        veronese_apply(0, np.array([[1.0]]))
    with pytest.raises(DomainError):
        veronese_apply(2, np.array([[1.0, 0.0]]))  # wrong ambient dimension
