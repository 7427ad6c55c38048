import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rplap
from rplap import spectral, sphere_geom as sg, trial_bound
from rplap.errors import ConvergenceError, DomainError, NumericError
from rplap.quadrature import build_sphere_rule, projective_volume
from rplap.sphere_geom import SphericalCap, moebius_apply
from rplap.spectral import round_factor, volume, zonal_factor
from rplap.trial_bound import (
    PushforwardMeasure,
    center_of_mass,
    extended_vector_field,
    moebius_shifted_uniform,
    pushforward_measure,
    rayleigh_chain,
    search_vector_field_zero,
    theorem_check,
    vector_field,
)
from rplap.veronese import veronese_apply


def _run_with_blas_threads(script, threads):
    """Run a script printing JSON in a fresh interpreter with the given BLAS threads."""
    src = str(Path(rplap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


CHAIN_STAGES = [
    "unit-image",
    "denominator-sum",
    "numerators-fd-vs-analytic",
    "hoelder",
    "conformal-invariance",
    "energy-vs-split-volume",
    "frame-identity",
    "drop-intersections",
    "conformal-volume-plain",
    "conformal-volume-reflected",
    "final-constant",
    "chain-total",
]


def image_pole(n, base):
    return veronese_apply(n, np.asarray(base, dtype=float)[None])[0]


# ---------------------------------------------------------------------------
# Atomic measures


class TestPushforwardMeasure:
    def test_basic_properties(self):
        pts = np.eye(3)
        m = PushforwardMeasure(points=pts, weights=np.array([1.0, 1.0, 1.5]))
        assert m.mass == pytest.approx(3.5)
        assert m.ambient_dim == 3

    def test_rejects_off_sphere_atoms(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]])
        with pytest.raises(DomainError):
            PushforwardMeasure(points=pts, weights=np.ones(2))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DomainError):
            PushforwardMeasure(points=np.eye(2), weights=np.array([1.0, 0.0]))

    def test_rejects_dominant_atom(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            PushforwardMeasure(points=pts, weights=np.array([5.0, 1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            PushforwardMeasure(points=np.eye(3), weights=np.ones(2))

    @pytest.mark.parametrize("field", ["points", "weights"])
    def test_rejects_non_finite_values(self, field):
        valid = moebius_shifted_uniform(3, [0.2, 0.0, 0.0], pairs=8)
        values = {"points": valid.points.copy(), "weights": valid.weights.copy()}
        values[field][3] = np.nan
        with pytest.raises(DomainError, match="finite"):
            PushforwardMeasure(**values)
        with pytest.raises(NumericError, match="finite"):
            trial_bound._computed_measure(**values)

    def test_rejects_an_empty_measure(self):
        with pytest.raises(DomainError, match="N >= 1"):
            PushforwardMeasure(points=np.empty((0, 3)), weights=np.empty(0))

    @pytest.mark.parametrize("field", ["points", "weights"])
    def test_stores_read_only_copies(self, field):
        valid = moebius_shifted_uniform(3, [0.2, 0.0, 0.0], pairs=8)
        values = {"points": valid.points.copy(), "weights": valid.weights.copy()}
        measure = PushforwardMeasure(**values)
        with pytest.raises(ValueError, match="read-only"):
            getattr(measure, field)[3] = np.nan
        values[field][3] = np.nan  # the caller's array is neither frozen nor shared
        assert np.all(np.isfinite(getattr(measure, field)))


@pytest.mark.parametrize("pairs", [0, -2])
def test_a_cloud_needs_an_antipodal_pair(pairs):
    with pytest.raises(DomainError, match="antipodal pair"):
        moebius_shifted_uniform(3, [0.1, 0.0, 0.0], pairs=pairs)


def test_pushforward_mass_is_the_metric_volume():
    for w in (round_factor(2), zonal_factor(2, 0.5)):
        cap = SphericalCap(image_pole(2, [0, 0, 1]), 0.3)
        m = pushforward_measure(w, cap)
        npt.assert_allclose(m.mass, volume(w), rtol=1e-12)
        assert np.all(cap.contains(m.points))


def test_round_pushforward_mass_is_projective_volume():
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.5)
    m = pushforward_measure(round_factor(2), cap)
    npt.assert_allclose(m.mass, projective_volume(2), rtol=1e-12)


def test_a_heavy_atom_of_a_computed_measure_is_a_numerical_failure():
    # valid input that the rule is too coarse for: one node carries half the
    # mass, where a hand-built measure's heavy atom stays a DomainError
    w, rule = spectral.parse_factor("exp:2,0,10", 2), build_sphere_rule(2, 12)
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.3)
    with pytest.raises(NumericError, match="half the mass"):
        pushforward_measure(w, cap, rule=rule)
    with pytest.raises(NumericError, match="half the mass"):
        rayleigh_chain(w, cap, rule=rule)


@pytest.mark.parametrize("field", ["points", "weights"])
def test_center_of_mass_does_not_converge_on_nan(field):
    # a measure cannot hold NaN, so the centering loop is fed one directly
    valid = moebius_shifted_uniform(3, [0.2, 0.0, 0.0], pairs=8)
    values = {"points": valid.points.copy(), "weights": valid.weights.copy()}
    values[field][3] = np.nan
    with pytest.raises(ConvergenceError, match="residual nan .*: non-finite residual$"):
        trial_bound._center_iterate(values["points"][None], values["weights"], 1e-10, 500)


# ---------------------------------------------------------------------------
# Hyperbolic center of mass


@pytest.mark.parametrize("depth", [0.0, 0.3, 0.6, 0.9])
def test_center_recovers_known_shift(depth):
    shift = depth * np.array([0.6, 0.0, -0.8, 0.0])
    measure = moebius_shifted_uniform(4, shift, pairs=64, seed=1)
    result = center_of_mass(measure)
    npt.assert_allclose(result.center, shift, rtol=0, atol=1e-8)
    assert result.verified_residual <= 1e-10
    assert result.iterations <= 10


@given(st.integers(min_value=0, max_value=10_000))
def test_center_recovery_random_directions(seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    shift = rng.uniform(0.0, 0.9) * direction
    measure = moebius_shifted_uniform(5, shift, pairs=32, seed=seed + 1)
    result = center_of_mass(measure)
    npt.assert_allclose(result.center, shift, rtol=0, atol=1e-8)


@given(st.integers(0, 2**31 - 1))
def test_center_is_rotation_equivariant(seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((41, 5))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    points = moebius_apply(rng.uniform(0.0, 0.9) * raw[0], raw[1:])
    weights = rng.uniform(0.5, 1.5, 40)
    rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    center = center_of_mass(PushforwardMeasure(points=points, weights=weights)).center
    rotated = PushforwardMeasure(points=points @ rotation.T, weights=weights)
    npt.assert_allclose(
        center_of_mass(rotated).center, rotation @ center, rtol=0, atol=1e-10
    )


@pytest.mark.parametrize("start", [[1.0, 0.0, 0.0], [0.8, 0.0, -0.7]])
def test_center_rejects_a_start_outside_the_open_ball(start):
    measure = moebius_shifted_uniform(3, np.array([0.2, 0.0, 0.0]), pairs=16)
    with pytest.raises(DomainError):
        center_of_mass(measure, start=np.array(start))


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_center_rejects_a_tolerance_outside_zero_to_infinity(tol):
    # NaN or a negative tol used to run to a "no step halving" ConvergenceError,
    # and an infinite one stopped at once
    measure = moebius_shifted_uniform(3, np.array([0.1, 0.0, 0.0]), pairs=16)
    with pytest.raises(DomainError, match="tol"):
        center_of_mass(measure, tol=tol)


def test_center_rejects_a_negative_iteration_cap():
    # a negative cap used to run no round and report a "no step halving"
    # ConvergenceError, the numerical-failure class
    measure = moebius_shifted_uniform(3, np.array([0.2, 0.0, 0.0]), pairs=16)
    with pytest.raises(DomainError, match="max_iter"):
        center_of_mass(measure, max_iter=-1)


def test_batched_centering_matches_one_measure_at_a_time():
    # the three rows finish in different rounds: every row is active at first
    # (step and residual see the batch itself), then only the unfinished ones
    # (indexed copies); neither path may move a number
    direction = np.array([0.6, 0.0, -0.8, 0.0])
    clouds = [
        moebius_shifted_uniform(4, depth * direction, pairs=32, seed=k)
        for k, depth in enumerate((0.1, 0.6, 0.95))
    ]
    points, weights = np.stack([c.points for c in clouds]), clouds[0].weights
    centers, moved, _, iterations, _ = trial_bound._center_iterate(points, weights, 1e-10, 500)
    assert len(set(iterations.tolist())) == 3
    for k in range(3):
        alone, alone_moved, _, rounds, _ = trial_bound._center_iterate(
            points[k : k + 1], weights, 1e-10, 500
        )
        assert np.array_equal(alone[0], centers[k])
        assert np.array_equal(alone_moved[0], moved[k])
        assert rounds[0] == iterations[k]


def test_center_history_residuals_reach_tolerance():
    measure = moebius_shifted_uniform(3, np.array([0.5, 0.2, 0.0]), seed=4)
    result = center_of_mass(measure, tol=1e-12)
    assert result.history[-1] <= 1e-12
    assert result.residual <= 1e-12


# ---------------------------------------------------------------------------
# Trial maps and vector fields


def test_vector_field_respects_centering():
    w = zonal_factor(2, 0.5)
    f = lambda pts: pts[:, 2] ** 2 - 1.0 / 3.0
    cap = SphericalCap(image_pole(2, [0, 0, 1]), 0.35)
    result = vector_field(w, f, cap, com_tol=1e-11)
    assert result.center_residual <= 1e-11
    # the unweighted moment vanishes by construction; with f on board the
    # generic configuration keeps a visible obstruction
    assert result.residual > 1e-4
    assert result.mass == pytest.approx(volume(w), rel=1e-12)


@pytest.mark.parametrize("com_tol", [math.nan, -1.0, 0.0, math.inf])
def test_vector_field_rejects_a_centering_tolerance_outside_zero_to_infinity(com_tol):
    # NaN, -1 and 0 used to raise ConvergenceError, the numerical-failure
    # class, and inf returned an uncentered field
    f = lambda pts: pts[:, 2] ** 2 - 1.0 / 3.0
    cap = SphericalCap(image_pole(2, [0, 0, 1]), 0.35)
    with pytest.raises(DomainError, match="com_tol"):
        vector_field(round_factor(2), f, cap, com_tol=com_tol)


def test_extended_field_saturates_at_the_boundary():
    w = round_factor(2)
    cap = SphericalCap(image_pole(2, [0, 0, 1]), 0.4)
    f = lambda pts: pts[:, 2] ** 2 - 1.0 / 3.0
    mass = pushforward_measure(w, cap).mass
    direction = np.eye(5)[1]
    joint = extended_vector_field(w, f, cap, 0.9995 * direction)
    first, second = joint[:5], joint[5:]
    npt.assert_allclose(first / mass, -direction, rtol=0, atol=2e-4)
    assert np.linalg.norm(second) / mass < 1e-3


def test_search_drives_the_field_to_zero():
    result = search_vector_field_zero(zonal_factor(2, 0.5), starts=2, seed=3, maxiter=60)
    assert result.residual <= 1e-10
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert len(result.trace) == result.evaluations
    # one polished start per requested grid cell, no random starts
    assert len(result.start_results) == 2
    assert 0.0 <= result.t <= 0.999
    npt.assert_allclose(np.linalg.norm(result.pole), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name, value",
    [("starts", -1), ("maxiter", -1), ("starts", 2.5)],
)
def test_search_rejects_a_count_that_is_not_a_non_negative_integer(name, value):
    # starts=-1 used to polish all but the last grid cell, maxiter=-1 to skip
    # the polish, and starts=2.5 to raise a bare TypeError
    with pytest.raises(DomainError, match=f"{name} must be a non-negative integer"):
        search_vector_field_zero(zonal_factor(2, 0.5), **{name: value})


def test_search_evaluates_one_cap_holding_every_image(monkeypatch):
    # on such caps the fold is the identity and V takes one value
    whole = []
    field = trial_bound._FieldWorkspace.field

    def recording(self, poles, ts, **kwargs):
        caps = SphericalCap(poles[:, None], ts[:, None, None])
        whole.extend(caps.contains(self.images).all(axis=1).tolist())
        return field(self, poles, ts, **kwargs)

    monkeypatch.setattr(trial_bound._FieldWorkspace, "field", recording)
    # no polish, so every evaluation is a slice-grid cell
    result = search_vector_field_zero(zonal_factor(2, 0.5), starts=0, seed=0)
    assert len(whole) == result.evaluations > 100
    assert sum(whole) == 1  # the first such cap is kept, the rest skipped


def _quadrature_slice_basis(w, f, seed=0):
    """The slice basis by an L2 projection onto the Veronese components: the
    quadrature Gram solve that the Frobenius products replace."""
    n, rule = w.sphere_dim, build_sphere_rule(w.sphere_dim, 12)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((20 * (n + 1) ** 2, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    design = np.einsum("ki,kj->kij", pts, pts).reshape(pts.shape[0], -1)
    coef, *_ = np.linalg.lstsq(design, f(pts), rcond=None)
    quad = coef.reshape(n + 1, n + 1)
    quad = 0.5 * (quad + quad.T)
    quad -= np.trace(quad) / (n + 1) * np.eye(n + 1)
    frame = np.linalg.eigh(quad)[1] if np.linalg.norm(quad) >= 1e-6 else np.eye(n + 1)
    phi = veronese_apply(n, rule.nodes)
    gram = np.einsum("k,ki,kj->ij", rule.weights, phi, phi)
    columns = []
    for i in range(n):
        diag = np.zeros(n + 1)
        diag[i], diag[i + 1] = 1.0, -1.0
        form = frame @ np.diag(diag) @ frame.T
        values = np.einsum("ki,ij,kj->k", rule.nodes, form, rule.nodes)
        moments = np.einsum("k,ki->i", rule.weights * values, phi)
        columns.append(np.linalg.solve(gram, moments))
    return np.linalg.qr(np.array(columns).T)[0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", ["round", "zonal:0.5", "exp:2,1,0.3"])
def test_slice_basis_matches_the_quadrature_projection(n, spec):
    w = spectral.parse_factor(spec, n)
    f = spectral.first_excited_state(spectral.eigenvalues(w))
    npt.assert_allclose(
        trial_bound._principal_slice_basis(w, f), _quadrature_slice_basis(w, f), rtol=0, atol=1e-12
    )


def test_field_on_a_stack_of_caps_matches_each_cap_alone():
    w, rule = zonal_factor(2, 0.5), spectral.default_rule(2)
    f = lambda pts: pts[:, 2] ** 2 - 1.0 / 3.0
    base = np.random.default_rng(11).standard_normal((5, 3))
    poles = veronese_apply(2, base / np.linalg.norm(base, axis=1, keepdims=True))
    ts = np.array([0.0, 0.2, 0.45, 0.7, 0.95])
    ws = trial_bound._FieldWorkspace(w, rule, f=f)
    vecs, centers, _ = ws.field(poles, ts, com_tol=1e-12)
    for pole, t, vec, center in zip(poles, ts, vecs, centers):
        alone = vector_field(w, f, SphericalCap(pole, t), rule=rule, com_tol=1e-12)
        npt.assert_allclose(vec, alone.vector, rtol=0, atol=1e-12 * ws.mass)
        npt.assert_allclose(center, alone.center, rtol=0, atol=1e-12)


def test_criterion_6_search_evaluates_at_most_700_caps():
    result = search_vector_field_zero(zonal_factor(2, 0.5), starts=6, seed=0, maxiter=80)
    assert result.residual <= 1e-10
    assert result.evaluations <= 700
    assert len(result.trace) == result.evaluations


def test_search_finds_the_field_zero_in_dimension_three():
    result = search_vector_field_zero(zonal_factor(3, 0.4), starts=6, seed=0, maxiter=80)
    assert result.residual <= 1e-10
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))


_SEARCH_SCRIPT = """
import json
from rplap.spectral import zonal_factor
from rplap.trial_bound import search_vector_field_zero
result = search_vector_field_zero(zonal_factor(2, 0.5), starts=6, seed=0, maxiter=80)
print(json.dumps([result.residual, result.pole.tolist()]))
"""


def test_search_does_not_depend_on_the_blas_thread_count():
    runs = [_run_with_blas_threads(_SEARCH_SCRIPT, threads) for threads in ("1", "2")]
    (res_one, pole_one), (res_two, pole_two) = runs
    assert res_one <= 1e-10 and res_two <= 1e-10
    pole_one, pole_two = np.array(pole_one), np.array(pole_two)
    assert min(np.max(np.abs(pole_two - pole_one)), np.max(np.abs(pole_two + pole_one))) <= 1e-8


_DIMENSION_THREE_SCRIPT = """
import json
import numpy as np
from rplap import spectral
from rplap.trial_bound import search_vector_field_zero
points = np.random.default_rng(5).standard_normal((50, 4))
points /= np.linalg.norm(points, axis=1, keepdims=True)
values = {}
for spec in ("round", "zonal:0.2", "zonal:-0.2", "zonal:0.4", "zonal:-0.4"):
    f = spectral.first_excited_state(spectral.eigenvalues(spectral.parse_factor(spec, 3)))
    values[spec] = f(points).tolist()
result = search_vector_field_zero(spectral.round_factor(3), starts=6, seed=0, maxiter=80)
print(json.dumps([result.residual, values]))
"""


def test_round_dimension_three_field_zero_under_either_blas_thread_count():
    # lambda_1 = 8 has multiplicity 9 here, so f is only reproducible if it is
    # chosen by the maths rather than by the eigensolver's ordering
    runs = [_run_with_blas_threads(_DIMENSION_THREE_SCRIPT, threads) for threads in ("1", "2")]
    (res_one, values_one), (res_two, values_two) = runs
    assert res_one <= 1e-10 and res_two <= 1e-10
    for spec, values in values_one.items():
        npt.assert_allclose(values_two[spec], values, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# The energy chain


def test_chain_round_hemisphere_is_flat():
    cap = SphericalCap(np.eye(5)[4], 0.0)
    report = rayleigh_chain(round_factor(2), cap, center=np.zeros(5))
    assert report.passed
    assert [s.stage_id for s in report.stages] == CHAIN_STAGES
    # with no fold distortion the mean Rayleigh quotient is exactly 2n + 2
    npt.assert_allclose(report.values["mean_rayleigh"], 6.0, rtol=1e-12)
    npt.assert_allclose(report.values["final_bound"], 75.39822368616, rtol=0, atol=1e-9)


def test_chain_round_generic_cap():
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.45)
    report = rayleigh_chain(round_factor(2), cap)
    assert report.passed
    assert report.values["mean_rayleigh"] > 6.0
    # every inequality stage keeps a nonnegative margin
    for stage in report.stages:
        assert stage.margin >= -stage.tolerance * max(abs(stage.lhs), abs(stage.rhs))


def test_chain_perturbed_metric():
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.5)
    report = rayleigh_chain(zonal_factor(2, 0.5), cap)
    assert report.passed
    values = report.values
    assert values["volume_plain"] <= values["conformal_volume_bound"] * (1 + 1e-9)
    assert values["volume_reflected"] <= values["conformal_volume_bound"] * (1 + 1e-9)


def test_chain_rejects_a_center_outside_the_open_ball():
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.45)
    with pytest.raises(DomainError):
        rayleigh_chain(round_factor(2), cap, center=np.eye(5)[2])


def test_chain_rejects_a_center_of_another_dimension():
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.45)
    with pytest.raises(DomainError, match="center"):
        rayleigh_chain(round_factor(2), cap, center=np.zeros(3))


def test_chain_rejects_a_cap_pole_of_another_dimension():
    with pytest.raises(DomainError, match="pole"):
        rayleigh_chain(round_factor(2), SphericalCap(np.eye(9)[0], 0.3))


def test_chain_rejects_the_circle():
    # RP^1 lies outside the theorem's dimensions: a domain error, raised by the
    # factor before any chain stage runs
    with pytest.raises(DomainError, match="dimension"):
        round_factor(1)


def test_chain_frame_identity_covers_the_reflected_branch(monkeypatch):
    # A non-conformal stand-in for the cap reflection's differential changes
    # only the nodes outside the cap, so the stage must look at every node to
    # see it.
    def stretched(cap, y, v):
        return sg._cap_reflect_differential(cap, y, v) @ np.diag([1.5, 1.0, 1.0, 1.0, 1.0]).T

    monkeypatch.setattr(trial_bound, "_cap_reflect_differential", stretched)
    cap = SphericalCap(image_pole(2, [1, 0, 0]), 0.45)
    report = rayleigh_chain(round_factor(2), cap)
    stages = {stage.stage_id: stage for stage in report.stages}
    assert not stages["frame-identity"].passed


def test_chain_differentials_are_exact_on_a_strongly_stretched_pole():
    # At this pole, about V(-0.804, -0.448, 0.390), a central-difference step
    # of 1e-5 missed the stretch route by 2.6e-6 to 2.8e-6; the exact
    # differentials meet it to rounding.  The pole's conformal-volume-reflected
    # stage fails on quadrature, which is not what this test checks.
    base = [-0.8044145285061058, -0.4479889473452013, 0.3901578775122166]
    cap = SphericalCap(image_pole(2, base), 0.9)
    for w in (round_factor(2), zonal_factor(2, 0.5)):
        stages = {stage.stage_id: stage for stage in rayleigh_chain(w, cap).stages}
        for stage_id in ("numerators-fd-vs-analytic", "energy-vs-split-volume", "frame-identity"):
            assert stages[stage_id].passed, (w.label, stages[stage_id])
            assert stages[stage_id].tolerance <= 1e-10


def test_chain_dimension_three():
    cap = SphericalCap(image_pole(3, [1, 0, 0, 0]), 0.3)
    report = rayleigh_chain(round_factor(3), cap)
    assert report.passed
    npt.assert_allclose(report.values["final_bound"], 446.6473087769, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_chain_default_rule_is_the_explicit_one(n):
    # the cached tables give the numbers an uncached rule gives
    w, cap = zonal_factor(n, 0.5), SphericalCap(image_pole(n, [0.6, 0.8, 0.0, 0.0][: n + 1]), 0.45)
    cached = rayleigh_chain(w, cap)
    explicit = rayleigh_chain(w, cap, rule=build_sphere_rule(n, 60 if n == 2 else 40))
    assert np.array_equal(cached.center, explicit.center)
    assert [s.passed for s in cached.stages] == [s.passed for s in explicit.stages]
    assert [(s.lhs, s.rhs) for s in cached.stages] == [(s.lhs, s.rhs) for s in explicit.stages]
    assert cached.values == explicit.values


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("block", [7, None])
def test_chain_block_size_moves_no_number(monkeypatch, n, block):
    # every per-node value is computed row by row and every sum over the
    # nodes runs once over the whole arrays; None runs one block of all N rows
    w, cap = zonal_factor(n, 0.5), SphericalCap(image_pole(n, [0.6, 0.8, 0.0, 0.0][: n + 1]), 0.45)
    default = rayleigh_chain(w, cap)
    nodes = trial_bound._chain_tables(n, 60 if n == 2 else 40).images.shape[0]
    monkeypatch.setattr(trial_bound, "_CHAIN_BLOCK", nodes if block is None else block)
    blocked = rayleigh_chain(w, cap)
    assert np.array_equal(blocked.center, default.center)
    assert [s.passed for s in blocked.stages] == [s.passed for s in default.stages]
    assert [(s.lhs, s.rhs) for s in blocked.stages] == [(s.lhs, s.rhs) for s in default.stages]
    assert blocked.values == default.values


@given(st.data())
def test_gram_cofactor_determinant_matches_lu(data):
    # Each cofactor term of a Gram determinant is bounded by the product of
    # its diagonal (Cauchy-Schwarz), so both routes round to within a few
    # ulps of that product, however near singular the Gram is.
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(n, 9))
    entries = data.draw(st.lists(st.integers(-(2**20), 2**20), min_size=n * m, max_size=n * m))
    rows = np.array(entries, dtype=float).reshape(1, n, m) / 2**20
    gram = np.einsum("kim,kjm->kij", rows, rows)
    trace, det = trial_bound._gram_trace_det(rows)
    scale = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    assert abs(det[0] - np.linalg.det(gram)[0]) <= 1e-13 * scale[0]
    npt.assert_allclose(trace, np.trace(gram, axis1=1, axis2=2), rtol=1e-15, atol=0)


def test_chain_tables_are_read_only():
    tables = trial_bound._chain_tables(2, 60)
    for array in (tables.rule.nodes, tables.rule.weights, tables.images, tables.frames):
        assert not array.flags.writeable
    assert tables.frames.shape == (tables.images.shape[0], 2, 5)


def test_chain_center_is_the_center_of_mass_of_its_atoms():
    w, cap = zonal_factor(2, 0.5), SphericalCap(image_pole(2, [1, 0, 0]), 0.5)
    nodes, _, mass, _ = spectral._projective_weights(w, build_sphere_rule(2, 60))
    atoms = sg._fold(cap, veronese_apply(2, nodes))
    expected = center_of_mass(PushforwardMeasure(points=atoms, weights=mass)).center
    assert np.array_equal(rayleigh_chain(w, cap).center, expected)


# ---------------------------------------------------------------------------
# Full statement


def test_theorem_round_two_dimensional():
    report = theorem_check(round_factor(2))
    assert report.passed
    assert report.bound == 12.0
    assert report.tight_bound == 10.0
    npt.assert_allclose(report.lambda_2, 6.0, rtol=0, atol=1e-10)
    npt.assert_allclose(report.margin, 6.0, rtol=0, atol=1e-10)


def test_theorem_zonal_regression():
    report = theorem_check(zonal_factor(2, 0.5), include_gap=True)
    assert report.passed
    npt.assert_allclose(report.lambda_2, 5.712872978393, rtol=0, atol=1e-9)
    assert report.convergence_gap < 1e-6


def test_theorem_dimension_three():
    report = theorem_check(round_factor(3))
    assert report.passed
    npt.assert_allclose(report.lambda_2, 8.0, rtol=0, atol=1e-8)
    npt.assert_allclose(report.bound, 12.6992084157, rtol=0, atol=1e-9)


_THEOREM_CHECK_SCRIPT = """
import json
from rplap.spectral import parse_factor
from rplap.trial_bound import theorem_check
report = theorem_check(parse_factor("exp:2,0,0.2", 3), include_gap=True)
print(json.dumps([report.eigenvalues, report.passed]))
"""


def test_theorem_check_does_not_depend_on_the_blas_thread_count():
    # the assembly and eigensolve run on one thread either way (rplap._blas)
    runs = [_run_with_blas_threads(_THEOREM_CHECK_SCRIPT, threads) for threads in ("1", "2")]
    (one, passed_one), (two, passed_two) = runs
    assert one == two
    assert passed_one == passed_two


_SINGLE_THREAD_SCRIPT = """
import json, os
from rplap import _blas
counts = lambda: [get() for get, _ in _blas._CONTROLS]
seen = {"before": counts()}
with _blas.single_thread():
    seen["inside"] = counts()
    with _blas.single_thread():
        seen["nested"] = counts()
    seen["after_nested"] = counts()
try:
    with _blas.single_thread():
        raise RuntimeError
except RuntimeError:
    seen["after_raise"] = counts()
seen["after"] = counts()
seen["variable"] = os.environ["OPENBLAS_NUM_THREADS"]
print(json.dumps(seen))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_single_thread_caps_and_restores_every_openblas(threads):
    seen = _run_with_blas_threads(_SINGLE_THREAD_SCRIPT, threads)
    if not seen["before"]:
        pytest.skip("no OpenBLAS thread setter loaded")
    count = len(seen["before"])
    assert seen["before"] == [int(threads)] * count
    for key in ("inside", "nested", "after_nested"):
        assert seen[key] == [1] * count
    assert seen["after_raise"] == seen["after"] == seen["before"]
    assert seen["variable"] == threads
