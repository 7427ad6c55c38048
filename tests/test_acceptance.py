"""End-to-end acceptance criteria, one verdict line per criterion.

Each test prints a single [pass]/[FAIL] line (visible in the live run) and
then asserts, so the printed verdict matches the pytest outcome.
"""

import math
import time

import numpy as np

from rplap import bounds, degen_limits, degree_lab, harmonics, spectral, trial_bound, veronese
from rplap.quadrature import build_sphere_rule
from rplap.sphere_geom import SphericalCap


def report(capsys, ok, text):
    with capsys.disabled():
        print(f"\n[{'pass' if ok else 'FAIL'}] {text}")
    assert ok, text


def image_pole(n, base):
    return veronese.veronese_apply(n, np.asarray(base, dtype=float)[None])[0]


def test_criterion_1_quadratic_map_identities(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_norm = worst_gram = 0.0
    for n in range(1, 9):
        pts = rng.standard_normal((1000, n + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        images = veronese.veronese_apply(n, pts)
        worst_norm = max(
            worst_norm, float(np.max(np.abs(np.linalg.norm(images, axis=1) - 1.0)))
        )
        cst = veronese.constants(n)
        jac = veronese.veronese_jacobian(n, pts)
        gram = np.einsum("kmi,kmj->kij", jac, jac)
        expected = cst.conformal_scale**2 * np.eye(n + 1)[None] + (
            cst.radial_coeff**2
        ) * np.einsum("ki,kj->kij", pts, pts)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - expected))))
    elapsed = time.perf_counter() - start
    ok = worst_norm <= 1e-12 and worst_gram <= 1e-10 and elapsed < 10.0
    report(
        capsys,
        ok,
        f"criterion 1: map identities over n = 1..8 x 1000 points "
        f"(|image| dev {worst_norm:.1e} <= 1e-12, Gram dev {worst_gram:.1e} <= 1e-10, "
        f"{elapsed:.1f}s < 10s)",
    )


def test_criterion_2_round_spectra(capsys):
    start = time.perf_counter()
    two = spectral.cluster_eigenvalues(
        spectral.eigenvalues(spectral.round_factor(2)).eigenvalues, tol=1e-7
    )
    three = spectral.cluster_eigenvalues(
        spectral.eigenvalues(spectral.round_factor(3)).eigenvalues, tol=1e-5
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(two[1][0] - 6.0) <= 1e-8
        and two[1][1] == 5
        and abs(two[2][0] - 20.0) <= 1e-6
        and two[2][1] == 9
        and abs(three[1][0] - 8.0) <= 1e-6
        and three[1][1] == 9
        and elapsed < 60.0
    )
    report(
        capsys,
        ok,
        f"criterion 2: round spectra (n=2: {two[1][0]:.9f} x{two[1][1]}, "
        f"{two[2][0]:.7f} x{two[2][1]}; n=3: {three[1][0]:.7f} x{three[1][1]}; "
        f"{elapsed:.1f}s < 60s)",
    )


def test_criterion_3_eigenvalue_bound_families(capsys):
    start = time.perf_counter()
    specs = {
        2: ["round", "zonal:0.2", "zonal:0.5", "zonal:1.0",
            "exp:2,0,0.25;4,1,0.1;2,2,-0.15", "const:2.5"],
        3: ["round", "zonal:0.2", "zonal:0.5", "zonal:1.0",
            "exp:2,0,0.2;4,3,0.1;2,5,-0.1", "const:2.5"],
    }
    checked, failures = 0, []
    for n, family in specs.items():
        assert len(family) >= 5
        for text in family:
            w = spectral.parse_factor(text, n)
            result = trial_bound.theorem_check(w)
            checked += 1
            if not result.passed:
                failures.append(f"n={n} {text}: {result.lambda_2:.6f} vs {result.bound:.6f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    detail = "; ".join(failures) if failures else "all below the coarse bound"
    report(
        capsys,
        ok,
        f"criterion 3: {checked} normalized metrics across n = 2, 3 ({detail}; "
        f"{elapsed:.1f}s < 600s)",
    )


def test_criterion_4_energy_chain(capsys):
    configs = [
        (spectral.round_factor(2), SphericalCap(image_pole(2, [1, 0, 0]), 0.45)),
        (spectral.zonal_factor(2, 0.5), SphericalCap(image_pole(2, [1, 0, 0]), 0.5)),
        (spectral.round_factor(3), SphericalCap(image_pole(3, [1, 0, 0, 0]), 0.3)),
    ]
    worst = None
    ok = True
    for w, cap in configs:
        chain = trial_bound.rayleigh_chain(w, cap)
        for stage in chain.stages:
            ok = ok and stage.passed
            if stage.stage_id in (
                "unit-image", "denominator-sum", "numerators-fd-vs-analytic",
                "conformal-invariance", "energy-vs-split-volume", "frame-identity",
            ):
                ok = ok and stage.tolerance <= 1e-10
            if stage.stage_id == "final-constant":
                ok = ok and stage.tolerance <= 1e-12
            if stage.stage_id in (
                "hoelder", "drop-intersections",
                "conformal-volume-plain", "conformal-volume-reflected", "chain-total",
            ):
                ok = ok and stage.tolerance <= 1e-9
            if not stage.passed and worst is None:
                worst = f"{w.label}/{stage.stage_id}"
    report(
        capsys,
        ok,
        "criterion 4: energy chain passes all stages for three metric/cap configs "
        f"(inequalities at 1e-9, identities at 1e-10, constants at 1e-12"
        f"{'' if worst is None else '; first failure ' + worst})",
    )


def test_criterion_5_center_of_mass(capsys):
    rng = np.random.default_rng(5)
    worst_err, worst_res, worst_iters = 0.0, 0.0, 0
    for depth in (0.0, 0.3, 0.6, 0.9):
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        shift = depth * direction
        measure = trial_bound.moebius_shifted_uniform(5, shift, pairs=96, seed=int(depth * 10))
        result = trial_bound.center_of_mass(measure)
        worst_err = max(worst_err, float(np.linalg.norm(result.center - shift)))
        worst_res = max(worst_res, result.verified_residual)
        worst_iters = max(worst_iters, result.iterations)
    ok = worst_err <= 1e-8 and worst_res <= 1e-10 and worst_iters <= 10
    report(
        capsys,
        ok,
        f"criterion 5: center recovery through |shift| = 0.9 "
        f"(error {worst_err:.1e} <= 1e-8, residual {worst_res:.1e} <= 1e-10, "
        f"{worst_iters} <= 10 iterations)",
    )


def test_criterion_6_obstruction_field_zero(capsys):
    result = trial_bound.search_vector_field_zero(
        spectral.zonal_factor(2, 0.5), starts=6, seed=0, maxiter=80
    )
    field_norm = result.residual * result.mass
    ok = field_norm <= 1e-3 * result.mass
    report(
        capsys,
        ok,
        f"criterion 6: field zero search (|V| = {field_norm:.2e} <= 1e-3 x mass "
        f"{result.mass:.4f}, at t = {result.t:.4f})",
    )


def test_criterion_7_degree_suite(capsys):
    start = time.perf_counter()
    expected = {
        "identity-s3": 1, "antipodal-s3": 1, "flip-b": 1, "warped-flip": 1,
        "rotate-b": 1, "doubling-s1": 2, "identity-s2": 1, "antipodal-s2": -1,
    }
    ok = True
    worst_dist = 0.0
    for name, sphere_map in degree_lab.registry().items():
        by_integral = degree_lab.degree_integral(sphere_map)
        by_count = degree_lab.degree_regular_value(sphere_map, seed=5)
        worst_dist = max(worst_dist, by_integral.distance)
        ok = ok and by_integral.degree == by_count.degree == expected[name]
        ok = ok and by_integral.distance <= 0.01
    # antipodal sign relation: degree (-1)^(d+1) on the d-sphere, exactly
    ok = ok and degree_lab.degree_integral(degree_lab.antipodal_map(2)).degree == -1
    ok = ok and degree_lab.degree_integral(degree_lab.antipodal_map(3)).degree == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(
        capsys,
        ok,
        f"criterion 7: degree suite, both methods on {len(expected)} maps "
        f"(worst integral distance {worst_dist:.1e} <= 0.01, antipodal signs exact, "
        f"{elapsed:.1f}s < 120s)",
    )


def test_criterion_8_degenerate_limits(capsys):
    start = time.perf_counter()
    pole = np.array([0.0, 0.0, 1.0])
    orth = np.array([1.0, 0.0, 0.0])

    half = degen_limits.circle_arc(pole, orth, (-math.pi / 2, math.pi / 2))
    fold = degen_limits.fold_limit_volume(half, pole, [0.999])[0]
    fold_ok = abs(fold.volume - 3.0 * math.pi) <= 0.02 * 3.0 * math.pi

    full = degen_limits.circle_arc(-pole, orth, (-math.pi, math.pi))
    through = degen_limits.moebius_limit_volume(full, [0.999 * pole])[0]
    through_ok = through.volume <= 1.02 * 2.0 * math.pi

    avoid = degen_limits.circle_arc(pole, orth, (-math.pi / 4, math.pi / 4))
    away = degen_limits.moebius_limit_volume(avoid, [0.999 * pole])[0]
    away_ok = away.volume <= 0.01 * 2.0 * math.pi

    elapsed = time.perf_counter() - start
    ok = fold_ok and through_ok and away_ok and elapsed < 120.0
    report(
        capsys,
        ok,
        f"criterion 8: collapse limits (fold {fold.volume:.5f} within 2% of 3pi, "
        f"through-circle {through.volume:.5f} <= 1.02 x 2pi, "
        f"avoiding arc {away.volume:.1e} <= 0.01 x 2pi, {elapsed:.1f}s < 120s)",
    )


def test_criterion_9_constant_table(capsys):
    rows = bounds.ratio_table(64)
    two = rows[0]
    ok = two.tight == 10.0 and two.coarse == 12.0
    for row in rows:
        ok = ok and row.ratio_lower <= row.ratio < 1.0 and row.tight < row.coarse
    report(
        capsys,
        ok,
        f"criterion 9: constants over n = 2..64 (n=2 exactly 10 and 12; "
        f"every ratio inside [2^(-2/n), 1))",
    )
