"""The four benchmark workloads: seeded inputs, verdict calls and their checks.

Each workload function takes the run's seeded generator, makes its inputs
from it and returns the list of `Case`s one pass runs, in order, plus a
warm-up callable that finishes the
program's lazy set-up (cached harmonic bases, first-call initialisation).
Each case is one verdict: a call to a public rplap entry point, and a check
of its result against closed forms and required properties.  Checks never
compare with stored output.
"""

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np

from rplap import degen_limits, degree_lab, harmonics, spectral, trial_bound, veronese
from rplap.quadrature import build_sphere_rule
from rplap.sphere_geom import SphericalCap

import closed_forms as cf


@dataclass(frozen=True)
class Case:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]  # result -> list of problems, empty if correct


def _unit(rng, dim):
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _problem(ok, text):
    return [] if ok else [text]


# ---------------------------------------------------------------------------
# spectral-sweep: theorem_check(w, include_gap=True) over a family of factors


def _exp_spec(rng, n):
    dims = {2: cf.harmonic_dim(n, 2), 4: cf.harmonic_dim(n, 4)}
    terms = [
        (2, int(rng.integers(dims[2])), float(rng.uniform(-0.25, 0.25))),
        (2, int(rng.integers(dims[2])), float(rng.uniform(-0.25, 0.25))),
        (4, int(rng.integers(dims[4])), float(rng.uniform(-0.1, 0.1))),
    ]
    return "exp:" + ";".join(f"{d},{i},{c!r}" for d, i, c in terms)


def _spectral_specs(rng):
    """Fixed make-up per pass; the seed moves only the parameters."""
    return [
        (2, "round"),
        (2, f"const:{rng.uniform(0.5, 3.0)!r}"),
        (2, f"zonal:{rng.uniform(-1.0, -0.1)!r}"),
        (2, f"zonal:{rng.uniform(0.1, 1.0)!r}"),
        (2, _exp_spec(rng, 2)),
        (2, _exp_spec(rng, 2)),
        (3, f"const:{rng.uniform(0.5, 3.0)!r}"),
        (3, f"zonal:{rng.uniform(0.1, 1.0)!r}"),
        (3, _exp_spec(rng, 3)),
    ]


def _check_theorem(n, spec, report):
    vals = np.asarray(report.eigenvalues)
    bound = cf.coarse_bound(n)
    problems = []
    problems += _problem(abs(vals[0]) <= 1e-9, f"lambda_0 = {vals[0]!r} not 0")
    problems += _problem(bool(np.all(np.diff(vals) >= 0.0)), "eigenvalues not ascending")
    problems += _problem(report.lambda_2 == vals[2], "lambda_2 is not the third eigenvalue")
    problems += _problem(report.lambda_2 < bound, f"lambda_2 {report.lambda_2!r} >= {bound!r}")
    problems += _problem(
        report.convergence_gap is not None and math.isfinite(report.convergence_gap),
        "gap missing or not finite",
    )
    if spec == "round" or spec.startswith("const:"):
        exact = np.array(cf.round_projective_spectrum(n, vals.size))
        worst = float(np.max(np.abs(vals - exact)))
        problems += _problem(worst <= 1e-8, f"round spectrum off by {worst:.3g}")
    return problems


def spectral_sweep(rng):
    cases = []
    for n, spec in _spectral_specs(rng):
        w = spectral.parse_factor(spec, n)
        cases.append(
            Case(
                label=f"theorem_check n={n} {spec}",
                call=lambda w=w: trial_bound.theorem_check(w, include_gap=True),
                check=lambda report, n=n, spec=spec: _check_theorem(n, spec, report),
            )
        )

    def warm_up():
        for n, degree in spectral.DEFAULT_BASIS_DEGREE.items():
            harmonics.basis(n, degree)
            harmonics.basis(n, degree + 2)
        trial_bound.theorem_check(spectral.round_factor(2), include_gap=True)

    return cases, warm_up


# ---------------------------------------------------------------------------
# obstruction-search: the criterion-6 search for a zero of V(pole, t)

SEARCH_RULE_DEGREE = 12  # search_vector_field_zero's default rule


def _check_search(w, result):
    """Recompute the centred moments at the returned cap with the written-out
    Moebius translation and fold of `closed_forms`."""
    problems = []
    pole = np.asarray(result.pole, dtype=float)
    problems += _problem(abs(np.linalg.norm(pole) - 1.0) <= 1e-12, "pole not a unit vector")
    trace = np.asarray(result.trace)
    problems += _problem(trace.size == result.evaluations, "trace length != evaluations")
    problems += _problem(bool(np.all(np.diff(trace) <= 0.0)), "trace increases")

    rule = build_sphere_rule(2, SEARCH_RULE_DEGREE)
    normalized = spectral.normalize_volume(w, rule=rule)
    f = spectral.first_excited_state(spectral.eigenvalues(normalized))
    weights = 0.5 * rule.weights * normalized.density(rule.nodes)
    mass = math.fsum(weights.tolist())
    atoms = cf.fold(pole, result.t, veronese.veronese_apply(2, rule.nodes))
    moved = cf.moebius(-np.asarray(result.center, dtype=float), atoms)
    moment = np.linalg.norm(weights @ moved)
    field = np.linalg.norm((weights * f(rule.nodes)) @ moved)
    problems += _problem(abs(mass - result.mass) <= 1e-12 * mass, "mass differs")
    problems += _problem(moment <= 1e-8 * mass, f"centred moment {moment:.3g} not 0")
    problems += _problem(field <= 1e-3 * mass, f"|V| = {field:.3g} > 1e-3 mass")
    return problems


def obstruction_search(rng):
    # The input is fixed: any seeded variation of this search (its start seed
    # or its factor) moves its cost between 12 and 25 s, which no bound holds.
    w = spectral.zonal_factor(2, 0.5)
    cases = [
        Case(
            label="search_vector_field_zero n=2 zonal:0.5 starts=6",
            call=lambda: trial_bound.search_vector_field_zero(w, starts=6, seed=0, maxiter=80),
            check=lambda result: _check_search(w, result),
        )
    ]

    def warm_up():
        harmonics.basis(2, spectral.DEFAULT_BASIS_DEGREE[2])
        spectral.eigenvalues(spectral.normalize_volume(w))

    return cases, warm_up


# ---------------------------------------------------------------------------
# energy-chain: rayleigh_chain on seeded caps, center_of_mass on known clouds

# Criterion 4's tolerance ceilings, by stage.
_CHAIN_TOLERANCES = {
    "unit-image": 1e-10,
    "denominator-sum": 1e-10,
    "final-constant": 1e-12,
    "hoelder": 1e-9,
    "drop-intersections": 1e-9,
    "conformal-volume-plain": 1e-9,
    "conformal-volume-reflected": 1e-9,
    "chain-total": 1e-9,
}

# Caps stop at t = 0.6: from t = 0.7 on, about one seeded pole in ten makes
# the chain fail its conformal-volume-reflected stage (see CHANGES.md).
_CHAIN_T_MAX = 0.6


def _check_chain(n, chain):
    problems = []
    for stage in chain.stages:
        problems += _problem(stage.passed, f"stage {stage.stage_id} failed")
        ceiling = _CHAIN_TOLERANCES.get(stage.stage_id)
        if ceiling is not None:
            problems += _problem(
                stage.tolerance <= ceiling, f"stage {stage.stage_id} tolerance loosened"
            )
    exact = cf.final_chain_bound(n)
    final = chain.values["final_bound"]
    problems += _problem(abs(final - exact) <= 1e-12 * exact, f"final bound {final!r} != {exact!r}")
    return problems


def _check_center(shift, result):
    error = float(np.linalg.norm(result.center - shift))
    return _problem(error <= 1e-8, f"center off its shift by {error:.3g}")


def _chain_factor(rng, n, kind):
    if kind == "round":
        return spectral.round_factor(n)
    if kind == "const":
        return spectral.constant_factor(n, float(rng.uniform(0.5, 3.0)))
    if kind == "zonal":
        return spectral.zonal_factor(n, float(rng.uniform(-1.0, 1.0)))
    return spectral.parse_factor(_exp_spec(rng, n), n)


def energy_chain(rng):
    cases = []
    # The n = 3 factors have the cost of the round one (a constant scale does
    # not move the center); seeded zonal factors in n = 3 vary it by 15%.
    configs = [(2, kind, t) for kind, t in zip(
        ("round", "zonal", "const", "exp", "zonal", "exp"), np.linspace(0.0, _CHAIN_T_MAX, 6)
    )] + [(3, "round", 0.15), (3, "const", 0.45)]
    for n, kind, t in configs:
        w = _chain_factor(rng, n, kind)
        pole = veronese.veronese_apply(n, _unit(rng, n + 1)[None])[0]
        cap = SphericalCap(pole, float(t))
        cases.append(
            Case(
                label=f"rayleigh_chain n={n} {w.label} t={t:.2f}",
                call=lambda w=w, cap=cap: trial_bound.rayleigh_chain(w, cap),
                check=lambda chain, n=n: _check_chain(n, chain),
            )
        )
    for ambient, depth in ((5, 0.3), (5, 0.6), (5, 0.9), (9, 0.9)):
        shift = depth * _unit(rng, ambient)
        measure = trial_bound.moebius_shifted_uniform(
            ambient, shift, pairs=96, seed=int(rng.integers(2**31))
        )
        cases.append(
            Case(
                label=f"center_of_mass m={ambient} |shift|={depth}",
                call=lambda measure=measure: trial_bound.center_of_mass(measure),
                check=lambda result, shift=shift: _check_center(shift, result),
            )
        )

    return cases, _energy_chain_warm_up


def _energy_chain_warm_up():
    # Fixed inputs, so that set-up time does not depend on the seed: a seeded
    # pole moves the cost of one chain by up to 30%.
    pole = veronese.veronese_apply(2, np.eye(3)[:1])[0]
    trial_bound.rayleigh_chain(spectral.round_factor(2), SphericalCap(pole, 0.0))
    shift = 0.9 * np.eye(9)[0]
    trial_bound.center_of_mass(trial_bound.moebius_shifted_uniform(9, shift, pairs=96, seed=0))


# ---------------------------------------------------------------------------
# degree-limits: both degree routes, paired box degrees, limit-volume tables

HALF_CIRCLE_TS = (0.0, 0.5, 0.9, 0.99, 0.999)
SURFACE_TS = (0.0, 0.3, 0.6, 0.9)          # the CLI's default for 2-D surfaces
RADII = (0.5, 0.9, 0.99, 0.999)
CAP_PATCH_ANGLE = 0.8
PATCH_HALF_WIDTH = 0.5
FOLD_REL_TOL = 1e-3  # kinked integrands at the cap boundary: graded rules reach ~1e-4


def _check_degree(name, result, route):
    expected = cf.sphere_map_degree(name)
    problems = _problem(result.degree == expected, f"{route} degree {result.degree} != {expected}")
    if route == "integral":
        problems += _problem(result.distance <= 0.01, f"integral {result.raw!r} not near an integer")
    return problems


def _check_paired(report, expected_minus):
    # A translation p -> p - s has one zero, at s, with Jacobian +1; the
    # conjugate has its zero at the involution of s, with sign (-1)^half_dim.
    problems = _problem(report.holds, "paired degrees disagree")
    problems += _problem(report.degree_minus == expected_minus, "deg_- wrong")
    parity = -1  # (-1)^half_dim with half_dim = 1
    problems += _problem(report.degree_plus == parity * expected_minus, "deg_+ wrong")
    return problems


def _check_rows(rows, params, exact, rel_tol):
    """Rows line up with `params`, stay within their bounds and match
    `exact(parameter)` (None where no closed form is known)."""
    problems = _problem(
        len(rows) == len(params)
        and np.allclose([r.parameter for r in rows], params, rtol=0.0, atol=1e-12),
        "rows do not match the parameters",
    )
    for row in rows:
        problems += _problem(row.within_bound, f"row {row.parameter} above its bound")
        target = exact(row.parameter)
        if target is not None:
            problems += _problem(
                abs(row.volume - target) <= rel_tol * target,
                f"row {row.parameter}: volume {row.volume!r} vs {target!r}",
            )
    return problems


def degree_limits(rng):
    cases = []
    for name, sphere_map in degree_lab.registry().items():
        seed = int(rng.integers(2**31))
        cases.append(Case(
            label=f"degree_integral {name}",
            call=lambda m=sphere_map: degree_lab.degree_integral(m),
            check=lambda r, name=name: _check_degree(name, r, "integral"),
        ))
        cases.append(Case(
            label=f"degree_regular_value {name}",
            call=lambda m=sphere_map, seed=seed: degree_lab.degree_regular_value(m, seed=seed),
            check=lambda r, name=name: _check_degree(name, r, "regular-value"),
        ))
    for builder, expected in (
        (degree_lab.shifted_identity_example, 1),
        (degree_lab.zero_free_example, 0),
    ):
        func, region, _ = builder(1)
        seed = int(rng.integers(2**31))
        cases.append(Case(
            label=f"paired_degree_check {builder.__name__}",
            call=lambda f=func, reg=region, seed=seed: degree_lab.paired_degree_check(f, reg, 1, seed=seed),
            check=lambda r, e=expected: _check_paired(r, e),
        ))

    frame = _rotation(rng, 3)
    pole, orth = frame[:, 2], frame[:, 0]
    half = degen_limits.circle_arc(pole, orth, (-0.5 * math.pi, 0.5 * math.pi), name="half-circle")
    quarter = degen_limits.circle_arc(-pole, orth, (-0.25 * math.pi, 0.25 * math.pi), name="quarter-arc")
    patch = degen_limits.cap_patch(pole, CAP_PATCH_ANGLE)
    width = PATCH_HALF_WIDTH
    v_patch = degen_limits.veronese_patch(
        (0.5 * math.pi - width, 0.5 * math.pi + width), (-width, width)
    )
    # The CLI's default pole, the image of e_1: a seeded pole moves the graded
    # rule's focus between the patch's interior and its edges, and with it the
    # table's cost between 1.5 and 5.3 s.
    v_pole = veronese.veronese_apply(2, np.eye(3)[:1])[0]
    full = degen_limits.circle_arc(-pole, orth, (-math.pi, math.pi), name="full-circle")
    avoid = degen_limits.circle_arc(pole, orth, (-0.25 * math.pi, 0.25 * math.pi), name="avoiding-arc")
    ball_points = [r * pole for r in RADII]

    patch_area = cf.veronese_patch_area(width, width)
    tables = [
        ("fold half-circle",
         lambda: degen_limits.fold_limit_volume(half, pole, HALF_CIRCLE_TS),
         lambda rows: _check_rows(rows, HALF_CIRCLE_TS, cf.half_circle_fold_length, FOLD_REL_TOL)
         + _problem(abs(rows[-1].volume - 3 * math.pi) <= 0.02 * 3 * math.pi,
                    "t = 0.999 not within 2% of 3pi")),
        ("fold quarter-arc",
         lambda: degen_limits.fold_limit_volume(quarter, pole, HALF_CIRCLE_TS),
         lambda rows: _check_rows(rows, HALF_CIRCLE_TS, lambda t: 0.5 * math.pi, 1e-12)),
        ("fold cap-patch",
         lambda: degen_limits.fold_limit_volume(patch, pole, SURFACE_TS),
         lambda rows: _check_rows(
             rows, SURFACE_TS, lambda t: cf.cap_patch_fold_area(t, CAP_PATCH_ANGLE), FOLD_REL_TOL
         )),
        # at t = 0 the fold is an isometry; no closed form is known for t > 0
        ("fold veronese-patch",
         lambda: degen_limits.fold_limit_volume(v_patch, v_pole, SURFACE_TS),
         lambda rows: _check_rows(
             rows, SURFACE_TS, lambda t: patch_area if t == 0.0 else None, 1e-12
         )),
        ("moebius full-circle",
         lambda: degen_limits.moebius_limit_volume(full, ball_points),
         lambda rows: _check_rows(rows, RADII, lambda r: 2 * math.pi, 1e-8)
         + _problem(rows[-1].volume <= 1.02 * 2 * math.pi, "|x| = 0.999 above 1.02 x 2pi")),
        ("moebius avoiding-arc",
         lambda: degen_limits.moebius_limit_volume(avoid, ball_points),
         lambda rows: _check_rows(rows, RADII, lambda r: cf.moebius_arc_length(r, 0.25 * math.pi), 1e-9)
         + _problem(rows[-1].volume <= 0.01 * 2 * math.pi, "|x| = 0.999 above 0.01 x 2pi")),
    ]
    cases += [Case(label=label, call=call, check=check) for label, call, check in tables]

    def warm_up():
        cases[0].call()
        degen_limits.fold_limit_volume(quarter, pole, HALF_CIRCLE_TS[:1])

    return cases, warm_up


WORKLOADS = {
    "spectral-sweep": spectral_sweep,
    "obstruction-search": obstruction_search,
    "energy-chain": energy_chain,
    "degree-limits": degree_limits,
}
