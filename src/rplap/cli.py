"""Command-line interface: numerical experiments with JSON/CSV reports.

Options resolve in three layers: command-line flags override the command's
own section in an INI config file, which overrides its [defaults] section.
Exit codes: 0 = pass, 1 = a checked assertion failed, 2 = configuration
error, 3 = numerical failure (non-convergence, unresolved integer, ...).
"""

import argparse
import configparser
import math
import sys

import numpy as np

from . import bounds, degen_limits, degree_lab, spectral, trial_bound, veronese
from .errors import (
    AssemblyError,
    ConfigError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    NumericError,
    ResolutionError,
)
from .quadrature import build_sphere_rule
from .reporting import jsonable, write_csv, write_json
from .sphere_geom import SphericalCap, tangent_basis

_NUMERIC_ERRORS = (
    AssemblyError,
    ConvergenceError,
    EvaluationError,
    NumericError,
    ResolutionError,
)


def _to_bool(text):
    lowered = str(text).strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _floats(text):
    parts = [p.strip() for p in str(text).replace(";", ",").split(",")]
    try:
        return [float(p) for p in parts if p]
    except ValueError as exc:
        raise ConfigError(f"not a list of numbers: {text!r}") from exc


def _ints(text):
    """Parse '1,3,5' and '1-8' style integer lists."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ConfigError(f"not an integer range: {part!r}") from exc
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as exc:
                raise ConfigError(f"not an integer: {part!r}") from exc
    if not out:
        raise ConfigError(f"empty integer list: {text!r}")
    return out


class Options:
    """Layered option lookup: CLI over config section over [defaults]."""

    def __init__(self, args, config, command):
        self._args = vars(args)
        self._config = config
        self._command = command

    def get(self, name, cast=str, default=None):
        value = self._args.get(name.replace("-", "_"))
        if value is None:
            for section in (self._command, "defaults"):
                if self._config.has_option(section, name):
                    value = self._config.get(section, name)
                    break
        if value is None:
            return default
        try:
            return cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name!r}: {value!r}") from exc


def _load_config(path):
    parser = configparser.ConfigParser()
    if path is None:
        return parser
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file: {path}")
    return parser


def _last_axis(ambient):
    pole = np.zeros(ambient)
    pole[-1] = 1.0
    return pole


def _unit_from(values, ambient, what):
    vec = np.asarray(values, dtype=float)
    if vec.shape != (ambient,):
        raise ConfigError(f"{what} needs {ambient} components, got {vec.size}")
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ConfigError(f"{what} must be a nonzero vector")
    return vec / norm


def _cap_pole(raw, n, ambient):
    """Cap pole from raw image-space coordinates, or `image:<sphere coords>`."""
    if raw.startswith("image:"):
        base = _unit_from(_floats(raw[len("image:") :]), n + 1, "pole base point")
        return veronese.veronese_apply(n, base[None])[0]
    return _unit_from(_floats(raw), ambient, "pole")


def _status(flag):
    return "pass" if flag else "FAIL"


# --- commands ----------------------------------------------------------------


def cmd_veronese_check(opts):
    dims = opts.get("dims", _ints, list(range(1, 9)))
    samples = opts.get("samples", int, 200)
    seed = opts.get("seed", int, 0)
    norm_tol = opts.get("norm-tol", float, 1e-12)
    gram_tol = opts.get("gram-tol", float, 1e-10)
    rng = np.random.default_rng(seed)
    rows = []
    for n in dims:
        pts = rng.standard_normal((samples, n + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        images = veronese.veronese_apply(n, pts)
        norm_dev = float(np.max(np.abs(np.linalg.norm(images, axis=1) - 1.0)))
        even_dev = float(
            np.max(np.abs(veronese.veronese_apply(n, -pts) - images))
        )
        cst = veronese.constants(n)
        jac = veronese.veronese_jacobian(n, pts)
        gram = np.einsum("kmi,kmj->kij", jac, jac)
        expected = cst.conformal_scale**2 * np.eye(n + 1)[None] + (
            cst.radial_coeff**2
        ) * np.einsum("ki,kj->kij", pts, pts)
        gram_dev = float(np.max(np.abs(gram - expected)))
        passed = norm_dev <= norm_tol and gram_dev <= gram_tol and even_dev <= norm_tol
        rows.append(
            {
                "dim": n,
                "samples": samples,
                "norm_dev": norm_dev,
                "gram_dev": gram_dev,
                "even_dev": even_dev,
                "passed": passed,
            }
        )
        print(
            f"[{_status(passed)}] n={n}: |image|-1 within {norm_dev:.2e}, "
            f"Gram within {gram_dev:.2e}, evenness within {even_dev:.2e}"
        )
    ok = all(r["passed"] for r in rows)
    payload = {
        "command": "veronese-check",
        "seed": seed,
        "norm_tol": norm_tol,
        "gram_tol": gram_tol,
        "rows": rows,
        "passed": ok,
    }
    return (0 if ok else 1), payload, rows


def cmd_spectrum(opts):
    n = opts.get("dim", int, 2)
    factor = spectral.parse_factor(opts.get("factor", str, "round"), n)
    degree = opts.get("degree", int, None)
    count = opts.get("count", int, 8)
    if opts.get("normalize", _to_bool, False):
        factor = spectral.normalize_volume(factor)
    result = spectral.eigenvalues(factor, degree, count=count)
    clusters = spectral.cluster_eigenvalues(result.eigenvalues)
    rows = [
        {"index": i, "eigenvalue": float(v)}
        for i, v in enumerate(result.eigenvalues)
    ]
    print(f"metric: {factor.label} on dimension {n}")
    for value, mult in clusters:
        print(f"  eigenvalue {value:.10f}  multiplicity {mult}")
    payload = {
        "command": "spectrum",
        "dim": n,
        "factor": factor.label,
        "basis_degree": result.basis_degree,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "clusters": [{"value": v, "multiplicity": m} for v, m in clusters],
    }
    return 0, payload, rows


def cmd_theorem_check(opts):
    n = opts.get("dim", int, 2)
    factor = spectral.parse_factor(opts.get("factor", str, "round"), n)
    degree = opts.get("degree", int, None)
    gap = opts.get("gap", _to_bool, False)
    report = trial_bound.theorem_check(factor, basis_degree=degree, include_gap=gap)
    print(
        f"[{_status(report.passed)}] lambda_2 = {report.lambda_2:.8f} "
        f"< bound {report.bound:.8f} (margin {report.margin:.3e})"
    )
    if n == 2:
        print(f"  sharp two-dimensional constant for comparison: {report.tight_bound:.8f}")
    if report.convergence_gap is not None:
        print(f"  basis-degree convergence gap: {report.convergence_gap:.3e}")
    row = {
        "dim": n,
        "factor": report.factor_label,
        "lambda_2": report.lambda_2,
        "bound": report.bound,
        "margin": report.margin,
        "passed": report.passed,
    }
    payload = {"command": "theorem-check", **jsonable(report)}
    return (0 if report.passed else 1), payload, [row]


def cmd_rayleigh_chain(opts):
    n = opts.get("dim", int, 2)
    factor = spectral.parse_factor(opts.get("factor", str, "round"), n)
    ambient = veronese.output_dim(n)
    raw_pole = opts.get("pole", str, None)
    pole = _cap_pole(raw_pole, n, ambient) if raw_pole else _last_axis(ambient)
    t = opts.get("t", float, 0.5)
    fd_step = opts.get("fd-step", float, 1e-5)
    cap = SphericalCap(pole, t)
    report = trial_bound.rayleigh_chain(factor, cap, fd_step=fd_step)
    rows = [
        {
            "stage": s.stage_id,
            "lhs": s.lhs,
            "rhs": s.rhs,
            "tolerance": s.tolerance,
            "margin": s.margin,
            "passed": s.passed,
        }
        for s in report.stages
    ]
    for row in rows:
        print(
            f"[{_status(row['passed'])}] {row['stage']}: "
            f"lhs {row['lhs']:.12e}  rhs {row['rhs']:.12e}"
        )
    print(f"[{_status(report.passed)}] chain overall")
    payload = {
        "command": "rayleigh-chain",
        "dim": n,
        "factor": factor.label,
        "t": report.t,
        "pole": jsonable(report.pole),
        "center": jsonable(report.center),
        "stages": rows,
        "values": jsonable(report.values),
        "passed": report.passed,
    }
    return (0 if report.passed else 1), payload, rows


def cmd_com_solve(opts):
    shift_values = opts.get("shift", _floats, None)
    tol = opts.get("tol", float, 1e-10)
    max_iter = opts.get("max-iter", int, 500)
    seed = opts.get("seed", int, 0)
    if shift_values is not None:
        ambient = opts.get("ambient", int, len(shift_values))
        shift = np.asarray(shift_values, dtype=float)
        if shift.shape != (ambient,):
            raise ConfigError(f"shift needs {ambient} components")
        pairs = opts.get("pairs", int, 128)
        measure = trial_bound.moebius_shifted_uniform(ambient, shift, pairs, seed)
        expected = shift
        label = f"synthetic cloud ({pairs} antipodal pairs)"
    else:
        n = opts.get("dim", int, 2)
        factor = spectral.parse_factor(opts.get("factor", str, "round"), n)
        ambient = veronese.output_dim(n)
        raw_pole = opts.get("pole", str, None) or ("image:1" + ",0" * n)
        pole = _cap_pole(raw_pole, n, ambient)
        t = opts.get("t", float, 0.5)
        rule = build_sphere_rule(n, opts.get("degree", int, 12))
        measure = trial_bound.pushforward_measure(
            factor, SphericalCap(pole, t), rule=rule
        )
        expected = None
        label = f"pushforward of {factor.label} (t = {t})"
    result = trial_bound.center_of_mass(measure, tol=tol, max_iter=max_iter)
    print(f"center of mass of {label}:")
    print(f"  center   {np.array2string(result.center, precision=10)}")
    print(
        f"  residual {result.residual:.3e} (verified {result.verified_residual:.3e}) "
        f"after {result.iterations} iterations"
    )
    error = None
    if expected is not None:
        error = float(np.linalg.norm(result.center - expected))
        print(f"  recovery error vs. exact center: {error:.3e}")
    payload = {
        "command": "com-solve",
        "measure": label,
        "center": jsonable(result.center),
        "residual": result.residual,
        "verified_residual": result.verified_residual,
        "iterations": result.iterations,
        "recovery_error": error,
    }
    row = {
        "measure": label,
        "residual": result.residual,
        "iterations": result.iterations,
        "recovery_error": error,
    }
    return 0, payload, [row]


def cmd_vfield_search(opts):
    n = opts.get("dim", int, 2)
    factor = spectral.parse_factor(opts.get("factor", str, "round"), n)
    starts = opts.get("starts", int, 8)
    seed = opts.get("seed", int, 0)
    maxiter = opts.get("maxiter", int, 250)
    t_max = opts.get("t-max", float, 0.999)
    degree = opts.get("degree", int, None)
    threshold = opts.get("threshold", float, 1e-3)
    result = trial_bound.search_vector_field_zero(
        factor,
        basis_degree=degree,
        starts=starts,
        seed=seed,
        t_max=t_max,
        maxiter=maxiter,
    )
    meets = bool(result.residual <= threshold)
    print(
        f"[{_status(meets)}] best residual {result.residual:.3e} of mass "
        f"{result.mass:.6f} (threshold {threshold:g}) after {result.evaluations} "
        "evaluations"
    )
    print(f"  t = {result.t:.6f}, pole = {np.array2string(result.pole, precision=6)}")
    rows = [
        {"start": i, "residual": r, "t": t}
        for i, (r, t) in enumerate(result.start_results)
    ]
    payload = {
        "command": "vfield-search",
        "dim": n,
        "factor": factor.label,
        "pole": jsonable(result.pole),
        "t": result.t,
        "center": jsonable(result.center),
        "residual": result.residual,
        "mass": result.mass,
        "evaluations": result.evaluations,
        "threshold": threshold,
        "meets_threshold": meets,
        "trace_tail": [float(v) for v in result.trace[-20:]],
    }
    return 0, payload, rows


def cmd_degree(opts):
    name = opts.get("map", str, "identity-s3")
    maps = degree_lab.registry()
    if name not in maps:
        raise ConfigError(f"unknown map {name!r}; known: {', '.join(sorted(maps))}")
    sphere_map = maps[name]
    method = opts.get("method", str, "both")
    if method not in {"both", "integral", "regular-value"}:
        raise ConfigError(f"unknown method {method!r}")
    seed = opts.get("seed", int, 0)
    paired = opts.get("paired", _to_bool, False)

    results = {}
    if method in {"both", "integral"}:
        results["integral"] = degree_lab.degree_integral(sphere_map)
    if method in {"both", "regular-value"}:
        results["regular-value"] = degree_lab.degree_regular_value(sphere_map, seed=seed)
    degrees = {k: r.degree for k, r in results.items()}
    agree = len(set(degrees.values())) == 1
    for key, res in results.items():
        print(
            f"degree[{key}] of {sphere_map.name} = {res.degree} "
            f"(raw {res.raw:.6f}, off by {res.distance:.2e})"
        )
    if len(results) > 1:
        print(f"[{_status(agree)}] methods agree")

    symmetry = None
    if sphere_map.dim % 2 == 1 and sphere_map.dim >= 3:
        half = (sphere_map.dim - 1) // 2
        report = degree_lab.reflection_symmetry_check(sphere_map, half, seed=seed)
        symmetry = jsonable(report)
        print(
            f"block-reflection symmetry: {_status(report.passes)} "
            f"(pair dev {report.pair_deviation:.2e}, "
            f"equator dev {report.equator_deviation:.2e})"
        )

    paired_ok = True
    paired_payload = None
    if paired:
        paired_payload = []
        for builder in (degree_lab.shifted_identity_example, degree_lab.zero_free_example):
            func, region, expected = builder()
            report = degree_lab.paired_degree_check(func, region, 1, seed=seed)
            ok = report.holds and report.degree_minus == expected
            paired_ok = paired_ok and ok
            paired_payload.append(
                {
                    "example": builder.__name__,
                    "degree_minus": report.degree_minus,
                    "degree_plus": report.degree_plus,
                    "parity": report.parity,
                    "expected": expected,
                    "holds": report.holds,
                    "passed": ok,
                }
            )
            print(
                f"[{_status(ok)}] {builder.__name__}: deg_- = {report.degree_minus}, "
                f"deg_+ = {report.degree_plus}, parity {report.parity}"
            )

    code = 0 if (agree and paired_ok) else 1
    rows = [
        {"map": sphere_map.name, "method": k, "degree": r.degree, "raw": r.raw}
        for k, r in results.items()
    ]
    payload = {
        "command": "degree",
        "map": sphere_map.name,
        "degrees": degrees,
        "agree": agree,
        "symmetry": symmetry,
        "paired": paired_payload,
    }
    return code, payload, rows


def _orth_direction(pole):
    return tangent_basis(pole[None])[0][:, 0]


def _fold_surface(kind, pole):
    if kind == "half-circle":
        return degen_limits.circle_arc(
            pole, _orth_direction(pole), (-0.5 * math.pi, 0.5 * math.pi), name=kind
        )
    if kind == "quarter-arc":
        return degen_limits.circle_arc(
            -pole, _orth_direction(pole), (-0.25 * math.pi, 0.25 * math.pi), name=kind
        )
    if kind == "veronese-patch":
        return degen_limits.veronese_patch(
            (0.5 * math.pi - 0.5, 0.5 * math.pi + 0.5), (-0.5, 0.5)
        )
    if kind == "cap-patch":
        return degen_limits.cap_patch(pole, 0.8)
    raise ConfigError(f"unknown surface {kind!r}")


def cmd_limits_fold(opts):
    kind = opts.get("surface", str, "half-circle")
    if kind == "veronese-patch":
        ambient = veronese.output_dim(2)
        default_pole = veronese.veronese_apply(2, np.eye(3)[0][None])[0]
    else:
        ambient = 3
        default_pole = _last_axis(ambient)
    pole_values = opts.get("pole", _floats, None)
    pole = (
        default_pole
        if pole_values is None
        else _unit_from(pole_values, ambient, "pole")
    )
    surface = _fold_surface(kind, pole)
    default_ts = "0,0.5,0.9,0.99,0.999" if surface.param_dim == 1 else "0,0.3,0.6,0.9"
    t_values = opts.get("t-values", _floats, _floats(default_ts))
    band = opts.get("band", float, 0.02)
    rows_data = degen_limits.fold_limit_volume(surface, pole, t_values, band=band)
    rows = [jsonable(r) for r in rows_data]
    for row in rows:
        print(
            f"[{_status(row['within_bound'])}] t = {row['parameter']:<7g} "
            f"volume {row['volume']:.8f}  bound {row['bound']:.8f}"
        )
    ok = all(r["within_bound"] for r in rows)
    payload = {
        "command": "limits-fold",
        "surface": surface.name,
        "band": band,
        "rows": rows,
        "passed": ok,
    }
    return (0 if ok else 1), payload, rows


def cmd_limits_moebius(opts):
    kind = opts.get("surface", str, "full-circle")
    direction_values = opts.get("direction", _floats, None)
    direction = (
        _last_axis(3)
        if direction_values is None
        else _unit_from(direction_values, 3, "direction")
    )
    radii = opts.get("radii", _floats, _floats("0.5,0.9,0.99,0.999"))
    band = opts.get("band", float, 0.02)
    if kind == "full-circle":
        surface = degen_limits.circle_arc(
            -direction, _orth_direction(direction), (-math.pi, math.pi), name=kind
        )
    elif kind == "avoiding-arc":
        surface = degen_limits.circle_arc(
            direction,
            _orth_direction(direction),
            (-0.25 * math.pi, 0.25 * math.pi),
            name=kind,
        )
    else:
        raise ConfigError(f"unknown surface {kind!r}")
    ball_points = [r * direction for r in radii]
    rows_data = degen_limits.moebius_limit_volume(surface, ball_points, band=band)
    rows = [jsonable(r) for r in rows_data]
    for row in rows:
        print(
            f"[{_status(row['within_bound'])}] |x| = {row['parameter']:<7g} "
            f"volume {row['volume']:.8f}  bound {row['bound']:.8f}"
        )
    ok = all(r["within_bound"] for r in rows)
    payload = {
        "command": "limits-moebius",
        "surface": surface.name,
        "band": band,
        "rows": rows,
        "passed": ok,
    }
    return (0 if ok else 1), payload, rows


def cmd_ratio_table(opts):
    n_min = opts.get("n-min", int, 2)
    n_max = opts.get("n-max", int, 16)
    pairs = bounds.ratio_table(n_max, n_min=n_min)
    rows = []
    ok = True
    for pair in pairs:
        sane = pair.ratio_lower <= pair.ratio < 1.0
        ok = ok and sane
        rows.append(
            {
                "dim": pair.dim,
                "tight": pair.tight,
                "coarse": pair.coarse,
                "ratio": pair.ratio,
                "ratio_lower": pair.ratio_lower,
                "sane": sane,
            }
        )
        print(
            f"[{_status(sane)}] n = {pair.dim:<3d} tight {pair.tight:.10f}  "
            f"coarse {pair.coarse:.10f}  ratio {pair.ratio:.10f}"
        )
    if n_min <= 2 <= n_max:
        two = next(p for p in pairs if p.dim == 2)
        exact = abs(two.tight - 10.0) < 1e-12 and abs(two.coarse - 12.0) < 1e-12
        ok = ok and exact
        print(f"[{_status(exact)}] two-dimensional constants are 10 and 12")
    payload = {"command": "ratio-table", "rows": rows, "passed": ok}
    return (0 if ok else 1), payload, rows


COMMANDS = {
    "veronese-check": cmd_veronese_check,
    "spectrum": cmd_spectrum,
    "theorem-check": cmd_theorem_check,
    "rayleigh-chain": cmd_rayleigh_chain,
    "com-solve": cmd_com_solve,
    "vfield-search": cmd_vfield_search,
    "degree": cmd_degree,
    "limits-fold": cmd_limits_fold,
    "limits-moebius": cmd_limits_moebius,
    "ratio-table": cmd_ratio_table,
}


def _add_common(sub):
    sub.add_argument("--config", help="INI config file ([defaults] + per-command sections)")
    sub.add_argument("--json", help="write a detailed JSON report to this path")
    sub.add_argument("--csv", help="write summary rows as CSV to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rplap",
        description="Spectral bounds and conformal-geometry experiments on projective spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("veronese-check", help="verify the quadratic-map identities")
    _add_common(sub)
    sub.add_argument("--dims", help="dimensions, e.g. '1-8' or '2,3'")
    sub.add_argument("--samples", help="random sample count per dimension")
    sub.add_argument("--seed")
    sub.add_argument("--norm-tol")
    sub.add_argument("--gram-tol")

    sub = subs.add_parser("spectrum", help="Galerkin spectrum of a conformal metric")
    _add_common(sub)
    sub.add_argument("--dim")
    sub.add_argument("--factor", help="round | const:V | zonal:EPS | exp:d,i,c;...")
    sub.add_argument("--degree", help="harmonic basis degree cutoff")
    sub.add_argument("--count", help="number of eigenvalues to report")
    sub.add_argument("--normalize", help="volume-normalize the metric first (bool)")

    sub = subs.add_parser("theorem-check", help="check the second-eigenvalue bound")
    _add_common(sub)
    sub.add_argument("--dim")
    sub.add_argument("--factor")
    sub.add_argument("--degree")
    sub.add_argument("--gap", help="also report the basis-refinement shift (bool)")

    sub = subs.add_parser("rayleigh-chain", help="verify the trial-map energy chain")
    _add_common(sub)
    sub.add_argument("--dim")
    sub.add_argument("--factor")
    sub.add_argument(
        "--pole",
        help="cap pole: ambient comma floats, or image:<sphere coords>",
    )
    sub.add_argument("--t", help="cap parameter in [0, 1)")
    sub.add_argument("--fd-step")

    sub = subs.add_parser("com-solve", help="hyperbolic center of mass of a measure")
    _add_common(sub)
    sub.add_argument("--shift", help="synthetic mode: exact center (comma floats)")
    sub.add_argument("--ambient", help="synthetic mode: ambient dimension")
    sub.add_argument("--pairs", help="synthetic mode: number of antipodal pairs")
    sub.add_argument("--dim", help="pushforward mode: sphere dimension")
    sub.add_argument("--factor")
    sub.add_argument("--pole")
    sub.add_argument("--t")
    sub.add_argument("--degree", help="pushforward mode: quadrature exactness")
    sub.add_argument("--tol")
    sub.add_argument("--max-iter")
    sub.add_argument("--seed")

    sub = subs.add_parser("vfield-search", help="minimize the obstruction field over caps")
    _add_common(sub)
    sub.add_argument("--dim")
    sub.add_argument("--factor")
    sub.add_argument("--starts", help="best slice-grid cells, polished together by Gauss-Newton")
    sub.add_argument("--seed")
    sub.add_argument("--maxiter", help="cap on the polish's Gauss-Newton rounds")
    sub.add_argument("--t-max")
    sub.add_argument("--degree")
    sub.add_argument("--threshold")

    sub = subs.add_parser("degree", help="degree of a named sphere self-map")
    _add_common(sub)
    sub.add_argument("--map", help="map name (see docs); default identity-s3")
    sub.add_argument("--method", help="integral | regular-value | both")
    sub.add_argument("--seed")
    sub.add_argument("--paired", help="also run the paired box-degree examples (bool)")

    sub = subs.add_parser("limits-fold", help="fold volumes against the collapse bound")
    _add_common(sub)
    sub.add_argument("--surface", help="half-circle | quarter-arc | veronese-patch | cap-patch")
    sub.add_argument("--pole")
    sub.add_argument("--t-values", help="comma-separated cap parameters")
    sub.add_argument("--band", help="relative slack on the bound")

    sub = subs.add_parser("limits-moebius", help="Moebius volumes against the collapse bound")
    _add_common(sub)
    sub.add_argument("--surface", help="full-circle | avoiding-arc")
    sub.add_argument("--direction", help="collapse direction (comma floats)")
    sub.add_argument("--radii", help="comma-separated |x| values")
    sub.add_argument("--band")

    sub = subs.add_parser("ratio-table", help="tight/coarse constant table over dimensions")
    _add_common(sub)
    sub.add_argument("--n-min")
    sub.add_argument("--n-max")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        opts = Options(args, config, args.command)
        code, payload, rows = COMMANDS[args.command](opts)
        json_path = opts.get("json", str, None)
        csv_path = opts.get("csv", str, None)
        if json_path:
            write_json(json_path, payload)
        if csv_path:
            write_csv(csv_path, rows)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
