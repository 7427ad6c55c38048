"""Command-line interface: numerical experiments with JSON/CSV reports.

Each option is declared once, in `build_parser`, with its type and default.
Options resolve in three layers: command-line flags override the command's
own section in an INI config file, which overrides its [defaults] section.
Config values become argparse defaults, so they are parsed like flags, and
a bad value, from either place, is reported under its flag's name.
Exit codes: 0 = pass, 1 = a checked assertion failed (vfield-search: the
best residual is above --threshold), 2 = configuration error, 3 = numerical
failure (non-convergence, unresolved integer, ...).
"""

import argparse
import configparser
import math
import sys

import numpy as np

from . import bounds, degen_limits, degree_lab, spectral, trial_bound, veronese
from .errors import ConfigError, DomainError, NumericError
from .quadrature import build_sphere_rule
from .reporting import jsonable, write_csv, write_json
from .sphere_geom import SphericalCap, tangent_basis

def _to_bool(text):
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _floats(text):
    parts = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty number list: {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


def _ints(text):
    """Parse '1,3,5' and '1-8' style integer lists."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
        else:
            lo = hi = part  # one integer: the range lo..lo
        try:
            out.extend(range(int(lo), int(hi) + 1))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer or range: {part!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return out


def _one_of(*names):
    """A type that accepts exactly one of `names`."""

    def parse(text):
        if text not in names:
            raise argparse.ArgumentTypeError(f"unknown value {text!r}; known: {' | '.join(names)}")
        return text

    return parse


def _at_least(low, parse=int):
    """A type that parses with `parse` (to a number or a list of numbers)
    and accepts no value below `low`."""

    def check(text):
        value = parse(text)
        if min(value if isinstance(value, list) else [value]) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value

    check.__name__ = parse.__name__  # argparse names an unparsable value's type by it
    return check


def _pole(text):
    """A cap pole: (False, ambient coordinates) or, for `image:x,...`, (True, x)."""
    if not text:
        return None  # an empty value selects the command's default pole
    image = text.startswith("image:")
    return image, _floats(text[len("image:") :] if image else text)


def _load_config(path):
    parser = configparser.ConfigParser()
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file: {path}")
    return parser


def _unit_from(values, ambient, what):
    vec = np.asarray(values, dtype=float)
    if vec.shape != (ambient,):
        raise ConfigError(f"{what} needs {ambient} components, got {vec.size}")
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ConfigError(f"{what} must be a nonzero vector")
    return vec / norm


def _cap_pole(pole, n):
    """A parsed --pole as a unit vector on the sphere holding the Veronese image."""
    image, values = pole
    if image:
        base = _unit_from(values, n + 1, "pole base point")
        return veronese.veronese_apply(n, base[None])[0]
    return _unit_from(values, veronese.output_dim(n), "pole")


def _status(flag):
    return "pass" if flag else "FAIL"


# --- commands ----------------------------------------------------------------


def cmd_veronese_check(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in args.dims:
        pts = rng.standard_normal((args.samples, n + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        images = veronese.veronese_apply(n, pts)
        norm_dev = float(np.max(np.abs(np.linalg.norm(images, axis=1) - 1.0)))
        even_dev = float(np.max(np.abs(veronese.veronese_apply(n, -pts) - images)))
        cst = veronese.constants(n)
        jac = veronese.veronese_jacobian(n, pts)
        gram = np.einsum("kmi,kmj->kij", jac, jac)
        expected = cst.conformal_scale**2 * np.eye(n + 1)[None] + (
            cst.radial_coeff**2
        ) * np.einsum("ki,kj->kij", pts, pts)
        gram_dev = float(np.max(np.abs(gram - expected)))
        passed = (
            norm_dev <= args.norm_tol and gram_dev <= args.gram_tol and even_dev <= args.norm_tol
        )
        rows.append(
            {
                "dim": n,
                "samples": args.samples,
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
        "seed": args.seed,
        "norm_tol": args.norm_tol,
        "gram_tol": args.gram_tol,
        "rows": rows,
        "passed": ok,
    }
    return (0 if ok else 1), payload, rows


def cmd_spectrum(args):
    n = args.dim
    factor = spectral.parse_factor(args.factor, n)
    if args.normalize:
        factor = spectral.normalize_volume(factor)
    result = spectral.eigenvalues(factor, args.degree, count=args.count)
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


def cmd_theorem_check(args):
    n = args.dim
    factor = spectral.parse_factor(args.factor, n)
    report = trial_bound.theorem_check(factor, basis_degree=args.degree, include_gap=args.gap)
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


def cmd_rayleigh_chain(args):
    n = args.dim
    factor = spectral.parse_factor(args.factor, n)
    pole = _cap_pole(args.pole, n) if args.pole else np.eye(veronese.output_dim(n))[-1]
    report = trial_bound.rayleigh_chain(factor, SphericalCap(pole, args.t))
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


def cmd_com_solve(args):
    if args.shift is not None:
        shift = np.asarray(args.shift, dtype=float)
        measure = trial_bound.moebius_shifted_uniform(shift.size, shift, args.pairs, args.seed)
        expected = shift
        label = f"synthetic cloud ({args.pairs} antipodal pairs)"
    else:
        n = args.dim
        factor = spectral.parse_factor(args.factor, n)
        pole = _cap_pole(args.pole or _pole("image:1" + ",0" * n), n)
        measure = trial_bound.pushforward_measure(
            factor, SphericalCap(pole, args.t), rule=build_sphere_rule(n, args.degree)
        )
        expected = None
        label = f"pushforward of {factor.label} (t = {args.t})"
    result = trial_bound.center_of_mass(measure, tol=args.tol, max_iter=args.max_iter)
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


def cmd_vfield_search(args):
    factor = spectral.parse_factor(args.factor, args.dim)
    result = trial_bound.search_vector_field_zero(
        factor,
        basis_degree=args.degree,
        starts=args.starts,
        seed=args.seed,
        t_max=args.t_max,
        maxiter=args.maxiter,
    )
    meets = bool(result.residual <= args.threshold)
    print(
        f"[{_status(meets)}] best residual {result.residual:.3e} of mass "
        f"{result.mass:.6f} (threshold {args.threshold:g}) after {result.evaluations} "
        "evaluations"
    )
    print(f"  t = {result.t:.6f}, pole = {np.array2string(result.pole, precision=6)}")
    rows = [
        {"start": i, "residual": r, "t": t}
        for i, (r, t) in enumerate(result.start_results)
    ]
    payload = {
        "command": "vfield-search",
        "dim": args.dim,
        "factor": factor.label,
        "pole": jsonable(result.pole),
        "t": result.t,
        "center": jsonable(result.center),
        "residual": result.residual,
        "mass": result.mass,
        "evaluations": result.evaluations,
        "threshold": args.threshold,
        "meets_threshold": meets,
        "trace_tail": [float(v) for v in result.trace[-20:]],
    }
    return (0 if meets else 1), payload, rows


def cmd_degree(args):
    sphere_map, method = degree_lab.registry()[args.map], args.method
    results = {}
    if method in {"both", "integral"}:
        results["integral"] = degree_lab.degree_integral(sphere_map)
    if method in {"both", "regular-value"}:
        results["regular-value"] = degree_lab.degree_regular_value(sphere_map, seed=args.seed)
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
        report = degree_lab.reflection_symmetry_check(sphere_map, half, seed=args.seed)
        symmetry = jsonable(report)
        print(
            f"block-reflection symmetry: {_status(report.passes)} "
            f"(pair dev {report.pair_deviation:.2e}, "
            f"equator dev {report.equator_deviation:.2e})"
        )

    paired_ok = True
    paired_payload = None
    if args.paired:
        paired_payload = []
        for builder in (degree_lab.shifted_identity_example, degree_lab.zero_free_example):
            func, region, expected = builder()
            report = degree_lab.paired_degree_check(func, region, 1, seed=args.seed)
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
    return degen_limits.cap_patch(pole, 0.8)


def _limit_report(args, surface, limit_rows, parameter):
    """Print and package the rows of a limit-volume table over `parameter`."""
    rows = [jsonable(r) for r in limit_rows]
    for row in rows:
        print(
            f"[{_status(row['within_bound'])}] {parameter} = {row['parameter']:<7g} "
            f"volume {row['volume']:.8f}  bound {row['bound']:.8f}"
        )
    ok = all(r["within_bound"] for r in rows)
    payload = {
        "command": args.command,
        "surface": surface.name,
        "band": args.band,
        "rows": rows,
        "passed": ok,
    }
    return (0 if ok else 1), payload, rows


def cmd_limits_fold(args):
    if args.surface == "veronese-patch":
        ambient = veronese.output_dim(2)
        default_pole = veronese.veronese_apply(2, np.eye(3)[0][None])[0]
    else:
        ambient = 3
        default_pole = np.eye(ambient)[-1]
    pole = default_pole if args.pole is None else _unit_from(args.pole, ambient, "pole")
    surface = _fold_surface(args.surface, pole)
    t_values = args.t_values
    if t_values is None:
        t_values = [0.0, 0.5, 0.9, 0.99, 0.999] if surface.param_dim == 1 else [0.0, 0.3, 0.6, 0.9]
    limit_rows = degen_limits.fold_limit_volume(surface, pole, t_values, band=args.band)
    return _limit_report(args, surface, limit_rows, "t")


def cmd_limits_moebius(args):
    direction = np.eye(3)[-1]
    if args.direction is not None:
        direction = _unit_from(args.direction, 3, "direction")
    if args.surface == "full-circle":
        surface = degen_limits.circle_arc(
            -direction, _orth_direction(direction), (-math.pi, math.pi), name=args.surface
        )
    else:
        surface = degen_limits.circle_arc(
            direction,
            _orth_direction(direction),
            (-0.25 * math.pi, 0.25 * math.pi),
            name=args.surface,
        )
    if min(args.radii) < 0.0:
        raise ConfigError(f"--radii are distances |x| >= 0, got {min(args.radii):g}")
    ball_points = [r * direction for r in args.radii]
    limit_rows = degen_limits.moebius_limit_volume(surface, ball_points, band=args.band)
    return _limit_report(args, surface, limit_rows, "|x|")


def cmd_ratio_table(args):
    pairs = bounds.ratio_table(args.n_max, n_min=args.n_min)
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
    if args.n_min <= 2 <= args.n_max:
        two = next(p for p in pairs if p.dim == 2)
        exact = abs(two.tight - 10.0) < 1e-12 and abs(two.coarse - 12.0) < 1e-12
        ok = ok and exact
        print(f"[{_status(exact)}] two-dimensional constants are 10 and 12")
    payload = {"command": "ratio-table", "rows": rows, "passed": ok}
    return (0 if ok else 1), payload, rows


def build_parser():
    """The `rplap` parser, and its subcommand parsers by name.

    Every option is declared once, with its type and default; a string
    default goes through `type` like a flag value, so config values that
    become defaults are parsed and checked the same way.
    """
    parser = argparse.ArgumentParser(
        prog="rplap",
        description="Spectral bounds and conformal-geometry experiments on projective spaces.",
        exit_on_error=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sub = subs.add_parser(name, help=help, exit_on_error=False)
        sub.set_defaults(run=run)
        sub.add_argument("--config", help="INI config file ([defaults] + per-command sections)")
        sub.add_argument("--json", help="write a detailed JSON report to this path")
        sub.add_argument("--csv", help="write summary rows as CSV to this path")
        return sub

    def metric(sub):
        sub.add_argument("--dim", type=int, default=2, help="sphere dimension n")
        sub.add_argument(
            "--factor", default="round", help="round | const:V | zonal:EPS | exp:d,i,c;..."
        )

    sub = command("veronese-check", cmd_veronese_check, "verify the quadratic-map identities")
    sub.add_argument("--dims", type=_at_least(1, _ints), default="1-8", help="e.g. '1-8' or '2,3'")
    sub.add_argument("--samples", type=_at_least(1), default=200, help="samples per dimension")
    sub.add_argument("--seed", type=_at_least(0), default=0)
    sub.add_argument("--norm-tol", type=float, default=1e-12)
    sub.add_argument("--gram-tol", type=float, default=1e-10)

    sub = command("spectrum", cmd_spectrum, "Galerkin spectrum of a conformal metric")
    metric(sub)
    sub.add_argument("--degree", type=int, help="harmonic basis degree cutoff")
    sub.add_argument("--count", type=int, default=8, help="number of eigenvalues to report")
    sub.add_argument(
        "--normalize", type=_to_bool, default=False, help="volume-normalize the metric first"
    )

    sub = command("theorem-check", cmd_theorem_check, "check the second-eigenvalue bound")
    metric(sub)
    sub.add_argument("--degree", type=int, help="harmonic basis degree cutoff")
    sub.add_argument(
        "--gap", type=_to_bool, default=False, help="also report the basis-refinement shift"
    )

    sub = command("rayleigh-chain", cmd_rayleigh_chain, "verify the trial-map energy chain")
    metric(sub)
    sub.add_argument(
        "--pole", type=_pole, help="cap pole: ambient comma floats, or image:<sphere coords>"
    )
    sub.add_argument("--t", type=float, default=0.5, help="cap parameter in [0, 1)")

    sub = command("com-solve", cmd_com_solve, "hyperbolic center of mass of a measure")
    sub.add_argument("--shift", type=_floats, help="synthetic mode: exact center (comma floats)")
    sub.add_argument(
        "--pairs", type=_at_least(1), default=128, help="synthetic mode: antipodal pairs"
    )
    metric(sub)
    sub.add_argument("--pole", type=_pole, help="pushforward mode: cap pole, as for rayleigh-chain")
    sub.add_argument("--t", type=float, default=0.5, help="pushforward mode: cap parameter")
    sub.add_argument("--degree", type=int, default=12, help="pushforward mode: rule exactness")
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--max-iter", type=_at_least(0), default=500)
    sub.add_argument("--seed", type=_at_least(0), default=0)

    sub = command("vfield-search", cmd_vfield_search, "minimize the obstruction field over caps")
    metric(sub)
    sub.add_argument(
        "--starts", type=_at_least(0), default=8, help="best grid cells, polished by Gauss-Newton"
    )
    sub.add_argument("--seed", type=_at_least(0), default=0)
    sub.add_argument("--maxiter", type=_at_least(0), default=250, help="cap on the polish's rounds")
    sub.add_argument("--t-max", type=float, default=0.999)
    sub.add_argument("--degree", type=int, help="harmonic basis degree cutoff")
    sub.add_argument(
        "--threshold", type=float, default=1e-3, help="largest passing |V| / mass (else exit 1)"
    )

    sub = command("degree", cmd_degree, "degree of a named sphere self-map")
    maps = sorted(degree_lab.registry())
    sub.add_argument("--map", type=_one_of(*maps), default="identity-s3", help=" | ".join(maps))
    methods = ("integral", "regular-value", "both")
    sub.add_argument("--method", type=_one_of(*methods), default="both", help=" | ".join(methods))
    sub.add_argument("--seed", type=_at_least(0), default=0)
    sub.add_argument(
        "--paired", type=_to_bool, default=False, help="also run the paired box-degree examples"
    )

    sub = command("limits-fold", cmd_limits_fold, "fold volumes against the collapse bound")
    surfaces = ("half-circle", "quarter-arc", "veronese-patch", "cap-patch")
    sub.add_argument(
        "--surface", type=_one_of(*surfaces), default="half-circle", help=" | ".join(surfaces)
    )
    sub.add_argument("--pole", type=_floats, help="fold pole (comma floats)")
    sub.add_argument("--t-values", type=_floats, help="comma-separated cap parameters")
    sub.add_argument("--band", type=float, default=0.02, help="relative slack on the bound")

    sub = command(
        "limits-moebius", cmd_limits_moebius, "Moebius volumes against the collapse bound"
    )
    surfaces = ("full-circle", "avoiding-arc")
    sub.add_argument(
        "--surface", type=_one_of(*surfaces), default="full-circle", help=" | ".join(surfaces)
    )
    sub.add_argument("--direction", type=_floats, help="collapse direction (comma floats)")
    sub.add_argument(
        "--radii", type=_floats, default="0.5,0.9,0.99,0.999", help="comma-separated |x| values"
    )
    sub.add_argument("--band", type=float, default=0.02, help="relative slack on the bound")

    sub = command("ratio-table", cmd_ratio_table, "tight/coarse constant table over dimensions")
    sub.add_argument("--n-min", type=int, default=2)
    sub.add_argument("--n-max", type=int, default=16)

    return parser, subs.choices


def main(argv=None):
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # [defaults], then the command's section, become the command's
            # option defaults: flags still win, and argparse parses the values
            config = _load_config(args.config)
            options = vars(args).keys() - {"command", "run"}
            for section in ("defaults", args.command):
                if config.has_section(section):
                    items = ((k.replace("-", "_"), v) for k, v in config.items(section))
                    commands[args.command].set_defaults(**{k: v for k, v in items if k in options})
            args = parser.parse_args(argv)
        code, payload, rows = args.run(args)
        if args.json:
            write_json(args.json, payload)
        if args.csv:
            write_csv(args.csv, rows)
    except (argparse.ArgumentError, ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
