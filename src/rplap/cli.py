"""Command-line interface: numerical experiments with JSON/CSV reports.

Each option is declared once, in `build_parser`, with its type and default.
Options resolve in three layers: command-line flags override the command's
own section in an INI config file, which overrides its [defaults] section.
Config values become argparse defaults, so they are parsed like flags, and
a bad value, from either place, is reported under its flag's name.  A
config section must be [defaults] or a command name, and each of its keys
an option of that command ([defaults]: of some command).

Every `cmd_*` returns `(passed, payload, rows)`.  `main` puts the `command`
key first in the payload, writes it to --json and the rows to --csv, and
exits 0 if `passed` else 1.  Exit codes: 0 = pass, 1 = a checked assertion
failed (vfield-search: the best residual is above --threshold), 2 =
configuration error, 3 = numerical failure (non-convergence, unresolved
integer, ...).
"""

import argparse
import configparser
import dataclasses
import math
import sys

import numpy as np

from . import bounds, degen_limits, degree_lab, spectral, trial_bound, veronese
from .errors import ConfigError, DomainError, NumericError
from .quadrature import build_sphere_rule
from .reporting import write_csv, write_json
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
    and accepts only finite values, none below `low`."""

    def check(text):
        value = parse(text)
        values = value if isinstance(value, list) else [value]
        if not all(v >= low for v in values):  # NaN fails this too
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        if math.inf in values:
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
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
    # no header can name the empty section, so [DEFAULT] is an ordinary (unknown) one
    parser = configparser.ConfigParser(default_section="")
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file: {path}")
    return parser


def _config_defaults(path, commands, command):
    """The option defaults that INI file `path` gives `command`: its [defaults]
    section, overridden by its [command] section.  Every section must be
    [defaults] or a command, and every key an option of the section's command
    (for [defaults], of some command)."""
    config = _load_config(path)
    options = {name: vars(sub.parse_args([])).keys() - {"run"} for name, sub in commands.items()}
    options["defaults"] = set().union(*options.values())
    for section in config.sections():
        if section not in options:
            raise ConfigError(f"config file {path}: unknown section [{section}]")
        unknown = [k for k in config[section] if k.replace("-", "_") not in options[section]]
        if unknown:
            raise ConfigError(f"config file {path}: [{section}] has no option {unknown[0]!r}")
    layers = [config.items(s) for s in ("defaults", command) if config.has_section(s)]
    items = [(k.replace("-", "_"), v) for layer in layers for k, v in layer]
    return {k: v for k, v in items if k in options[command]}


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


def _checked_rows(rows, flag, line):
    """Print `[pass|FAIL] line` per row, with `line` formatted from the row's
    fields and the status read from its `flag` field; True if every row passes."""
    for row in rows:
        print(f"[{_status(row[flag])}] {line.format_map(row)}")
    return all(row[flag] for row in rows)


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
    ok = _checked_rows(
        rows,
        "passed",
        "n={dim}: |image|-1 within {norm_dev:.2e}, Gram within {gram_dev:.2e}, "
        "evenness within {even_dev:.2e}",
    )
    payload = {
        "seed": args.seed,
        "norm_tol": args.norm_tol,
        "gram_tol": args.gram_tol,
        "rows": rows,
        "passed": ok,
    }
    return ok, payload, rows


def cmd_spectrum(args):
    n = args.dim
    factor = spectral.parse_factor(args.factor, n)
    if args.normalize:
        factor = spectral.normalize_volume(factor)
    result = spectral.eigenvalues(factor, args.degree, count=args.count)
    clusters = spectral.cluster_eigenvalues(result.eigenvalues)
    eigenvalues = [float(v) for v in result.eigenvalues]
    print(f"metric: {factor.label} on dimension {n}")
    for value, mult in clusters:
        print(f"  eigenvalue {value:.10f}  multiplicity {mult}")
    payload = {
        "dim": n,
        "factor": factor.label,
        "basis_degree": result.basis_degree,
        "eigenvalues": eigenvalues,
        "clusters": [{"value": v, "multiplicity": m} for v, m in clusters],
    }
    return True, payload, [{"index": i, "eigenvalue": v} for i, v in enumerate(eigenvalues)]


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
    payload = dataclasses.asdict(report)
    row = {"dim": n, "factor": report.factor_label}
    row |= {k: payload[k] for k in ("lambda_2", "bound", "margin", "passed")}
    return report.passed, payload, [row]


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
    _checked_rows(rows, "passed", "{stage}: lhs {lhs:.12e}  rhs {rhs:.12e}")
    print(f"[{_status(report.passed)}] chain overall")
    payload = {
        "dim": n,
        "factor": factor.label,
        "t": report.t,
        "pole": report.pole,
        "center": report.center,
        "stages": rows,
        "values": report.values,
        "passed": report.passed,
    }
    return report.passed, payload, rows


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
        "measure": label,
        "center": result.center,
        "residual": result.residual,
        "verified_residual": result.verified_residual,
        "iterations": result.iterations,
        "recovery_error": error,
    }
    row = {k: payload[k] for k in ("measure", "residual", "iterations", "recovery_error")}
    return True, payload, [row]


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
        "dim": args.dim,
        "factor": factor.label,
        "pole": result.pole,
        "t": result.t,
        "center": result.center,
        "residual": result.residual,
        "mass": result.mass,
        "evaluations": result.evaluations,
        "threshold": args.threshold,
        "meets_threshold": meets,
        "trace_tail": result.trace[-20:],
    }
    return meets, payload, rows


# a degree route by name: route(sphere map, seed) -> its degree result
_DEGREE_ROUTES = {
    "integral": lambda f, seed: degree_lab.degree_integral(f),
    "regular-value": lambda f, seed: degree_lab.degree_regular_value(f, seed=seed),
}
# degree --method name -> the routes it runs, by name, in report order
DEGREE_METHODS = {
    **{name: {name: route} for name, route in _DEGREE_ROUTES.items()},
    "both": _DEGREE_ROUTES,
}


def cmd_degree(args):
    sphere_map = degree_lab.registry()[args.map]
    routes = DEGREE_METHODS[args.method].items()
    results = {key: route(sphere_map, args.seed) for key, route in routes}
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
        symmetry = degree_lab.reflection_symmetry_check(sphere_map, half, seed=args.seed)
        print(
            f"block-reflection symmetry: {_status(symmetry.passes)} "
            f"(pair dev {symmetry.pair_deviation:.2e}, "
            f"equator dev {symmetry.equator_deviation:.2e})"
        )

    passed, paired = agree, None
    if args.paired:
        paired = []
        for builder in (degree_lab.shifted_identity_example, degree_lab.zero_free_example):
            func, region, expected = builder()
            report = degree_lab.paired_degree_check(func, region, 1, seed=args.seed)
            paired.append(
                {
                    "example": builder.__name__,
                    "degree_minus": report.degree_minus,
                    "degree_plus": report.degree_plus,
                    "parity": report.parity,
                    "expected": expected,
                    "holds": report.holds,
                    "passed": report.holds and report.degree_minus == expected,
                }
            )
        line = "{example}: deg_- = {degree_minus}, deg_+ = {degree_plus}, parity {parity}"
        passed = _checked_rows(paired, "passed", line) and agree

    rows = [
        {"map": sphere_map.name, "method": k, "degree": r.degree, "raw": r.raw}
        for k, r in results.items()
    ]
    payload = {
        "map": sphere_map.name,
        "degrees": degrees,
        "agree": agree,
        "symmetry": symmetry,
        "paired": paired,
    }
    return passed, payload, rows


def _arc(through, toward, half_angle, name):
    """The great-circle arc through `through` of angles within `half_angle`,
    heading along the first tangent direction at `toward`."""
    direction = tangent_basis(toward[None])[0][:, 0]
    return degen_limits.circle_arc(through, direction, (-half_angle, half_angle), name=name)


def _north():
    return np.eye(3)[-1]


# limits-fold --surface name -> (default pole, surface(pole, name))
FOLD_SURFACES = {
    "half-circle": (_north, lambda pole, name: _arc(pole, pole, 0.5 * math.pi, name)),
    "quarter-arc": (_north, lambda pole, name: _arc(-pole, pole, 0.25 * math.pi, name)),
    "veronese-patch": (
        lambda: veronese.veronese_apply(2, np.eye(3)[:1])[0],
        lambda pole, name: degen_limits.veronese_patch(
            (0.5 * math.pi - 0.5, 0.5 * math.pi + 0.5), (-0.5, 0.5), name=name
        ),
    ),
    "cap-patch": (_north, lambda pole, name: degen_limits.cap_patch(pole, 0.8, name=name)),
}

# limits-moebius --surface name -> surface(collapse direction, name)
MOEBIUS_SURFACES = {
    "full-circle": lambda direction, name: _arc(-direction, direction, math.pi, name),
    "avoiding-arc": lambda direction, name: _arc(direction, direction, 0.25 * math.pi, name),
}


def _limit_report(args, surface, limit_rows, parameter):
    """Print and package the rows of a limit-volume table over `parameter`."""
    rows = [dataclasses.asdict(r) for r in limit_rows]
    line = parameter + " = {parameter:<7g} volume {volume:.8f}  bound {bound:.8f}"
    ok = _checked_rows(rows, "within_bound", line)
    return ok, {"surface": surface.name, "band": args.band, "rows": rows, "passed": ok}, rows


def cmd_limits_fold(args):
    default_pole, build = FOLD_SURFACES[args.surface]
    pole = default_pole()
    if args.pole is not None:
        pole = _unit_from(args.pole, pole.size, "pole")
    surface = build(pole, args.surface)
    t_values = args.t_values
    if t_values is None:
        t_values = [0.0, 0.5, 0.9, 0.99, 0.999] if surface.param_dim == 1 else [0.0, 0.3, 0.6, 0.9]
    limit_rows = degen_limits.fold_limit_volume(surface, pole, t_values, band=args.band)
    return _limit_report(args, surface, limit_rows, "t")


def cmd_limits_moebius(args):
    direction = _north()
    if args.direction is not None:
        direction = _unit_from(args.direction, 3, "direction")
    surface = MOEBIUS_SURFACES[args.surface](direction, args.surface)
    if min(args.radii) < 0.0:
        raise ConfigError(f"--radii are distances |x| >= 0, got {min(args.radii):g}")
    ball_points = [r * direction for r in args.radii]
    limit_rows = degen_limits.moebius_limit_volume(surface, ball_points, band=args.band)
    return _limit_report(args, surface, limit_rows, "|x|")


def cmd_ratio_table(args):
    pairs = bounds.ratio_table(args.n_max, n_min=args.n_min)
    rows = [{**dataclasses.asdict(p), "sane": p.ratio_lower <= p.ratio < 1.0} for p in pairs]
    line = "n = {dim:<3d} tight {tight:.10f}  coarse {coarse:.10f}  ratio {ratio:.10f}"
    ok = _checked_rows(rows, "sane", line)
    if args.n_min <= 2 <= args.n_max:
        two = pairs[2 - args.n_min]
        exact = abs(two.tight - 10.0) < 1e-12 and abs(two.coarse - 12.0) < 1e-12
        ok = ok and exact
        print(f"[{_status(exact)}] two-dimensional constants are 10 and 12")
    return ok, {"rows": rows, "passed": ok}, rows


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

    tolerance = _at_least(0, float)

    def choice(sub, flag, table, default):
        """`flag` takes one of `table`'s names; `default` is an index into them."""
        names = list(table)
        sub.add_argument(flag, type=_one_of(*names), default=names[default], help=" | ".join(names))

    def metric(sub):
        sub.add_argument("--dim", type=int, default=2, help="sphere dimension n")
        sub.add_argument(
            "--factor", default="round", help="round | const:V | zonal:EPS | exp:d,i,c;..."
        )

    sub = command("veronese-check", cmd_veronese_check, "verify the quadratic-map identities")
    sub.add_argument("--dims", type=_at_least(1, _ints), default="1-8", help="e.g. '1-8' or '2,3'")
    sub.add_argument("--samples", type=_at_least(1), default=200, help="samples per dimension")
    sub.add_argument("--seed", type=_at_least(0), default=0)
    sub.add_argument("--norm-tol", type=tolerance, default=1e-12)
    sub.add_argument("--gram-tol", type=tolerance, default=1e-10)

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
    sub.add_argument("--tol", type=tolerance, default=trial_bound.COM_TOL)
    sub.add_argument("--max-iter", type=_at_least(0), default=trial_bound.COM_MAX_ITER)
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
        "--threshold", type=tolerance, default=1e-3, help="largest passing |V| / mass (else exit 1)"
    )

    sub = command("degree", cmd_degree, "degree of a named sphere self-map")
    maps = sorted(degree_lab.registry())
    sub.add_argument("--map", type=_one_of(*maps), default="identity-s3", help=" | ".join(maps))
    choice(sub, "--method", DEGREE_METHODS, -1)
    sub.add_argument("--seed", type=_at_least(0), default=0)
    sub.add_argument(
        "--paired", type=_to_bool, default=False, help="also run the paired box-degree examples"
    )

    sub = command("limits-fold", cmd_limits_fold, "fold volumes against the collapse bound")
    choice(sub, "--surface", FOLD_SURFACES, 0)
    sub.add_argument("--pole", type=_floats, help="fold pole (comma floats)")
    sub.add_argument("--t-values", type=_floats, help="comma-separated cap parameters")
    sub.add_argument("--band", type=float, default=0.02, help="relative slack on the bound")

    sub = command(
        "limits-moebius", cmd_limits_moebius, "Moebius volumes against the collapse bound"
    )
    choice(sub, "--surface", MOEBIUS_SURFACES, 0)
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
            # config values become option defaults: flags still win, and
            # argparse parses the values
            defaults = _config_defaults(args.config, commands, args.command)
            commands[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        passed, payload, rows = args.run(args)
        payload = {"command": args.command, **payload}
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
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
