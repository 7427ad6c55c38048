"""The rplap layers the traced run wraps, and the per-layer metrics it reports.

`install(tracer)` wraps each layer's public function where its callers look
it up.  `metrics(layers, counters, traced_verdicts_per_s)` turns the tracer's
per-phase totals into the per-layer metrics that BENCHMARK.json declares.
"""

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from rplap import (
    degen_limits,
    degree_lab,
    harmonics,
    quadrature,
    spectral,
    sphere_geom,
    trial_bound,
    veronese,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CONVERGED_RESIDUAL = 1e-3  # a search start converges when it ends at |V|/mass <= this


def _moebius_rows(tracer, args, kwargs, result):
    y = args[1] if len(args) > 1 else kwargs["y"]
    tracer.count("sphere_geom.moebius_apply.rows", math.prod(np.shape(y)[:-1]))


def _assembly_flops(tracer, args, kwargs, result):
    # mass: nodes x basis^2 multiply-adds; stiffness: (n+1) times that
    stiffness, _, _, rule = result
    basis_size = stiffness.shape[0]
    tracer.count(
        "spectral.assemble_matrices.flop_computed",
        2 * rule.nodes.shape[0] * basis_size * basis_size * (rule.dim + 2),
    )


def _center_iterations(tracer, args, kwargs, result):
    tracer.count("trial_bound.center_of_mass.iterations", result.iterations)


def _preimages(tracer, args, kwargs, result):
    tracer.count("degree_lab.degree_regular_value.preimages", result.preimages.shape[0])


def _search_counts(tracer, args, kwargs, result):
    tracer.count("trial_bound.field_evaluations", result.evaluations)
    tracer.count("trial_bound.search.starts", len(result.start_results))
    tracer.count(
        "trial_bound.search.starts_converged",
        sum(1 for residual, _ in result.start_results if residual <= CONVERGED_RESIDUAL),
    )


# (span name, owner, attribute, count hook, rebind imported names)
LAYERS = [
    ("sphere_geom.moebius_apply", sphere_geom, "moebius_apply", _moebius_rows, True),
    ("sphere_geom.moebius_factor", sphere_geom, "moebius_factor", None, True),
    ("sphere_geom.fold_apply", sphere_geom, "fold_apply", None, True),
    ("sphere_geom.cap_reflect", sphere_geom, "cap_reflect", None, True),
    ("sphere_geom.tangent_basis", sphere_geom, "tangent_basis", None, True),
    ("veronese.veronese_apply", veronese, "veronese_apply", None, True),
    ("veronese.veronese_jacobian", veronese, "veronese_jacobian", None, True),
    ("quadrature.build_sphere_rule", quadrature, "build_sphere_rule", None, True),
    ("quadrature.surface_measure", quadrature, "surface_measure", None, True),
    ("harmonics.basis", harmonics, "basis", None, True),
    ("harmonics.evaluate", harmonics.HarmonicBasis, "evaluate", None, False),
    ("harmonics.tangential_gradients", harmonics.HarmonicBasis, "tangential_gradients", None, False),
    ("spectral.assemble_matrices", spectral, "assemble_matrices", _assembly_flops, True),
    # spectral calls scipy.linalg.eigh by attribute; harmonics binds its own
    # name for its Gram matrices, which stays unwrapped
    ("spectral.eigh", scipy.linalg, "eigh", None, False),
    ("spectral.normalize_volume", spectral, "normalize_volume", None, True),
    ("trial_bound.theorem_check", trial_bound, "theorem_check", None, True),
    ("trial_bound.search_vector_field_zero", trial_bound, "search_vector_field_zero",
     _search_counts, True),
    ("trial_bound.minimize", trial_bound, "minimize", None, False),
    ("trial_bound.center_of_mass", trial_bound, "center_of_mass", _center_iterations, True),
    ("trial_bound.rayleigh_chain", trial_bound, "rayleigh_chain", None, True),
    ("degree_lab.degree_integral", degree_lab, "degree_integral", None, True),
    ("degree_lab.degree_regular_value", degree_lab, "degree_regular_value", _preimages, True),
    ("degree_lab.paired_degree_check", degree_lab, "paired_degree_check", None, True),
    ("degen_limits.fold_limit_volume", degen_limits, "fold_limit_volume", None, True),
    ("degen_limits.moebius_limit_volume", degen_limits, "moebius_limit_volume", None, True),
]

_LAYER_NAMES = {name for name, *_ in LAYERS}


def install(tracer):
    for name, owner, attribute, hook, rebind in LAYERS:
        tracer.install(name, owner, attribute, hook=hook, rebind=rebind)


def metrics(layers, counters, traced_verdicts_per_s):
    """Per-layer metric values; layers that did not run read 0."""
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["per_layer"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    values = {}
    for metric in units:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and layer in _LAYER_NAMES:
            values[metric] = layers.get(layer, {}).get(field, 0.0)
        else:
            values[metric] = counters.get(metric, 0.0)
    starts = values["trial_bound.search.starts"]
    values["trial_bound.search.converged_share"] = (
        values["trial_bound.search.starts_converged"] / starts if starts else 0.0
    )
    values["traced.verdicts_per_s"] = traced_verdicts_per_s
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
