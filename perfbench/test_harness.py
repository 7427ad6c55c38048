"""Small-size tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import math
from pathlib import Path
import shutil
import subprocess
import sys
import time
import types

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import closed_forms as cf  # noqa: E402
import layers  # noqa: E402
import steady  # noqa: E402
from tracing import Tracer  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_children_and_counts_attach_to_the_phase():
    module = types.SimpleNamespace()
    module.inner = lambda: _busy(0.02)

    def outer():
        module.inner()
        module.inner()
        _busy(0.01)

    module.outer = outer
    tracer = Tracer()
    tracer.install("m.inner", module, "inner", hook=lambda tr, a, k, r: tr.count("inner.n", 3),
                   rebind=False)
    tracer.install("m.outer", module, "outer", rebind=False)
    for phase in ("pass", "pass"):
        with tracer.span(phase):
            module.outer()
    tracer.uninstall()
    layer_totals, counters = tracer.per_phase(("pass",))
    assert layer_totals["m.inner"]["calls"] == 2
    assert layer_totals["m.outer"]["calls"] == 1
    assert counters == {"inner.n": 6}
    assert layer_totals["m.inner"]["self_s"] >= 0.04
    # without subtracting its children, outer's self time would be >= 0.05
    assert 0.01 <= layer_totals["m.outer"]["self_s"] < 0.04
    assert module.inner() is None and not hasattr(module.inner, "__wrapped__")


def test_install_rebinds_names_imported_elsewhere_and_uninstall_restores():
    from rplap import sphere_geom, trial_bound

    original = sphere_geom.moebius_apply
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert trial_bound.moebius_apply is sphere_geom.moebius_apply
        assert trial_bound.moebius_apply.__wrapped__ is original
        with tracer.span("pass"):
            trial_bound.moebius_shifted_uniform(3, [0.2, 0.0, 0.0], pairs=4)
    finally:
        tracer.uninstall()
    assert sphere_geom.moebius_apply is original and trial_bound.moebius_apply is original
    _, counters = tracer.per_phase(("pass",))
    assert counters["sphere_geom.moebius_apply.rows"] == 8


def test_every_declared_per_layer_metric_gets_a_value():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = layers.metrics({}, {}, 1.5)
    assert list(values) == [m["name"] for m in bench["per_layer"]]
    assert all(values[m["name"]]["unit"] == m["unit"] for m in bench["per_layer"])
    assert values["traced.verdicts_per_s"]["value"] == 1.5


def test_agreement_checks_median_both_ways_spread_and_failed_share():
    metric = [{"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]

    def results(values, failed=0):
        return [{"attempted": 10, "failed": failed,
                 "metrics": {"verdicts_per_s": {"value": v, "unit": "1/s"}}} for v in values]

    steady_values = [1.00, 1.01, 0.99, 1.00, 1.02]
    _, agree = steady.compare([{"w": results(steady_values)},
                               {"w": results([v * 1.05 for v in steady_values])}], metric)
    assert agree
    _, agree = steady.compare([{"w": results(steady_values)},
                               {"w": results([v * 1.2 for v in steady_values])}], metric)
    assert not agree  # a faster set is a change of host or program as well
    _, agree = steady.compare([{"w": results(steady_values)},
                               {"w": results([v * 0.8 for v in steady_values])}], metric)
    assert not agree
    _, agree = steady.compare([{"w": results([1.0, 1.5, 0.6, 1.2, 0.8])},
                               {"w": results(steady_values)}], metric)
    assert not agree  # first set spreads beyond the bound
    _, agree = steady.compare([{"w": results(steady_values)},
                               {"w": results(steady_values, failed=1)}], metric)
    assert not agree


def test_closed_forms():
    assert cf.round_projective_spectrum(2, 7) == [0.0] + [6.0] * 5 + [20.0]
    assert cf.round_projective_spectrum(3, 11) == [0.0] + [8.0] * 9 + [24.0]
    assert cf.coarse_bound(2) == 12.0
    assert math.isclose(cf.projective_volume(2), 2 * math.pi)
    assert math.isclose(cf.half_circle_fold_length(0.0), math.pi)
    assert math.isclose(cf.cap_patch_fold_area(0.0, 0.8), 2 * math.pi * (1 - math.cos(0.8)))
    x = np.array([0.3, -0.2, 0.1])
    y = np.eye(3)
    assert np.allclose(cf.moebius(-x, cf.moebius(x, y)), y)
    assert np.allclose(cf.moebius(x, np.zeros((1, 3))), x)
    # folding twice changes nothing: the image already lies in the cap
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    folded = cf.fold(np.eye(3)[2], 0.4, pts)
    assert np.allclose(cf.fold(np.eye(3)[2], 0.4, folded), folded)
    assert cf.sphere_map_degree("antipodal-s2") == -1
    assert cf.sphere_map_degree("antipodal-s3") == 1


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_energy_chain_run_prints_a_correct_result_last():
    done = _run(ROOT, "--workload", "energy-chain", "--seed", "4", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    env = json.loads(done.stdout.splitlines()[0])["environment"]
    assert all(lib["threads"] == 1 for lib in env["openblas"])
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 12
    assert set(result["metrics"]) == {"setup_s", "verdicts_per_s", "verdict_geomean_s", "peak_rss_mb"}


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "energy-chain", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout
