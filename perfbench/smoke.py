"""Smoke check of the benchmark: every workload, untraced and traced, by
default for the shortest run (one timed op, two when traced).

Asserts that each run exits 0 with a correct result line, that every metric
BENCHMARK.json declares is present with its unit, and that BENCHMARK.json
declares every metric the benchmark is defined to report.  Then prints the
layer predictions of the traced runs when they are long enough to trace
every command kind (`--seconds 5`).  The predictions are informational:
they describe the program at the commit that defined the benchmark.

    python3 perfbench/smoke.py [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {"setup_s": "s", "op_p50_ref": "ref", "ops_per_ref": "1/ref",
              "peak_rss_mb": "MB"}
LAYER_FUNCTIONS = (
    "config.parse_config", "config.load_config", "device.derive_parameters",
    "device.regime_check", "lindblad.steady_state_solve",
    "lindblad.build_full_liouvillian", "lindblad.reduced_steady_populations",
    "lindblad.transition_rates", "fock.partial_trace",
    "observables.wigner_from_density_matrix",
    "observables.wigner_from_populations", "observables.power_spectrum",
    "observables.populations_from_spectrum", "cli.write_json",
    "cli.write_csv")
PER_LAYER = {
    **{f"{f}.calls": "count/op" for f in LAYER_FUNCTIONS},
    **{f"{f}.self_s": "s/op" for f in LAYER_FUNCTIONS},
    "lindblad.n": "count", "lindblad.nnz": "count",
    "lindblad.dense_bytes_computed": "B",
    "lindblad.solve_iterations": "count", "lindblad.solve_residual_rel": "1",
    "lindblad.steady_state_solve.alloc_peak_mb": "MB",
    "observables.wigner_points": "count/op",
    "observables.spectrum_points": "count/op",
    "cli.bytes_written": "B/op", "trace.overhead_s": "s",
}


def _run(workload, trace, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, (workload, trace, out.stderr[-2000:])
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] and line["failed"] == 0, (workload, out.stdout)
    assert line["attempted"] >= 1
    return line["metrics"]


def main():
    ap = argparse.ArgumentParser(description="benchmark smoke check")
    ap.add_argument("--seconds", type=float, default=0)
    seconds = ap.parse_args().seconds
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace, required in ((0, END_TO_END), (1, PER_LAYER)):
        for name, unit in required.items():
            assert declared[trace].get(name) == unit, (name, unit)

    layers = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            metrics = _run(w["name"], trace, seconds)
            assert set(metrics) == set(declared[trace]), sorted(
                set(metrics) ^ set(declared[trace]))
            for name, unit in declared[trace].items():
                assert metrics[name]["unit"] == unit, (name, metrics[name])
                assert isinstance(metrics[name]["value"], (int, float))
            print(f"ok {w['name']} trace={trace}: {len(metrics)} metrics")
            if trace:
                layers[w["name"]] = {k: v["value"] for k, v in metrics.items()}

    if seconds < 5:
        print("layer predictions need every command kind traced: "
              "run with --seconds 5 or more")
        return
    fig2, sweep = layers["full_fig2"], layers["readout_sweep"]
    self_s = {k: v for k, v in sweep.items()
              if k.endswith(".self_s") and k.count(".") == 2}
    predictions = [
        ("steady_state_solve >= 80% of op time on full_fig2",
         fig2["lindblad.steady_state_solve.self_share"] >= 0.8),
        ("no Liouvillian build or full solve on readout_sweep",
         sweep["lindblad.build_full_liouvillian.calls"] == 0
         and sweep["lindblad.steady_state_solve.calls"] == 0),
        ("cli.write_csv has the largest self time on readout_sweep",
         max(self_s, key=self_s.get) == "cli.write_csv.self_s"),
    ]
    for text, holds in predictions:
        print(f"prediction {'holds' if holds else 'does not hold'}: {text}")
    for w, m in layers.items():
        print(f"tracing overhead on {w}: {m['trace.overhead_s']:.4g} s")

if __name__ == "__main__":
    main()
