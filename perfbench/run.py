"""nanomech benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Untraced runs measure set-up time first:
several fresh interpreters each import `nanomech.cli`, load
`configs/fig2.json` and run the first `run_device`; the median, scaled to a
fixed reference speed, is `setup_s`.  The workload then runs in its own
fresh child process (`workload.py`), so its peak RSS is its own, with the
BLAS thread count pinned.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, from untraced ops, with op times divided by a
reference task timed around each op; with `--trace 1` they are its
per-layer metrics, from the traced ops of an interleaved traced/untraced
run.  Lines before it give the run record (commit, machine, library
versions, threads, seed), failures, raw seconds and the full per-function
table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import format_task, reference_s

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("full_fig2", "full_small", "readout_sweep")

SETUP_RUNS = 5          # measured, after one discarded run that warms caches
SETUP_CODE = ("import nanomech.cli as cli; "
              "cli.run_device(cli.load_config('configs/fig2.json'))")
# setup_s is given in seconds at a fixed reference speed: each set-up's wall
# time times REF_NOMINAL_S over the time of the formatting reference task
# measured around it.  REF_NOMINAL_S is that task's time on the 2-core VM
# the benchmark was defined on, in its fast phase.  Raw seconds are printed.
REF_NOMINAL_S = 0.0015
CHILD_TIMEOUT_S = 170
P90_MIN_OPS = 100       # so that at least ten samples lie beyond the p90


def _env():
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def measure_setup(env):
    """(setup_s at reference speed, raw median seconds)."""
    raw, scaled = [], []
    ref_before = reference_s(format_task)
    for k in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        dt = perf_counter() - t0
        ref_after = reference_s(format_task)
        if k:
            raw.append(dt)
            scaled.append(dt * REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw)


def _commit():
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown (not a git checkout)"


def _source_digest():
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "nanomech").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(res, setup):
    """The gated metrics divide each op's time by the reference-task time
    measured around it (see reference.py); raw seconds are printed too."""
    times, rel = res["op_times"], res["op_ref"]
    return {
        "setup_s": (setup[0], "s"),
        "setup_raw_s": (setup[1], "s"),
        "op_p50_ref": (_median(rel), "ref"),
        "ops_per_ref": (len(rel) / sum(rel) if rel else 0.0, "1/ref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "op_s_p50": (_median(times), "s"),
        "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "reference_s": (res["reference_s"], "s"),
    }


def per_layer(res):
    out = dict((k, tuple(v)) for k, v in res["layers"].items())
    traced = _median(res["traced_op_times"])
    out["trace.op_s_p50"] = (traced, "s")
    out["trace.overhead_s"] = (traced - _median(res["op_times"]), "s")
    out["cli.bytes_written"] = (res["bytes_written_per_op"], "B/op")
    return out


def _declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="nanomech benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/nanomech/cli.py", "configs/fig2.json",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a nanomech checkout, missing {missing}",
              file=sys.stderr)
        return 2
    declared = _declared(args.trace)

    env = _env()
    WORK.mkdir(exist_ok=True)
    setup = None if args.trace else measure_setup(env)

    result_path = WORK / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark: workload process failed: {exc}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    result_path.unlink()

    measured = (per_layer(res) if args.trace
                else end_to_end(res, setup))
    wrong = sorted(n for n, unit in declared.items()
                   if n not in measured or measured[n][1] != unit)
    if wrong:
        print(f"benchmark: metrics missing or with another unit: {wrong}",
              file=sys.stderr)
        return 3

    times = res["op_times"]
    record = {"commit": _commit(), "source_sha256": _source_digest(),
              "nproc": os.cpu_count(), "python": sys.version.split()[0],
              "seed": args.seed, "workload": args.workload,
              "trace": args.trace, **res["env"]}
    print("run", json.dumps(record, sort_keys=True))
    print(f"ops: {res['attempted']} attempted, {res['failed']} failed, "
          f"failed_frac {res['failed'] / max(res['attempted'], 1):.4g}; "
          f"untimed samples {len(times)}, traced samples "
          f"{len(res['traced_op_times'])}")
    if len(times) >= P90_MIN_OPS:
        print(f"op_s_p90 {statistics.quantiles(times, n=10)[8]:.6g} s "
              f"(n = {len(times)})")
    for msg in res["failures"]:
        print(f"failed op: {msg}")
    for name, (value, unit) in sorted(measured.items()):
        print(f"metric {name} {value:.6g} {unit}")
    if res.get("spans_file"):
        print(f"spans written to {res['spans_file']}")

    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": measured[n][0], "unit": unit}
                        for n, unit in declared.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
