"""One benchmark workload, run in its own process by `run.py`.

The process imports nanomech from the checkout's `src/`, generates every
input from the seed before timing starts, then drives `nanomech.cli.main`
in-process as a closed loop: one client, each command issued after the
previous one returns.  One op is one CLI command, file writes included,
into a fresh output directory.  After each op (outside its timing) the
outputs are checked; an op fails if it exits non-zero, raises, is refused
by the memory guard or fails a check.

After every op the workload's reference task is timed, so that each op's
time can also be given in units of the reference (see reference.py).
With tracing on, even-numbered ops are traced and odd ones are not, so the
tracing overhead is measured on the same inputs in the same process.

Usage (normally through run.py):
    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --result PATH
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import format_task, lapack_task, reference_s
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
FIG2 = ROOT / "configs" / "fig2.json"

# Dense full solves hold two n x n complex copies (generator and solve
# matrix); refuse an op whose two copies exceed this share of free memory.
MEMORY_SHARE = 0.5

TIMESTAMP = re.compile(rb'"timestamp_utc": "[^"]*"')

@dataclass
class Op:
    argv: list            # CLI arguments without --out
    key: str              # identifies the input: equal keys, equal files
    check: object         # check(outdir, solved) -> error message or None
    liouville_n: int = 0  # Liouville dimension of a full solve, else 0


# ---------------------------------------------------------------------------
# inputs

def _write_config(raw, name):
    path = WORK / "inputs" / f"{name}.json"
    path.write_text(json.dumps(raw, indent=1, sort_keys=True))
    return str(path.relative_to(ROOT))


def _liouville_n(raw):
    sim = raw["simulation"]
    d = sim["mech_truncation"] * sim.get("cavity_truncation", 2) ** len(
        raw["device"]["drives"])
    return d * d


def _full_fig2(_rng, base):
    # The reference device, as the paper's Fig. 2: mech 8 x 3 cavities x 2
    # levels, n = 4096.  The hot path; the seed does not change it.
    argv = ["steady", "--config", str(FIG2.relative_to(ROOT)), "--full",
            "--compare"]
    return [Op(argv, "fig2", _check_fig2, _liouville_n(base))], 1


def _full_small(rng, base):
    # n <= 2304: fig2 at mech truncation 4/5/6 (the SVD uniqueness check runs
    # at n <= 1600) and the thermal chain of criterion 1 (mech 30, no drives,
    # n = 900) at two temperatures, n_bar ~ 0.4-0.6.  Five inputs per cycle
    # keep the median op inside one input's block rather than on the boundary
    # between two.  Only the temperature is varied for the fig2 points: other
    # parameters push the mech-4 tail over the truncation check.
    ops = []
    for m in (4, 5, 6):
        raw = copy.deepcopy(base)
        raw["simulation"]["mech_truncation"] = m
        raw["device"]["temperature"] = f"{rng.uniform(10, 40)!r} mK"
        path = _write_config(raw, f"small_m{m}")
        ops.append(Op(["steady", "--config", path, "--full"], path,
                      _check_rho, _liouville_n(raw)))
    for k in range(2):
        raw = copy.deepcopy(base)
        raw["device"]["drives"] = []
        raw["device"]["temperature"] = f"{rng.uniform(0.21, 0.26)!r} mK"
        raw["simulation"]["mech_truncation"] = 30
        path = _write_config(raw, f"small_thermal{k}")
        ops.append(Op(["steady", "--config", path, "--full"], path,
                      _check_thermal, _liouville_n(raw)))
    rng.shuffle(ops)
    return ops, 1


def _readout_sweep(rng, base, points=8):
    # Device points around fig2, each read out as a user would: device,
    # steady (reduced model, Wigner grid) and spectrum --selftest.  The
    # ranges stay inside the regime validator's pass/warn band: above
    # zeta ~ 4.1 or 1.4 W the rwa / adiabatic-elimination checks fail and
    # `device` exits 2.  Never builds the full Liouvillian.
    ops = []
    for k in range(points):
        raw = copy.deepcopy(base)
        raw["device"]["softening"]["zeta"] = rng.uniform(3.6, 4.0)
        power = rng.uniform(0.8, 1.4)
        for drive in raw["device"]["drives"]:
            drive["power"] = f"{power!r} W"
        raw["device"]["temperature"] = f"{rng.uniform(10, 40)!r} mK"
        path = _write_config(raw, f"readout{k}")
        ops.append(Op(["device", "--config", path], path + ":device",
                      _check_device))
        ops.append(Op(["steady", "--config", path], path + ":steady",
                      _check_wigner))
        ops.append(Op(["spectrum", "--config", path, "--selftest"],
                      path + ":spectrum", _check_selftest))
    return ops, 3


# Each workload's op times are also divided by the reference task that does
# the same kind of work as its ops (reference.py): the dense solve is >= 85%
# of op time on full_*, the writers dominate readout_sweep.
WORKLOADS = {"full_fig2": (_full_fig2, lapack_task),
             "full_small": (_full_small, lapack_task),
             "readout_sweep": (_readout_sweep, format_task)}


# ---------------------------------------------------------------------------
# output checks

def _read(outdir, name):
    return json.loads((outdir / name).read_text())


def _check_rho(outdir, solved):
    if len(solved) != 1:
        return f"expected one full solve, saw {len(solved)}"
    rho = solved[0].rho.matrix
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-10:
        return f"trace(rho) = {tr!r}"
    w_min = np.linalg.eigvalsh(rho).min()
    if w_min < -1e-10:
        return f"rho not PSD, min eigenvalue {w_min:.3e}"
    full = np.array(_read(outdir, "populations.json")["full"])
    if abs(full.sum() - 1.0) > 1e-10:
        return f"full populations sum to {full.sum()!r}"
    return None


def _check_fig2(outdir, solved):
    err = _check_rho(outdir, solved)
    if err:
        return err
    gap = max(_read(outdir, "populations.json")["compare_abs_diff"])
    return None if gap < 0.05 else f"max |P_full - P_reduced| = {gap:.4f}"


def _check_thermal(outdir, solved):
    err = _check_rho(outdir, solved)
    if err:
        return err
    n_bar = _read(outdir, "manifest.json")["derived"]["n_bar"]["value"]
    full = np.array(_read(outdir, "populations.json")["full"])
    bose = (n_bar / (n_bar + 1.0)) ** np.arange(full.size)
    bose /= bose.sum()
    rel = np.max(np.abs(full - bose) / bose)
    return None if rel < 1e-6 else f"Bose-Einstein relative error {rel:.3e}"


def _check_device(outdir, _solved):
    derived = _read(outdir, "derived.json")
    w = derived["omega_m"]["value"]
    return None if w > 0 else f"omega_m = {w!r}"


def _check_wigner(outdir, _solved):
    pops = np.array(_read(outdir, "populations.json")["reduced"])
    x, p, w = np.loadtxt(outdir / "wigner.csv", delimiter=",",
                         skiprows=2, unpack=True)
    xs, ps = np.unique(x), np.unique(p)
    grid = w.reshape(ps.size, xs.size)
    integral = np.trapezoid(np.trapezoid(grid, xs, axis=1), ps)
    if abs(integral - 1.0) > 1e-3:
        return f"Wigner grid integral {integral!r}"
    i, j = np.argmin(np.abs(ps)), np.argmin(np.abs(xs))
    if abs(ps[i]) > 1e-12 or abs(xs[j]) > 1e-12:
        return "Wigner grid has no point at the origin"
    alt = 2.0 / np.pi * np.sum(pops * (-1.0) ** np.arange(pops.size))
    if abs(grid[i, j] - alt) > 1e-9 * max(1.0, abs(alt)):
        return f"W(0,0) = {grid[i, j]!r}, alternating sum {alt!r}"
    return None


def _check_selftest(outdir, _solved):
    err = _read(outdir, "peaks.json")["selftest_max_error"]
    return None if err < 0.02 else f"self-test inversion error {err:.4f}"


def _digest(outdir):
    """File name -> SHA-256, with the manifest timestamp blanked."""
    out = {}
    for f in sorted(outdir.iterdir()):
        data = f.read_bytes()
        if f.name == "manifest.json":
            data = TIMESTAMP.sub(b'"timestamp_utc": ""', data)
        out[f.name] = hashlib.sha256(data).hexdigest()
    return out


# ---------------------------------------------------------------------------
# the loop

def _free_bytes():
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _install_capture(cli, lindblad, solved):
    # Keeps each full steady state for the rho checks.  It looks the solver
    # up at call time, so a traced op still goes through the traced wrapper.
    def capture(*args, **kwargs):
        ss = lindblad.steady_state_solve(*args, **kwargs)
        solved.append(ss)
        return ss
    cli.steady_state_solve = capture


def run(workload, seed, seconds, trace):
    import scipy
    import nanomech
    from nanomech import cli, lindblad

    src = (ROOT / "src").resolve()
    if Path(nanomech.__file__).resolve().parent.parent != src:
        raise SystemExit(f"nanomech imported from {nanomech.__file__}, "
                         f"not from {src}")

    shutil.rmtree(WORK / "inputs", ignore_errors=True)
    (WORK / "inputs").mkdir(parents=True)
    rng = random.Random(seed)
    base = json.loads(FIG2.read_text())
    generate, task = WORKLOADS[workload]
    deck, warmup = generate(rng, base)

    solved = []
    _install_capture(cli, lindblad, solved)
    # Built after the capture, so the tracer finds the capture (not the
    # solver) bound in cli and leaves it in place.
    tracer = Tracer() if trace else None
    outdir = WORK / f"out-{os.getpid()}"
    first_digest = {}
    failures = []
    times = {False: [], True: []}
    rel = {False: [], True: []}
    bytes_written = []
    attempted = 0
    min_ops = 2 if trace else 1

    def one(i, op, traced):
        nonlocal attempted
        attempted += 1
        need = 2 * op.liouville_n ** 2 * 16
        if need > MEMORY_SHARE * _free_bytes():
            failures.append(f"{op.key}: refused, dense solve needs {need} B")
            return None
        shutil.rmtree(outdir, ignore_errors=True)
        solved.clear()
        argv = op.argv + ["--out", str(outdir.relative_to(ROOT))]
        error = None
        if traced:
            tracer.install()
            tracer.begin_op(i)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        t1 = perf_counter()
        if traced:
            tracer.end_op()
            tracer.uninstall()
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            try:
                error = op.check(outdir, solved)
            except (OSError, KeyError, ValueError) as exc:
                error = f"output check raised {exc!r}"
        if error is None:
            digest = _digest(outdir)
            if first_digest.setdefault(op.key, digest) != digest:
                error = "output differs from an earlier op on the same input"
            bytes_written.append(sum(f.stat().st_size
                                     for f in outdir.iterdir()))
        if error is not None:
            failures.append(f"{op.key}: {error}")
            return None
        return t1 - t0

    for i in range(warmup):
        one(-1 - i, deck[i % len(deck)], False)

    t_origin = perf_counter()
    ref_before = reference_s(task)
    refs = [ref_before]
    i = 0
    while True:
        op = deck[(warmup + i) % len(deck)]
        traced = trace and i % 2 == 0
        dt = one(i, op, traced)
        ref_after = reference_s(task)
        refs.append(ref_after)
        if dt is not None:
            times[traced].append(dt)
            rel[traced].append(dt / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        i += 1
        if i >= min_ops and perf_counter() - t_origin >= seconds:
            break
    shutil.rmtree(outdir, ignore_errors=True)

    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "op_times": times[False], "traced_op_times": times[True],
        "op_ref": rel[False], "traced_op_ref": rel[True],
        "reference_s": statistics.median(refs),
        "bytes_written_per_op": statistics.mean(bytes_written)
        if bytes_written else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _blas(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if trace:
        result["layers"] = _layers(tracer, len(times[True]))
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path, t_origin)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def _layers(tracer, n_ops):
    """Per-op calls and self seconds of every wrapped function, per-module
    self seconds, and the computed counts."""
    n = max(n_ops, 1)
    calls, self_s = tracer.self_times()
    out = {"trace.spans_per_op": (sum(calls.values()) / n, "count/op")}
    modules = {m: 0.0 for m in tracer.modules}
    for name in tracer.names:
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "count/op")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s/op")
        modules[name.split(".")[0]] += self_s.get(name, 0.0) / n
    for m, v in modules.items():
        out[f"{m}.self_s"] = (v, "s/op")
    op_total = sum(t1 - t0 for _op, name, t0, t1, _p in tracer.spans
                   if name == "op") / n
    out["lindblad.steady_state_solve.self_share"] = (
        self_s.get("lindblad.steady_state_solve", 0.0) / n / op_total
        if op_total else 0.0, "1")
    units = {"lindblad.n": "count", "lindblad.nnz": "count",
             "lindblad.dense_bytes_computed": "B",
             "lindblad.solve_iterations": "count",
             "lindblad.solve_residual_rel": "1",
             "lindblad.steady_state_solve.alloc_peak_mb": "MB"}
    for name, unit in units.items():
        out[name] = (float(max(tracer.sizes[name], default=0)), unit)
    for name in ("observables.wigner_points", "observables.spectrum_points"):
        out[name] = (sum(tracer.sizes[name]) / n, "count/op")
    return out


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
