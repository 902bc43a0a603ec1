"""In-memory span tracer for the nanomech layers, applied from outside.

`Tracer.install()` wraps every public function of the six nanomech
modules and rebinds the wrapper under every name that bound the original,
in every nanomech module (`cli` imports most names directly).
`uninstall()` puts the originals back, so untraced ops run the unmodified
program.  Each wrapper records a span (op id, name, start, end, parent);
spans stay in memory until `write()`.

A few wrapped functions also feed exact counts that are computed here from
their arguments and results, not reported by the program: Liouville
dimension, nonzeros, dense bytes, solver iterations and relative residual,
tracemalloc allocation peak of the solve, and grid sizes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("config", "device", "fock", "lindblad", "observables", "cli")

# Serialisation helpers called once per value (or only by one writer): their
# time stays in the `write_json` / `write_csv` span that calls them, and
# wrapping them would cost more than the work they do.
UNWRAPPED = {"cli.format_float", "cli.canonical_json"}

SOLVE = "lindblad.steady_state_solve"
ROOT = "op"


def _public_functions(modules):
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            qual = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and qual not in UNWRAPPED):
                yield qual, obj


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"nanomech.{m}")
                        for m in MODULES}
        self.spans = []             # [op, name, start, end, parent index]
        self.stack = []
        self.op = -1
        self.sizes = defaultdict(list)
        self.patches = []
        self.names = []
        for qual, fn in _public_functions(self.modules):
            wrapper = self._wrap(qual, fn)
            self.names.append(qual)
            for mod in self.modules.values():
                for attr, val in vars(mod).items():
                    if val is fn:
                        self.patches.append((mod, attr, fn, wrapper))

    # -- patching --------------------------------------------------------

    def install(self):
        for mod, attr, _fn, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _wrapper in self.patches:
            setattr(mod, attr, fn)

    def begin_op(self, op: int):
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append([op, ROOT, perf_counter(), 0.0, -1])

    def end_op(self):
        self.spans[self.stack[0]][3] = perf_counter()
        self.stack = []

    def _wrap(self, qual, fn):
        hook = _HOOKS.get(qual)
        alloc = qual == SOLVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [self.op, qual, 0.0, 0.0, self.stack[-1]]
            self.spans.append(span)
            self.stack.append(idx)
            if alloc:
                tracemalloc.start()
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.sizes["lindblad.steady_state_solve.alloc_peak_mb"] \
                        .append(peak / 2**20)
            if hook is not None:
                hook(self.sizes, args, result)
            return result

        return wrapper

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self seconds).  Self time is the
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _op, _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (_op, name, t0, t1, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        return calls, self_s

    def write(self, path, t_origin: float):
        with open(path, "w") as fh:
            for op, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name,
                                     "start": t0 - t_origin,
                                     "end": t1 - t_origin,
                                     "parent": parent}) + "\n")


# -- counts computed from arguments and results ------------------------------

def _liouvillian(sizes, _args, liou):
    n = liou.dim
    sizes["lindblad.n"].append(n)
    sizes["lindblad.nnz"].append(liou.superoperator.nnz)
    sizes["lindblad.dense_bytes_computed"].append(n * n * 16)


def _solve(sizes, args, ss):
    scale = abs(args[0].superoperator).max()
    sizes["lindblad.solve_iterations"].append(ss.iterations)
    sizes["lindblad.solve_residual_rel"].append(ss.residual / scale)


def _wigner(sizes, _args, wig):
    sizes["observables.wigner_points"].append(wig.values.size)


def _spectrum(sizes, _args, spec):
    sizes["observables.spectrum_points"].append(np.size(spec.frequencies))


_HOOKS = {
    "lindblad.build_full_liouvillian": _liouvillian,
    SOLVE: _solve,
    "observables.wigner_from_populations": _wigner,
    "observables.wigner_from_density_matrix": _wigner,
    "observables.power_spectrum": _spectrum,
}
