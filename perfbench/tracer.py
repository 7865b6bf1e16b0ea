"""Spans around calls into nvscatter's public functions, for the traced run.

Each traced function is replaced, for the duration of a `Tracer.active()`
block, in every nvscatter module whose namespace holds it -- i.e. where its
callers look it up (`from .greens import build_greens_table` binds a second
name in `scattering`, `lippmann` and `verify`).  A span is
(name, start, end, parent index); spans stay in memory and are written out
once, when the benchmark ends.  Counters record work done at the same
boundaries (table keys, Krylov iterations, kernel sizes, bytes written).

The workloads call the program from one thread, so one call stack suffices.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

# (layer, function) pairs traced; the layer is the nvscatter module name.
TRACED = [
    ("grids", "sample_potential"),
    ("greens", "build_greens_table"),
    ("greens", "load_table"),
    ("greens", "save_table"),
    ("lippmann", "solve_mu"),
    ("lippmann", "build_kernel"),
    ("lippmann", "modified_fredholm_det"),
    ("lippmann", "determinant_scan"),
    ("lippmann", "detect_exceptional"),
    ("scattering", "scan"),
    ("scattering", "compute_a"),
    ("scattering", "compute_b"),
    ("scattering", "save_scattering"),
    ("scattering", "save_scattering_csv"),
    ("verify", "check_dbar_a"),
    ("verify", "check_dbar_mu"),
    ("verify", "check_dbar_lndelta"),
    ("verify", "check_shift_lemma"),
    ("cli", "load_config"),
    ("cli", "build_inputs"),
]


# Reported metrics, in BENCHMARK.json order: "<layer>.<function>.<key>"
# for span reductions, or a counter.
PER_LAYER = [
    ("greens.build_greens_table.calls", "count"),
    ("greens.build_greens_table.self_s", "s"),
    ("greens.build_greens_table.p50_ms", "ms"),
    ("greens.load_table.calls", "count"),
    ("greens.load_table.self_s", "s"),
    ("greens.save_table.calls", "count"),
    ("greens.save_table.self_s", "s"),
    ("greens.cache_bytes_written", "B"),
    ("greens.distinct_per_build", "ratio"),
    ("lippmann.solve_mu.calls", "count"),
    ("lippmann.solve_mu.self_s", "s"),
    ("lippmann.mu_iterations", "count"),
    ("lippmann.build_kernel.calls", "count"),
    ("lippmann.build_kernel.self_s", "s"),
    ("lippmann.kernel_support_nodes", "count"),
    ("lippmann.kernel_bytes", "B"),
    ("lippmann.modified_fredholm_det.calls", "count"),
    ("lippmann.modified_fredholm_det.self_s", "s"),
    ("lippmann.modified_fredholm_det.p50_ms", "ms"),
    ("lippmann.det_rank", "count"),
    ("lippmann.detect_exceptional.self_s", "s"),
    ("scattering.scan.self_s", "s"),
    ("scattering.compute_a.self_s", "s"),
    ("scattering.compute_b.self_s", "s"),
    ("scattering.save_scattering.self_s", "s"),
    ("scattering.save_scattering_csv.self_s", "s"),
    ("scattering.output_bytes", "B"),
    ("verify.check_dbar_a.self_s", "s"),
    ("verify.check_dbar_mu.self_s", "s"),
    ("verify.check_dbar_lndelta.self_s", "s"),
    ("verify.check_shift_lemma.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("cli.build_inputs.self_s", "s"),
    ("grids.sample_potential.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self.table_keys = set()
        self.counts = {"cache_bytes_written": 0, "mu_iterations": 0,
                       "kernel_support_nodes": 0, "det_rank": 0,
                       "output_bytes": 0}

    # -- counters, keyed by traced function --------------------------------

    def _observe(self, name, args, result):
        c = self.counts
        if name == "greens.build_greens_table":
            self.table_keys.add((complex(result.lam), result.grid.R,
                                 result.grid.N))
        elif name == "greens.save_table":
            c["cache_bytes_written"] += os.path.getsize(args[1])
        elif name == "lippmann.solve_mu":
            c["mu_iterations"] += result.iterations
        elif name == "lippmann.build_kernel":
            c["kernel_support_nodes"] = max(c["kernel_support_nodes"],
                                            result.size)
        elif name == "lippmann.modified_fredholm_det":
            c["det_rank"] = max(c["det_rank"], result.n_eigs)
        elif name in ("scattering.save_scattering",
                      "scattering.save_scattering_csv"):
            c["output_bytes"] += os.path.getsize(args[1])

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def active(self):
        """Patch every traced function where its callers look it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nvscatter" or n.startswith("nvscatter.")]
        patched = []
        try:
            for layer, fname in TRACED:
                fn = getattr(sys.modules[f"nvscatter.{layer}"], fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, overhead_s: float) -> dict:
        """Every PER_LAYER metric as name -> (value, unit)."""
        own = self.self_times()
        calls, self_s, durations = {}, {}, {}
        for span, t in zip(self.spans, own):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + t
            durations.setdefault(name, []).append(span[2] - span[1])
        c = self.counts
        builds = calls.get("greens.build_greens_table", 0)
        ns = c["kernel_support_nodes"]
        derived = {
            "greens.cache_bytes_written": c["cache_bytes_written"],
            "greens.distinct_per_build": (len(self.table_keys) / builds
                                          if builds else 0.0),
            "lippmann.mu_iterations": c["mu_iterations"],
            "lippmann.kernel_support_nodes": ns,
            "lippmann.kernel_bytes": ns * ns * 16,
            "lippmann.det_rank": c["det_rank"],
            "scattering.output_bytes": c["output_bytes"],
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:
                fn, key = name.rsplit(".", 1)
                if key == "calls":
                    value = calls.get(fn, 0)
                elif key == "self_s":
                    value = self_s.get(fn, 0.0)
                else:  # p50_ms of the span duration, children included
                    value = (1e3 * statistics.median(durations[fn])
                             if fn in durations else 0.0)
            out[name] = (value, unit)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
               for n, s, e, p in self.spans]
        with open(path, "w") as f:
            json.dump(doc, f, indent=0)
