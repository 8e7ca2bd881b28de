"""Per-layer tracing from outside the package.

The layers are nozzleflow's modules.  A ``Tracer`` replaces module and class
attributes with timing wrappers for the length of a ``with`` block and puts
the originals back on exit.  This intercepts the calls because the package
reaches its layers through those attributes: ``scheme.advance`` calls
``_kernels.build_step_pass_a``, ``_kernels.build_step_pass_b`` and
``_traces.average_project`` as module attributes, the interpreted kernels
call each other through module globals, and ``cli.cmd_run`` calls
``parse_config``, ``run`` and ``run_baseline`` as globals of ``cli``.

Layer boundaries are recorded as spans (name, start, end, parent span) in
memory; hot inner calls (gap fill, Riemann solves, wave-curve evaluations)
only add to totals, so the trace stays small.  A compiled kernel cannot be
entered from Python, so the counters below a kernel's entry point are
installed only on the interpreted path.
"""

import time
from collections import defaultdict

import numpy as np

from nozzleflow import _kernels, _traces, cli, diagnostics, nozzle, scheme
from nozzleflow._numba import NUMBA_ENABLED

# scheme cell cases: away from vacuum 1-4, near vacuum 11/21/31/41, all
# vacuum 50, inert near-vacuum 51
CASES = (1, 2, 3, 4, 11, 21, 31, 41, 50, 51)


class Tracer:
    """Timing wrappers around nozzleflow's layers, with spans and counts."""

    def __init__(self):
        self.time = defaultdict(float)     # seconds inside each layer
        self.calls = defaultdict(int)      # calls of each layer
        self.units = defaultdict(int)      # cells, rows or nodes handled
        self.cases = defaultdict(int)      # built cells by scheme case
        self.pieces = 0                    # in-cell pieces of built cells
        self.spans = []                    # [name, start, end, parent]
        self._stack = []
        self._undo = []

    # -- installing and removing wrappers ---------------------------------

    def _patch(self, owner, name, wrapper):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper(getattr(owner, name)))

    def __enter__(self):
        size_cells = lambda a: len(a[0])               # jcells first
        self._patch(cli, "parse_config", self._timed("cli.parse_config"))
        self._patch(nozzle, "KernelBundle",
                    self._timed("nozzle.bundle_build"))
        self._patch(scheme, "initialize", self._timed("scheme.initialize"))
        self._patch(scheme, "advance", self._timed("scheme.advance"))
        self._patch(_kernels, "build_step_pass_a",
                    self._timed("_kernels.pass_a", size_cells))
        self._patch(_kernels, "build_step_pass_b",
                    self._timed("_kernels.pass_b", size_cells,
                                after=self._count_cases))
        self._patch(_traces, "average_project",
                    self._timed("_traces.average_project", size_cells))
        self._patch(diagnostics.EnergyMonitor, "on_step",
                    self._timed("diagnostics.energy_monitor",
                                lambda a: a[3].jcells.size))
        self._patch(diagnostics.RecurrenceAuditor, "on_step",
                    self._timed("diagnostics.recurrence_audit",
                                lambda a: a[3].jcells.size))
        self._patch(cli.SnapshotWriter, "_emit",
                    self._timed("cli.snapshot", lambda a: a[1].rho.size))
        self._patch(cli, "run_baseline", self._baseline)
        if not NUMBA_ENABLED:
            self._patch(_kernels, "gap_fill_k",
                        self._timed("_kernels.gap_fill", span=False))
            self._patch(_kernels, "riemann_solve_k",
                        self._timed("_kernels.riemann_solve", span=False))
            self._patch(_kernels, "_phi_left", self._counted("_phi_left"))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)
        return False

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key, size=None, after=None, span=True):
        def wrap(orig):
            def wrapper(*a, **kw):
                t0 = time.perf_counter()
                if span:
                    idx = len(self.spans)
                    parent = self._stack[-1] if self._stack else -1
                    self.spans.append([key, t0, t0, parent])
                    self._stack.append(idx)
                try:
                    return orig(*a, **kw)
                finally:
                    t1 = time.perf_counter()
                    self.time[key] += t1 - t0
                    self.calls[key] += 1
                    if size is not None:
                        self.units[key] += size(a)
                    if span:
                        self._stack.pop()
                        self.spans[idx][2] = t1
                    if after is not None:
                        after(a)
            return wrapper
        return wrap

    def _counted(self, key):
        def wrap(orig):
            def wrapper(*a):
                self.calls[key] += 1
                return orig(*a)
            return wrapper
        return wrap

    def _count_cases(self, a):
        ncount, ccase = a[10], a[11]
        for c, k in zip(*np.unique(ccase, return_counts=True)):
            self.cases[int(c)] += int(k)
        self.pieces += int(np.sum(ncount))

    def _baseline(self, orig):
        """run_baseline, with its snapshot callback timed apart and the
        node-steps it computed counted from the callback's arguments."""
        timed = self._timed("baseline.run_baseline")

        def wrapper(*a, snapshot_cb=None, **kw):
            def cb(n, xs, rho, m):
                t0 = time.perf_counter()
                try:
                    if snapshot_cb is not None:
                        snapshot_cb(n, xs, rho, m)
                finally:
                    self.time["cli.baseline_snapshot"] += (
                        time.perf_counter() - t0)
                    self.units["cli.baseline_snapshot"] += xs.size
                    if n > 0:
                        self.units["baseline.run_baseline"] += xs.size
            return timed(orig)(*a, snapshot_cb=cb, **kw)
        return wrapper

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics over everything traced; counts per round."""
        t, c, u = self.time, self.calls, self.units

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        cells = u["_kernels.pass_b"]
        out = {
            "cli.parse_config_s": (per(t["cli.parse_config"],
                                       c["cli.parse_config"]), "s"),
            "nozzle.bundle_build_s": (per(t["nozzle.bundle_build"],
                                          c["nozzle.bundle_build"]), "s"),
            "scheme.initialize_s": (per(t["scheme.initialize"],
                                        c["scheme.initialize"]), "s"),
            "kernels.pass_a_us_per_cell": (
                per(t["_kernels.pass_a"], u["_kernels.pass_a"], 1e6), "us"),
            "kernels.pass_b_us_per_cell": (
                per(t["_kernels.pass_b"], cells, 1e6), "us"),
            "traces.average_project_us_per_cell": (
                per(t["_traces.average_project"],
                    u["_traces.average_project"], 1e6), "us"),
            "scheme.allvac_cell_share": (per(self.cases[50], cells), "ratio"),
            "scheme.pieces_per_cell": (per(self.pieces, cells), "pieces"),
            "diagnostics.energy_monitor_us_per_cell": (
                per(t["diagnostics.energy_monitor"],
                    u["diagnostics.energy_monitor"], 1e6), "us"),
            "diagnostics.recurrence_audit_us_per_cell": (
                per(t["diagnostics.recurrence_audit"],
                    u["diagnostics.recurrence_audit"], 1e6), "us"),
            "cli.snapshot_us_per_row": (
                per(t["cli.snapshot"] + t["cli.baseline_snapshot"],
                    u["cli.snapshot"] + u["cli.baseline_snapshot"], 1e6),
                "us"),
            "baseline.us_per_node_step": (
                per(t["baseline.run_baseline"] - t["cli.baseline_snapshot"],
                    u["baseline.run_baseline"], 1e6), "us"),
            "kernels.numba": (float(NUMBA_ENABLED), "flag"),
        }
        for case in CASES:
            out[f"scheme.cases.{case}"] = (per(self.cases[case], rounds),
                                           "cells")
        # Counted below a kernel's entry point, so 0 on the compiled path.
        solves = c["_kernels.riemann_solve"]
        out.update({
            "kernels.gap_fill_us_per_call": (
                per(t["_kernels.gap_fill"], c["_kernels.gap_fill"], 1e6),
                "us"),
            "kernels.gap_fill_calls_per_cell": (
                per(c["_kernels.gap_fill"], cells), "calls"),
            "riemann.us_per_solve": (
                per(t["_kernels.riemann_solve"], solves, 1e6), "us"),
            "riemann.wave_curve_evals_per_solve": (
                per(c["_phi_left"], solves), "evals"),
        })
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
