"""Numeric verification of the invariant-region bounds, the energy
inequality, and the discrete energy recurrence.

The monitored quantities are the weighted totals int A(x) eta*(u) dx and
int A(x) rho dx (node and trace variants), the per-node recurrence

    eta*(u_j^{n+1}) <= (eta*(u_{j+1}^n)+eta*(u_{j-1}^n))/2
                       - dt/(2 dx) (q(u_{j+1}^n) - q(u_{j-1}^n))
                       + R(x_{j+1}, u_{j+1}^n) dt - R(x_{j-1}, u_{j-1}^n) dt
                       + (1/(2 dx)) iint (A'/A) q dx dt + o(dx),

and bookkeeping counters (projection clamps, vacuum-threshold events,
half-time Rankine-Hugoniot residuals, the accumulated squared time jumps
of the traces).

The monitors read what the step built: the row of old nodes, the cell
records and their piece table, the parameters and the geometry bundle of
its ``StepRecord``, and the envelope bounds each state was projected onto.
The quantities themselves (R, the area term, node areas) are whole-array
code in :mod:`nozzleflow._traces`.

``EnergyMonitor`` and ``RecurrenceAuditor`` read the steps :data:`BLOCK`
at a time: their piece tables back to back, each reader once per block,
its results split back into steps in order.  The last block is read inside
the ``on_step`` call of the run's last step, so all monitor work happens
inside ``scheme.run``; reading ``reports`` or ``audits`` earlier reads the
steps kept so far first.  The outputs are those of one step at a time, bit
for bit.

``on_step`` keeps the steps in the caller; each block's read goes to the
monitor's ``worker`` (:mod:`nozzleflow.worker`).  By default that runs it
at once.  In ``nozzleflow run`` it runs it in a forked process while the
run steps, and hands the reports and audits back inside the run's last
``on_step`` call; until then the caller's ``reports`` hold only the step-0
report, and its ``audits`` none.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import _traces
from .gas import GasConstants, GasState
from .nozzle import BoundFunction, NozzleGeometry, get_bundle
from .scheme import SchemeParameters, StaggeredState, StepRecord
from .worker import INLINE

# Steps the monitors read at once (see _BlockReader)
BLOCK = 2


@dataclass
class EnergyReport:
    """Per-step totals and bound/consistency monitors."""

    n: int
    t: float
    total_energy: float        # node variant: sum eta*(u_j) int_Ij A
    total_mass: float          # node variant: sum rho_j int_Ij A
    energy_bound: float        # total energy of the step-0 node states
    slack: float               # bound - total
    clamp_count: int
    vacuum_count: int
    max_rh_residual: float
    max_envelope_violation: float
    max_pre_violation: float
    jump_sum: float            # accumulated int |u(t_k-0) - u(t_k+0)|^2 dx
    jump_ceiling: float
    jump_flag: bool


@dataclass
class RecurrenceAudit:
    """Per-node violations of the discrete energy recurrence for one step."""

    n: int
    js: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    worst_raw: float           # max(0, LHS - RHS)
    worst_slacked: float       # max(0, LHS - RHS - c dx^{3/2})


def correction_R(x, u: GasState, params: SchemeParameters,
                 geom: NozzleGeometry, b: BoundFunction, c: GasConstants):
    """The three-term correction entering the energy recurrence at one
    point: :func:`nozzleflow._traces.correction_R` of one-element arrays.

    Vacuum states contribute zero; every b-term is odd in m, the a-term is
    even (it cancels pairwise in the straight-duct recurrence).
    """
    x, rho, m = (np.array([v], dtype=float) for v in (x, u.rho, u.m))
    return float(_traces.correction_R(x, rho, m, params, c,
                                      get_bundle(geom, b).tables)[0])


def node_areas(state: StaggeredState, params: SchemeParameters, bundle):
    """int_{I_j} A dx for every node j of the state."""
    return _traces.node_areas(state.js, params.dx, bundle.geom.A0,
                              bundle.tables)


class RunNodeAreas:
    """:func:`node_areas` of the states of one run, computed once over each
    j (both parities) from the first state's window widened by one node
    per step on each side, and sliced per state.  The widening is at most
    the window's size, so a long run holds a few windows' areas at a time:
    a state reaching past them is the centre of new ones."""

    def __init__(self, params: SchemeParameters, bundle):
        self._args = (params.dx, bundle.geom.A0, bundle.tables)
        self._n = params.n_steps
        self.lo, self.areas = 0, np.zeros(0)

    def __call__(self, state: StaggeredState):
        js = state.js
        if js[0] < self.lo or js[-1] >= self.lo + self.areas.size:
            pad = min(self._n, js.size)
            self.lo = js[0] - pad
            self.areas = _traces.node_areas(
                np.arange(self.lo, js[-1] + pad + 1), *self._args)
        return self.areas[js[0] - self.lo::2][:js.size]


def total_energy_nodes(state: StaggeredState, areas, gamma):
    """sum_j eta*(u_j^n) int_{I_j} A dx over the window (node variant),
    given the state's :func:`node_areas`."""
    eta = _traces.energy(state.rho, state.m, gamma)
    return _traces.sequential_sum((eta * areas)[state.rho > 0.0])


def total_mass_nodes(state: StaggeredState, areas):
    """sum_j rho_j^n int_{I_j} A dx over the window, given the state's
    :func:`node_areas`."""
    return _traces.sequential_sum(state.rho * areas)


def total_energy_trace(record: StepRecord, t_offset):
    """int A eta*(u^Delta(x, t)) dx from the cell traces (trace variant)."""
    return _traces.energy_trace(record, float(t_offset))


def envelope_violation(state: StaggeredState):
    """Worst post-projection envelope violation over the stored invariants
    of the non-vacuum nodes, against the bounds the state was projected
    onto."""
    viol = np.maximum(state.lo - state.z, state.w - state.up)[state.rho > 0.0]
    return max(0.0, float(viol.max())) if viol.size else 0.0


def _block(steps):
    """The records of consecutive steps ``(new state, record)`` as one
    record for the readers of :mod:`nozzleflow._traces`: their piece tables
    back to back, with the run's parameters and constants."""
    first = steps[0][1]
    return SimpleNamespace(
        pieces=_traces._Pieces.concat([rec.pieces for _, rec in steps]),
        params=first.params, constants=first.constants)


def audit_recurrence(steps, slack_coeff):
    """The audits of consecutive steps ``(new state, record)``: both sides
    of the energy recurrence at every new node (each record's cells, in
    order), from the row of old nodes the step used, each old node's eta,
    q and R once, shared by its two new nodes.  The area terms of all the
    steps' cells are integrated in one pass."""
    block = _block(steps)
    aq = np.split(_traces.cell_aq_integrals(block),
                  block.pieces.first_cell[1:])
    return [_audit(record, new, area, slack_coeff)
            for (new, record), area in zip(steps, aq)]


def _audit(record, state_np1, area, slack_coeff):
    """One step's :class:`RecurrenceAudit`, given its cells' a q*
    integrals ``area``."""
    params, c = record.params, record.constants
    dx, dt = params.dx, params.dt
    jc = record.jcells
    rho, m = record.neighbors
    lhs = _traces.energy(state_np1.rho, state_np1.m, c.gamma)
    x = (jc[0] - 1 + 2 * np.arange(rho.size)) * dx
    eta, q, R = _traces.node_row(x, rho, m, params, c, record.bundle.tables)
    rhs = (0.5 * (eta[:-1] + eta[1:])
           - 0.5 * dt / dx * (q[1:] - q[:-1])
           + (R[1:] - R[:-1]) * dt
           - area / (2.0 * dx))
    raw = np.maximum(lhs - rhs, 0.0)
    slacked = np.maximum(lhs - rhs - slack_coeff * dx ** 1.5, 0.0)
    return RecurrenceAudit(
        n=record.n, js=jc.copy(), lhs=lhs, rhs=rhs,
        worst_raw=float(np.max(raw)), worst_slacked=float(np.max(slacked)))


class _BlockReader:
    """An observer that reads a run's steps :data:`BLOCK` at a time.

    ``on_step`` keeps each step; a full block, and the block that the run's
    last step ends (``record.n + 1 >= record.params.n_steps``, which also
    reads at once a step that a driver takes past ``T``), is read inside
    that ``on_step`` call, so all of a run's monitor work stays inside
    ``scheme.run``.  The results are read after :meth:`_flush`, which
    reads a partial block first, for a driver that reads them before the
    run's last step.  ``worker`` runs each block's ``_read``; a worker
    process hands back the attributes named in ``_worker_state``."""

    def __init__(self):
        self._steps = []
        self.worker = INLINE

    def on_step(self, prev, new, record):
        self._steps.append((new, record))
        if (len(self._steps) == BLOCK
                or record.n + 1 >= record.params.n_steps):
            self._flush()

    def _flush(self):
        if self._steps:
            steps, self._steps = self._steps, []
            self.worker.call(self, "_read", steps)


class EnergyMonitor(_BlockReader):
    """Observer producing an EnergyReport after every step."""

    _worker_state = ("_reports", "_jump_sum", "_j5")

    def __init__(self):
        super().__init__()
        self._reports = []
        self._jump_sum = 0.0
        self._j5 = None

    @property
    def reports(self):
        self._flush()
        return self._reports

    def on_start(self, state, ctx):
        bundle = get_bundle(ctx["geom"], ctx["bound"])
        self._areas = RunNodeAreas(ctx["params"], bundle)
        areas = self._areas(state)
        e0 = total_energy_nodes(state, areas, ctx["constants"].gamma)
        m0 = total_mass_nodes(state, areas)
        self.energy_bound = e0
        self._reports.append(EnergyReport(
            n=0, t=0.0, total_energy=e0, total_mass=m0, energy_bound=e0,
            slack=0.0, clamp_count=0, vacuum_count=0, max_rh_residual=0.0,
            max_envelope_violation=envelope_violation(state),
            max_pre_violation=0.0, jump_sum=0.0, jump_ceiling=math.inf,
            jump_flag=False))

    def _read(self, steps):
        """The reports of a block of steps: its jump integrals and RH
        residuals in one pass each, then step by step."""
        block = _block(steps)
        jumps = _traces.jump_integral(
            block, np.concatenate([new.z for new, _ in steps]),
            np.concatenate([new.w for new, _ in steps]))
        rh = _traces.max_rh_residual(
            block.pieces, np.concatenate([rec.fflag for _, rec in steps]),
            block.params.dt, block.constants)
        for (new, record), jump, res in zip(steps, jumps.tolist(),
                                            rh.tolist()):
            self._report(new, record, jump, res)

    def _report(self, new, record, jump, rh):
        params = record.params
        areas = self._areas(new)
        e = total_energy_nodes(new, areas, record.constants.gamma)
        mass = total_mass_nodes(new, areas)
        self._jump_sum += jump
        n = new.n
        if n == 5:
            self._j5 = self._jump_sum
        if self._j5 is not None and n > 5 and self._j5 > 0.0:
            ceiling = 10.0 * (self._j5 / 5.0) * n
        else:
            ceiling = math.inf
        self._reports.append(EnergyReport(
            n=n, t=n * params.dt, total_energy=e, total_mass=mass,
            energy_bound=self.energy_bound, slack=self.energy_bound - e,
            clamp_count=record.clamp_count, vacuum_count=record.vacuum_count,
            max_rh_residual=rh,
            max_envelope_violation=envelope_violation(new),
            max_pre_violation=record.max_pre_violation,
            jump_sum=self._jump_sum, jump_ceiling=ceiling,
            jump_flag=self._jump_sum > ceiling))

    @property
    def min_slack(self):
        return min(r.slack for r in self.reports)


class RecurrenceAuditor(_BlockReader):
    """Observer accumulating recurrence audits (never aborts a run)."""

    _worker_state = ("_audits",)

    def __init__(self, slack_coeff=1.0):
        super().__init__()
        self.slack_coeff = slack_coeff
        self._audits = []

    @property
    def audits(self):
        self._flush()
        return self._audits

    def _read(self, steps):
        self._audits += audit_recurrence(steps, self.slack_coeff)

    @property
    def worst_raw(self):
        return max((a.worst_raw for a in self.audits), default=0.0)

    @property
    def worst_slacked(self):
        return max((a.worst_slacked for a in self.audits), default=0.0)
