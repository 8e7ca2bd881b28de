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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from . import _traces
from .gas import GasConstants, GasState
from .nozzle import BoundFunction, NozzleGeometry, envelope, get_bundle
from .scheme import (Mesh, SchemeParameters, StaggeredState, StepRecord,
                     gather_neighbors)


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
    worst_j: int
    slack_coeff: float


def correction_R(x, u: GasState, params: SchemeParameters,
                 geom: NozzleGeometry, b: BoundFunction, c: GasConstants):
    """The three-term correction entering the energy recurrence.

    Vacuum states contribute zero; every b-term is odd in m, the a-term is
    even (it cancels pairwise in the straight-duct recurrence).
    """
    if u.is_vacuum:
        return 0.0
    g = c.gamma
    th = c.theta
    rho, m = u.rho, u.m
    geo = get_bundle(geom, b).geo
    bx = _k.geo_b(geo, x)
    ax = _k.geo_a(geo, x)
    rt = _k.pow_g(rho, th)
    t1 = -(params.dx / (4.0 * params.dt)) * bx * (
        3.0 / (g - 1.0) * rt * m + m ** 3 / (2.0 * _k.pow_g(rho, th + 2.0)))
    t2 = (params.dt / (4.0 * params.dx)) * ax * (
        g / (g - 1.0) * _k.pow_g(rho, 2.0 * th) * m * m / rho
        + 0.5 * m ** 4 / rho ** 3)
    t3 = -(params.dt / (4.0 * params.dx)) * bx * (
        (g + th + 1.0) / ((g - 1.0) * th) * m * _k.pow_g(rho, 3.0 * th)
        + (g + 3.0 * th + 4.0) / (2.0 * th) * m ** 3 * rt / rho ** 2
        + m ** 5 / (2.0 * _k.pow_g(rho, th + 4.0)))
    return t1 + t2 + t3


def node_areas(state: StaggeredState, params: SchemeParameters, bundle):
    """int_{I_j} A dx for every node j of the state."""
    return _traces.node_areas(state.js, params.dx, bundle.geom.A0,
                              bundle.tables)


def total_energy_nodes(state: StaggeredState, geom: NozzleGeometry,
                       b: BoundFunction, c: GasConstants,
                       params: SchemeParameters, areas=None):
    """sum_j eta*(u_j^n) int_{I_j} A dx over the window (node variant);
    ``areas`` defaults to :func:`node_areas`."""
    if areas is None:
        areas = node_areas(state, params, get_bundle(geom, b))
    eta, _q = _traces.eta_q(state.rho, state.m, c.gamma)
    return _traces.sequential_sum((eta * areas)[state.rho > 0.0])


def total_mass_nodes(state: StaggeredState, geom: NozzleGeometry,
                     b: BoundFunction, c: GasConstants,
                     params: SchemeParameters, areas=None):
    """sum_j rho_j^n int_{I_j} A dx over the window; ``areas`` defaults to
    :func:`node_areas`."""
    if areas is None:
        areas = node_areas(state, params, get_bundle(geom, b))
    return _traces.sequential_sum(state.rho * areas)


def total_energy_trace(record: StepRecord, t_offset):
    """int A eta*(u^Delta(x, t)) dx from the cell traces (trace variant)."""
    return _traces.energy_trace(record, float(t_offset))


def envelope_violation(state: StaggeredState, params: SchemeParameters,
                       bundle, c: GasConstants):
    """Worst post-projection envelope violation over the stored invariants
    of the non-vacuum nodes."""
    lo, up = envelope(params.M, bundle.bound, state.js * params.dx)
    viol = np.maximum(lo - state.z, state.w - up)[state.rho > 0.0]
    return max(0.0, float(viol.max())) if viol.size else 0.0


def audit_recurrence(record: StepRecord, state_n: StaggeredState,
                     state_np1: StaggeredState, geom: NozzleGeometry,
                     b: BoundFunction, c: GasConstants, mesh: Mesh,
                     slack_coeff=1.0) -> RecurrenceAudit:
    """Evaluate both sides of the energy recurrence at every new node."""
    params = record.params
    dx, dt = params.dx, params.dt
    jc = record.jcells
    lrho, lm, rrho, rm = gather_neighbors(state_n, jc, mesh)
    i_new = np.array([state_np1.index_of(j) for j in jc.tolist()], dtype=int)
    lhs, _q = _traces.eta_q(state_np1.rho[i_new], state_np1.m[i_new], c.gamma)
    eta_l, q_l = _traces.eta_q(lrho, lm, c.gamma)
    eta_r, q_r = _traces.eta_q(rrho, rm, c.gamma)

    def node_R(offset, rho, m):
        return np.array([correction_R((j + offset) * dx, GasState(r, mm),
                                      params, geom, b, c)
                         for j, r, mm in zip(jc.tolist(), rho.tolist(),
                                             m.tolist())])

    rhs = (0.5 * (eta_l + eta_r)
           - 0.5 * dt / dx * (q_r - q_l)
           + (node_R(1, rrho, rm) - node_R(-1, lrho, lm)) * dt
           - _traces.cell_aq_integrals(record) / (2.0 * dx))
    raw = np.maximum(lhs - rhs, 0.0)
    slacked = np.maximum(lhs - rhs - slack_coeff * dx ** 1.5, 0.0)
    worst_i = int(np.argmax(raw))
    return RecurrenceAudit(
        n=record.n, js=jc.copy(), lhs=lhs, rhs=rhs,
        worst_raw=float(raw[worst_i]), worst_slacked=float(np.max(slacked)),
        worst_j=int(jc[worst_i]), slack_coeff=slack_coeff)


class EnergyMonitor:
    """Observer producing an EnergyReport after every step."""

    def __init__(self, ceiling_factor=10.0):
        self.ceiling_factor = ceiling_factor
        self.reports = []
        self._jump_sum = 0.0
        self._j5 = None

    def on_start(self, state, ctx):
        params = ctx["params"]
        geom, b, c = ctx["geom"], ctx["bound"], ctx["constants"]
        bundle = get_bundle(geom, b)
        self._ctx = ctx
        areas = node_areas(state, params, bundle)
        e0 = total_energy_nodes(state, geom, b, c, params, areas)
        m0 = total_mass_nodes(state, geom, b, c, params, areas)
        self.energy_bound = e0
        self.reports.append(EnergyReport(
            n=0, t=0.0, total_energy=e0, total_mass=m0, energy_bound=e0,
            slack=0.0, clamp_count=0, vacuum_count=0, max_rh_residual=0.0,
            max_envelope_violation=envelope_violation(state, params, bundle, c),
            max_pre_violation=0.0, jump_sum=0.0, jump_ceiling=math.inf,
            jump_flag=False))

    def on_step(self, prev, new, record: StepRecord):
        ctx = self._ctx
        params, geom, b, c = (ctx["params"], ctx["geom"], ctx["bound"],
                              ctx["constants"])
        bundle = record.bundle
        areas = node_areas(new, params, bundle)
        e = total_energy_nodes(new, geom, b, c, params, areas)
        mass = total_mass_nodes(new, geom, b, c, params, areas)
        jump = _traces.jump_integral(record, new.z, new.w)
        self._jump_sum += jump
        n = new.n
        if n == 5:
            self._j5 = self._jump_sum
        if self._j5 is not None and n > 5 and self._j5 > 0.0:
            ceiling = self.ceiling_factor * (self._j5 / 5.0) * n
        else:
            ceiling = math.inf
        self.reports.append(EnergyReport(
            n=n, t=n * params.dt, total_energy=e, total_mass=mass,
            energy_bound=self.energy_bound, slack=self.energy_bound - e,
            clamp_count=record.clamp_count, vacuum_count=record.vacuum_count,
            max_rh_residual=record.max_rh_residual(),
            max_envelope_violation=envelope_violation(new, params, bundle, c),
            max_pre_violation=record.max_pre_violation,
            jump_sum=self._jump_sum, jump_ceiling=ceiling,
            jump_flag=self._jump_sum > ceiling))

    @property
    def min_slack(self):
        return min(r.slack for r in self.reports)


class RecurrenceAuditor:
    """Observer accumulating recurrence audits (never aborts a run)."""

    def __init__(self, slack_coeff=1.0):
        self.slack_coeff = slack_coeff
        self.audits = []

    def on_start(self, state, ctx):
        self._ctx = ctx

    def on_step(self, prev, new, record):
        ctx = self._ctx
        self.audits.append(audit_recurrence(
            record, prev, new, ctx["geom"], ctx["bound"], ctx["constants"],
            ctx["mesh"], self.slack_coeff))

    @property
    def worst_raw(self):
        return max((a.worst_raw for a in self.audits), default=0.0)

    @property
    def worst_slacked(self):
        return max((a.worst_slacked for a in self.audits), default=0.0)
