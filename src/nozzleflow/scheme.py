"""The modified staggered Lax-Friedrichs scheme.

Staggered nodes j with j+n even carry projected states; each step builds an
in-cell approximate solution on [(j-1)dx, (j+1)dx) from the neighboring
nodes (rarefaction fans discretized by invariant steps of dx^alpha, steady
profiles with a linear-in-time correction, implicitly solved fronts that
satisfy the Rankine-Hugoniot conditions at the half time, and the
dedicated constructions near vacuum), then averages the end-of-step
trace and projects the invariants back into the x-dependent envelope.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from . import _traces
from .errors import CellBuildError, ConfigError, FrontSolveError
from .gas import GasConstants, GasState, to_invariants
from .nozzle import (BoundFunction, KernelBundle, NozzleGeometry, envelope,
                     get_bundle, SteadyProfile)

_ERR_MSG = {
    _k.ERR_FRONT_CONV: "front fixed-point solve did not converge",
    _k.ERR_FRONT_ORDER: "front speeds lost ordering",
    _k.ERR_GAP_CONV: "gap-fill Newton solve did not converge",
    _k.ERR_ORDERING: "cell boundaries are not ordered",
    _k.ERR_SPEED_BOUND: "front speed exceeds dx/dt",
    _k.ERR_HUGONIOT: "Hugoniot-locus solve failed",
}


@dataclass(frozen=True)
class SchemeParameters:
    """Mesh and exponent parameters; dx/dt = 2 M e^{max(I+, I-)}."""

    dx: float
    dt: float
    alpha: float
    beta: float
    delta: float
    M: float
    T: float

    @classmethod
    def create(cls, dx, M, b: BoundFunction, T, c: GasConstants,
               alpha=0.8, beta=0.05, delta=None):
        imax = max(b.I_plus, b.I_minus)
        dt = float(dx) / (2.0 * float(M) * math.exp(imax))
        if delta is None:
            delta = min(1.5, 0.5 * (1.0 + 1.0 / (2.0 * c.theta)))
        p = cls(dx=float(dx), dt=dt, alpha=float(alpha), beta=float(beta),
                delta=float(delta), M=float(M), T=float(T))
        p.validate(c, b)
        return p

    def validate(self, c: GasConstants, b: BoundFunction):
        g = c.gamma
        a, be, de = self.alpha, self.beta, self.delta
        if not 0.5 < a < 1.0:
            raise ConfigError(f"alpha must satisfy 1/2 < alpha < 1, got {a}")
        if be <= 0.0 or be >= a:
            raise ConfigError(f"beta must satisfy 0 < beta < alpha, got {be}")
        if not 0.5 + be / 2.0 < a:
            raise ConfigError("need 1/2 + beta/2 < alpha")
        if not a < 1.0 - 2.0 * be:
            raise ConfigError("need alpha < 1 - 2 beta")
        if not be < 2.0 / (g + 5.0):
            raise ConfigError("need beta < 2/(gamma+5)")
        if not (9.0 - 3.0 * g) * be / 2.0 < a:
            raise ConfigError("need (9-3 gamma) beta/2 < alpha")
        if not 1.0 < de < 1.0 / (2.0 * c.theta):
            raise ConfigError(
                f"delta must satisfy 1 < delta < 1/(2 theta), got {de}")
        ratio = 2.0 * self.M * math.exp(max(b.I_plus, b.I_minus))
        if abs(self.dx / self.dt - ratio) > 1e-12 * ratio:
            raise ConfigError("dx/dt must equal 2 M exp(max(I+, I-))")
        if self.T < 0.0 or self.dx <= 0.0 or self.M <= 0.0:
            raise ConfigError("dx, M must be positive and T nonnegative")

    def par_array(self, c: GasConstants):
        """Packed parameters, as a read-only kernel input (a list of
        floats, see ``_build_cells``)."""
        return np.array([c.gamma, c.theta, self.dx, self.dt, self.alpha,
                         self.beta, self.delta, self.M]).tolist()

    @property
    def n_steps(self):
        return int(math.ceil(self.T / self.dt - 1e-12)) if self.T > 0 else 0


@dataclass
class StaggeredState:
    """Node states at one time level; nodes at j = j0 + 2*i, (j0+n) even."""

    n: int
    j0: int
    rho: np.ndarray
    m: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if (self.j0 + self.n) % 2 != 0:
            raise ValueError("j0 + n must be even")

    @property
    def js(self):
        return self.j0 + 2 * np.arange(self.rho.size)


@dataclass(frozen=True)
class FanDescriptor:
    """Piecewise-constant rarefaction fan in invariant space."""

    p: int
    z_stars: np.ndarray
    w_L: float
    speeds: np.ndarray


def build_fan(u_L: GasState, z_M, params: SchemeParameters,
              c: GasConstants) -> FanDescriptor:
    """Targets z*_1 = z_L, ..., z*_p = z_M with interior steps of dx^alpha
    (the closing step carries the remainder), and the jump speeds
    lam1(z*_i, z*_{i+1}, w_L) = v(z*_i, w_L) - S(rho_{i+1}, rho_i): the
    targets and first-guess speeds of the step's fan chain
    (``_kernels.fan_chain_k``)."""
    iv = to_invariants(u_L, c)
    z_L, w_L = iv.z, iv.w
    z_M = float(z_M)
    if z_M < z_L - 1e-13 * (1.0 + abs(z_L)):
        raise ValueError(f"z_M={z_M} < z_L={z_L}: not a 1-rarefaction")
    h = _k.pow_g(params.dx, params.alpha)
    span = z_M - z_L
    z_stars = [z_L]
    if span <= 1e-13 * (1.0 + abs(z_L) + abs(z_M)):
        z_stars.append(z_M)
    else:
        k = _k.fan_interval_count(span, h)
        z_stars += [_k.fan_target(z_L, z_M, h, i, k) for i in range(1, k + 1)]
    speeds = [_k.fan_jump_speed(z_stars[i], z_stars[i + 1], w_L, c.gamma,
                                c.theta) for i in range(len(z_stars) - 1)]
    return FanDescriptor(p=len(z_stars), z_stars=np.array(z_stars), w_L=w_L,
                         speeds=np.array(speeds))


def solve_front(left_profile: SteadyProfile, z_target, sigma_prev, j,
                params: SchemeParameters, geom: NozzleGeometry,
                b: BoundFunction, c: GasConstants, sigma0=None):
    """Implicit front solve: find (sigma, u) with z(u) = z_target and the
    Rankine-Hugoniot conditions holding at the half time against the
    time-corrected left profile evaluated at x = j dx + sigma dt/2."""
    bundle = get_bundle(geom, b)
    xc = j * params.dx
    if sigma0 is None:
        ul = left_profile(xc, c)
        rt, _ = _k.state_k(z_target, left_profile.w_d, c.theta)
        sigma0 = ul.v - _k.lax_S_k(rt, ul.rho, c.gamma)
    q = left_profile.piece_params(1.0)
    sigma, r_u, m_u, st = _k.solve_front_k(
        _k.K_PROFILE, q, float(z_target), float(sigma_prev), float(sigma0),
        xc, params.dt, bundle.geo, c.gamma, c.theta, params.dx / params.dt)
    if st == _k.ERR_FRONT_ORDER:
        raise FrontSolveError(
            f"front speed {sigma} not above predecessor {sigma_prev}",
            sigma=sigma)
    if st != _k.OK:
        raise FrontSolveError(_ERR_MSG.get(st, "front solve failed"),
                              sigma=sigma)
    return sigma, GasState(r_u, m_u)


def project_node(E: GasState, j, params: SchemeParameters, b: BoundFunction,
                 c: GasConstants) -> GasState:
    """Vacuum threshold (rho average below dx^delta) plus the invariant
    clamp onto the x-dependent envelope at the node position: the step's
    projection (``_traces.project``) at one node."""
    lo, up = envelope(params.M, b, np.array([j * params.dx]))
    rho, m, _z, _w, _stats = _traces.project(
        np.array([E.rho]), np.array([E.m]), lo, up, params, c)
    return GasState(rho[0], m[0])


# ---------------------------------------------------------------------------
# cell solutions (typed views over the packed kernel records)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    kind: int
    params: np.ndarray

    @property
    def kind_name(self):
        return {_k.K_CONST: "constant", _k.K_PROFILE: "profile",
                _k.K_RAREF1: "rarefaction-1", _k.K_RAREF2: "rarefaction-2"}[self.kind]


@dataclass(frozen=True)
class Front:
    speed: float
    left: int
    right: int


@dataclass
class CellSolution:
    """Piecewise description of the in-cell approximate solution."""

    j: int
    n: int
    params: SchemeParameters
    constants: GasConstants
    bundle: KernelBundle
    kinds: np.ndarray
    pars: np.ndarray
    speeds: np.ndarray          # n_pieces - 1 boundary ray speeds
    is_front: np.ndarray
    case: int
    subcase: int

    @property
    def xc(self):
        return self.j * self.params.dx

    @property
    def pieces(self):
        return [Piece(int(self.kinds[i]), self.pars[i])
                for i in range(self.kinds.size)]

    @property
    def fronts(self):
        return [Front(float(self.speeds[i]), i, i + 1)
                for i in range(self.speeds.size) if self.is_front[i] == 1]

    def trace(self, x, t_offset) -> GasState:
        rho, m = _k.eval_cell(self.kinds, self.pars, self.speeds,
                              self.kinds.size, self.xc, float(x),
                              float(t_offset), self.bundle.geo,
                              self.constants.gamma, self.constants.theta)
        return GasState(rho, m)

    def _packed(self):
        """(jcells, offs, ncount) of this cell as a one-cell step record."""
        nn = self.kinds.size
        return (np.array([self.j], dtype=np.int64),
                np.array([0, nn], dtype=np.int64),
                np.array([nn], dtype=np.int64))

    def max_rh_residual(self):
        """Worst half-time RH residual over the solved fronts."""
        return _traces.max_rh_residual(
            *self._packed(), self.kinds, self.pars, self.speeds,
            self.is_front, self.params.dx, self.params.dt, self.constants,
            self.bundle.tables)

    def average(self) -> GasState:
        """End-of-step cell average (pre-projection), as the step computes
        it.  Step arrays hold a ray-speed slot per piece, the last one
        unused, hence the padded speeds."""
        e_r, e_m = _traces.cell_averages(
            *self._packed(), self.kinds, self.pars,
            np.append(self.speeds, 0.0), self.params, self.constants,
            self.bundle.tables)
        return GasState(max(e_r[0], 0.0), e_m[0])


def cell_average(cell: CellSolution) -> GasState:
    """Average of the cell trace at the end of the step (spec operation)."""
    return cell.average()


# ---------------------------------------------------------------------------
# step records and the advance loop
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    """Packed cell constructions for one step n -> n+1, plus counters.

    ``neighbors`` are the (lrho, lm, rrho, rm) node states of step n left
    and right of each cell, as ``gather_neighbors`` returned them; the
    cells are the nodes of step n+1, in order."""

    n: int
    jcells: np.ndarray
    neighbors: tuple
    offs: np.ndarray
    ncount: np.ndarray
    kinds: np.ndarray
    pars: np.ndarray
    spds: np.ndarray
    fflag: np.ndarray
    ccase: np.ndarray
    csub: np.ndarray
    cclamp: np.ndarray
    clamp_count: int
    vacuum_count: int
    inversion_count: int
    max_pre_violation: float
    params: SchemeParameters
    constants: GasConstants
    bundle: KernelBundle
    _rh: float = field(default=None, repr=False)

    def cell_solutions(self):
        out = []
        for ci in range(self.jcells.size):
            o, nn = self.offs[ci], self.ncount[ci]
            out.append(CellSolution(
                j=int(self.jcells[ci]), n=self.n, params=self.params,
                constants=self.constants, bundle=self.bundle,
                kinds=self.kinds[o:o + nn].copy(),
                pars=self.pars[o:o + nn].copy(),
                speeds=self.spds[o:o + nn - 1].copy(),
                is_front=self.fflag[o:o + nn - 1].copy(),
                case=int(self.ccase[ci]), subcase=int(self.csub[ci])))
        return out

    def max_rh_residual(self):
        if self._rh is None:
            self._rh = _traces.max_rh_residual(
                self.jcells, self.offs, self.ncount, self.kinds, self.pars,
                self.spds, self.fflag, self.params.dx, self.params.dt,
                self.constants, self.bundle.tables)
        return self._rh


def _window_bounds(n, W0):
    half = W0 + n + 4
    j_lo = -half
    if (j_lo + n) % 2 != 0:
        j_lo -= 1
    j_hi = half
    if (j_hi + n) % 2 != 0:
        j_hi += 1
    return j_lo, j_hi


@dataclass
class Mesh:
    """Window bookkeeping shared by the driver."""

    W0: int
    ambient_left: GasState
    ambient_right: GasState


def initialize(u0, params: SchemeParameters, geom: NozzleGeometry,
               b: BoundFunction, c: GasConstants, cutoff=True,
               safety=1e-9):
    """Cell averages of the (cut-off) initial data, projected onto nodes.

    Returns (state, mesh).  Raises ConfigError when the data violate the
    invariant-envelope bounds beyond the safety tolerance.
    """
    dx = params.dx
    extent = max(geom.X, getattr(u0, "extent", geom.X))
    # envelope check on a sample grid
    xs = np.linspace(-extent - 2 * dx, extent + 2 * dx, 2001)
    rho, m = u0.eval(xs)
    z, w = _traces.invariants(rho, m, c.theta)
    lo, up = envelope(params.M, b, xs)
    viol = np.maximum(lo - z, w - up)
    i = int(np.argmax(viol))
    if viol[i] > safety * params.M:
        raise ConfigError(
            f"initial data violate the invariant-envelope bounds by "
            f"{viol[i]:.3e} at x={xs[i]:.6g}; increase M or rescale the data")

    js, er, em, mesh = initial_averages(u0, params, geom, cutoff)
    r, mm, zz, ww, _stats = _traces.project(
        np.maximum(er, 0.0), em, *envelope(params.M, b, js * dx), params, c)
    return StaggeredState(n=0, j0=int(js[0]), rho=r, m=mm, z=zz, w=ww), mesh


def initial_averages(u0, params: SchemeParameters, geom: NozzleGeometry,
                     cutoff=True):
    """Step-0 window: node indices js, the averages (rho, m) of the
    (cut-off) initial data over [(j-1) dx, (j+1) dx], not projected, and
    the mesh with its frozen ambient states."""
    dx = params.dx
    X = geom.X
    extent = max(X, getattr(u0, "extent", X))
    W0 = int(math.ceil(extent / dx))
    j_lo, j_hi = _window_bounds(0, W0)
    js = np.arange(j_lo, j_hi + 1, 2)
    er = np.zeros(js.size)
    em = np.zeros(js.size)
    cut = X if cutoff else math.inf
    for i, j in enumerate(js):
        a_edge = (j - 1) * dx
        b_edge = (j + 1) * dx
        hi = min(b_edge, cut)
        if hi > a_edge:
            er[i], em[i] = u0.average(a_edge, hi)
            f = (hi - a_edge) / (b_edge - a_edge)
            er[i] *= f
            em[i] *= f
    amb_r = GasState(0.0, 0.0) if cutoff else u0.ambient_right
    mesh = Mesh(W0=W0, ambient_left=u0.ambient_left, ambient_right=amb_r)
    return js, er, em, mesh


def select_M(u0, b: BoundFunction, c: GasConstants, safety=1.01,
             n_samples=4001):
    """Smallest M satisfying the invariant-envelope bounds on a sample
    grid, times a safety factor."""
    extent = getattr(u0, "extent", 1.0)
    xs = np.linspace(-extent - 1.0, extent + 1.0, n_samples)
    rho, m = u0.eval(xs)
    B = b.B(xs)
    z, w = _traces.invariants(rho, m, c.theta)
    worst = max(0.0, float(np.max(-z * _traces.exp(B))),
                float(np.max(w * _traces.exp(-B))))
    if worst <= 0.0:
        worst = 1.0
    return safety * worst


def gather_neighbors(state: StaggeredState, jcells, mesh: Mesh):
    """Left/right node states for the cells centered at jcells, with the
    frozen ambient values beyond the window."""
    nn_old = state.rho.size
    il = (jcells - 1 - state.j0) // 2
    ok_l = (il >= 0) & (il < nn_old)
    ilc = np.clip(il, 0, nn_old - 1)
    lrho = np.where(ok_l, state.rho[ilc], mesh.ambient_left.rho)
    lm = np.where(ok_l, state.m[ilc], mesh.ambient_left.m)
    ir = (jcells + 1 - state.j0) // 2
    ok_r = (ir >= 0) & (ir < nn_old)
    irc = np.clip(ir, 0, nn_old - 1)
    rrho = np.where(ok_r, state.rho[irc], mesh.ambient_right.rho)
    rm = np.where(ok_r, state.m[irc], mesh.ambient_right.m)
    return lrho, lm, rrho, rm


def _build_cells(jcells, neighbors, n, params: SchemeParameters,
                 bundle: KernelBundle, c: GasConstants):
    """Pass A (the cell Riemann solves and piece capacities), allocation of
    the packed record, pass B (the cell constructions).

    ``neighbors`` are the (lrho, lm, rrho, rm) arrays of the cells centred
    at jcells.  Returns (offs, kinds, pars, spds, fflag, ncount, ccase,
    csub, cclamp); raises CellBuildError for the first cell that failed.
    """
    C = jcells.size
    par = params.par_array(c)
    rsols = np.empty((C, _k.RSOL_LEN))
    caps = np.empty(C, dtype=np.int64)
    # The kernels read their inputs element by element: as lists they yield
    # Python floats, whose arithmetic costs a fraction of that of the NumPy
    # scalars an ndarray yields.  Outputs stay arrays, filled in place.
    jlist = jcells.tolist()
    _k.build_step_pass_a(jlist, *(a.tolist() for a in neighbors), par,
                         rsols, caps)
    offs = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(caps, out=offs[1:])
    total = int(offs[-1])
    kinds = np.zeros(total, dtype=np.int64)
    pars = np.zeros((total, 6))
    spds = np.zeros(total)
    fflag = np.zeros(total, dtype=np.int64)
    ncount = np.zeros(C, dtype=np.int64)
    ccase = np.zeros(C, dtype=np.int64)
    csub = np.zeros(C, dtype=np.int64)
    cclamp = np.zeros(C, dtype=np.int64)
    cerr = np.zeros(C, dtype=np.int64)
    _k.build_step_pass_b(jlist, rsols.tolist(), offs.tolist(), par,
                         bundle.geo, bundle.geo_reflected, kinds, pars, spds,
                         fflag, ncount, ccase, csub, cclamp, cerr)
    bad = np.nonzero(cerr)[0]
    if bad.size:
        ci = int(bad[0])
        code = int(cerr[ci])
        raise CellBuildError(int(jcells[ci]), n, code,
                             _ERR_MSG.get(code, "cell construction failed"))
    return offs, kinds, pars, spds, fflag, ncount, ccase, csub, cclamp


def advance(state: StaggeredState, params: SchemeParameters,
            geom: NozzleGeometry, b: BoundFunction, c: GasConstants,
            mesh: Mesh):
    """One staggered step: build all cells, average, project.

    Returns (new_state, StepRecord).  Deterministic: cells are independent
    and assembled in index order.
    """
    bundle = get_bundle(geom, b)
    n = state.n
    j_lo, j_hi = _window_bounds(n + 1, mesh.W0)
    jcells = np.arange(j_lo, j_hi + 1, 2, dtype=np.int64)
    neighbors = gather_neighbors(state, jcells, mesh)
    (offs, kinds, pars, spds, fflag, ncount, ccase, csub,
     cclamp) = _build_cells(jcells, neighbors, n, params, bundle, c)
    out_rho, out_m, out_z, out_w, stats = _traces.average_project(
        jcells, offs, ncount, kinds, pars, spds, params, c, bundle.tables)
    new_state = StaggeredState(n=n + 1, j0=int(jcells[0]), rho=out_rho,
                               m=out_m, z=out_z, w=out_w)
    record = StepRecord(
        n=n, jcells=jcells, neighbors=neighbors, offs=offs, ncount=ncount,
        kinds=kinds, pars=pars, spds=spds, fflag=fflag, ccase=ccase,
        csub=csub, cclamp=cclamp,
        clamp_count=int(stats[0]), vacuum_count=int(stats[1]),
        inversion_count=int(stats[3]), max_pre_violation=float(stats[2]),
        params=params, constants=c, bundle=bundle)
    return new_state, record


def build_cell(u_left, u_right, j, n, params, geom, b, c) -> CellSolution:
    """Construct one cell, dispatching on rho_M vs dx^beta automatically."""
    bundle = get_bundle(geom, b)
    neighbors = tuple(np.array([v]) for v in (u_left.rho, u_left.m,
                                              u_right.rho, u_right.m))
    (_offs, kinds, pars, spds, fflag, ncount, ccase, csub,
     _cclamp) = _build_cells(np.array([j], dtype=np.int64), neighbors, n,
                             params, bundle, c)
    nn = int(ncount[0])
    return CellSolution(j=j, n=n, params=params, constants=c, bundle=bundle,
                        kinds=kinds[:nn], pars=pars[:nn], speeds=spds[:nn - 1],
                        is_front=fflag[:nn - 1], case=int(ccase[0]),
                        subcase=int(csub[0]))


def build_cell_vacuum(u_left, u_right, j, n, params, geom, b, c) -> CellSolution:
    """Near-vacuum cell construction; requires rho_M <= dx^beta."""
    packed = _k.riemann_solve_k(u_left.rho, u_left.m, u_right.rho, u_right.m,
                                c.gamma, c.theta)
    if packed[4] > params.dx ** params.beta:
        raise ValueError(
            f"middle density {packed[4]} above the vacuum threshold "
            f"{params.dx ** params.beta}")
    return build_cell(u_left, u_right, j, n, params, geom, b, c)


def run(u0, params: SchemeParameters, geom: NozzleGeometry, b: BoundFunction,
        c: GasConstants, observers=(), cutoff=True):
    """Step n = 0 .. ceil(T/dt), invoking observers after each step.

    Observers receive on_start(state, context) and
    on_step(prev_state, new_state, record); they must treat all arguments
    as read-only.  Returns (final_state, mesh).
    """
    state, mesh = initialize(u0, params, geom, b, c, cutoff=cutoff)
    ctx = {"params": params, "geom": geom, "bound": b, "constants": c}
    for obs in observers:
        start = getattr(obs, "on_start", None)
        if start is not None:
            start(state, ctx)
    for _ in range(params.n_steps):
        new_state, record = advance(state, params, geom, b, c, mesh)
        for obs in observers:
            obs.on_step(state, new_state, record)
        state = new_state
    return state, mesh
