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
from dataclasses import dataclass

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


# The fan step dx^ALPHA and the near-vacuum threshold dx^BETA.  The paper's
# conditions are 1/2 < alpha < 1, 0 < beta < alpha, 1/2 + beta/2 < alpha,
# alpha < 1 - 2 beta, beta < 2/(gamma + 5) and (9 - 3 gamma) beta/2 < alpha;
# this pair meets them at every gamma in (1, 5/3].  The vacuum threshold
# dx^delta takes delta = min(3/2, (1 + 1/(2 theta))/2), which lies in
# (1, 1/(2 theta)) there.
ALPHA = 0.8
BETA = 0.05


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
    def create(cls, dx, M, b: BoundFunction, T, c: GasConstants):
        dx, M, T = float(dx), float(M), float(T)
        if T < 0.0 or dx <= 0.0 or M <= 0.0:
            raise ConfigError("dx, M must be positive and T nonnegative")
        dt = dx / (2.0 * M * math.exp(max(b.I_plus, b.I_minus)))
        if not 0.0 < dt < math.inf:
            raise ConfigError(
                f"keys 'dx', 'm_bound' and 'b_function': dt = dx / (2 M "
                f"exp(max(I+, I-))) is {dt!r}, not positive and finite")
        delta = min(1.5, 0.5 * (1.0 + 1.0 / (2.0 * c.theta)))
        return cls(dx=dx, dt=dt, alpha=ALPHA, beta=BETA, delta=delta, M=M,
                   T=T)

    def par_array(self, c: GasConstants):
        """Packed parameters [gamma, theta, dx, dt, alpha, beta, M], as a
        read-only kernel input (a list of floats, see ``_build_cells``)."""
        return np.array([c.gamma, c.theta, self.dx, self.dt, self.alpha,
                         self.beta, self.M]).tolist()

    @property
    def n_steps(self):
        return int(math.ceil(self.T / self.dt - 1e-12)) if self.T > 0 else 0


@dataclass
class StaggeredState:
    """Node states at one time level; nodes at j = j0 + 2*i, (j0+n) even;
    a projected state keeps the envelope bounds [lo, up] it was clamped to."""

    n: int
    j0: int
    rho: np.ndarray
    m: np.ndarray
    z: np.ndarray
    w: np.ndarray
    lo: np.ndarray = None
    up: np.ndarray = None

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
    return FanDescriptor(p=len(z_stars), z_stars=np.array(z_stars),
                         speeds=np.array(speeds))


def solve_front(left_profile: SteadyProfile, z_target, sigma_prev, j,
                params: SchemeParameters, geom: NozzleGeometry,
                b: BoundFunction, c: GasConstants):
    """Implicit front solve from the Lax shock speed: find (sigma, u) with
    z(u) = z_target and the Rankine-Hugoniot conditions holding at the half
    time against the time-corrected left profile at x = j dx + sigma dt/2."""
    bundle = get_bundle(geom, b)
    xc = j * params.dx
    ul = left_profile(xc, c)
    rt, _ = _k.state_k(z_target, left_profile.w_d, c.theta)
    sigma0 = ul.v - _k.lax_S_k(rt, ul.rho, c.gamma)
    q = left_profile.piece_params()
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
                              self.constants.theta)
        return GasState(rho, m)

    def _pieces(self):
        """This cell's piece table; a table holds a ray speed per piece, 0.0
        on a cell's last piece, hence the appended speed."""
        return _traces._Pieces(
            np.array([self.j], dtype=np.int64),
            np.array([self.kinds.size], dtype=np.int64), self.kinds,
            self.pars, np.append(self.speeds, 0.0), self.params.dx,
            self.bundle.tables, self.constants.theta)

    def max_rh_residual(self):
        """Worst half-time RH residual over the solved fronts."""
        return _traces.max_rh_residual(self._pieces(), self.is_front,
                                       self.params.dt, self.constants)

    def average(self) -> GasState:
        """End-of-step cell average (pre-projection), as the step computes
        it."""
        e_r, e_m = _traces.cell_averages(self._pieces(), self.params,
                                         self.constants)
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

    ``neighbors`` is the row (rho, m) of step n's nodes with the frozen
    ambient states at both ends, as ``gather_neighbors`` returned it; the
    cells are the nodes of step n+1, in order, and cell i lies between
    row entries i and i + 1.  ``pieces`` is the step's piece table, the one
    owner of the cells and their pieces; ``fflag`` flags each piece's ray
    to its right that is a solved front, and ``ccase``, ``csub`` give each
    cell's case and sub-case."""

    n: int
    neighbors: tuple
    pieces: _traces._Pieces
    fflag: np.ndarray
    ccase: np.ndarray
    csub: np.ndarray
    clamp_count: int
    vacuum_count: int
    max_pre_violation: float
    params: SchemeParameters
    constants: GasConstants
    bundle: KernelBundle

    @property
    def jcells(self):
        """The cells' centres j, the nodes of step n+1."""
        return self.pieces.jcells

    def cell_solutions(self):
        return _cell_solutions(self.pieces, self.fflag, self.ccase,
                               self.csub, self.n, self.params, self.constants,
                               self.bundle)

    def max_rh_residual(self):
        return _traces.max_rh_residual(self.pieces, self.fflag,
                                       self.params.dt, self.constants)


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


def window_extent(u0, geom: NozzleGeometry):
    """Half-width in x of the step-0 window: the initial data's extent,
    at least X.  The window reaches j = +-ceil(window_extent / dx)."""
    return max(geom.X, u0.extent)


def initialize(u0, params: SchemeParameters, geom: NozzleGeometry,
               b: BoundFunction, c: GasConstants, cutoff=True):
    """Cell averages of the (cut-off) initial data, projected onto nodes.

    Returns (state, mesh).  Raises ConfigError when the data violate the
    invariant-envelope bounds by more than 1e-9 M.
    """
    dx = params.dx
    extent = window_extent(u0, geom)
    # envelope check on a sample grid
    xs = np.linspace(-extent - 2 * dx, extent + 2 * dx, 2001)
    rho, m = u0.eval(xs)
    z, w = _traces.invariants(rho, m, c.theta)
    lo, up = envelope(params.M, b, xs)
    viol = np.maximum(lo - z, w - up)
    i = int(np.argmax(viol))
    if viol[i] > 1e-9 * params.M:
        raise ConfigError(
            f"initial data violate the invariant-envelope bounds by "
            f"{viol[i]:.3e} at x={xs[i]:.6g}; increase M or rescale the data")

    js, er, em, mesh = initial_averages(u0, params, geom, cutoff)
    lo, up = envelope(params.M, b, js * dx)
    r, mm, zz, ww, _stats = _traces.project(np.maximum(er, 0.0), em, lo, up,
                                            params, c)
    return StaggeredState(n=0, j0=int(js[0]), rho=r, m=mm, z=zz, w=ww,
                          lo=lo, up=up), mesh


def initial_averages(u0, params: SchemeParameters, geom: NozzleGeometry,
                     cutoff=True):
    """Step-0 window: node indices js, the averages (rho, m) of the
    (cut-off) initial data over [(j-1) dx, (j+1) dx], not projected, and
    the mesh with its frozen ambient states."""
    dx = params.dx
    W0 = int(math.ceil(window_extent(u0, geom) / dx))
    j_lo, j_hi = _window_bounds(0, W0)
    js = np.arange(j_lo, j_hi + 1, 2)
    er = np.zeros(js.size)
    em = np.zeros(js.size)
    cut = geom.X if cutoff else math.inf
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


def select_M(u0, b: BoundFunction, c: GasConstants, safety=1.01):
    """Smallest M satisfying the invariant-envelope bounds on a grid of
    4001 samples, times a safety factor."""
    xs = np.linspace(-u0.extent - 1.0, u0.extent + 1.0, 4001)
    rho, m = u0.eval(xs)
    B = b.B(xs)
    z, w = _traces.invariants(rho, m, c.theta)
    worst = max(0.0, float(np.max(-z * _traces.exp(B))),
                float(np.max(w * _traces.exp(-B))))
    if worst <= 0.0:
        worst = 1.0
    return safety * worst


def gather_neighbors(state: StaggeredState, jcells, mesh: Mesh):
    """The row (rho, m) of the cells centred at jcells: the state's nodes
    with the frozen ambient states at both ends, so that cell i lies
    between row entries i and i + 1.  The cells must be the next step's
    window, one node wider than the state's on each side."""
    if jcells[0] != state.j0 - 1 or jcells.size != state.rho.size + 1:
        raise ValueError(
            f"cells from j = {jcells[0]} ({jcells.size} cells) are not the "
            f"step after nodes from j = {state.j0} ({state.rho.size} nodes)")
    amb_l, amb_r = mesh.ambient_left, mesh.ambient_right
    return (np.concatenate(([amb_l.rho], state.rho, [amb_r.rho])),
            np.concatenate(([amb_l.m], state.m, [amb_r.m])))


def _build_cells(jcells, neighbors, n, params: SchemeParameters,
                 bundle: KernelBundle, c: GasConstants):
    """Pass A (the cell Riemann solves), then pass B (the cell
    constructions), into the step's piece table.

    ``neighbors`` is the row (rho, m) of the cells centred at jcells, one
    entry longer than jcells: cell i lies between entries i and i + 1.
    Returns (pieces, fflag, ccase, csub): the ``_traces._Pieces`` of the
    cells, each piece's front flag, and each cell's case and sub-case;
    raises CellBuildError for the first cell that failed.
    """
    par = params.par_array(c)
    # The kernels read their inputs element by element and append to their
    # outputs: as lists the inputs yield Python floats, whose arithmetic
    # costs a fraction of that of the NumPy scalars an ndarray yields.
    jlist = jcells.tolist()
    rsols = []
    _k.build_step_pass_a(jlist, *(a.tolist() for a in neighbors), par,
                         rsols)
    # pass B's offs (each cell's first piece) is dropped: ncount has it
    offs, kinds, pars, spds, fflag = [], [], [], [], []
    ncount, ccase, csub, cerr = [], [], [], []
    _k.build_step_pass_b(jlist, rsols, offs, par, bundle.geo,
                         bundle.geo_reflected, kinds, pars, spds, fflag,
                         ncount, ccase, csub, cerr)
    for ci, code in enumerate(cerr):
        if code != _k.OK:
            msg = _ERR_MSG.get(code, "cell construction failed")
            raise CellBuildError(jlist[ci], n, code, msg)
    ints = lambda a: np.array(a, dtype=np.int64)
    pieces = _traces._Pieces(
        jcells, ints(ncount), ints(kinds),
        np.array(pars, dtype=float).reshape(-1, 6),
        np.array(spds, dtype=float), params.dx, bundle.tables, c.theta)
    return pieces, ints(fflag), ints(ccase), ints(csub)


def _cell_solutions(pcs, fflag, ccase, csub, n, params, c, bundle):
    """The cells of the piece table ``pcs`` as CellSolutions, each with
    copies of its pieces' arrays."""
    return [CellSolution(
                j=int(pcs.jcells[ci]), n=n, params=params, constants=c,
                bundle=bundle, kinds=pcs.kinds[sl].copy(),
                pars=pcs.q[sl].copy(), speeds=pcs.spds[sl][:-1].copy(),
                is_front=fflag[sl][:-1].copy(), case=int(ccase[ci]),
                subcase=int(csub[ci]))
            for ci, sl in enumerate(pcs.cell_slices())]


def advance(state: StaggeredState, params: SchemeParameters,
            geom: NozzleGeometry, b: BoundFunction, c: GasConstants,
            mesh: Mesh):
    """One staggered step: build all cells and their piece table, average,
    project.

    Returns (new_state, StepRecord).  Deterministic: cells are independent
    and assembled in index order.
    """
    bundle = get_bundle(geom, b)
    n = state.n
    j_lo, j_hi = _window_bounds(n + 1, mesh.W0)
    jcells = np.arange(j_lo, j_hi + 1, 2, dtype=np.int64)
    neighbors = gather_neighbors(state, jcells, mesh)
    pieces, fflag, ccase, csub = _build_cells(jcells, neighbors, n, params,
                                              bundle, c)
    rho, m, z, w, lo, up, stats = _traces.average_project(jcells, pieces,
                                                          params, c)
    new_state = StaggeredState(n=n + 1, j0=int(jcells[0]), rho=rho, m=m,
                               z=z, w=w, lo=lo, up=up)
    record = StepRecord(
        n=n, neighbors=neighbors, pieces=pieces, fflag=fflag, ccase=ccase,
        csub=csub, clamp_count=int(stats[0]), vacuum_count=int(stats[1]),
        max_pre_violation=float(stats[2]),
        params=params, constants=c, bundle=bundle)
    return new_state, record


def build_cell(u_left, u_right, j, n, params, geom, b, c) -> CellSolution:
    """Construct one cell, dispatching on rho_M vs dx^beta automatically."""
    bundle = get_bundle(geom, b)
    neighbors = (np.array([u_left.rho, u_right.rho]),
                 np.array([u_left.m, u_right.m]))
    cells = _build_cells(np.array([j], dtype=np.int64), neighbors, n, params,
                         bundle, c)
    return _cell_solutions(*cells, n, params, c, bundle)[0]


def build_cell_vacuum(u_left, u_right, j, n, params, geom, b, c) -> CellSolution:
    """Near-vacuum cell construction; requires rho_M <= dx^beta."""
    packed = _k.riemann_solve_k(u_left.rho, u_left.m, u_right.rho, u_right.m,
                                c.gamma, c.theta)
    thr = _k.pow_g(params.dx, params.beta)
    if packed[4] > thr:
        raise ValueError(
            f"middle density {packed[4]} above the vacuum threshold {thr}")
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
