"""Whole-array evaluation of a step's cell traces: averaging, the invariant
envelope and projection, node areas, the recurrence correction R and the
diagnostics.

The cell averages and the diagnostics integrate the in-cell solutions of a
step at thousands of quadrature nodes.  The step builds its piece table
(``_Pieces``: the pieces, their cells and profile anchors) once, and its
readers here take it; each set of Gauss nodes is evaluated in one call:
all nodes of all pieces at once with NumPy, one row per node, grouped by
piece kind, instead of one scalar kernel call per node.  ``pieces_at``
takes one time offset per point, so the a q* integrals evaluate their nine
space-time nodes per piece in one pass, and a constant piece's q*, the
same at all nine, once.  The envelope (its bounds kept by the projected
state), the projection and the node areas are the package's only
implementations of those quantities, and scalar callers pass one-element
arrays.

The monitors read the tables of consecutive steps back to back
(``_Pieces.concat``, a block of steps; one step is a block of one): the
a q* integrals, the jump integrals and the RH residuals then cost one pass
per block, and return per cell or per step what one pass per step would.
The audit's row of old nodes takes one ``math.log`` per node, shared by
eta*, q* and the five powers of R (``node_row``).

The formulas, their order of operations and the order of every sum are
those of the scalar kernels in :mod:`nozzleflow._kernels` (``eval_piece``,
``profile_at``, ``eta_q_k``, ``flux_k``, ``invariants_k``, ``state_k``),
and ``exp``, ``log`` and integer powers are ``math``'s and Python's,
applied element by element, so the results equal the scalar kernels' bit
for bit.  As in ``profile_at``, the time correction of a profile reads
v = (z + w)/2 and rho^theta = theta (w - z)/2 from its steady invariants,
so a profile value costs two exponentials and one power, its density.  A
profile of a cell inside a flat run of the duct has one value over its
extent (a = b = 0, B constant), so it is evaluated once per piece and that
value broadcast to every node (``_Pieces.once``); the a q* integrals skip
those cells' pieces, whose terms are +-0.0, and the jump integrals the
post-step trace of vacuum nodes, which is the vacuum state.
"""

import math

import numpy as np

from . import _kernels as _k

# Gauss-Legendre nodes and weights on [-1, 1]
_G3X = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_G3W = np.array([0.5555555555555556, 0.8888888888888888, 0.5555555555555556])
_G3W *= 2.0 / _G3W.sum()
_G5X = np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                 0.5384693101056831, 0.9061798459386640])
_G5W = np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                 0.4786286704993665, 0.2369268850561891])


def ppoly_values(table, x):
    """Clamped piecewise-polynomial values at the points x, the package's
    one array evaluator (also ``PiecewisePoly.__call__``); ``table`` is
    PPoly data (xs, c) as in ``_kernels.ppoly_eval``, whose bits it
    keeps."""
    xs, c = table
    n = xs.size - 1
    xx = np.clip(x, xs[0], xs[n])
    i = np.clip(np.searchsorted(xs, xx, side="right") - 1, 0, n - 1)
    t = xx - xs[i]
    acc = np.zeros_like(t)
    for row in c:
        acc = acc * t + row[i]
    return acc


def exp(x):
    """``math.exp`` of an array of any shape, element by element: NumPy's
    vectorized exp may round differently from the scalar kernels'."""
    flat = map(math.exp, x.ravel().tolist())
    return np.fromiter(flat, float, x.size).reshape(x.shape)


def powers(x):
    """The function e -> elementwise ``_kernels.pow_g(x, e)``: exp(e log x),
    zero for x <= 0, from one ``math.log`` per element shared by every e."""
    pos = x > 0.0
    logs = np.fromiter(map(math.log, x[pos].tolist()), float)

    def pw(e):
        out = np.zeros(x.shape)
        out[pos] = exp(e * logs)
        return out
    return pw


def _pow(x, e):
    """Elementwise ``_kernels.pow_g``: exp(e log x), zero for x <= 0."""
    return powers(x)(e)


def _ipow(x, k):
    """Python's ``x ** k`` of a 1-D array, element by element: NumPy's
    integer powers may round differently (``x**2`` included)."""
    return np.fromiter((v ** k for v in x.tolist()), float, x.size)


def _state(z, w, theta):
    t = theta * (w - z) / 2.0
    rho = _pow(t, 1.0 / theta)
    vac = (t <= 0.0) | (rho < _k.RHO_FLOOR)
    return (np.where(vac, 0.0, rho),
            np.where(vac, 0.0, rho * (w + z) / 2.0))


def anchors(kinds, q, tables):
    """B at the anchor of each profile piece (0 for the other kinds), as
    ``_kernels.anchor_B``; callers evaluating pieces repeatedly pass it to
    :func:`pieces_at`."""
    out = np.zeros(kinds.shape)
    prof = kinds == _k.K_PROFILE
    out[prof] = ppoly_values(tables["B"], q[prof, 0])
    return out


def pieces_at(kinds, q, x, tau, tables, theta, Bd=None):
    """(rho, m) of piece i (kind ``kinds[i]``, parameters ``q[i]``) at
    ``(x[i], tau[i])``: ``tau`` is one time offset per point, or one for
    all.  ``tables`` maps "a", "b", "B" to PPoly data; ``Bd`` defaults to
    ``anchors(kinds, q, tables)``."""
    if Bd is None:
        Bd = anchors(kinds, q, tables)
    tau = np.broadcast_to(tau, x.shape)
    rho = np.zeros(x.shape)
    m = np.zeros(x.shape)
    const = kinds == _k.K_CONST
    rho[const] = q[const, 0]
    m[const] = q[const, 1]
    later = tau > 0.0
    for kind, sign in ((_k.K_RAREF1, 1.0), (_k.K_RAREF2, -1.0)):
        sel = np.nonzero((kinds == kind) & later)[0]
        if sel.size:
            xi = (x[sel] - q[sel, 0]) / tau[sel]
            s = theta * (sign * (q[sel, 1] - xi)) / (1.0 + theta)
            r = _pow(s, 1.0 / theta)
            live = s > 0.0
            rho[sel] = np.where(live, r, 0.0)
            m[sel] = np.where(live, r * (xi + sign * s), 0.0)
    sel = np.nonzero(kinds == _k.K_PROFILE)[0]
    if sel.size:
        rho[sel], m[sel] = _profiles_at(q[sel], Bd[sel], x[sel], tau[sel],
                                        tables, theta)
    return rho, m


def _rows_at(kinds, q, Bd, x, tau, tables, theta, once):
    """:func:`pieces_at` of the pieces at every row of the points x (one
    row per quadrature node, one column per piece), in one call over the
    pieces repeated row by row.  The pieces flagged in ``once`` have one
    value over their extent (:attr:`_Pieces.once`): only their first row
    is evaluated, and copied to the other rows.  Without such pieces the
    rows are plain tiles, which spares the masked copies."""
    shape = x.shape
    if not once.any():
        k = shape[0]
        rho, m = pieces_at(np.tile(kinds, k), np.tile(q, (k, 1)), x.ravel(),
                           tau, tables, theta, np.tile(Bd, k))
        return rho.reshape(shape), m.reshape(shape)
    live = np.ones(shape, dtype=bool)
    live[1:, once] = False
    rho = np.empty(shape)
    m = np.empty(shape)
    rho[live], m[live] = pieces_at(
        np.broadcast_to(kinds, shape)[live],
        np.broadcast_to(q, shape + q.shape[1:])[live], x[live], tau, tables,
        theta, np.broadcast_to(Bd, shape)[live])
    rho[1:, once] = rho[0, once]
    m[1:, once] = m[0, once]
    return rho, m


def _profiles_at(q, Bd, x, tau, tables, theta):
    """``_kernels.profile_at`` of the profile pieces q at the points x and
    time offsets tau, one per point."""
    dB = ppoly_values(tables["B"], x) - Bd
    zb = q[:, 1] * exp(q[:, 3] * dB)
    wb = q[:, 2] * exp(q[:, 4] * dB)
    c = theta * (wb - zb) / 2.0
    corr = np.nonzero((q[:, 5] != 0.0) & (tau > 0.0)
                      & (c >= _k.sound_floor(theta)))[0]
    if corr.size:
        xc, qc, zc, wc, c = x[corr], q[corr], zb[corr], wb[corr], c[corr]
        tau = tau[corr]
        vb = (wc + zc) / 2.0
        av = ppoly_values(tables["a"], xc) * vb * c
        bx = ppoly_values(tables["b"], xc)
        zt = -(vb - c) * (qc[:, 3] * bx * zc) - av
        wt = -(vb + c) * (qc[:, 4] * bx * wc) + av
        zb[corr] = zc + tau * zt
        wb[corr] = wc + tau * wt
    rho, m = _state(zb, wb, theta)
    clamped = wb < zb
    return np.where(clamped, 0.0, rho), np.where(clamped, 0.0, m)


def energy(rho, m, gamma, pw=None):
    """The mechanical energy eta*, zero at vacuum; ``pw`` is
    ``powers(rho)``, when the caller has it."""
    ok = rho >= _k.RHO_FLOOR
    r = np.where(ok, rho, 0.0)
    rg = (pw or powers(r))(gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = 0.5 * m * m / r + rg / (gamma * (gamma - 1.0))
    return np.where(ok, eta, 0.0)


def energy_flux(rho, m, gamma, pw=None):
    """The energy flux q*, zero at vacuum; ``pw`` as in :func:`energy`."""
    ok = rho >= _k.RHO_FLOOR
    r = np.where(ok, rho, 0.0)
    rg = (pw or powers(r))(gamma - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = m * (0.5 * m * m / (r * r) + rg / (gamma - 1.0))
    return np.where(ok, q, 0.0)


def flux(rho, m, gamma):
    """The flux (m, m^2/rho + p(rho)), zero at vacuum."""
    ok = rho >= _k.RHO_FLOOR
    r = np.where(ok, rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f2 = m * m / r + _pow(r, gamma) / gamma
    return np.where(ok, m, 0.0), np.where(ok, f2, 0.0)


def source(a, rho, m):
    """The geometry source (a m, a m^2/rho) with the coefficients a, zero
    at vacuum (rho = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(rho > 0, a * m, 0.0),
                np.where(rho > 0, a * m * m / rho, 0.0))


def in_flat_runs(flats, x0, x1):
    """Whether each [x0, x1] lies strictly inside one of the flat runs
    ``flats = (starts, ends)``, as ``_kernels.in_flat_run``."""
    starts, ends = flats
    if not starts.size:
        return np.zeros(x0.shape, dtype=bool)
    i = np.searchsorted(starts, x0) - 1
    return (i >= 0) & (x1 < ends[i])


class _Pieces:
    """Every piece of the cells ``jcells`` (their pieces back to back) with
    its cell: cell index, centre, whether it is the first or last piece of
    its cell, its kind, parameters ``q`` and ray speed ``spds`` (0.0 on a
    cell's last piece), and the profile anchors ``Bd``.  A step builds one
    table, which every reader of the step takes.

    ``straight`` flags the pieces of cells inside a flat run of the duct
    (``tables["flats"]``), where a = b = 0 and B is one constant, and
    ``once`` those of them that are profiles: such a profile's value does
    not depend on x, so the readers evaluate it at one node per piece.  The
    cell [xc - dx, xc + dx] is widened by dx/1e6 on each side for this
    test, so that Gauss nodes and anchors rounded past its ends stay inside
    the run.

    A table may hold consecutive steps back to back (:meth:`concat`):
    ``first_cell`` and ``first_piece`` give each step's first cell and
    first piece, and the readers return one result per step."""

    def __init__(self, jcells, ncount, kinds, q, spds, dx, tables, theta):
        self.first_cell = self.first_piece = np.zeros(1, dtype=np.int64)
        self.jcells = jcells
        self.cell = np.repeat(np.arange(jcells.size), ncount)
        first_of = np.repeat(np.cumsum(ncount) - ncount, ncount)
        p = np.arange(self.cell.size) - first_of
        self.first = p == 0
        self.last = p == ncount[self.cell] - 1
        self.xc = jcells[self.cell] * dx
        self.dx = dx
        self.kinds, self.q, self.spds = kinds, q, spds
        self.tables, self.theta = tables, theta
        self.Bd = anchors(kinds, q, tables)
        pad = 1e-6 * dx
        xc = jcells * dx
        self.straight = in_flat_runs(tables["flats"], xc - dx - pad,
                                     xc + dx + pad)[self.cell]
        self.once = self.straight & (kinds == _k.K_PROFILE)

    @classmethod
    def concat(cls, tables):
        """The tables of consecutive steps back to back, as one table of
        their cells and pieces in order; one table is its own block.  The
        fields are joined, not rebuilt: ``__init__`` does not run."""
        if len(tables) == 1:
            return tables[0]
        out = cls.__new__(cls)
        cells = np.cumsum([0] + [t.jcells.size for t in tables[:-1]])
        pieces = np.cumsum([0] + [t.cell.size for t in tables[:-1]])
        join = lambda name: np.concatenate([getattr(t, name) for t in tables])
        out.first_cell = np.concatenate(
            [t.first_cell + c for t, c in zip(tables, cells)])
        out.first_piece = np.concatenate(
            [t.first_piece + p for t, p in zip(tables, pieces)])
        out.cell = np.concatenate(
            [t.cell + c for t, c in zip(tables, cells)])
        for name in ("jcells", "first", "last", "xc", "kinds", "q", "spds",
                     "Bd", "straight", "once"):
            setattr(out, name, join(name))
        out.dx, out.tables, out.theta = (tables[0].dx, tables[0].tables,
                                         tables[0].theta)
        return out

    def extent(self, t, centre=None):
        """[a, b] of every piece at time offset t, clipped to its cell;
        relative to ``centre`` (the cell centres by default).  With t a
        column of offsets, one row per offset."""
        xc = self.xc if centre is None else centre
        xl = xc - self.dx
        xr = xc + self.dx
        lo = np.roll(self.spds, 1)      # the ray to each piece's left
        a = np.where(self.first, xl, np.clip(xc + lo * t, xl, xr))
        b = np.where(self.last, xr, np.clip(xc + self.spds * t, xl, xr))
        return a, b

    def gauss(self, t, X, keep=True):
        """The pieces with a nonempty extent at time offset t (and
        ``keep``), and their states at the Gauss nodes X of their extents:
        (sel, rho, m, x, half), with x, rho and m one row per node."""
        a, b = self.extent(t)
        sel = np.nonzero((b > a) & keep)[0]
        xm = 0.5 * (a[sel] + b[sel])
        half = 0.5 * (b[sel] - a[sel])
        x = xm + half * X[:, None]
        rho, m = _rows_at(self.kinds[sel], self.q[sel], self.Bd[sel], x, t,
                          self.tables, self.theta, self.once[sel])
        return sel, rho, m, x, half


def envelope(M, B, x):
    """Invariant-region bounds (-M e^{-B(x)}, M e^{B(x)}) at the points x;
    ``B`` is the PPoly data of B.  The package's one envelope: the
    projection clamps to it, and checks and snapshots read its bounds."""
    Bx = ppoly_values(B, x)
    return -M * exp(-Bx), M * exp(Bx)


def invariants(rho, m, theta):
    """Riemann invariants (z, w) of the states (rho, m), (0, 0) below the
    vacuum floor, as ``_kernels.invariants_k``."""
    live = rho >= _k.RHO_FLOOR
    r = np.where(live, rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = m / r
    k = _pow(r, theta) / theta
    return np.where(live, v - k, 0.0), np.where(live, v + k, 0.0)


def cell_averages(pcs, params, c):
    """End-of-step averages (rho, m) of the cells of the piece table pcs,
    before the projection; pieces are summed in order within each cell."""
    dx, dt = params.dx, params.dt
    kinds, pars = pcs.kinds, pcs.q
    # piece extents relative to the cell centre (exact 2*dx total)
    a, b = pcs.extent(dt, centre=0.0)
    sel = np.nonzero(b > a)[0]
    a, b = a[sel], b[sel]
    ir = pars[sel, 0] * (b - a)
    im = pars[sel, 1] * (b - a)
    gauss = np.nonzero(kinds[sel] != _k.K_CONST)[0]
    rows = sel[gauss]
    lo = pcs.xc[rows] + a[gauss]
    hi = pcs.xc[rows] + b[gauss]
    xm = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rho, m = _rows_at(kinds[rows], pars[rows], pcs.Bd[rows],
                      xm + half * _G5X[:, None], dt, pcs.tables, c.theta,
                      pcs.once[rows])
    acc_r = np.zeros(gauss.size)
    acc_m = np.zeros(gauss.size)
    for g in range(5):
        acc_r = acc_r + _G5W[g] * rho[g]
        acc_m = acc_m + _G5W[g] * m[g]
    ir[gauss] = acc_r * half
    im[gauss] = acc_m * half
    # per-cell sums, piece by piece from zero
    sum_r = np.bincount(pcs.cell[sel], ir, pcs.jcells.size)
    sum_m = np.bincount(pcs.cell[sel], im, pcs.jcells.size)
    return sum_r / (2.0 * dx), sum_m / (2.0 * dx)


def project(e_r, e_m, lo, up, params, c):
    """The invariant projection of the averages (e_r, e_m) at nodes with
    envelope bounds [lo, up]: vacuum below the density threshold dx^delta,
    otherwise z and w clamped into the bounds, vacuum where the clamp
    inverts them (w < z).

    Returns (rho, m, z, w, stats) with stats = (clamp events, lossy
    vacuum-threshold events, max pre-projection envelope violation,
    clamp-inversion fallbacks).
    """
    stats = np.zeros(4)
    vac = e_r < _k.pow_g(params.dx, params.delta)
    stats[1] = np.count_nonzero(vac & (e_r > 0.0))
    z, w = invariants(e_r, e_m, c.theta)
    viol = np.maximum(np.maximum(lo - z, w - up), 0.0)[~vac]
    stats[2] = viol.max() if viol.size else 0.0
    clamped = ~vac & ((z < lo) | (w > up))
    z2 = np.where(z < lo, lo, z)
    w2 = np.where(w > up, up, w)
    inverted = clamped & (w2 < z2)
    stats[0] = np.count_nonzero(clamped)
    stats[3] = np.count_nonzero(inverted)
    rho2, m2 = _state(z2, w2, c.theta)
    rebuilt = clamped & ~inverted & (rho2 >= _k.RHO_FLOOR)
    keep = ~vac & ~clamped
    # unclamped nodes keep the averaged state bit-exact
    out = (np.where(keep, e_r, np.where(rebuilt, rho2, 0.0)),
           np.where(keep, e_m, np.where(rebuilt, m2, 0.0)),
           np.where(keep, z, np.where(rebuilt, z2, 0.0)),
           np.where(keep, w, np.where(rebuilt, w2, 0.0)))
    return out + (stats,)


def average_project(jcells, pcs, params, c):
    """:func:`cell_averages` of the cells jcells, then :func:`project` onto
    the envelope [lo, up] at their centres: (rho, m, z, w, lo, up, stats)."""
    e_r, e_m = cell_averages(pcs, params, c)
    lo, up = envelope(params.M, pcs.tables["B"], jcells * params.dx)
    rho, m, z, w, stats = project(e_r, e_m, lo, up, params, c)
    return rho, m, z, w, lo, up, stats


def node_areas(js, dx, A0, tables):
    """Integrals of the cross section A = A0 exp(-IA) over the node
    intervals [(j-1) dx, (j+1) dx]: four Gauss-5 panels, added panel by
    panel and node by node."""
    a = (js - 1) * dx
    step = ((js + 1) * dx - a) / 4.0
    half = 0.5 * step
    xm = (a + np.arange(4)[:, None] * step) + half
    # one row per (panel, node), panel-major
    x = (xm[:, None] + half * _G5X[:, None]).reshape(20, -1)
    area = A0 * exp(-ppoly_values(tables["IA"], x))
    total = np.zeros(js.shape)
    for r in range(20):
        total = total + _G5W[r % 5] * area[r] * half
    return total


def sequential_sum(terms):
    """Sum of all terms, added one by one in order (the order of the scalar
    loops: cell, piece, node)."""
    return float(np.cumsum(terms.ravel())[-1]) if terms.size else 0.0


def cell_aq_integrals(record):
    """Per-cell space-time integral of a(x) q*(u) over the cell and step,
    for every cell of the record's table: 3-point Gauss in time, piecewise
    3-point Gauss in space split at the front rays (the A'/A term of the
    energy recurrence equals minus it).  Pieces at rest and pieces in a
    flat run (a = 0) add +-0.0 terms to sums that start at +0.0, so they
    are skipped.  The nine space-time nodes of the other pieces are
    evaluated in one pass, each at its own time; a constant piece has one
    q* over all of them, taken once."""
    c, dt = record.constants, record.params.dt
    pcs = record.pieces
    skip = (pcs.kinds == _k.K_CONST) & (pcs.q[:, 1] == 0.0) | pcs.straight
    taus = 0.5 * dt + 0.5 * dt * _G3X
    a, b = pcs.extent(taus[:, None])
    # (time node, piece) columns, time node by time node as the sums run
    lev, sel = np.nonzero((b > a) & ~skip)
    a, b = a[lev, sel], b[lev, sel]
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _G3X[:, None]
    const = pcs.kinds[sel] == _k.K_CONST
    var = np.nonzero(~const)[0]
    p = sel[var]
    rho, m = pieces_at(np.tile(pcs.kinds[p], 3), np.tile(pcs.q[p], (3, 1)),
                       x[:, var].ravel(), np.tile(taus[lev[var]], 3),
                       pcs.tables, c.theta, np.tile(pcs.Bd[p], 3))
    held, col = np.unique(sel[const], return_inverse=True)
    qs = energy_flux(np.concatenate([rho, pcs.q[held, 0]]),
                     np.concatenate([m, pcs.q[held, 1]]), c.gamma)
    qx = np.empty(x.shape)
    qx[:, var] = qs[:rho.size].reshape(3, -1)
    qx[:, const] = qs[rho.size:][col]
    ax = ppoly_values(pcs.tables["a"], x)
    acc = np.zeros(sel.size)
    for g in range(3):
        acc = acc + _G3W[g] * ax[g] * qx[g]
    out = np.zeros(pcs.jcells.size)
    np.add.at(out, pcs.cell[sel], (0.5 * dt * _G3W)[lev] * acc * half)
    return out


def correction_R(x, rho, m, params, c, tables, pw=None):
    """The three-term correction R(x, u) of the energy recurrence at the
    states (rho, m) and points x; zero at vacuum (rho = 0).  ``pw`` is
    ``powers(rho)``, when the caller has it.  Every b-term is odd in m,
    the a-term is even (it cancels pairwise in the straight-duct
    recurrence)."""
    g, th = c.gamma, c.theta
    pw = pw or powers(rho)
    dx, dt = params.dx, params.dt
    out = np.zeros(x.shape)
    live = np.nonzero(rho != 0.0)[0]
    x, rho, m = x[live], rho[live], m[live]
    bx = ppoly_values(tables["b"], x)
    ax = ppoly_values(tables["a"], x)
    rt = pw(th)[live]
    m3 = _ipow(m, 3)
    t1 = -(dx / (4.0 * dt)) * bx * (
        3.0 / (g - 1.0) * rt * m + m3 / (2.0 * pw(th + 2.0)[live]))
    t2 = (dt / (4.0 * dx)) * ax * (
        g / (g - 1.0) * pw(2.0 * th)[live] * m * m / rho
        + 0.5 * _ipow(m, 4) / _ipow(rho, 3))
    t3 = -(dt / (4.0 * dx)) * bx * (
        (g + th + 1.0) / ((g - 1.0) * th) * m * pw(3.0 * th)[live]
        + (g + 3.0 * th + 4.0) / (2.0 * th) * m3 * rt / _ipow(rho, 2)
        + _ipow(m, 5) / (2.0 * pw(th + 4.0)[live]))
    out[live] = t1 + t2 + t3
    return out


def node_row(x, rho, m, params, c, tables):
    """(eta*, q*, R) of the row of nodes (rho, m) at the points x, from
    one ``math.log`` per node: the energy, its flux and the five powers of
    :func:`correction_R` share ``powers(rho)``."""
    pw = powers(rho)
    return (energy(rho, m, c.gamma, pw), energy_flux(rho, m, c.gamma, pw),
            correction_R(x, rho, m, params, c, tables, pw))


def jump_integral(record, new_z, new_w):
    """Integral of |trace(t_k - 0) - trace(t_k + 0)|^2 over the cells of
    each step of the record's table, one per step; the post-step trace
    over cell j is the steady profile through the new node (z, w), the
    vacuum state at vacuum nodes, which is not evaluated."""
    c, dt = record.constants, record.params.dt
    pcs = record.pieces
    sel, r0, m0, x, half = pcs.gauss(dt, _G3X)
    cell = pcs.cell[sel]
    z, w = new_z[cell], new_w[cell]
    live = np.nonzero((z != 0.0) | (w != 0.0))[0]
    r1 = np.zeros(r0.shape)
    m1 = np.zeros(m0.shape)
    one = np.ones(live.size)
    qn = np.stack([pcs.xc[sel[live]], z[live], w[live], -one, one,
                   0.0 * one], axis=1)
    kn = np.full(live.size, _k.K_PROFILE)
    r1[:, live], m1[:, live] = _rows_at(
        kn, qn, anchors(kn, qn, pcs.tables), x[:, live], 0.0, pcs.tables,
        c.theta, pcs.straight[sel[live]])
    d = (r0 - r1) * (r0 - r1) + (m0 - m1) * (m0 - m1)
    # node rows, summed piece by piece and node by node, step by step
    terms = (_G3W[:, None] * d * half).T
    steps = np.split(terms, np.searchsorted(sel, pcs.first_piece[1:]))
    return np.array([sequential_sum(t) for t in steps])


def energy_trace(record, tau):
    """Integral of A(x) eta*(u) over all cells at time offset tau."""
    pcs = record.pieces
    sel, rho, m, x, half = pcs.gauss(tau, _G5X)
    eta = energy(rho, m, record.constants.gamma)
    area = record.bundle.geom.A0 * exp(-ppoly_values(pcs.tables["IA"], x))
    return sequential_sum((_G5W[:, None] * area * eta * half).T)


def max_rh_residual(pcs, fflag, dt, c):
    """Worst Rankine-Hugoniot residual over the solved fronts (pieces
    flagged in fflag) of the piece table ``pcs`` at the half time, one per
    step of the table; both sides of every front in one evaluation."""
    inner = np.nonzero(~pcs.last)[0]
    i = inner[fflag[inner] == 1]
    tau = 0.5 * dt
    s = pcs.spds[i]
    xf = pcs.xc[i] + s * tau
    both = np.concatenate([i, i + 1])
    rho, m = pieces_at(pcs.kinds[both], pcs.q[both], np.tile(xf, 2), tau,
                       pcs.tables, pcs.theta, pcs.Bd[both])
    f1, f2 = flux(rho, m, c.gamma)
    k = i.size
    res = np.abs(np.concatenate([
        f1[k:] - f1[:k] - s * (rho[k:] - rho[:k]),
        f2[k:] - f2[:k] - s * (m[k:] - m[:k])]))
    step = np.tile(np.searchsorted(pcs.first_piece, i, side="right") - 1, 2)
    out = np.zeros(pcs.first_piece.size)
    worse = res > 0.0
    np.maximum.at(out, step[worse], res[worse])
    return out
