"""Whole-array evaluation of a step's cell traces: averaging, the invariant
envelope and projection, node areas, the recurrence correction R and the
diagnostics.

The cell averages and the diagnostics integrate the in-cell solutions of a
step at thousands of quadrature nodes.  Here all nodes of all cells are
evaluated at once with NumPy, grouped by piece kind, instead of one scalar
kernel call per node; the envelope, the projection and the node areas are
the package's only implementations of those quantities, and scalar callers
pass one-element arrays.  The formulas, their order of operations and the
order of every sum are those of the scalar kernels in
:mod:`nozzleflow._kernels` (``eval_piece``, ``eta_q_k``, ``flux_k``,
``invariants_k``, ``state_k``), and ``exp``, ``log`` and integer powers are
``math``'s and Python's, applied element by element, so the results equal
the scalar kernels' bit for bit.
"""

import math

import numpy as np

from . import _kernels as _k

# Gauss-Legendre nodes and weights on [-1, 1]
_G3X = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_G3W = np.array([0.5555555555555556, 0.8888888888888888, 0.5555555555555556])
_G3W *= 2.0 / _G3W.sum()
_G5X = np.asarray(_k._G5X, dtype=float)
_G5W = np.asarray(_k._G5W, dtype=float)


def ppoly_values(table, x):
    """Clamped piecewise-polynomial values at the points x; ``table`` is
    PPoly data (xs, c) as in ``_kernels.ppoly_eval``."""
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
    """``math.exp`` of a 1-D array, element by element: NumPy's vectorized
    exp may round differently from the scalar kernels'."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


def _pow(x, e):
    """Elementwise ``_kernels.pow_g``: exp(e log x), zero for x <= 0."""
    out = np.zeros(x.shape)
    pos = np.nonzero(x > 0.0)[0]
    if pos.size:
        logs = np.fromiter(map(math.log, x[pos].tolist()), float, pos.size)
        out[pos] = exp(e * logs)
    return out


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
    ``(x[i], tau[i])``; tau may be a scalar.  ``tables`` maps "a", "b", "B"
    to PPoly data; ``Bd`` defaults to ``anchors(kinds, q, tables)``."""
    if Bd is None:
        Bd = anchors(kinds, q, tables)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), x.shape)
    rho = np.zeros(x.shape)
    m = np.zeros(x.shape)
    const = kinds == _k.K_CONST
    rho[const] = q[const, 0]
    m[const] = q[const, 1]
    for kind, sign in ((_k.K_RAREF1, 1.0), (_k.K_RAREF2, -1.0)):
        sel = np.nonzero((kinds == kind) & (tau > 0.0))[0]
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


def _profiles_at(q, Bd, x, tau, tables, theta):
    dB = ppoly_values(tables["B"], x) - Bd
    zb = q[:, 1] * exp(q[:, 3] * dB)
    wb = q[:, 2] * exp(q[:, 4] * dB)
    rb, mb = _state(zb, wb, theta)
    corr = np.nonzero((q[:, 5] != 0.0) & (tau > 0.0) & (rb >= _k.RHO_FLOOR))[0]
    if corr.size:
        xc, qc, zc, wc = x[corr], q[corr], zb[corr], wb[corr]
        vb = mb[corr] / rb[corr]
        c = _pow(rb[corr], theta)
        av = ppoly_values(tables["a"], xc) * vb * c
        bx = ppoly_values(tables["b"], xc)
        zt = -(vb - c) * (qc[:, 3] * bx * zc) - av
        wt = -(vb + c) * (qc[:, 4] * bx * wc) + av
        zb[corr] = zc + tau[corr] * zt
        wb[corr] = wc + tau[corr] * wt
    rho, m = _state(zb, wb, theta)
    clamped = wb < zb
    return np.where(clamped, 0.0, rho), np.where(clamped, 0.0, m)


def eta_q(rho, m, gamma):
    """Mechanical energy and energy flux, zero at vacuum."""
    ok = rho >= _k.RHO_FLOOR
    r = np.where(ok, rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = 0.5 * m * m / r + _pow(r, gamma) / (gamma * (gamma - 1.0))
    return np.where(ok, eta, 0.0), energy_flux(rho, m, gamma)


def energy_flux(rho, m, gamma):
    """The energy flux q* alone, zero at vacuum."""
    ok = rho >= _k.RHO_FLOOR
    r = np.where(ok, rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = m * (0.5 * m * m / (r * r) + _pow(r, gamma - 1.0) / (gamma - 1.0))
    return np.where(ok, q, 0.0)


def flux(rho, m, gamma):
    """The flux (m, m^2/rho + p(rho)), zero at vacuum."""
    ok = rho >= _k.RHO_FLOOR
    r = np.where(ok, rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f2 = m * m / r + _pow(r, gamma) / gamma
    return np.where(ok, m, 0.0), np.where(ok, f2, 0.0)


class _Pieces:
    """Every piece of a step record (the cells' pieces back to back) with
    its cell: cell index, centre, and whether it is the first or last piece
    of its cell."""

    def __init__(self, jcells, ncount, dx):
        C = jcells.size
        self.cell = np.repeat(np.arange(C), ncount)
        first_of = np.repeat(np.cumsum(ncount) - ncount, ncount)
        p = np.arange(self.cell.size) - first_of
        self.first = p == 0
        self.last = p == ncount[self.cell] - 1
        self.xc = jcells[self.cell] * dx
        self.dx = dx

    def extent(self, spds, t, centre=None):
        """[a, b] of every piece at time offset t, clipped to its cell;
        relative to ``centre`` (the cell centres by default)."""
        xc = self.xc if centre is None else centre
        xl = xc - self.dx
        xr = xc + self.dx
        lo = np.roll(spds, 1)           # the ray to each piece's left
        a = np.where(self.first, xl, np.clip(xc + lo * t, xl, xr))
        b = np.where(self.last, xr, np.clip(xc + spds * t, xl, xr))
        return a, b


def envelope(M, B, x):
    """Invariant-region bounds (-M e^{-B(x)}, M e^{B(x)}) at the points x;
    ``B`` is the PPoly data of B.  The package's one envelope: the
    projection clamps to it and every check and snapshot reads it."""
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


def cell_averages(jcells, ncount, kinds, pars, spds, params, c, tables):
    """End-of-step averages (rho, m) of the cells' in-cell solutions, before
    the projection; pieces are summed in order within each cell."""
    dx, dt = params.dx, params.dt
    pcs = _Pieces(jcells, ncount, dx)
    C = jcells.size
    # piece extents relative to the cell centre (exact 2*dx total)
    a, b = pcs.extent(spds, dt, centre=0.0)
    sel = np.nonzero(b > a)[0]
    a, b, cell = a[sel], b[sel], pcs.cell[sel]
    kinds = kinds[sel]
    q = pars[sel]
    ir = q[:, 0] * (b - a)
    im = q[:, 1] * (b - a)
    gauss = np.nonzero(kinds != _k.K_CONST)[0]
    lo = pcs.xc[sel][gauss] + a[gauss]
    hi = pcs.xc[sel][gauss] + b[gauss]
    xm = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc_r = np.zeros(gauss.size)
    acc_m = np.zeros(gauss.size)
    Bd = anchors(kinds[gauss], q[gauss], tables)
    for g in range(5):
        rho, m = pieces_at(kinds[gauss], q[gauss], xm + half * _G5X[g], dt,
                           tables, c.theta, Bd)
        acc_r = acc_r + _G5W[g] * rho
        acc_m = acc_m + _G5W[g] * m
    ir[gauss] = acc_r * half
    im[gauss] = acc_m * half
    sum_r = np.zeros(C)
    sum_m = np.zeros(C)
    np.add.at(sum_r, cell, ir)
    np.add.at(sum_m, cell, im)
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


def average_project(jcells, ncount, kinds, pars, spds, params, c, tables):
    """End-of-step cell averages, projected onto the envelope at the cell
    centres: :func:`cell_averages`, then :func:`project`."""
    e_r, e_m = cell_averages(jcells, ncount, kinds, pars, spds, params, c,
                             tables)
    lo, up = envelope(params.M, tables["B"], jcells * params.dx)
    return project(e_r, e_m, lo, up, params, c)


def node_areas(js, dx, A0, tables):
    """Integrals of the cross section A = A0 exp(-IA) over the node
    intervals [(j-1) dx, (j+1) dx]: four Gauss-5 panels, added panel by
    panel and node by node."""
    a = (js - 1) * dx
    step = ((js + 1) * dx - a) / 4.0
    half = 0.5 * step
    total = np.zeros(js.shape)
    for p in range(4):
        xm = (a + p * step) + half
        for g in range(5):
            x = xm + half * _G5X[g]
            area = A0 * exp(-ppoly_values(tables["IA"], x))
            total = total + _G5W[g] * area * half
    return total


def sequential_sum(terms):
    """Sum of all terms, added one by one in order (the order of the scalar
    loops: cell, piece, node)."""
    return float(np.cumsum(terms.ravel())[-1]) if terms.size else 0.0


def cell_aq_integrals(record):
    """Per-cell space-time integral of a(x) q*(u) over the cell and step:
    3-point Gauss in time, piecewise 3-point Gauss in space split at the
    front rays (the A'/A term of the energy recurrence equals minus it)."""
    c, dx, dt = record.constants, record.params.dx, record.params.dt
    tables = record.bundle.tables
    pcs = _Pieces(record.jcells, record.ncount, dx)
    kinds = record.kinds
    q = record.pars
    Bd = anchors(kinds, q, tables)
    at_rest = (kinds == _k.K_CONST) & (q[:, 1] == 0.0)
    out = np.zeros(record.jcells.size)
    for gt in range(3):
        tau = 0.5 * dt + 0.5 * dt * _G3X[gt]
        wt = 0.5 * dt * _G3W[gt]
        a, b = pcs.extent(record.spds, tau)
        sel = np.nonzero((b > a) & ~at_rest)[0]
        xm = 0.5 * (a[sel] + b[sel])
        half = 0.5 * (b[sel] - a[sel])
        acc = np.zeros(sel.size)
        for g in range(3):
            x = xm + half * _G3X[g]
            rho, m = pieces_at(kinds[sel], q[sel], x, tau, tables, c.theta,
                               Bd[sel])
            acc = (acc + _G3W[g] * ppoly_values(tables["a"], x)
                   * energy_flux(rho, m, c.gamma))
        np.add.at(out, pcs.cell[sel], wt * acc * half)
    return out


def correction_R(x, rho, m, params, c, tables):
    """The three-term correction R(x, u) of the energy recurrence at the
    states (rho, m) and points x; zero at vacuum (rho = 0).  Every b-term
    is odd in m, the a-term is even (it cancels pairwise in the
    straight-duct recurrence)."""
    g, th = c.gamma, c.theta
    dx, dt = params.dx, params.dt
    out = np.zeros(x.shape)
    live = np.nonzero(rho != 0.0)[0]
    x, rho, m = x[live], rho[live], m[live]
    bx = ppoly_values(tables["b"], x)
    ax = ppoly_values(tables["a"], x)
    rt = _pow(rho, th)
    m3 = _ipow(m, 3)
    t1 = -(dx / (4.0 * dt)) * bx * (
        3.0 / (g - 1.0) * rt * m + m3 / (2.0 * _pow(rho, th + 2.0)))
    t2 = (dt / (4.0 * dx)) * ax * (
        g / (g - 1.0) * _pow(rho, 2.0 * th) * m * m / rho
        + 0.5 * _ipow(m, 4) / _ipow(rho, 3))
    t3 = -(dt / (4.0 * dx)) * bx * (
        (g + th + 1.0) / ((g - 1.0) * th) * m * _pow(rho, 3.0 * th)
        + (g + 3.0 * th + 4.0) / (2.0 * th) * m3 * rt / _ipow(rho, 2)
        + _ipow(m, 5) / (2.0 * _pow(rho, th + 4.0)))
    out[live] = t1 + t2 + t3
    return out


def jump_integral(record, new_z, new_w):
    """Integral of |trace(t_k - 0) - trace(t_k + 0)|^2 over all cells; the
    post-step trace over cell j is the steady profile through the new node
    (z, w), the vacuum state at vacuum nodes."""
    c, dx, dt = record.constants, record.params.dx, record.params.dt
    tables = record.bundle.tables
    pcs = _Pieces(record.jcells, record.ncount, dx)
    a, b = pcs.extent(record.spds, dt)
    sel = np.nonzero(b > a)[0]
    kinds = record.kinds[sel]
    q = record.pars[sel]
    cell = pcs.cell[sel]
    vac = (new_z[cell] == 0.0) & (new_w[cell] == 0.0)
    qn = np.zeros((sel.size, 6))
    qn[:, 0] = pcs.xc[sel]
    qn[:, 1] = new_z[cell]
    qn[:, 2] = new_w[cell]
    qn[:, 3] = -1.0
    qn[:, 4] = 1.0
    kn = np.full(sel.size, _k.K_PROFILE)
    Bd = anchors(kinds, q, tables)
    Bdn = anchors(kn, qn, tables)
    xm = 0.5 * (a[sel] + b[sel])
    half = 0.5 * (b[sel] - a[sel])
    terms = np.zeros((sel.size, 3))
    for g in range(3):
        x = xm + half * _G3X[g]
        r0, m0 = pieces_at(kinds, q, x, dt, tables, c.theta, Bd)
        r1, m1 = pieces_at(kn, qn, x, 0.0, tables, c.theta, Bdn)
        r1 = np.where(vac, 0.0, r1)
        m1 = np.where(vac, 0.0, m1)
        d = (r0 - r1) * (r0 - r1) + (m0 - m1) * (m0 - m1)
        terms[:, g] = _G3W[g] * d * half
    return sequential_sum(terms)


def energy_trace(record, tau):
    """Integral of A(x) eta*(u) over all cells at time offset tau."""
    c, dx = record.constants, record.params.dx
    tables = record.bundle.tables
    pcs = _Pieces(record.jcells, record.ncount, dx)
    a, b = pcs.extent(record.spds, tau)
    sel = np.nonzero(b > a)[0]
    kinds = record.kinds[sel]
    q = record.pars[sel]
    xm = 0.5 * (a[sel] + b[sel])
    half = 0.5 * (b[sel] - a[sel])
    A0 = record.bundle.geom.A0
    Bd = anchors(kinds, q, tables)
    terms = np.zeros((sel.size, 5))
    for g in range(5):
        x = xm + half * _G5X[g]
        rho, m = pieces_at(kinds, q, x, tau, tables, c.theta, Bd)
        eta, _q = eta_q(rho, m, c.gamma)
        area = A0 * exp(-ppoly_values(tables["IA"], x))
        terms[:, g] = _G5W[g] * area * eta * half
    return sequential_sum(terms)


def max_rh_residual(jcells, ncount, kinds, pars, spds, fflag, dx, dt, c,
                    tables):
    """Worst Rankine-Hugoniot residual over the solved fronts (pieces
    flagged in fflag) at the half time."""
    pcs = _Pieces(jcells, ncount, dx)
    inner = np.nonzero(~pcs.last)[0]
    i = inner[fflag[inner] == 1]
    tau = 0.5 * dt
    s = spds[i]
    xf = pcs.xc[i] + s * tau
    rl, ml = pieces_at(kinds[i], pars[i], xf, tau, tables, c.theta)
    rr, mr = pieces_at(kinds[i + 1], pars[i + 1], xf, tau, tables, c.theta)
    f1l, f2l = flux(rl, ml, c.gamma)
    f1r, f2r = flux(rr, mr, c.gamma)
    res = np.abs(np.concatenate([f1r - f1l - s * (rr - rl),
                                 f2r - f2l - s * (mr - ml)]))
    res = res[res > 0.0]
    return float(res.max()) if res.size else 0.0
