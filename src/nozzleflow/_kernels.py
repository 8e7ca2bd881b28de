"""Hot numeric kernels (scalar math, Riemann solves, in-cell constructions).

Everything here is plain scalar/NumPy Python, compiled with ``@njit`` when
numba is installed and run as interpreted Python otherwise (see
:mod:`nozzleflow._numba`).  Public modules wrap these functions with typed
APIs; tests exercise both through the wrappers.  Callers pass read-only
arrays through :func:`kernel_view`, which hands the interpreted path Python
lists (see the layout section below).

Conventions used throughout:

* a gas state is the scalar pair ``(rho, m)``; invariants are ``(z, w)``
  with ``z = v - rho^theta/theta``, ``w = v + rho^theta/theta``;
* piecewise polynomials (for the area coefficient ``a``, the bound
  function ``b`` and its cumulative integral ``B``) come from the data of
  :class:`nozzleflow.nozzle.PiecewisePoly`, in scipy's ``PPoly`` layout:
  breakpoints ``xs`` (n+1,) and coefficients ``c`` (k+1, n), highest
  degree first, packed by :func:`pack_ppoly`, clamped evaluation outside
  the domain;
* an in-cell solution is a flat list of *pieces* separated by rays
  ``x = xc + s*(t - t_n)``.  Piece kinds:

  - ``K_CONST``    params ``(rho, m)``
  - ``K_PROFILE``  params ``(x_anchor, z_d, w_d, sz, sw, corr)`` where the
    spatial shape is ``z(x) = z_d*exp(sz*(B(x)-B(x_d)))`` and likewise for
    ``w`` with ``sw``; ``corr=1`` applies the linear-in-time correction
    ``z_t = -lam1*z_x - a*v*rho^theta``, ``w_t = -lam2*w_x + a*v*rho^theta``
    (steady profiles use ``sz=-1, sw=+1``; the near-vacuum decay profile
    uses ``sz=sw=-1``; its mirror ``sz=sw=+1``);
  - ``K_RAREF1``   params ``(x_center, w0)``: centered 1-rarefaction wedge;
  - ``K_RAREF2``   params ``(x_center, z0)``: centered 2-rarefaction wedge.
"""

import math
from bisect import bisect_right

import numpy as np

from ._numba import NUMBA_ENABLED, njit

# piece kinds
K_CONST = 0
K_PROFILE = 1
K_RAREF1 = 2
K_RAREF2 = 3

# wave kinds inside a packed Riemann solution
W_NONE = 0
W_RAREF = 1
W_SHOCK = 2

# packed Riemann solution layout (12 floats)
# [rl, ml, rr, mr, rM, vM, k1, k2, s1lo, s1hi, s2lo, s2hi]
RSOL_LEN = 12

# cell construction case codes
CASE_AWAY_BASE = 1          # 1..4: away-from-vacuum construction, by wave pattern
CASE_VAC_ALLVAC = 50
CASE_VAC_1 = 11             # +0.x subcases returned separately
CASE_VAC_2 = 21
CASE_VAC_3 = 31
CASE_VAC_4 = 41
SUB_NONE = 0
SUB_11 = 1
SUB_12I = 2
SUB_12II = 3

# solver statuses
OK = 0
ERR_FRONT_CONV = 1
ERR_FRONT_ORDER = 2
ERR_GAP_CONV = 3
ERR_ORDERING = 4
ERR_SPEED_BOUND = 5
ERR_HUGONIOT = 6

BIG = 1e300
RHO_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# kernel input layout, piecewise polynomial evaluation (a, b and B)
#
# The compiled path takes NumPy arrays.  The interpreted path takes Python
# lists for read-only inputs and its own PPoly layout; the choice is made
# once, here, by whether numba imported.
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    def kernel_view(a):
        """Read-only kernel input: the array itself on the compiled path."""
        return a

    def pack_ppoly(xs, c):
        """Kernel-side form of PPoly data (xs, c): the arrays themselves."""
        return xs, c

    @njit
    def _buf(n):
        """Zeroed float scratch vector of length n."""
        return np.zeros(n)

    @njit
    def _row(a, i):
        """Row i of a 2-D array, for reading."""
        return a[i]

    @njit
    def ppoly_eval(xs, c, x):
        n = xs.shape[0] - 1
        if x <= xs[0]:
            x = xs[0]
        elif x >= xs[n]:
            x = xs[n]
        i = np.searchsorted(xs, x, side='right') - 1
        if i < 0:
            i = 0
        elif i > n - 1:
            i = n - 1
        t = x - xs[i]
        acc = 0.0
        for mdeg in range(c.shape[0]):
            acc = acc * t + c[mdeg, i]
        return acc
else:
    def kernel_view(a):
        """Read-only kernel input on the interpreted path: (nested) Python
        lists.  Indexing an ndarray yields NumPy scalars, whose arithmetic
        costs several times that of Python floats; kernels only index their
        read-only inputs, so lists run the very same code."""
        return a.tolist()

    def _buf(n):
        """Zeroed float scratch vector of length n (a list, see above)."""
        return [0.0] * n

    def _row(a, i):
        """Row i of a 2-D array, for reading (a list, see above)."""
        return a[i].tolist()

    def pack_ppoly(xs, c):
        """Kernel-side form of PPoly data (xs, c): breakpoints as a list of
        floats and one coefficient tuple per piece (highest degree first),
        so that the interpreted lookup below runs on Python floats."""
        return xs.tolist(), [tuple(col) for col in c.T.tolist()]

    def ppoly_eval(xs, c, x):
        """Interpreted twin of the compiled lookup: ``bisect`` instead of
        ``np.searchsorted`` and Horner's rule on Python floats.  Both do the
        same IEEE operations in the same order, so the values agree bit for
        bit, at a fraction of the NumPy scalar dispatch cost."""
        x = float(x)
        n = len(xs) - 1
        if x <= xs[0]:
            x = xs[0]
        elif x >= xs[n]:
            x = xs[n]
        i = bisect_right(xs, x) - 1
        if i < 0:
            i = 0
        elif i > n - 1:
            i = n - 1
        t = x - xs[i]
        acc = 0.0
        for coef in c[i]:
            acc = acc * t + coef
        return acc


# Gauss-Legendre nodes and weights on [-1, 1]
_G5X = np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                 0.5384693101056831, 0.9061798459386640])
_G5W = np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                 0.4786286704993665, 0.2369268850561891])
_G5W *= 2.0 / _G5W.sum()
_G5X, _G5W = kernel_view(_G5X), kernel_view(_G5W)


# ---------------------------------------------------------------------------
# scalar gas algebra
# ---------------------------------------------------------------------------

@njit
def pow_g(x, e):
    """x**e via exp/log with a vacuum guard (x >= 0)."""
    if x <= 0.0:
        return 0.0
    return math.exp(e * math.log(x))


@njit
def pressure_k(rho, gamma):
    return pow_g(rho, gamma) / gamma


@njit
def kfun(rho, theta):
    """rho^theta / theta (half invariant gap)."""
    return pow_g(rho, theta) / theta


@njit
def invariants_k(rho, m, theta):
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    v = m / rho
    k = kfun(rho, theta)
    return v - k, v + k


@njit
def state_k(z, w, theta):
    t = theta * (w - z) / 2.0
    if t <= 0.0:
        return 0.0, 0.0
    rho = pow_g(t, 1.0 / theta)
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    return rho, rho * (w + z) / 2.0


@njit
def sound_k(rho, theta):
    return pow_g(rho, theta)


@njit
def lambdas_k(rho, m, theta):
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    v = m / rho
    c = sound_k(rho, theta)
    return v - c, v + c


@njit
def flux_k(rho, m, gamma):
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    return m, m * m / rho + pressure_k(rho, gamma)


@njit
def eta_q_k(rho, m, gamma):
    """Mechanical energy / energy-flux pair."""
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    eta = 0.5 * m * m / rho + pow_g(rho, gamma) / (gamma * (gamma - 1.0))
    q = m * (0.5 * m * m / (rho * rho) + pow_g(rho, gamma - 1.0) / (gamma - 1.0))
    return eta, q


# ---------------------------------------------------------------------------
# wave-curve helpers
# ---------------------------------------------------------------------------

@njit
def pdiff_ratio(rho, rho0, gamma):
    """(p(rho)-p(rho0)) / (rho-rho0), stable near rho == rho0 (> 0)."""
    rm1 = (rho - rho0) / rho0
    if abs(rm1) < 1e-13:
        return pow_g(rho0, gamma - 1.0) * (1.0 + 0.5 * (gamma - 1.0) * rm1)
    lr = math.log1p(rm1)
    q = math.expm1(gamma * lr) / (gamma * rm1)
    return pow_g(rho0, gamma - 1.0) * q


@njit
def hjump_k(rho, rho0, gamma):
    """Signed velocity increment sqrt((p-p0)/(rho rho0 (rho-rho0)))*(rho-rho0).

    Positive for rho > rho0.  This is the common factor of the shock and
    inverse-shock curves; the 1-family uses ``v = v0 - h``, the 2-family
    ``v = v0 + h``.
    """
    if rho == rho0:
        return 0.0
    if rho <= 0.0:
        # limit rho -> 0+: v - v0 -> +infinity on the 1-branch
        return -math.sqrt(BIG)
    pr = pdiff_ratio(rho, rho0, gamma)
    return math.sqrt(pr / (rho * rho0)) * (rho - rho0)


@njit
def lax_S_k(rho, rho0, gamma):
    """The modified Lax-Friedrichs jump speed factor S(rho, rho0) >= 0."""
    if rho <= 0.0:
        return 0.0
    pr = pdiff_ratio(rho, rho0, gamma)
    return math.sqrt(rho * pr / rho0)


@njit
def sigma1_k(rho_l, v_l, rho_r, gamma):
    """Speed of a 1-family discontinuity from left (rho_l, v_l) to rho_r."""
    return v_l - lax_S_k(rho_r, rho_l, gamma)


@njit
def sigma2_k(rho_r, v_r, rho_l, gamma):
    """Speed of a 2-family discontinuity with right (rho_r, v_r), left rho_l."""
    return v_r + lax_S_k(rho_l, rho_r, gamma)


# ---------------------------------------------------------------------------
# exact Riemann solver
# ---------------------------------------------------------------------------

@njit
def _phi_left(rho, rho_l, v_l, gamma, theta):
    """Velocity of the state at density rho on the 1-wave curve through uL."""
    if rho <= rho_l:
        return v_l + kfun(rho_l, theta) - kfun(rho, theta)
    return v_l - hjump_k(rho, rho_l, gamma)


@njit
def _phi_right(rho, rho_r, v_r, gamma, theta):
    """Velocity of the state at density rho on the 2-wave curve through uR."""
    if rho <= rho_r:
        return v_r - kfun(rho_r, theta) + kfun(rho, theta)
    return v_r + hjump_k(rho, rho_r, gamma)


@njit
def _gap(rho, rho_l, v_l, rho_r, v_r, gamma, theta):
    """phi_L - phi_R: strictly decreasing in rho, zero at the middle
    density."""
    return (_phi_left(rho, rho_l, v_l, gamma, theta)
            - _phi_right(rho, rho_r, v_r, gamma, theta))


@njit
def riemann_middle_k(rho_l, v_l, rho_r, v_r, gamma, theta):
    """Middle state (rho_M, v_M) where the 1-curve through uL meets the
    2-curve through uR.

    The gap f = phi_L - phi_R decreases strictly from f(0) = w_L - z_R.
    Illinois regula falsi keeps a bracket with f(lo) >= 0 > f(hi) (Toro,
    ch. 4, solves the same equation by Newton); a bracket that fails to
    halve over three steps falls back to bisection.  The loop ends when f
    vanishes or the midpoint no longer splits the bracket, i.e. at full
    double precision: about a dozen curve evaluations per solve.
    """
    w_l = v_l + kfun(rho_l, theta)
    z_r = v_r - kfun(rho_r, theta)
    if w_l - z_r <= 0.0:
        return 0.0, 0.5 * (w_l + z_r)
    if rho_l == rho_r and v_l == v_r:
        return rho_l, v_l
    lo = 0.0
    f_lo = w_l - z_r
    hi = max(rho_l, rho_r)
    if hi <= 0.0:
        hi = 1.0
    f_hi = _gap(hi, rho_l, v_l, rho_r, v_r, gamma, theta)
    it = 0
    while f_hi > 0.0 and it <= 400:
        lo = hi
        f_lo = f_hi
        hi *= 2.0
        f_hi = _gap(hi, rho_l, v_l, rho_r, v_r, gamma, theta)
        it += 1
    side = 0
    width3 = BIG
    width2 = BIG
    width1 = BIG
    for _ in range(200):
        if f_hi == 0.0:
            lo = hi
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if hi - lo > 0.5 * width3:
            x = mid
        else:
            # regula falsi point, kept a few ulps inside the bracket so
            # that an endpoint already at the root still gets bracketed
            x = lo + f_lo * ((hi - lo) / (f_lo - f_hi))
            tol = 4.0 * 2.220446049250313e-16 * hi
            if x < lo + tol:
                x = lo + tol
            elif x > hi - tol:
                x = hi - tol
            if not (lo < x < hi):
                x = mid
        fx = _gap(x, rho_l, v_l, rho_r, v_r, gamma, theta)
        width3 = width2
        width2 = width1
        width1 = hi - lo
        if fx == 0.0:
            lo = x
            hi = x
            break
        if fx > 0.0:
            lo = x
            f_lo = fx
            if side == 1:
                f_hi *= 0.5
            side = 1
        else:
            hi = x
            f_hi = fx
            if side == -1:
                f_lo *= 0.5
            side = -1
    rho_m = 0.5 * (lo + hi)
    v_m = 0.5 * (_phi_left(rho_m, rho_l, v_l, gamma, theta)
                 + _phi_right(rho_m, rho_r, v_r, gamma, theta))
    return rho_m, v_m


@njit
def riemann_solve_k(rho_l, m_l, rho_r, m_r, gamma, theta):
    """Solve the Riemann problem; return the packed 12-float description."""
    out = _buf(RSOL_LEN)
    out[0] = rho_l
    out[1] = m_l
    out[2] = rho_r
    out[3] = m_r
    lvac = rho_l < RHO_FLOOR
    rvac = rho_r < RHO_FLOOR
    if lvac and rvac:
        out[8] = -BIG
        out[9] = -BIG
        out[10] = BIG
        out[11] = BIG
        return out
    if lvac:
        v_r = m_r / rho_r
        z_r = v_r - kfun(rho_r, theta)
        out[6] = W_NONE
        out[7] = W_RAREF
        out[8] = -BIG
        out[9] = -BIG
        out[10] = z_r
        out[11] = v_r + sound_k(rho_r, theta)
        return out
    if rvac:
        v_l = m_l / rho_l
        w_l = v_l + kfun(rho_l, theta)
        out[6] = W_RAREF
        out[7] = W_NONE
        out[8] = v_l - sound_k(rho_l, theta)
        out[9] = w_l
        out[10] = BIG
        out[11] = BIG
        return out

    v_l = m_l / rho_l
    v_r = m_r / rho_r
    w_l = v_l + kfun(rho_l, theta)
    z_r = v_r - kfun(rho_r, theta)
    if w_l <= z_r:
        # rarefactions separated by vacuum
        out[4] = 0.0
        out[5] = 0.5 * (w_l + z_r)
        out[6] = W_RAREF
        out[7] = W_RAREF
        out[8] = v_l - sound_k(rho_l, theta)
        out[9] = w_l
        out[10] = z_r
        out[11] = v_r + sound_k(rho_r, theta)
        return out

    rho_m, v_m = riemann_middle_k(rho_l, v_l, rho_r, v_r, gamma, theta)
    out[4] = rho_m
    out[5] = v_m

    sc1 = 1.0 + rho_l + rho_m
    if abs(rho_m - rho_l) <= 1e-14 * sc1 and abs(v_m - v_l) <= 1e-14 * (1.0 + abs(v_l)):
        out[6] = W_NONE
        lam = v_l - sound_k(rho_l, theta)
        out[8] = lam
        out[9] = lam
    elif rho_m <= rho_l:
        out[6] = W_RAREF
        out[8] = v_l - sound_k(rho_l, theta)
        out[9] = v_m - sound_k(rho_m, theta)
    else:
        out[6] = W_SHOCK
        s = sigma1_k(rho_l, v_l, rho_m, gamma)
        out[8] = s
        out[9] = s

    sc2 = 1.0 + rho_r + rho_m
    if abs(rho_m - rho_r) <= 1e-14 * sc2 and abs(v_m - v_r) <= 1e-14 * (1.0 + abs(v_r)):
        out[7] = W_NONE
        lam = v_r + sound_k(rho_r, theta)
        out[10] = lam
        out[11] = lam
    elif rho_m <= rho_r:
        out[7] = W_RAREF
        out[10] = v_m + sound_k(rho_m, theta)
        out[11] = v_r + sound_k(rho_r, theta)
    else:
        out[7] = W_SHOCK
        s = sigma2_k(rho_r, v_r, rho_m, gamma)
        out[10] = s
        out[11] = s
    return out


@njit
def raref1_state_k(xi, w0, theta):
    """State inside a centered 1-rarefaction: lam1(u) = xi, w(u) = w0."""
    s = theta * (w0 - xi) / (1.0 + theta)
    if s <= 0.0:
        return 0.0, 0.0
    rho = pow_g(s, 1.0 / theta)
    v = xi + s
    return rho, rho * v


@njit
def raref2_state_k(xi, z0, theta):
    """State inside a centered 2-rarefaction: lam2(u) = xi, z(u) = z0."""
    s = theta * (xi - z0) / (1.0 + theta)
    if s <= 0.0:
        return 0.0, 0.0
    rho = pow_g(s, 1.0 / theta)
    v = xi - s
    return rho, rho * v


@njit
def riemann_sample_k(rsol, xi, theta):
    """Sample the packed Riemann solution at similarity coordinate xi.

    At an exact discontinuity speed the downstream (right) state is
    returned.
    """
    k1 = int(rsol[6])
    k2 = int(rsol[7])
    if xi < rsol[8]:
        return rsol[0], rsol[1]
    if k1 == W_RAREF and xi < rsol[9]:
        w0 = invariants_k(rsol[0], rsol[1], theta)[1]
        return raref1_state_k(xi, w0, theta)
    if xi < rsol[10]:
        return rsol[4], rsol[4] * rsol[5]
    if k2 == W_RAREF and xi < rsol[11]:
        z0 = invariants_k(rsol[2], rsol[3], theta)[0]
        return raref2_state_k(xi, z0, theta)
    return rsol[2], rsol[3]


# geometry bundle index helpers: geo = (ax, ac, bx, bc, Bx, Bc)
@njit
def geo_a(geo, x):
    return ppoly_eval(geo[0], geo[1], x)


@njit
def geo_b(geo, x):
    return ppoly_eval(geo[2], geo[3], x)


@njit
def geo_B(geo, x):
    return ppoly_eval(geo[4], geo[5], x)


# ---------------------------------------------------------------------------
# in-cell pieces
# ---------------------------------------------------------------------------

@njit
def anchor_B(kind, q, geo):
    """B at the anchor of a profile piece (0 for the other kinds): the one
    geometry value shared by every evaluation of the piece, which the
    quadrature and iteration loops look up once per piece."""
    if kind == K_PROFILE:
        return geo_B(geo, q[0])
    return 0.0


@njit
def eval_piece(kind, q, x, tau, geo, gamma, theta):
    """Evaluate one piece at position x, time offset tau since the step start.

    Returns (rho, m, clamped) where clamped=1 flags a corrected pair with
    w < z that was snapped to vacuum.
    """
    return eval_piece_at(kind, q, anchor_B(kind, q, geo), x, tau, geo,
                         gamma, theta)


@njit
def eval_piece_at(kind, q, Bd, x, tau, geo, gamma, theta):
    """:func:`eval_piece` given ``Bd = anchor_B(kind, q, geo)``."""
    if kind == K_CONST:
        return q[0], q[1], 0
    if kind == K_RAREF1:
        if tau <= 0.0:
            return 0.0, 0.0, 0
        rho, m = raref1_state_k((x - q[0]) / tau, q[1], theta)
        return rho, m, 0
    if kind == K_RAREF2:
        if tau <= 0.0:
            return 0.0, 0.0, 0
        rho, m = raref2_state_k((x - q[0]) / tau, q[1], theta)
        return rho, m, 0
    if q[5] != 0.0 and tau > 0.0:
        return profile_at(q, Bd, geo_at(geo, x), tau, theta)
    return profile_at(q, Bd, (geo_B(geo, x), 0.0, 0.0), tau, theta)


@njit
def geo_at(geo, x):
    """(B, a, b) at x: the geometry a time-corrected profile needs there."""
    return geo_B(geo, x), geo_a(geo, x), geo_b(geo, x)


@njit
def profile_at(q, Bd, g, tau, theta):
    """Profile piece q at time offset tau and a point with geometry
    g = geo_at(geo, x) (only g[0] is read without time correction), given
    the anchor value Bd.  Returns (rho, m, clamped)."""
    dB = g[0] - Bd
    zb = q[1] * math.exp(q[3] * dB)
    wb = q[2] * math.exp(q[4] * dB)
    if q[5] != 0.0 and tau > 0.0:
        rb, mb = state_k(zb, wb, theta)
        if rb >= RHO_FLOOR:
            vb = mb / rb
            c = sound_k(rb, theta)
            av = g[1] * vb * c
            bx = g[2]
            zt = -(vb - c) * (q[3] * bx * zb) - av
            wt = -(vb + c) * (q[4] * bx * wb) + av
            zb += tau * zt
            wb += tau * wt
    if wb < zb:
        return 0.0, 0.0, 1
    rho, m = state_k(zb, wb, theta)
    return rho, m, 0


@njit
def eval_cell(kinds, pars, spds, npieces, xc, x, tau, geo, gamma, theta):
    """Evaluate a whole cell record at (x, tau)."""
    i = 0
    while i < npieces - 1 and x >= xc + spds[i] * tau:
        i += 1
    rho, m, _ = eval_piece(kinds[i], pars[i], x, tau, geo, gamma, theta)
    return rho, m


# ---------------------------------------------------------------------------
# implicit front solves
# ---------------------------------------------------------------------------

@njit
def hugoniot_z_k(rho_l, v_l, z_t, gamma, theta, guess):
    """Density on the 1-family Hugoniot locus through (rho_l, v_l) where the
    1-Riemann invariant equals z_t.  The map is strictly decreasing in rho."""
    if rho_l < RHO_FLOOR:
        return 0.0, ERR_HUGONIOT

    # F(rho) = v_l - h(rho) - K(rho) - z_t  (decreasing)
    zl = v_l - kfun(rho_l, theta)
    lo = rho_l
    hi = rho_l
    if z_t >= zl:
        # root at or below rho_l
        hi = rho_l
        lo = rho_l
        f_lo = zl - z_t
        it = 0
        while f_lo <= 0.0:
            lo *= 0.5
            f_lo = v_l - hjump_k(lo, rho_l, gamma) - kfun(lo, theta) - z_t
            it += 1
            if it > 600:
                return 0.0, ERR_HUGONIOT
    else:
        lo = rho_l
        hi = rho_l * 2.0
        it = 0
        while v_l - hjump_k(hi, rho_l, gamma) - kfun(hi, theta) - z_t > 0.0:
            hi *= 2.0
            it += 1
            if it > 600:
                return 0.0, ERR_HUGONIOT
    rho = guess
    if not (lo < rho < hi):
        rho = 0.5 * (lo + hi)
    f_prev = 0.0
    rho_prev = -1.0
    for _ in range(200):
        f = v_l - hjump_k(rho, rho_l, gamma) - kfun(rho, theta) - z_t
        if abs(f) <= 1e-14 * (1.0 + abs(z_t)):
            return rho, OK
        if f > 0.0:
            lo = rho
        else:
            hi = rho
        step_done = False
        if rho_prev > 0.0 and f != f_prev:
            rho_new = rho - f * (rho - rho_prev) / (f - f_prev)
            if lo < rho_new < hi:
                rho_prev = rho
                f_prev = f
                rho = rho_new
                step_done = True
        if not step_done:
            rho_prev = rho
            f_prev = f
            rho = 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # the bracket is down to adjacent doubles
            return mid, OK
    return rho, OK


@njit
def solve_front_k(kind, q, z_t, sigma_prev, sigma0, xc, dt, geo, gamma, theta,
                  speed_bound):
    """Fixed-point solve for one 1-family front of the fan chain.

    Given the left piece (time-corrected profile), find (sigma, u) such that
    z(u) = z_t and the Rankine-Hugoniot conditions hold at the half-time
    between the left trace at x = xc + sigma*dt/2 and the constant u.
    Damped iteration with a bisection fallback on the bracket
    [sigma_prev + eps, speed_bound].
    """
    tau = 0.5 * dt
    Bd = anchor_B(kind, q, geo)
    sigma = sigma0
    d_prev = BIG
    damping = 1.0
    rho_u = 0.0
    m_u = 0.0
    guess = -1.0
    for it in range(100):
        xf = xc + sigma * tau
        rl, ml, _ = eval_piece_at(kind, q, Bd, xf, tau, geo, gamma, theta)
        if rl < RHO_FLOOR:
            return sigma, 0.0, 0.0, ERR_FRONT_CONV
        vl = ml / rl
        rho_u, st = hugoniot_z_k(rl, vl, z_t, gamma, theta, guess)
        if st != OK:
            return sigma, 0.0, 0.0, st
        guess = rho_u
        v_u = vl - hjump_k(rho_u, rl, gamma)
        m_u = rho_u * v_u
        sigma_new = sigma1_k(rl, vl, rho_u, gamma)
        d = sigma_new - sigma
        if abs(d) < 1e-12:
            sigma = sigma_new
            break
        if abs(d) >= abs(d_prev):
            damping *= 0.5
            if damping < 1e-6:
                # bisection fallback on g(s) = sigma_rh(s) - s
                a = sigma_prev + 1e-13
                b = speed_bound
                for _ in range(200):
                    mid = 0.5 * (a + b)
                    xf = xc + mid * tau
                    rl, ml, _ = eval_piece_at(kind, q, Bd, xf, tau, geo,
                                              gamma, theta)
                    vl = ml / rl if rl >= RHO_FLOOR else 0.0
                    rho_u, st = hugoniot_z_k(rl, vl, z_t, gamma, theta, guess)
                    if st != OK:
                        return mid, 0.0, 0.0, st
                    g = sigma1_k(rl, vl, rho_u, gamma) - mid
                    if g > 0.0:
                        a = mid
                    else:
                        b = mid
                    if b - a < 1e-13:
                        break
                sigma = 0.5 * (a + b)
                break
        else:
            damping = min(1.0, damping * 1.5)
        d_prev = d
        sigma = sigma + damping * d
    # final refresh so the reported pair is consistent with sigma
    xf = xc + sigma * tau
    rl, ml, _ = eval_piece_at(kind, q, Bd, xf, tau, geo, gamma, theta)
    if rl < RHO_FLOOR:
        return sigma, 0.0, 0.0, ERR_FRONT_CONV
    vl = ml / rl
    rho_u, st = hugoniot_z_k(rl, vl, z_t, gamma, theta, rho_u)
    if st != OK:
        return sigma, 0.0, 0.0, st
    v_u = vl - hjump_k(rho_u, rl, gamma)
    m_u = rho_u * v_u
    resid = abs(sigma1_k(rl, vl, rho_u, gamma) - sigma)
    if resid > 1e-9:
        return sigma, rho_u, m_u, ERR_FRONT_CONV
    if sigma <= sigma_prev:
        return sigma, rho_u, m_u, ERR_FRONT_ORDER
    return sigma, rho_u, m_u, OK


@njit
def _rh_residual(s, rl, ml, rr, mr, gamma):
    """Rankine-Hugoniot residuals (mass, momentum) of the jump from
    (rl, ml) to (rr, mr) moving with speed s."""
    f1l, f2l = flux_k(rl, ml, gamma)
    f1r, f2r = flux_k(rr, mr, gamma)
    return f1r - f1l - s * (rr - rl), f2r - f2l - s * (mr - ml)


@njit
def _gap_outer(O, ga, gb, lq, lBd, rq, rBd, tau, theta):
    """Outer traces O = (rho, m) of the left profile lq at the left front
    and of the right profile rq at the right front (geometry ga, gb there);
    they depend on the front speeds only, not on the middle anchor."""
    O[0], O[1], _c1 = profile_at(lq, lBd, ga, tau, theta)
    O[2], O[3], _c2 = profile_at(rq, rBd, gb, tau, theta)


@njit
def _gap_residual(F, X, O, ga, gb, mq, mBd, tau, gamma, theta):
    """Half-time RH residuals of both gap fronts at X = (sa, sb, zm, wm),
    given the outer traces O and the geometry ga, gb at the two fronts."""
    mq[1] = X[2]
    mq[2] = X[3]
    rra, mra, _c1 = profile_at(mq, mBd, ga, tau, theta)
    F[0], F[1] = _rh_residual(X[0], O[0], O[1], rra, mra, gamma)
    rlb, mlb, _c2 = profile_at(mq, mBd, gb, tau, theta)
    F[2], F[3] = _rh_residual(X[1], rlb, mlb, O[2], O[3], gamma)


@njit
def _solve4(A, b):
    """4x4 linear solve with partial pivoting; A is row-major flat (16,).
    Returns (x, ok)."""
    n = 4
    M = A.copy()
    x = b.copy()
    for col in range(n):
        piv = col
        big = abs(M[4 * col + col])
        for r in range(col + 1, n):
            if abs(M[4 * r + col]) > big:
                big = abs(M[4 * r + col])
                piv = r
        if big < 1e-300:
            return x, False
        if piv != col:
            for cc in range(n):
                tmp = M[4 * col + cc]
                M[4 * col + cc] = M[4 * piv + cc]
                M[4 * piv + cc] = tmp
            tmp = x[col]
            x[col] = x[piv]
            x[piv] = tmp
        for r in range(col + 1, n):
            f = M[4 * r + col] / M[4 * col + col]
            for cc in range(col, n):
                M[4 * r + cc] -= f * M[4 * col + cc]
            x[r] -= f * x[col]
    for col in range(n - 1, -1, -1):
        s = x[col]
        for cc in range(col + 1, n):
            s -= M[4 * col + cc] * x[cc]
        x[col] = s / M[4 * col + col]
    return x, True


@njit
def gap_fill_k(lq, rq, xc, dt, geo, gamma, theta, sa0, sb0, zm0, wm0, fscale):
    """Gap fill: solve for two front speeds and the middle profile
    anchor so both half-time Rankine-Hugoniot conditions hold exactly.

    lq and rq are the (time-corrected) profiles outside the two fronts.
    Damped Newton with finite-difference Jacobian on X = (sa, sb, zm, wm).
    The left-front residuals do not depend on sb nor the right-front ones
    on sa, so those Jacobian entries are exact zeros; the geometry at the
    fronts and the outer traces are reused for the zm and wm columns.
    """
    tau = 0.5 * dt
    X = _buf(4)
    X[0] = sa0
    X[1] = sb0
    X[2] = zm0
    X[3] = wm0
    Xt = _buf(4)
    mq = _buf(6)
    mq[0] = xc
    mq[3] = -1.0
    mq[4] = 1.0
    mq[5] = 1.0
    lBd = geo_B(geo, lq[0])
    rBd = geo_B(geo, rq[0])
    mBd = geo_B(geo, xc)
    O = _buf(4)
    Ot = _buf(4)
    F = _buf(4)
    Fp = _buf(4)
    Ft = _buf(4)
    J = _buf(16)            # row-major 4x4
    atol = 1e-12 * fscale
    ga = geo_at(geo, xc + X[0] * tau)
    gb = geo_at(geo, xc + X[1] * tau)
    _gap_outer(O, ga, gb, lq, lBd, rq, rBd, tau, theta)
    _gap_residual(F, X, O, ga, gb, mq, mBd, tau, gamma, theta)
    fn = max(max(abs(F[0]), abs(F[1])), max(abs(F[2]), abs(F[3])))
    if fn <= 1e-13 * fscale:
        return X[0], X[1], X[2], X[3], OK
    for it in range(80):
        if fn <= atol:
            return X[0], X[1], X[2], X[3], OK
        # sa column: left outer trace and middle profile at the moved front
        h = 1e-7 * (1.0 + abs(X[0]))
        s = X[0] + h
        g = geo_at(geo, xc + s * tau)
        rl, ml, _c1 = profile_at(lq, lBd, g, tau, theta)
        mq[1] = X[2]
        mq[2] = X[3]
        rr, mr, _c2 = profile_at(mq, mBd, g, tau, theta)
        f0, f1 = _rh_residual(s, rl, ml, rr, mr, gamma)
        J[0] = (f0 - F[0]) / h
        J[4] = (f1 - F[1]) / h
        J[8] = 0.0
        J[12] = 0.0
        # sb column
        h = 1e-7 * (1.0 + abs(X[1]))
        s = X[1] + h
        g = geo_at(geo, xc + s * tau)
        rl, ml, _c1 = profile_at(mq, mBd, g, tau, theta)
        rr, mr, _c2 = profile_at(rq, rBd, g, tau, theta)
        f2, f3 = _rh_residual(s, rl, ml, rr, mr, gamma)
        J[1] = 0.0
        J[5] = 0.0
        J[9] = (f2 - F[2]) / h
        J[13] = (f3 - F[3]) / h
        # zm and wm columns: the fronts and outer traces stay put
        for cdx in range(2, 4):
            h = 1e-7 * (1.0 + abs(X[cdx]))
            Xs = X[cdx]
            X[cdx] = Xs + h
            _gap_residual(Fp, X, O, ga, gb, mq, mBd, tau, gamma, theta)
            X[cdx] = Xs
            for r in range(4):
                J[4 * r + cdx] = (Fp[r] - F[r]) / h
        rhs = _buf(4)
        for r in range(4):
            rhs[r] = -F[r]
        dX, ok = _solve4(J, rhs)
        if not ok:
            for r in range(4):
                J[5 * r] += 1e-9 * (1.0 + abs(J[5 * r]))
            dX, ok = _solve4(J, rhs)
            if not ok:
                return X[0], X[1], X[2], X[3], ERR_GAP_CONV
        lam = 1.0
        improved = False
        for _ in range(40):
            for r in range(4):
                Xt[r] = X[r] + lam * dX[r]
            gat = geo_at(geo, xc + Xt[0] * tau)
            gbt = geo_at(geo, xc + Xt[1] * tau)
            _gap_outer(Ot, gat, gbt, lq, lBd, rq, rBd, tau, theta)
            _gap_residual(Ft, Xt, Ot, gat, gbt, mq, mBd, tau, gamma, theta)
            fnew = max(max(abs(Ft[0]), abs(Ft[1])), max(abs(Ft[2]), abs(Ft[3])))
            if fnew < fn * (1.0 - 1e-4 * lam) or fnew <= atol:
                for r in range(4):
                    X[r] = Xt[r]
                    F[r] = Ft[r]
                    O[r] = Ot[r]
                ga = gat
                gb = gbt
                fn = fnew
                improved = True
                break
            lam *= 0.5
        if not improved:
            return X[0], X[1], X[2], X[3], ERR_GAP_CONV
    if fn <= atol:
        return X[0], X[1], X[2], X[3], OK
    return X[0], X[1], X[2], X[3], ERR_GAP_CONV


# ---------------------------------------------------------------------------
# cell construction: fans, away-from-vacuum cells, near-vacuum cells
# ---------------------------------------------------------------------------

@njit
def fan_interval_count(span, h):
    """Number of invariant-space intervals covering span with steps <= h."""
    if span <= 0.0:
        return 0
    k = int(math.ceil(span / h - 1e-9))
    if k < 1:
        k = 1
    return k


@njit
def _emit_profile(kinds, pars, pos, xa, z, w, sz, sw, corr):
    kinds[pos] = K_PROFILE
    pars[pos, 0] = xa
    pars[pos, 1] = z
    pars[pos, 2] = w
    pars[pos, 3] = sz
    pars[pos, 4] = sw
    pars[pos, 5] = corr
    return pos + 1


@njit
def _emit_const(kinds, pars, pos, rho, m):
    kinds[pos] = K_CONST
    pars[pos, 0] = rho
    pars[pos, 1] = m
    pars[pos, 2] = 0.0
    pars[pos, 3] = 0.0
    pars[pos, 4] = 0.0
    pars[pos, 5] = 0.0
    return pos + 1


@njit
def invert_correction_k(x_a, z_r, w_r, tau, geo, gamma, theta):
    """Anchor invariants (z_d, w_d) of a steady profile at x_a whose
    time-corrected value at (x_a, tau) equals (z_r, w_r).

    Keeps the half-time trace on the solved Hugoniot state so the
    Rankine-Hugoniot conditions hold exactly at the middle time; the
    correction is O(tau (a+b)), so plain fixed-point iteration contracts.
    """
    zd = z_r
    wd = w_r
    ax = geo_a(geo, x_a)
    bx = geo_b(geo, x_a)
    if tau <= 0.0 or (ax == 0.0 and bx == 0.0):
        return zd, wd
    for _ in range(60):
        rb, mb = state_k(zd, wd, theta)
        if rb < RHO_FLOOR:
            break
        vb = mb / rb
        cs = sound_k(rb, theta)
        av = ax * vb * cs
        zc = zd + tau * ((vb - cs) * bx * zd - av)
        wc = wd + tau * (-(vb + cs) * bx * wd + av)
        ez = zc - z_r
        ew = wc - w_r
        zd -= ez
        wd -= ew
        if abs(ez) + abs(ew) < 1e-15 * (1.0 + abs(z_r) + abs(w_r)):
            break
    return zd, wd


@njit
def fan_chain_k(x_first, zL, wL, z_end, include_final, xc, dx, dt, h,
                geo, gamma, theta, kinds, pars, spds, fflag, pos):
    """Rarefaction-fan front chain: steady-profile pieces separated by
    implicitly solved rarefaction-shock fronts with invariant steps of h.

    Emits the leading profile anchored at ``x_first`` with data
    ``(zL, wL)`` and then one solved front + profile per fan target.  When
    ``include_final`` the chain runs through ``z_end`` itself (truncated
    near-vacuum fans); otherwise the last target is left to the gap fill.
    Returns (pos, sigma_prev, z_last, w_last, status).
    """
    pos = _emit_profile(kinds, pars, pos, x_first, zL, wL, -1.0, 1.0, 1.0)
    speed_bound = dx / dt
    sigma_prev = -speed_bound * (1.0 + 1e-9)
    z_last = zL
    w_last = wL
    span = z_end - zL
    if span <= 1e-13 * (1.0 + abs(zL) + abs(z_end)):
        return pos, sigma_prev, z_last, w_last, OK
    k_int = fan_interval_count(span, h)
    nf = k_int if include_final else k_int - 1
    z_prev = zL
    for i in range(1, nf + 1):
        zt = zL + i * h
        if i == k_int or zt > z_end:
            zt = z_end
        r_prev, _mp = state_k(z_prev, wL, theta)
        r_t, _mt = state_k(zt, wL, theta)
        sigma0 = 0.5 * (z_prev + wL) - lax_S_k(r_t, r_prev, gamma)
        sigma, ru, mu, st = solve_front_k(
            kinds[pos - 1], _row(pars, pos - 1), zt, sigma_prev, sigma0, xc,
            dt, geo, gamma, theta, speed_bound)
        if st != OK:
            return pos, sigma_prev, z_last, w_last, st
        spds[pos - 1] = sigma
        fflag[pos - 1] = 1
        zu, wu = invariants_k(ru, mu, theta)
        x_a = xc + sigma * dt * 0.5
        zd, wd = invert_correction_k(x_a, zu, wu, 0.5 * dt, geo, gamma, theta)
        pos = _emit_profile(kinds, pars, pos, x_a, zd, wd, -1.0, 1.0, 1.0)
        sigma_prev = sigma
        z_prev = zt
        z_last = zu
        w_last = wu
    return pos, sigma_prev, z_last, w_last, OK


@njit
def flatten_riemann_k(rsol, xc, clip_lo, clip_hi, theta,
                      kinds, pars, spds, fflag, pos):
    """Emit a sampled (exact) Riemann solution as flat cell pieces,
    dropping pieces entirely outside (clip_lo, clip_hi) in ray speed."""
    segk = np.empty(5, np.int64)
    segp = np.zeros((5, 6))
    bspd = np.empty(4)
    bfr = np.zeros(4, np.int64)
    ns = 0
    nb = 0
    k1 = int(rsol[6])
    k2 = int(rsol[7])
    rl = rsol[0]
    ml = rsol[1]
    rr = rsol[2]
    mr = rsol[3]
    rM = rsol[4]
    vM = rsol[5]
    if k1 == W_SHOCK:
        segk[ns] = K_CONST
        segp[ns, 0] = rl
        segp[ns, 1] = ml
        ns += 1
        bspd[nb] = rsol[8]
        bfr[nb] = 1
        nb += 1
    elif k1 == W_RAREF and rsol[9] > rsol[8]:
        segk[ns] = K_CONST
        segp[ns, 0] = rl
        segp[ns, 1] = ml
        ns += 1
        bspd[nb] = rsol[8]
        bfr[nb] = 0
        nb += 1
        segk[ns] = K_RAREF1
        segp[ns, 0] = xc
        segp[ns, 1] = invariants_k(rl, ml, theta)[1]
        ns += 1
        bspd[nb] = rsol[9]
        bfr[nb] = 0
        nb += 1
    segk[ns] = K_CONST
    segp[ns, 0] = rM
    segp[ns, 1] = rM * vM
    ns += 1
    if k2 == W_SHOCK:
        bspd[nb] = rsol[10]
        bfr[nb] = 1
        nb += 1
        segk[ns] = K_CONST
        segp[ns, 0] = rr
        segp[ns, 1] = mr
        ns += 1
    elif k2 == W_RAREF and rsol[11] > rsol[10]:
        bspd[nb] = rsol[10]
        bfr[nb] = 0
        nb += 1
        segk[ns] = K_RAREF2
        segp[ns, 0] = xc
        segp[ns, 1] = invariants_k(rr, mr, theta)[0]
        ns += 1
        bspd[nb] = rsol[11]
        bfr[nb] = 0
        nb += 1
        segk[ns] = K_CONST
        segp[ns, 0] = rr
        segp[ns, 1] = mr
        ns += 1
    i0 = 0
    while i0 < ns - 1 and bspd[i0] <= clip_lo:
        i0 += 1
    i1 = ns - 1
    while i1 > i0 and bspd[i1 - 1] >= clip_hi:
        i1 -= 1
    for p in range(i0, i1 + 1):
        kinds[pos] = segk[p]
        for cc in range(6):
            pars[pos, cc] = segp[p, cc]
        if p < i1:
            spds[pos] = bspd[p]
            fflag[pos] = bfr[p]
        pos += 1
    return pos


@njit
def _unreflect_append(skinds, spars, sspds, sfflag, n_src,
                      kinds, pars, spds, fflag, pos):
    """Append pieces built in the reflected frame (x -> -x, m -> -m),
    mapping them back; piece order and boundary speeds reverse."""
    for i in range(n_src):
        src = n_src - 1 - i
        kk = skinds[src]
        if kk == K_CONST:
            kinds[pos] = K_CONST
            pars[pos, 0] = spars[src, 0]
            pars[pos, 1] = -spars[src, 1]
            pars[pos, 2] = 0.0
            pars[pos, 3] = 0.0
            pars[pos, 4] = 0.0
            pars[pos, 5] = 0.0
        elif kk == K_PROFILE:
            kinds[pos] = K_PROFILE
            pars[pos, 0] = -spars[src, 0]
            pars[pos, 1] = -spars[src, 2]
            pars[pos, 2] = -spars[src, 1]
            pars[pos, 3] = -spars[src, 4]
            pars[pos, 4] = -spars[src, 3]
            pars[pos, 5] = spars[src, 5]
        elif kk == K_RAREF1:
            kinds[pos] = K_RAREF2
            pars[pos, 0] = -spars[src, 0]
            pars[pos, 1] = -spars[src, 1]
            pars[pos, 2] = 0.0
            pars[pos, 3] = 0.0
            pars[pos, 4] = 0.0
            pars[pos, 5] = 0.0
        else:
            kinds[pos] = K_RAREF1
            pars[pos, 0] = -spars[src, 0]
            pars[pos, 1] = -spars[src, 1]
            pars[pos, 2] = 0.0
            pars[pos, 3] = 0.0
            pars[pos, 4] = 0.0
            pars[pos, 5] = 0.0
        if src > 0:
            spds[pos] = -sspds[src - 1]
            fflag[pos] = sfflag[src - 1]
        pos += 1
    return pos


@njit
def _cell_is_inert(j, rsol, dx, geo):
    """Equal node states in a locally straight duct stay constant exactly."""
    if rsol[0] != rsol[2] or rsol[1] != rsol[3]:
        return False
    xc = j * dx
    for k in range(5):
        x = xc + (k - 2) * 0.5 * dx
        if geo_a(geo, x) != 0.0 or geo_b(geo, x) != 0.0:
            return False
    return True


@njit
def build_away_cell_k(j, rsol, par, geo, geor, kinds, pars, spds, fflag, pos0):
    """Away-from-vacuum construction: per-family fans plus the
    gap fill with the floating middle profile and two solved fronts."""
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    dt = par[3]
    h = pow_g(dx, par[4])
    xc = j * dx
    speed_bound = dx / dt
    if _cell_is_inert(j, rsol, dx, geo):
        pos = _emit_const(kinds, pars, pos0, rsol[0], rsol[1])
        return pos, OK

    rl = rsol[0]
    ml = rsol[1]
    rr = rsol[2]
    mr = rsol[3]
    rM = rsol[4]
    vM = rsol[5]
    k1 = int(rsol[6])
    k2 = int(rsol[7])
    vl = ml / rl
    vr = mr / rr
    zl, wl = invariants_k(rl, ml, theta)
    zr, wr = invariants_k(rr, mr, theta)
    zM = vM - kfun(rM, theta)
    wM = vM + kfun(rM, theta)

    pos = pos0
    if k1 == W_RAREF:
        pos, sprev_l, lz, lw, st = fan_chain_k(
            (j - 1) * dx, zl, wl, zM, False, xc, dx, dt, h,
            geo, gamma, theta, kinds, pars, spds, fflag, pos)
        if st != OK:
            return pos, st
        r_last, _m1 = state_k(lz, lw, theta)
        r_end, _m2 = state_k(zM, lw, theta)
        guess_a = 0.5 * (lz + lw) - lax_S_k(r_end, r_last, gamma)
    else:
        pos = _emit_profile(kinds, pars, pos, (j - 1) * dx, zl, wl, -1.0, 1.0, 1.0)
        sprev_l = -speed_bound * (1.0 + 1e-9)
        if k1 == W_SHOCK:
            guess_a = sigma1_k(rl, vl, rM, gamma)
        else:
            guess_a = vM - sound_k(rM, theta)
    ilast_left = pos - 1

    # right side built in the reflected frame
    capr = fan_interval_count(wr - wM, h) + 3
    skinds = np.empty(capr, np.int64)
    spars = np.zeros((capr, 6))
    sspds = np.empty(capr)
    sfflag = np.zeros(capr, np.int64)
    if k2 == W_RAREF:
        nsr, sprev_r, rz, rw, st = fan_chain_k(
            -(j + 1) * dx, -wr, -zr, -wM, False, -xc, dx, dt, h,
            geor, gamma, theta, skinds, spars, sspds, sfflag, 0)
        if st != OK:
            return pos, st
        r_last, _m1 = state_k(rz, rw, theta)
        r_end, _m2 = state_k(-wM, rw, theta)
        guess_b = -(0.5 * (rz + rw) - lax_S_k(r_end, r_last, gamma))
        right_front_min = -sprev_r
    else:
        nsr = _emit_profile(skinds, spars, 0, -(j + 1) * dx, -wr, -zr, -1.0, 1.0, 1.0)
        right_front_min = speed_bound * (1.0 + 1e-9)
        if k2 == W_SHOCK:
            guess_b = sigma2_k(rr, vr, rM, gamma)
        else:
            guess_b = vM + sound_k(rM, theta)

    # innermost right piece, mapped to the original frame
    rq = _buf(6)
    rq[0] = -spars[nsr - 1, 0]
    rq[1] = -spars[nsr - 1, 2]
    rq[2] = -spars[nsr - 1, 1]
    rq[3] = -spars[nsr - 1, 4]
    rq[4] = -spars[nsr - 1, 3]
    rq[5] = spars[nsr - 1, 5]

    f1m, f2m = flux_k(rM, rM * vM, gamma)
    fscale = 1.0 + abs(f1m) + abs(f2m)
    sa, sb, zm, wm, st = gap_fill_k(
        _row(pars, ilast_left), rq, xc, dt, geo, gamma, theta,
        guess_a, guess_b, zM, wM, fscale)
    if st != OK:
        return pos, st
    if not (sprev_l < sa < sb < right_front_min):
        return pos, ERR_ORDERING
    if abs(sa) > speed_bound or abs(sb) > speed_bound:
        return pos, ERR_SPEED_BOUND

    spds[pos - 1] = sa
    fflag[pos - 1] = 1
    pos = _emit_profile(kinds, pars, pos, xc, zm, wm, -1.0, 1.0, 1.0)
    spds[pos - 1] = sb
    fflag[pos - 1] = 1
    pos = _unreflect_append(skinds, spars, sspds, sfflag, nsr,
                            kinds, pars, spds, fflag, pos)
    return pos, OK


@njit
def vac_left_side_k(j, rho_l, m_l, par, geo, kinds, pars, spds, fflag, pos0):
    """Near-vacuum left-side construction (Case-1 sub-dispatch on u_L).

    Returns (pos, lam_edge, rho_star, m_star, subcode, clamped_x4, status).
    The emitted pieces cover the region left of the ray with speed
    ``lam_edge``; for sub-case 1.2(i) a single constant piece is emitted
    (callers covering the whole cell with the plain Riemann solution rewind
    it).
    """
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    dt = par[3]
    h = pow_g(dx, par[4])
    beta = par[5]
    M = par[7]
    xc = j * dx
    thr = pow_g(dx, beta)
    Lj = -M * math.exp(-geo_B(geo, (j + 1) * dx))
    pos = pos0
    if rho_l < RHO_FLOOR:
        return pos, -BIG, 0.0, 0.0, SUB_NONE, 0, OK
    v_l = m_l / rho_l
    zl, wl = invariants_k(rho_l, m_l, theta)
    if rho_l > 2.0 * thr:
        # truncated fan down to density 2*(dx)^beta, then a z-floor at Lj
        z1 = wl - 2.0 * kfun(2.0 * thr, theta)
        pos, sprev, z2, w2, st = fan_chain_k(
            (j - 1) * dx, zl, wl, z1, True, xc, dx, dt, h,
            geo, gamma, theta, kinds, pars, spds, fflag, pos)
        if st != OK:
            return pos, 0.0, 0.0, 0.0, SUB_11, 0, st
        r2, m2 = state_k(z2, w2, theta)
        lam_edge = (z2 + w2) * 0.5 - sound_k(r2, theta)
        z3 = z2
        if z3 < Lj:
            z3 = Lj
        rs, ms = state_k(z3, wl, theta)
        return pos, lam_edge, rs, ms, SUB_11, 0, OK
    if zl >= Lj:
        pos = _emit_const(kinds, pars, pos, rho_l, m_l)
        lam_edge = v_l - sound_k(rho_l, theta)
        return pos, lam_edge, rho_l, m_l, SUB_12I, 0, OK
    # 1.2(ii): decay profile anchored at the cell center down to the floor
    need = math.log(zl / Lj)
    Bc = geo_B(geo, xc)
    Br = geo_B(geo, (j + 1) * dx)
    clamped = 0
    if Br - Bc >= need:
        lo = xc
        hi = (j + 1) * dx
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if geo_B(geo, mid) - Bc < need:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * (1.0 + abs(hi)):
                break
        x4 = 0.5 * (lo + hi)
    else:
        x4 = (j + 1) * dx
        clamped = 1
    fac = math.exp(-(geo_B(geo, x4) - Bc))
    z4 = zl * fac
    w4 = wl * fac
    r4, m4 = state_k(z4, w4, theta)
    lam_edge = (z4 + w4) * 0.5 - sound_k(r4, theta)
    pos = _emit_profile(kinds, pars, pos, xc, zl, wl, -1.0, -1.0, 1.0)
    return pos, lam_edge, r4, m4, SUB_12II, clamped, OK


@njit
def _build_vac_case1_k(j, rho_l, m_l, rho_r, m_r, par, geo,
                       kinds, pars, spds, fflag, pos0):
    """Near-vacuum Case 1 (1-rarefaction + 2-shock)."""
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    xc = j * dx
    pos, lam_edge, rs, ms, sub, clamped, st = vac_left_side_k(
        j, rho_l, m_l, par, geo, kinds, pars, spds, fflag, pos0)
    if st != OK:
        return pos, sub, clamped, st
    if sub == SUB_12I or sub == SUB_NONE:
        rsol = riemann_solve_k(rho_l, m_l, rho_r, m_r, gamma, theta)
        pos = flatten_riemann_k(rsol, xc, -BIG, BIG, theta,
                                kinds, pars, spds, fflag, pos0)
        return pos, sub, clamped, OK
    rsol2 = riemann_solve_k(rs, ms, rho_r, m_r, gamma, theta)
    spds[pos - 1] = lam_edge
    fflag[pos - 1] = 0
    pos = flatten_riemann_k(rsol2, xc, lam_edge, BIG, theta,
                            kinds, pars, spds, fflag, pos)
    return pos, sub, clamped, OK


@njit
def build_vac_cell_k(j, rsol, par, geo, geor, kinds, pars, spds, fflag,
                     pos0, cap):
    """Construction dispatch for near-vacuum middle states.

    Returns (pos, case_code, subcode, clamped, status).  Case 2 runs the
    Case-1 machinery in the reflected frame (x -> -x, m -> -m); Case 3
    uses the Case-1 side selection on both sides around a central Riemann
    solution; Case 4 is the plain Riemann solution.
    """
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    xc = j * dx
    rl = rsol[0]
    ml = rsol[1]
    rr = rsol[2]
    mr = rsol[3]
    k1 = int(rsol[6])
    k2 = int(rsol[7])
    if rl < RHO_FLOOR and rr < RHO_FLOOR:
        pos = _emit_const(kinds, pars, pos0, 0.0, 0.0)
        return pos, CASE_VAC_ALLVAC, SUB_NONE, 0, OK
    if _cell_is_inert(j, rsol, dx, geo):
        pos = _emit_const(kinds, pars, pos0, rl, ml)
        return pos, CASE_VAC_ALLVAC + 1, SUB_NONE, 0, OK
    if k1 != W_SHOCK and k2 == W_SHOCK:
        pos, sub, clamped, st = _build_vac_case1_k(
            j, rl, ml, rr, mr, par, geo, kinds, pars, spds, fflag, pos0)
        return pos, CASE_VAC_1, sub, clamped, st
    if k1 == W_SHOCK and k2 != W_SHOCK:
        skinds = np.empty(cap, np.int64)
        spars = np.zeros((cap, 6))
        sspds = np.empty(cap)
        sfflag = np.zeros(cap, np.int64)
        npz, sub, clamped, st = _build_vac_case1_k(
            -j, rr, -mr, rl, -ml, par, geor, skinds, spars, sspds, sfflag, 0)
        if st != OK:
            return pos0, CASE_VAC_2, sub, clamped, st
        pos = _unreflect_append(skinds, spars, sspds, sfflag, npz,
                                kinds, pars, spds, fflag, pos0)
        return pos, CASE_VAC_2, sub, clamped, st
    if k1 == W_SHOCK and k2 == W_SHOCK:
        pos = flatten_riemann_k(rsol, xc, -BIG, BIG, theta,
                                kinds, pars, spds, fflag, pos0)
        return pos, CASE_VAC_4, SUB_NONE, 0, OK
    # Case 3: two rarefactions (or degenerate waves)
    pos, lamL, rsl, msl, subL, clampL, st = vac_left_side_k(
        j, rl, ml, par, geo, kinds, pars, spds, fflag, pos0)
    if st != OK:
        return pos, CASE_VAC_3, subL, clampL, st
    skinds = np.empty(cap, np.int64)
    spars = np.zeros((cap, 6))
    sspds = np.empty(cap)
    sfflag = np.zeros(cap, np.int64)
    nsr, lamRr, rsrr, msrr, subR, clampR, st2 = vac_left_side_k(
        -j, rr, -mr, par, geor, skinds, spars, sspds, sfflag, 0)
    if st2 != OK:
        return pos, CASE_VAC_3, subR, clampR, st2
    lamR = BIG if lamRr == -BIG else -lamRr
    rsolm = riemann_solve_k(rsl, msl, rsrr, -msrr, gamma, theta)
    if pos > pos0:
        spds[pos - 1] = lamL
        fflag[pos - 1] = 0
    pos = flatten_riemann_k(rsolm, xc, lamL, lamR, theta,
                            kinds, pars, spds, fflag, pos)
    if nsr > 0:
        spds[pos - 1] = lamR
        fflag[pos - 1] = 0
        pos = _unreflect_append(skinds, spars, sspds, sfflag, nsr,
                                kinds, pars, spds, fflag, pos)
    sub = subL * 10 + subR
    clamped = clampL + clampR
    return pos, CASE_VAC_3, sub, clamped, OK


# ---------------------------------------------------------------------------
# whole-step drivers
# ---------------------------------------------------------------------------

@njit
def build_step_pass_a(jcells, lrho, lm, rrho, rm, par, rsols, caps):
    """Solve all cell Riemann problems; estimate per-cell piece capacity."""
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    h = pow_g(dx, par[4])
    beta = par[5]
    thr = pow_g(dx, beta)
    C = len(jcells)
    for c in range(C):
        rsol = riemann_solve_k(lrho[c], lm[c], rrho[c], rm[c], gamma, theta)
        for q in range(RSOL_LEN):
            rsols[c, q] = rsol[q]
        rM = rsol[4]
        vM = rsol[5]
        zl, wl = invariants_k(lrho[c], lm[c], theta)
        zr, wr = invariants_k(rrho[c], rm[c], theta)
        if rM > thr:
            zM = vM - kfun(rM, theta)
            wM = vM + kfun(rM, theta)
            cap = 9
            if int(rsol[6]) == W_RAREF:
                cap += fan_interval_count(zM - zl, h) + 2
            if int(rsol[7]) == W_RAREF:
                cap += fan_interval_count(wr - wM, h) + 2
        else:
            cap = 18
            if lrho[c] > 2.0 * thr:
                z1 = wl - 2.0 * kfun(2.0 * thr, theta)
                cap += fan_interval_count(z1 - zl, h) + 2
            if rrho[c] > 2.0 * thr:
                w1 = zr + 2.0 * kfun(2.0 * thr, theta)
                cap += fan_interval_count(wr - w1, h) + 2
        caps[c] = cap


@njit
def build_step_pass_b(jcells, rsols, offs, par, geo, geor,
                      kinds, pars, spds, fflag,
                      ncount, ccase, csub, cclamp, cerr):
    """Build every cell record for one step."""
    theta = par[1]
    dx = par[2]
    dt = par[3]
    beta = par[5]
    thr = pow_g(dx, beta)
    speed_bound = dx / dt
    C = len(jcells)
    for c in range(C):
        j = jcells[c]
        pos0 = offs[c]
        cap = offs[c + 1] - pos0
        rsol = rsols[c]
        rM = rsol[4]
        if rM > thr:
            pos, st = build_away_cell_k(j, rsol, par, geo, geor,
                                        kinds, pars, spds, fflag, pos0)
            k1 = int(rsol[6])
            k2 = int(rsol[7])
            if k1 != W_SHOCK and k2 == W_SHOCK:
                ccase[c] = 1
            elif k1 == W_SHOCK and k2 != W_SHOCK:
                ccase[c] = 2
            elif k1 != W_SHOCK and k2 != W_SHOCK:
                ccase[c] = 3
            else:
                ccase[c] = 4
            csub[c] = SUB_NONE
            cclamp[c] = 0
        else:
            pos, case, sub, clamped, st = build_vac_cell_k(
                j, rsol, par, geo, geor, kinds, pars, spds, fflag, pos0, cap)
            ccase[c] = case
            csub[c] = sub
            cclamp[c] = clamped
        n = pos - pos0
        ncount[c] = n
        if st == OK:
            # boundary sanity: ordered rays inside the cell light cone
            prev = -BIG
            prev_front = -BIG
            for i in range(n - 1):
                s = spds[pos0 + i]
                if s < prev - 1e-11 * speed_bound:
                    st = ERR_ORDERING
                    break
                if fflag[pos0 + i] == 1:
                    if s <= prev_front:
                        st = ERR_ORDERING
                        break
                    prev_front = s
                prev = s
                if abs(s) > speed_bound * (1.0 + 1e-12) and abs(s) < BIG:
                    st = ERR_SPEED_BOUND
                    break
        cerr[c] = st


@njit
def _gauss5_piece(kind, q, a, b, tau, geo, gamma, theta):
    """Integral of (rho, m) over [a, b] for one piece at time offset tau."""
    if kind == K_CONST:
        return q[0] * (b - a), q[1] * (b - a)
    Bd = anchor_B(kind, q, geo)
    xm = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_r = 0.0
    acc_m = 0.0
    for g in range(5):
        x = xm + half * _G5X[g]
        rho, m, _cl = eval_piece_at(kind, q, Bd, x, tau, geo, gamma, theta)
        acc_r += _G5W[g] * rho
        acc_m += _G5W[g] * m
    return acc_r * half, acc_m * half

