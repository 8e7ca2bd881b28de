"""Hot numeric kernels (scalar math, Riemann solves, in-cell constructions).

Everything here is interpreted Python on Python floats, with no NumPy:
callers hand array inputs over as Python lists (``ndarray.tolist()``), and
arithmetic on Python floats costs a fraction of that on NumPy scalars.  The
step drivers append their results to Python lists, which the caller turns
into arrays once per step.  Public modules wrap these functions with typed
APIs, and tests exercise them through the wrappers.  Kernels call each
other through module globals, so a wrapper installed on this module by name
sees every inner call.

Conventions used throughout:

* a gas state is the scalar pair ``(rho, m)``; invariants are ``(z, w)``
  with ``z = v - rho^theta/theta``, ``w = v + rho^theta/theta``;
* piecewise polynomials (for the area coefficient ``a``, the bound
  function ``b`` and its cumulative integral ``B``) come from the data of
  :class:`nozzleflow.nozzle.PiecewisePoly`, in scipy's ``PPoly`` layout:
  breakpoints ``xs`` (n+1,) and coefficients ``c`` (k+1, n), highest
  degree first, packed by :func:`pack_ppoly`, clamped evaluation outside
  the domain;
* an in-cell solution is a list of *pieces* separated by rays
  ``x = xc + s*(t - t_n)``.  A piece is the list ``[kind, params, speed,
  front]``: ``params`` a 6-tuple of floats, ``speed`` the ray to the
  piece's right and ``front`` 1 when that ray is a solved front (0.0 and 0
  on a cell's last piece).  Piece kinds:

  - ``K_CONST``    params ``(rho, m)``
  - ``K_PROFILE``  params ``(x_anchor, z_d, w_d, sz, sw, corr)`` where the
    spatial shape is ``z(x) = z_d*exp(sz*(B(x)-B(x_d)))`` and likewise for
    ``w`` with ``sw``; ``corr=1`` applies the linear-in-time correction
    ``z_t = -lam1*z_x - a*v*rho^theta``, ``w_t = -lam2*w_x + a*v*rho^theta``
    with ``v = (z+w)/2`` and ``rho^theta = theta*(w-z)/2`` read from the
    steady invariants, only where ``rho^theta`` reaches
    ``sound_floor(theta) = RHO_FLOOR^theta`` (steady profiles use ``sz=-1,
    sw=+1``; the near-vacuum decay profile uses ``sz=sw=-1``; its mirror
    ``sz=sw=+1``);
  - ``K_RAREF1``   params ``(x_center, w0)``: centered 1-rarefaction wedge;
  - ``K_RAREF2``   params ``(x_center, z0)``: centered 2-rarefaction wedge.

  A piece evaluates (:func:`eval_piece`, :func:`profile_at`) to the state
  ``(rho, m)``; a corrected profile pair with w < z, or a density below
  ``RHO_FLOOR``, is vacuum ``(0.0, 0.0)``.

Straight cells.  The packed geometry ``geo`` (see :func:`geo_at`) ends with
the duct's flat runs, the x-intervals where every piece of the a-table and
the b-table is zero (``nozzle.flat_runs``).  An away-from-vacuum cell
[(j-1)dx, (j+1)dx] inside one flat run is built with the *straight view*
``geo = None`` in both frames, for which :func:`geo_a`, :func:`geo_b`,
:func:`geo_B` and :func:`geo_at` answer 0 without a lookup, and
:func:`profile_at` then skips its exponentials and its time correction.
This changes no bit: there the tables give a = b = 0.0, and B, the
antiderivative of b, one constant, which the away-cell construction reads
only as differences (``anchor_B``, ``dB``), exactly 0.0 either way; and
``exp(+-0.0)`` is 1.0 and a correction with a = b = 0 adds +-0.0.  The
construction reads the geometry at its anchors (j-1)dx, jdx, (j+1)dx and at
fronts xc + s dt/2, all in the cell while the trial speeds s stay within
twice the speed bound dx/dt that every accepted front meets.  The
near-vacuum constructions keep the tables, because ``vac_left_side_k``
reads exp(-B) absolutely, through its floor ``Lj``.  Under the straight view
no trace depends on where it is read, so :func:`gap_fill_k` evaluates the
outer traces once per call and the middle profile once per point, for both
fronts, and reuses their fluxes: a fresh evaluation would give the same
bits.

Node row.  Pass A takes each node's sound speed c = rho^theta once per
step.  The cell's Riemann solve reads rho^theta / theta as c / theta and
rho^theta as c, and packs the two states' invariants (z, w) and rho_M^theta
into its solution (``RSOL_LEN``), where pass B reads them.  These are the
operations of ``kfun``, ``sound_k`` and ``invariants_k`` in their order, so
no bit changes.
"""

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

# piece kinds
K_CONST = 0
K_PROFILE = 1
K_RAREF1 = 2
K_RAREF2 = 3

# wave kinds inside a packed Riemann solution
W_NONE = 0
W_RAREF = 1
W_SHOCK = 2

# packed Riemann solution layout (17 floats)
# [rl, ml, rr, mr, rM, vM, k1, k2, s1lo, s1hi, s2lo, s2hi, zl, wl, zr, wr, cM]
# with the invariants (z, w) of the two states as ``invariants_k`` gives
# them and cM = rM^theta
RSOL_LEN = 17

# cell construction case codes: away from vacuum, the wave case 1..4 of
# ``_wave_case``; near vacuum, 10 * wave case + 1 (subcases returned
# separately), or all vacuum, or inert
CASE_VAC_1 = 11
CASE_VAC_2 = 21
CASE_VAC_3 = 31
CASE_VAC_4 = 41
CASE_VAC_ALLVAC = 50
CASE_VAC_INERT = 51
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
# piecewise polynomial evaluation (a, b and B)
# ---------------------------------------------------------------------------

def pack_ppoly(xs, c):
    """Kernel-side form of PPoly data (xs, c): breakpoints as a list of
    floats and one coefficient tuple per piece (highest degree first), so
    that :func:`ppoly_eval` runs on Python floats."""
    return xs.tolist(), [tuple(col) for col in c.T.tolist()]


def _piece(xs, x):
    """(i, t): the piece i of the packed breakpoints xs that holds x, with
    x clamped to their range (a ``bisect`` lookup), and x's offset t in
    it."""
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
    return i, x - xs[i]


def ppoly_eval(xs, c, x):
    """Value at x of PPoly data packed by :func:`pack_ppoly`, with x
    clamped to the breakpoint range: :func:`_piece`, then Horner's rule on
    Python floats."""
    i, t = _piece(xs, x)
    acc = 0.0
    for coef in c[i]:
        acc = acc * t + coef
    return acc


# ---------------------------------------------------------------------------
# scalar gas algebra
# ---------------------------------------------------------------------------

def pow_g(x, e):
    """x**e via exp/log with a vacuum guard (x >= 0)."""
    if x <= 0.0:
        return 0.0
    return math.exp(e * math.log(x))


def pressure_k(rho, gamma):
    return pow_g(rho, gamma) / gamma


def kfun(rho, theta):
    """rho^theta / theta (half invariant gap)."""
    return pow_g(rho, theta) / theta


def invariants_k(rho, m, theta):
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    v = m / rho
    k = kfun(rho, theta)
    return v - k, v + k


def state_k(z, w, theta):
    t = theta * (w - z) / 2.0
    if t <= 0.0:
        return 0.0, 0.0
    rho = pow_g(t, 1.0 / theta)
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    return rho, rho * (w + z) / 2.0


def sound_k(rho, theta):
    return pow_g(rho, theta)


@lru_cache(maxsize=16)
def sound_floor(theta):
    """RHO_FLOOR^theta, the sound speed rho^theta at the vacuum floor; the
    power is taken once per theta."""
    return pow_g(RHO_FLOOR, theta)


def lambdas_k(rho, m, theta):
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    v = m / rho
    c = sound_k(rho, theta)
    return v - c, v + c


def flux_k(rho, m, gamma):
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    return m, m * m / rho + pressure_k(rho, gamma)


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

def pdiff_ratio(rho, rho0, gamma):
    """(p(rho)-p(rho0)) / (rho-rho0), stable near rho == rho0 (> 0)."""
    rm1 = (rho - rho0) / rho0
    if abs(rm1) < 1e-13:
        return pow_g(rho0, gamma - 1.0) * (1.0 + 0.5 * (gamma - 1.0) * rm1)
    lr = math.log1p(rm1)
    q = math.expm1(gamma * lr) / (gamma * rm1)
    return pow_g(rho0, gamma - 1.0) * q


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


def lax_S_k(rho, rho0, gamma):
    """The modified Lax-Friedrichs jump speed factor S(rho, rho0) >= 0."""
    if rho <= 0.0:
        return 0.0
    pr = pdiff_ratio(rho, rho0, gamma)
    return math.sqrt(rho * pr / rho0)


def sigma1_k(rho_l, v_l, rho_r, gamma):
    """Speed of a 1-family discontinuity from left (rho_l, v_l) to rho_r."""
    return v_l - lax_S_k(rho_r, rho_l, gamma)


def sigma2_k(rho_r, v_r, rho_l, gamma):
    """Speed of a 2-family discontinuity with right (rho_r, v_r), left rho_l."""
    return v_r + lax_S_k(rho_l, rho_r, gamma)


# ---------------------------------------------------------------------------
# exact Riemann solver
# ---------------------------------------------------------------------------

def _shock_curve(rho, rho0, gamma):
    """hjump_k(rho, rho0, gamma) for rho > rho0 > 0, and its slope in rho.

    With pr the difference quotient of p and s = sqrt(pr / (rho rho0)),
    h = s (rho - rho0) and h' = (s/2) (p'(rho)/pr + rho0/rho), where
    p'(rho) = rho^(gamma-1); h' tends to rho0^(theta-1), the rarefaction
    slope, as rho -> rho0.
    """
    pr = pdiff_ratio(rho, rho0, gamma)
    s = math.sqrt(pr / (rho * rho0))
    return (s * (rho - rho0),
            0.5 * s * (pow_g(rho, gamma - 1.0) / pr + rho0 / rho))


def _phi_left(rho, rho_l, v_l, w_l, gamma, theta):
    """Velocity of the state at density rho > 0 on the 1-wave curve through
    uL = (rho_l, v_l) with invariant w_l, and its slope in rho."""
    if rho <= rho_l:
        c = pow_g(rho, theta)
        return w_l - c / theta, -c / rho
    h, dh = _shock_curve(rho, rho_l, gamma)
    return v_l - h, -dh


def _phi_right(rho, rho_r, v_r, z_r, gamma, theta):
    """Velocity of the state at density rho > 0 on the 2-wave curve through
    uR = (rho_r, v_r) with invariant z_r, and its slope in rho."""
    if rho <= rho_r:
        c = pow_g(rho, theta)
        return z_r + c / theta, c / rho
    h, dh = _shock_curve(rho, rho_r, gamma)
    return v_r + h, dh


def riemann_middle_k(rho_l, v_l, rho_r, v_r, gamma, theta, cl, cr):
    """Middle state (rho_M, v_M) where the 1-curve through uL meets the
    2-curve through uR; cl and cr are rho_l^theta and rho_r^theta.

    The gap f = phi_L - phi_R decreases strictly from f(0) = w_L - z_R.
    Newton's method on f with its exact slope (Toro, ch. 4) starts from the
    two-rarefaction density, which is the root when both waves are
    rarefactions, and keeps a bracket lo < rho_M < hi from the signs of f
    seen (hi is open until f is first negative).  A Newton point below the
    bracket, which Newton gives from far above the root, is first replaced
    by the root of the power law f0 - f = C rho^e with the value and slope
    at the current point; a point still outside the bracket by the
    midpoint, or by doubling while hi is open.  A Newton step that rounds
    to no move steps to the neighbouring double on the root's side.  The
    loop ends when f vanishes or lo and hi are adjacent doubles, i.e. at
    full double precision: three to five curve evaluations per solve on
    typical inputs.  Every step is mirror-symmetric, so the mirrored states
    give the same rho_M and the negated v_M.
    """
    w_l = v_l + cl / theta
    z_r = v_r - cr / theta
    f0 = w_l - z_r
    if f0 <= 0.0:
        return 0.0, 0.5 * (w_l + z_r)
    if rho_l == rho_r and v_l == v_r:
        return rho_l, v_l
    lo = 0.0
    v_lo = 0.5 * (w_l + z_r)
    hi = math.inf
    v_hi = 0.0
    x = pow_g(theta * f0 / 2.0, 1.0 / theta)
    if x <= 0.0:
        x = 5e-324          # the guess underflows for theta near 0
    for _ in range(200):
        pl, dl = _phi_left(x, rho_l, v_l, w_l, gamma, theta)
        pr, dr = _phi_right(x, rho_r, v_r, z_r, gamma, theta)
        f = pl - pr
        if f == 0.0:
            return x, 0.5 * (pl + pr)
        if f > 0.0:
            lo = x
            v_lo = 0.5 * (pl + pr)
        else:
            hi = x
            v_hi = 0.5 * (pl + pr)
        xn = x - f / (dl - dr)
        if xn == x:
            xn = math.nextafter(x, hi if f > 0.0 else lo)
        if xn <= lo:
            # far from rho_L and rho_R each curve is close to a power of rho
            g = f0 - f
            xn = x * math.exp(math.log(f0 / g) * g / (x * (dr - dl)))
        if not (lo < xn < hi):
            if hi == math.inf:
                xn = 2.0 * x
            else:
                xn = 0.5 * (lo + hi)
                if not (lo < xn < hi):
                    break
        x = xn
    rho_m = 0.5 * (lo + hi)
    if rho_m == lo:
        return lo, v_lo
    if rho_m == hi:
        return hi, v_hi
    return rho_m, 0.5 * (_phi_left(rho_m, rho_l, v_l, w_l, gamma, theta)[0]
                         + _phi_right(rho_m, rho_r, v_r, z_r, gamma, theta)[0])


def riemann_solve_k(rho_l, m_l, rho_r, m_r, gamma, theta, cl=None, cr=None):
    """Solve the Riemann problem; return the packed description (RSOL_LEN
    floats).  cl and cr are rho_l^theta and rho_r^theta when the caller
    has them (pass A takes them once per node)."""
    if cl is None:
        cl = pow_g(rho_l, theta)
    if cr is None:
        cr = pow_g(rho_r, theta)
    out = [0.0] * RSOL_LEN
    out[0] = rho_l
    out[1] = m_l
    out[2] = rho_r
    out[3] = m_r
    lvac = rho_l < RHO_FLOOR
    rvac = rho_r < RHO_FLOOR
    if not lvac:
        v_l = m_l / rho_l
        k = cl / theta
        out[12] = v_l - k
        out[13] = w_l = v_l + k
    if not rvac:
        v_r = m_r / rho_r
        k = cr / theta
        out[14] = z_r = v_r - k
        out[15] = v_r + k
    if lvac and rvac:
        out[8] = -BIG
        out[9] = -BIG
        out[10] = BIG
        out[11] = BIG
        return out
    if lvac:
        out[6] = W_NONE
        out[7] = W_RAREF
        out[8] = -BIG
        out[9] = -BIG
        out[10] = z_r
        out[11] = v_r + cr
        return out
    if rvac:
        out[6] = W_RAREF
        out[7] = W_NONE
        out[8] = v_l - cl
        out[9] = w_l
        out[10] = BIG
        out[11] = BIG
        return out

    if w_l <= z_r:
        # rarefactions separated by vacuum
        out[4] = 0.0
        out[5] = 0.5 * (w_l + z_r)
        out[6] = W_RAREF
        out[7] = W_RAREF
        out[8] = v_l - cl
        out[9] = w_l
        out[10] = z_r
        out[11] = v_r + cr
        return out

    rho_m, v_m = riemann_middle_k(rho_l, v_l, rho_r, v_r, gamma, theta, cl,
                                  cr)
    c_m = pow_g(rho_m, theta)
    out[4] = rho_m
    out[5] = v_m
    out[16] = c_m

    sc1 = 1.0 + rho_l + rho_m
    if abs(rho_m - rho_l) <= 1e-14 * sc1 and abs(v_m - v_l) <= 1e-14 * (1.0 + abs(v_l)):
        out[6] = W_NONE
        lam = v_l - cl
        out[8] = lam
        out[9] = lam
    elif rho_m <= rho_l:
        out[6] = W_RAREF
        out[8] = v_l - cl
        out[9] = v_m - c_m
    else:
        out[6] = W_SHOCK
        s = sigma1_k(rho_l, v_l, rho_m, gamma)
        out[8] = s
        out[9] = s

    sc2 = 1.0 + rho_r + rho_m
    if abs(rho_m - rho_r) <= 1e-14 * sc2 and abs(v_m - v_r) <= 1e-14 * (1.0 + abs(v_r)):
        out[7] = W_NONE
        lam = v_r + cr
        out[10] = lam
        out[11] = lam
    elif rho_m <= rho_r:
        out[7] = W_RAREF
        out[10] = v_m + c_m
        out[11] = v_r + cr
    else:
        out[7] = W_SHOCK
        s = sigma2_k(rho_r, v_r, rho_m, gamma)
        out[10] = s
        out[11] = s
    return out


def raref1_state_k(xi, w0, theta):
    """State inside a centered 1-rarefaction: lam1(u) = xi, w(u) = w0."""
    s = theta * (w0 - xi) / (1.0 + theta)
    if s <= 0.0:
        return 0.0, 0.0
    rho = pow_g(s, 1.0 / theta)
    v = xi + s
    return rho, rho * v


def raref2_state_k(xi, z0, theta):
    """State inside a centered 2-rarefaction: lam2(u) = xi, z(u) = z0."""
    s = theta * (xi - z0) / (1.0 + theta)
    if s <= 0.0:
        return 0.0, 0.0
    rho = pow_g(s, 1.0 / theta)
    v = xi - s
    return rho, rho * v


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


# geometry bundle index helpers: geo = (ax, ac, bx, bc, Bx, Bc, flats), or
# None for the straight view (see the module docstring)
def geo_a(geo, x):
    if geo is None:
        return 0.0
    return ppoly_eval(geo[0], geo[1], x)


def geo_b(geo, x):
    if geo is None:
        return 0.0
    return ppoly_eval(geo[2], geo[3], x)


def geo_B(geo, x):
    if geo is None:
        return 0.0
    return ppoly_eval(geo[4], geo[5], x)


def geo_at(geo, x):
    """(B, a, b) at x: the geometry a time-corrected profile needs there.
    B is b's antiderivative on b's breakpoints (the bundle checks it when
    it packs them), so one lookup finds the piece of both, as
    :func:`ppoly_eval` would."""
    if geo is None:
        return 0.0, 0.0, 0.0
    i, t = _piece(geo[4], x)
    B = b = 0.0
    for coef in geo[5][i]:
        B = B * t + coef
    for coef in geo[3][i]:
        b = b * t + coef
    return B, ppoly_eval(geo[0], geo[1], x), b


def in_flat_run(flats, x0, x1):
    """Whether [x0, x1] lies strictly inside one of the flat runs
    ``flats = (starts, ends)``.  Strictly, because the lookup at a run's
    end reads the next piece, in the mirrored frame at its start."""
    starts, ends = flats
    i = bisect_left(starts, x0) - 1
    return i >= 0 and x1 < ends[i]


# ---------------------------------------------------------------------------
# in-cell pieces
# ---------------------------------------------------------------------------

def anchor_B(kind, q, geo):
    """B at the anchor of a profile piece (0 for the other kinds): the one
    geometry value shared by every evaluation of the piece, which the
    quadrature and iteration loops look up once per piece."""
    if kind == K_PROFILE:
        return geo_B(geo, q[0])
    return 0.0


def eval_piece(kind, q, x, tau, geo, theta):
    """(rho, m) of one piece at position x, time offset tau since the step
    start; a profile whose corrected pair has w < z evaluates to vacuum."""
    return eval_piece_at(kind, q, anchor_B(kind, q, geo), x, tau, geo, theta)


def eval_piece_at(kind, q, Bd, x, tau, geo, theta):
    """:func:`eval_piece` given ``Bd = anchor_B(kind, q, geo)``."""
    if kind == K_CONST:
        return q[0], q[1]
    if kind == K_RAREF1:
        if tau <= 0.0:
            return 0.0, 0.0
        return raref1_state_k((x - q[0]) / tau, q[1], theta)
    if kind == K_RAREF2:
        if tau <= 0.0:
            return 0.0, 0.0
        return raref2_state_k((x - q[0]) / tau, q[1], theta)
    Bx, ax, bx = (geo_at(geo, x) if q[5] != 0.0 and tau > 0.0
                  else (geo_B(geo, x), 0.0, 0.0))
    return profile_at(q[1], q[2], q[3], q[4], q[5], Bx - Bd, ax, bx, tau,
                      theta, sound_floor(theta))


def profile_at(zd, wd, sz, sw, corr, dB, ax, bx, tau, theta, cfloor):
    """(rho, m) of the profile piece (., zd, wd, sz, sw, corr) at time
    offset tau where B(x) - B(x_d) = dB, a = ax, b = bx; the correction
    reads vb and c = rhob^theta from the steady invariants where
    c >= cfloor = sound_floor(theta).  A pair with w < z is vacuum.
    dB = 0.0 skips the exponentials (exp(+-0.0) is 1.0), and a = b = 0
    the correction (it adds +-0.0 there)."""
    if dB == 0.0:
        zb = zd
        wb = wd
    else:
        zb = zd * math.exp(sz * dB)
        wb = wd * math.exp(sw * dB)
    c = theta * (wb - zb) / 2.0
    if (corr != 0.0 and tau > 0.0 and c >= cfloor
            and (ax != 0.0 or bx != 0.0)):
        vb = (wb + zb) / 2.0
        av = ax * vb * c
        zb += tau * (-(vb - c) * (sz * bx * zb) - av)
        wb += tau * (-(vb + c) * (sw * bx * wb) + av)
        c = theta * (wb - zb) / 2.0
    if wb < zb:
        return 0.0, 0.0
    # the state as state_k(zb, wb, theta) gives it
    rho = math.exp(1.0 / theta * math.log(c)) if c > 0.0 else 0.0
    if rho < RHO_FLOOR:
        return 0.0, 0.0
    return rho, rho * (wb + zb) / 2.0


def eval_cell(kinds, pars, spds, npieces, xc, x, tau, geo, theta):
    """Evaluate a whole cell record at (x, tau)."""
    i = 0
    while i < npieces - 1 and x >= xc + spds[i] * tau:
        i += 1
    return eval_piece(kinds[i], pars[i], x, tau, geo, theta)


# ---------------------------------------------------------------------------
# implicit front solves
# ---------------------------------------------------------------------------

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
        rl, ml = eval_piece_at(kind, q, Bd, xf, tau, geo, theta)
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
                    rl, ml = eval_piece_at(kind, q, Bd, xf, tau, geo, theta)
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
    rl, ml = eval_piece_at(kind, q, Bd, xf, tau, geo, theta)
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


def _rh_residual(s, rl, ml, rr, mr, gamma):
    """Rankine-Hugoniot residuals (mass, momentum) of the jump from
    (rl, ml) to (rr, mr) moving with speed s."""
    return _rh_jump(s, rl, ml, flux_k(rl, ml, gamma), rr, mr,
                    flux_k(rr, mr, gamma))


def _rh_jump(s, rl, ml, fl, rr, mr, fr):
    """:func:`_rh_residual` given the fluxes fl of (rl, ml) and fr of
    (rr, mr)."""
    return fr[0] - fl[0] - s * (rr - rl), fr[1] - fl[1] - s * (mr - ml)


def _solve4(A, b):
    """4x4 linear solve with partial pivoting; A is a row-major list of 16
    floats, b a list of 4.  Returns (x, ok).  The elimination runs on
    copies of the four rows, so that a pivot swaps two lists."""
    n = 4
    M = [A[0:4], A[4:8], A[8:12], A[12:16]]
    x = b.copy()
    for col in range(n):
        piv = col
        big = abs(M[col][col])
        for r in range(col + 1, n):
            if abs(M[r][col]) > big:
                big = abs(M[r][col])
                piv = r
        if big < 1e-300:
            return x, False
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            x[col], x[piv] = x[piv], x[col]
        mc = M[col]
        for r in range(col + 1, n):
            mr = M[r]
            f = mr[col] / mc[col]
            for cc in range(col, n):
                mr[cc] -= f * mc[cc]
            x[r] -= f * x[col]
    for col in range(n - 1, -1, -1):
        mc = M[col]
        s = x[col]
        for cc in range(col + 1, n):
            s -= mc[cc] * x[cc]
        x[col] = s / mc[col]
    return x, True


def gap_fill_k(lq, rq, xc, dt, geo, gamma, theta, sa0, sb0, zm0, wm0, fscale):
    """Gap fill: solve for two front speeds and the middle profile
    anchor so both half-time Rankine-Hugoniot conditions hold exactly.

    lq and rq are the (time-corrected) profiles outside the two fronts.
    Damped Newton with finite-difference Jacobian on X = (sa, sb, zm, wm).
    The left-front residuals do not depend on sb nor the right-front ones
    on sa, so those Jacobian entries are exact zeros.  Each trace is kept
    with its flux: the zm and wm columns reuse the geometry at the fronts
    and the outer traces.  Under the straight view no trace depends on the
    front positions (module docstring): the outer traces are evaluated
    once per call, the middle profile once per point, as one trace at both
    fronts, and the sa and sb columns reuse every trace.
    """
    tau = 0.5 * dt
    cf = sound_floor(theta)
    straight = geo is None
    xl, lz, lw, lsz, lsw, lcorr = lq
    xr, rz, rw, rsz, rsw, rcorr = rq
    lBd = geo_B(geo, xl)
    rBd = geo_B(geo, xr)
    mBd = geo_B(geo, xc)
    sa, sb, zm, wm = sa0, sb0, zm0, wm0
    atol = 1e-12 * fscale
    Ba, aa, ba = geo_at(geo, xc + sa * tau)
    Bb, ab, bb = geo_at(geo, xc + sb * tau)
    olr, olm = profile_at(lz, lw, lsz, lsw, lcorr, Ba - lBd, aa, ba, tau,
                          theta, cf)
    orr, orm = profile_at(rz, rw, rsz, rsw, rcorr, Bb - rBd, ab, bb, tau,
                          theta, cf)
    olf = flux_k(olr, olm, gamma)
    orf = flux_k(orr, orm, gamma)
    mlr, mlm = profile_at(zm, wm, -1.0, 1.0, 1.0, Ba - mBd, aa, ba, tau,
                          theta, cf)
    mlf = flux_k(mlr, mlm, gamma)
    if straight:
        mrr, mrm, mrf = mlr, mlm, mlf
    else:
        mrr, mrm = profile_at(zm, wm, -1.0, 1.0, 1.0, Bb - mBd, ab, bb,
                              tau, theta, cf)
        mrf = flux_k(mrr, mrm, gamma)
    F0, F1 = _rh_jump(sa, olr, olm, olf, mlr, mlm, mlf)
    F2, F3 = _rh_jump(sb, mrr, mrm, mrf, orr, orm, orf)
    fn = max(max(abs(F0), abs(F1)), max(abs(F2), abs(F3)))
    if fn <= 1e-13 * fscale:
        return sa, sb, zm, wm, OK
    for _ in range(80):
        if fn <= atol:
            return sa, sb, zm, wm, OK
        # sa and sb columns: the traces next to the moved front
        ha = 1e-7 * (1.0 + abs(sa))
        hb = 1e-7 * (1.0 + abs(sb))
        if straight:
            f0, f1 = _rh_jump(sa + ha, olr, olm, olf, mlr, mlm, mlf)
            f2, f3 = _rh_jump(sb + hb, mrr, mrm, mrf, orr, orm, orf)
        else:
            s = sa + ha
            Bs, as_, bs = geo_at(geo, xc + s * tau)
            r1, m1 = profile_at(lz, lw, lsz, lsw, lcorr, Bs - lBd, as_,
                                bs, tau, theta, cf)
            r2, m2 = profile_at(zm, wm, -1.0, 1.0, 1.0, Bs - mBd, as_, bs,
                                tau, theta, cf)
            f0, f1 = _rh_residual(s, r1, m1, r2, m2, gamma)
            s = sb + hb
            Bs, as_, bs = geo_at(geo, xc + s * tau)
            r1, m1 = profile_at(zm, wm, -1.0, 1.0, 1.0, Bs - mBd, as_, bs,
                                tau, theta, cf)
            r2, m2 = profile_at(rz, rw, rsz, rsw, rcorr, Bs - rBd, as_,
                                bs, tau, theta, cf)
            f2, f3 = _rh_residual(s, r1, m1, r2, m2, gamma)
        J = [(f0 - F0) / ha, 0.0, 0.0, 0.0,
             (f1 - F1) / ha, 0.0, 0.0, 0.0,
             0.0, (f2 - F2) / hb, 0.0, 0.0,
             0.0, (f3 - F3) / hb, 0.0, 0.0]         # row-major 4x4
        # zm and wm columns: the fronts and outer traces stay put
        for cdx, v in ((2, zm), (3, wm)):
            h = 1e-7 * (1.0 + abs(v))
            z, w = (v + h, wm) if cdx == 2 else (zm, v + h)
            r1, m1 = profile_at(z, w, -1.0, 1.0, 1.0, Ba - mBd, aa, ba,
                                tau, theta, cf)
            fl = flux_k(r1, m1, gamma)
            if straight:
                r2, m2, fr = r1, m1, fl
            else:
                r2, m2 = profile_at(z, w, -1.0, 1.0, 1.0, Bb - mBd, ab,
                                    bb, tau, theta, cf)
                fr = flux_k(r2, m2, gamma)
            f0, f1 = _rh_jump(sa, olr, olm, olf, r1, m1, fl)
            f2, f3 = _rh_jump(sb, r2, m2, fr, orr, orm, orf)
            J[cdx] = (f0 - F0) / h
            J[4 + cdx] = (f1 - F1) / h
            J[8 + cdx] = (f2 - F2) / h
            J[12 + cdx] = (f3 - F3) / h
        rhs = [-F0, -F1, -F2, -F3]
        dX, ok = _solve4(J, rhs)
        if not ok:
            for r in range(4):
                J[5 * r] += 1e-9 * (1.0 + abs(J[5 * r]))
            dX, ok = _solve4(J, rhs)
            if not ok:
                return sa, sb, zm, wm, ERR_GAP_CONV
        d0, d1, d2, d3 = dX
        lam = 1.0
        for _ in range(40):
            ta = sa + lam * d0
            tb = sb + lam * d1
            tz = zm + lam * d2
            tw = wm + lam * d3
            if straight:
                Bta = ata = bta = Btb = atb = btb = 0.0
                tlr, tlm, tlf, trr, trm, trf = olr, olm, olf, orr, orm, orf
            else:
                Bta, ata, bta = geo_at(geo, xc + ta * tau)
                Btb, atb, btb = geo_at(geo, xc + tb * tau)
                tlr, tlm = profile_at(lz, lw, lsz, lsw, lcorr, Bta - lBd,
                                      ata, bta, tau, theta, cf)
                trr, trm = profile_at(rz, rw, rsz, rsw, rcorr, Btb - rBd,
                                      atb, btb, tau, theta, cf)
                tlf = flux_k(tlr, tlm, gamma)
                trf = flux_k(trr, trm, gamma)
            r1, m1 = profile_at(tz, tw, -1.0, 1.0, 1.0, Bta - mBd, ata,
                                bta, tau, theta, cf)
            fl = flux_k(r1, m1, gamma)
            if straight:
                r2, m2, fr = r1, m1, fl
            else:
                r2, m2 = profile_at(tz, tw, -1.0, 1.0, 1.0, Btb - mBd,
                                    atb, btb, tau, theta, cf)
                fr = flux_k(r2, m2, gamma)
            f0, f1 = _rh_jump(ta, tlr, tlm, tlf, r1, m1, fl)
            f2, f3 = _rh_jump(tb, r2, m2, fr, trr, trm, trf)
            fnew = max(max(abs(f0), abs(f1)), max(abs(f2), abs(f3)))
            if fnew < fn * (1.0 - 1e-4 * lam) or fnew <= atol:
                sa, sb, zm, wm = ta, tb, tz, tw
                F0, F1, F2, F3 = f0, f1, f2, f3
                olr, olm, olf, orr, orm, orf = tlr, tlm, tlf, trr, trm, trf
                mlr, mlm, mlf, mrr, mrm, mrf = r1, m1, fl, r2, m2, fr
                Ba, aa, ba, Bb, ab, bb = Bta, ata, bta, Btb, atb, btb
                fn = fnew
                break
            lam *= 0.5
        else:
            return sa, sb, zm, wm, ERR_GAP_CONV
    return sa, sb, zm, wm, (OK if fn <= atol else ERR_GAP_CONV)


# ---------------------------------------------------------------------------
# cell construction: fans, away-from-vacuum cells, near-vacuum cells
# ---------------------------------------------------------------------------

def fan_interval_count(span, h):
    """Number of invariant-space intervals covering span with steps <= h."""
    if span <= 0.0:
        return 0
    k = int(math.ceil(span / h - 1e-9))
    if k < 1:
        k = 1
    return k


def fan_target(zL, z_end, h, i, k_int):
    """Target i of a fan from zL to z_end in k_int intervals: zL + i*h,
    and z_end itself for the last one, which closes the remainder."""
    zt = zL + i * h
    if i == k_int or zt > z_end:
        zt = z_end
    return zt


def fan_jump_speed(z_prev, zt, wL, gamma, theta):
    """Speed v(z_prev, wL) - S(rho(zt, wL), rho(z_prev, wL)) of the fan
    jump from target z_prev to zt, the first guess of its front solve."""
    r_prev, _mp = state_k(z_prev, wL, theta)
    r_t, _mt = state_k(zt, wL, theta)
    return 0.5 * (z_prev + wL) - lax_S_k(r_t, r_prev, gamma)


def _profile(xa, z, w, sz, sw, corr):
    """A profile piece with no ray to its right yet."""
    return [K_PROFILE, (xa, z, w, sz, sw, corr), 0.0, 0]


def _const(rho, m):
    """A constant piece with no ray to its right yet."""
    return [K_CONST, (rho, m, 0.0, 0.0, 0.0, 0.0), 0.0, 0]


def invert_correction_k(x_a, z_r, w_r, tau, geo, theta):
    """Anchor invariants (z_d, w_d) of a steady profile at x_a whose
    time-corrected value at (x_a, tau), as :func:`profile_at` corrects it,
    equals (z_r, w_r).

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
    cfloor = sound_floor(theta)
    for _ in range(60):
        c = theta * (wd - zd) / 2.0
        if c < cfloor:
            break
        vb = (wd + zd) / 2.0
        av = ax * vb * c
        zc = zd + tau * ((vb - c) * (bx * zd) - av)
        wc = wd + tau * (-(vb + c) * (bx * wd) + av)
        ez = zc - z_r
        ew = wc - w_r
        zd -= ez
        wd -= ew
        if abs(ez) + abs(ew) < 1e-15 * (1.0 + abs(z_r) + abs(w_r)):
            break
    return zd, wd


def fan_chain_k(x_first, zL, wL, z_end, include_final, xc, dx, dt, h,
                geo, gamma, theta, out):
    """Rarefaction-fan front chain: steady-profile pieces separated by
    implicitly solved rarefaction-shock fronts with invariant steps of h.

    Appends to ``out`` the leading profile anchored at ``x_first`` with
    data ``(zL, wL)`` and then one solved front + profile per fan target.
    When ``include_final`` the chain runs through ``z_end`` itself
    (truncated near-vacuum fans); otherwise the last target is left to the
    gap fill.  Returns (sigma_prev, z_last, w_last, status).
    """
    out.append(_profile(x_first, zL, wL, -1.0, 1.0, 1.0))
    speed_bound = dx / dt
    sigma_prev = -speed_bound * (1.0 + 1e-9)
    z_last = zL
    w_last = wL
    span = z_end - zL
    if span <= 1e-13 * (1.0 + abs(zL) + abs(z_end)):
        return sigma_prev, z_last, w_last, OK
    k_int = fan_interval_count(span, h)
    nf = k_int if include_final else k_int - 1
    z_prev = zL
    for i in range(1, nf + 1):
        zt = fan_target(zL, z_end, h, i, k_int)
        sigma0 = fan_jump_speed(z_prev, zt, wL, gamma, theta)
        left = out[-1]
        sigma, ru, mu, st = solve_front_k(
            left[0], left[1], zt, sigma_prev, sigma0, xc, dt, geo, gamma,
            theta, speed_bound)
        if st != OK:
            return sigma_prev, z_last, w_last, st
        left[2] = sigma
        left[3] = 1
        zu, wu = invariants_k(ru, mu, theta)
        x_a = xc + sigma * dt * 0.5
        zd, wd = invert_correction_k(x_a, zu, wu, 0.5 * dt, geo, theta)
        out.append(_profile(x_a, zd, wd, -1.0, 1.0, 1.0))
        sigma_prev = sigma
        z_prev = zt
        z_last = zu
        w_last = wu
    return sigma_prev, z_last, w_last, OK


def flatten_riemann_k(rsol, xc, clip_lo, clip_hi, theta, out):
    """Append a sampled (exact) Riemann solution to ``out`` as cell pieces,
    dropping pieces entirely outside (clip_lo, clip_hi) in ray speed."""
    k1 = int(rsol[6])
    k2 = int(rsol[7])
    rl = rsol[0]
    ml = rsol[1]
    rr = rsol[2]
    mr = rsol[3]
    rM = rsol[4]
    vM = rsol[5]
    seg = []
    if k1 == W_SHOCK:
        seg.append([K_CONST, (rl, ml, 0.0, 0.0, 0.0, 0.0), rsol[8], 1])
    elif k1 == W_RAREF and rsol[9] > rsol[8]:
        seg.append([K_CONST, (rl, ml, 0.0, 0.0, 0.0, 0.0), rsol[8], 0])
        w0 = invariants_k(rl, ml, theta)[1]
        seg.append([K_RAREF1, (xc, w0, 0.0, 0.0, 0.0, 0.0), rsol[9], 0])
    seg.append(_const(rM, rM * vM))
    if k2 == W_SHOCK:
        seg[-1][2] = rsol[10]
        seg[-1][3] = 1
        seg.append(_const(rr, mr))
    elif k2 == W_RAREF and rsol[11] > rsol[10]:
        seg[-1][2] = rsol[10]
        z0 = invariants_k(rr, mr, theta)[0]
        seg.append([K_RAREF2, (xc, z0, 0.0, 0.0, 0.0, 0.0), rsol[11], 0])
        seg.append(_const(rr, mr))
    i0 = 0
    while i0 < len(seg) - 1 and seg[i0][2] <= clip_lo:
        i0 += 1
    i1 = len(seg) - 1
    while i1 > i0 and seg[i1 - 1][2] >= clip_hi:
        i1 -= 1
    seg[i1][2] = 0.0
    seg[i1][3] = 0
    out.extend(seg[i0:i1 + 1])


def _reflected(kind, q):
    """Piece (kind, q) mapped through the reflection x -> -x, m -> -m:
    z and w swap roles and change sign, so the rarefaction families swap.
    The map is its own inverse."""
    if kind == K_CONST:
        return K_CONST, (q[0], -q[1], 0.0, 0.0, 0.0, 0.0)
    if kind == K_PROFILE:
        return K_PROFILE, (-q[0], -q[2], -q[1], -q[4], -q[3], q[5])
    other = K_RAREF2 if kind == K_RAREF1 else K_RAREF1
    return other, (-q[0], -q[1], 0.0, 0.0, 0.0, 0.0)


def _unreflect_append(src, out):
    """Append pieces built in the reflected frame, mapping them back; piece
    order and ray speeds reverse."""
    for i in range(len(src) - 1, -1, -1):
        kind, q = _reflected(src[i][0], src[i][1])
        if i > 0:
            out.append([kind, q, -src[i - 1][2], src[i - 1][3]])
        else:
            out.append([kind, q, 0.0, 0])


def _cell_is_inert(j, rsol, dx, geo):
    """Equal node states in a cell inside a flat run (or under the straight
    view) stay constant exactly."""
    if rsol[0] != rsol[2] or rsol[1] != rsol[3]:
        return False
    return geo is None or in_flat_run(geo[6], (j - 1) * dx, (j + 1) * dx)


def build_away_cell_k(j, rsol, par, h, geo, geor):
    """Away-from-vacuum construction: per-family fans with invariant steps
    h = dx^alpha plus the gap fill with the floating middle profile and two
    solved fronts.  Returns (pieces, status)."""
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    dt = par[3]
    xc = j * dx
    speed_bound = dx / dt
    if _cell_is_inert(j, rsol, dx, geo):
        return [_const(rsol[0], rsol[1])], OK

    rM = rsol[4]
    vM = rsol[5]
    k1 = int(rsol[6])
    k2 = int(rsol[7])
    zl = rsol[12]
    wl = rsol[13]
    zr = rsol[14]
    wr = rsol[15]
    cM = rsol[16]
    kM = cM / theta
    zM = vM - kM
    wM = vM + kM

    cell = []
    if k1 == W_RAREF:
        sprev_l, lz, lw, st = fan_chain_k(
            (j - 1) * dx, zl, wl, zM, False, xc, dx, dt, h,
            geo, gamma, theta, cell)
        if st != OK:
            return cell, st
        guess_a = fan_jump_speed(lz, zM, lw, gamma, theta)
    else:
        cell.append(_profile((j - 1) * dx, zl, wl, -1.0, 1.0, 1.0))
        sprev_l = -speed_bound * (1.0 + 1e-9)
        if k1 == W_SHOCK:
            guess_a = rsol[8]       # sigma1_k(rl, vl, rM), from the solve
        else:
            guess_a = vM - cM

    # right side built in the reflected frame
    right = []
    if k2 == W_RAREF:
        sprev_r, rz, rw, st = fan_chain_k(
            -(j + 1) * dx, -wr, -zr, -wM, False, -xc, dx, dt, h,
            geor, gamma, theta, right)
        if st != OK:
            return cell, st
        guess_b = -fan_jump_speed(rz, -wM, rw, gamma, theta)
        right_front_min = -sprev_r
    else:
        right.append(_profile(-(j + 1) * dx, -wr, -zr, -1.0, 1.0, 1.0))
        right_front_min = speed_bound * (1.0 + 1e-9)
        if k2 == W_SHOCK:
            guess_b = rsol[10]      # sigma2_k(rr, vr, rM), from the solve
        else:
            guess_b = vM + cM

    # innermost right piece, mapped to the original frame
    _kind, rq = _reflected(right[-1][0], right[-1][1])

    f1m, f2m = flux_k(rM, rM * vM, gamma)
    fscale = 1.0 + abs(f1m) + abs(f2m)
    sa, sb, zm, wm, st = gap_fill_k(
        cell[-1][1], rq, xc, dt, geo, gamma, theta,
        guess_a, guess_b, zM, wM, fscale)
    if st != OK:
        return cell, st
    if not (sprev_l < sa < sb < right_front_min):
        return cell, ERR_ORDERING
    if abs(sa) > speed_bound or abs(sb) > speed_bound:
        return cell, ERR_SPEED_BOUND

    cell[-1][2] = sa
    cell[-1][3] = 1
    cell.append([K_PROFILE, (xc, zm, wm, -1.0, 1.0, 1.0), sb, 1])
    _unreflect_append(right, cell)
    return cell, OK


def vac_left_side_k(j, rho_l, m_l, par, h, thr, geo, out):
    """Near-vacuum left-side construction (Case-1 sub-dispatch on u_L),
    with h = dx^alpha and thr = dx^beta.

    Returns (lam_edge, rho_star, m_star, subcode, status).  The
    pieces appended to ``out`` cover the region left of the ray with speed
    ``lam_edge``; for sub-case 1.2(i) it is a single constant piece
    (callers covering the whole cell with the plain Riemann solution drop
    it).
    """
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    dt = par[3]
    M = par[7]
    xc = j * dx
    Lj = -M * math.exp(-geo_B(geo, (j + 1) * dx))
    if rho_l < RHO_FLOOR:
        return -BIG, 0.0, 0.0, SUB_NONE, OK
    v_l = m_l / rho_l
    zl, wl = invariants_k(rho_l, m_l, theta)
    if rho_l > 2.0 * thr:
        # truncated fan down to density 2*(dx)^beta, then a z-floor at Lj
        z1 = wl - 2.0 * kfun(2.0 * thr, theta)
        sprev, z2, w2, st = fan_chain_k(
            (j - 1) * dx, zl, wl, z1, True, xc, dx, dt, h,
            geo, gamma, theta, out)
        if st != OK:
            return 0.0, 0.0, 0.0, SUB_11, st
        r2, m2 = state_k(z2, w2, theta)
        lam_edge = (z2 + w2) * 0.5 - sound_k(r2, theta)
        z3 = z2
        if z3 < Lj:
            z3 = Lj
        rs, ms = state_k(z3, wl, theta)
        return lam_edge, rs, ms, SUB_11, OK
    if zl >= Lj:
        out.append(_const(rho_l, m_l))
        lam_edge = v_l - sound_k(rho_l, theta)
        return lam_edge, rho_l, m_l, SUB_12I, OK
    # 1.2(ii): decay profile anchored at the cell center down to the floor
    need = math.log(zl / Lj)
    Bc = geo_B(geo, xc)
    Br = geo_B(geo, (j + 1) * dx)
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
    fac = math.exp(-(geo_B(geo, x4) - Bc))
    z4 = zl * fac
    w4 = wl * fac
    r4, m4 = state_k(z4, w4, theta)
    lam_edge = (z4 + w4) * 0.5 - sound_k(r4, theta)
    out.append(_profile(xc, zl, wl, -1.0, -1.0, 1.0))
    return lam_edge, r4, m4, SUB_12II, OK


def _mirrored(rsol):
    """The packed solution of the mirrored problem (x -> -x, m -> -m): the
    states and the wave families swap, momenta and speeds change sign.
    ``riemann_solve_k`` is mirror-symmetric, so this is what it returns for
    the mirrored states (up to the sign of a zero)."""
    return [rsol[2], -rsol[3], rsol[0], -rsol[1], rsol[4], -rsol[5],
            rsol[7], rsol[6], -rsol[11], -rsol[10], -rsol[9], -rsol[8],
            -rsol[15], -rsol[14], -rsol[13], -rsol[12], rsol[16]]


def _solution_of(rsol, rho_l, m_l, rho_r, m_r, gamma, theta):
    """Packed solution of (rho_l, m_l | rho_r, m_r): rsol itself when it
    was solved from these states, else a fresh solve."""
    if (rsol[0] == rho_l and rsol[1] == m_l and rsol[2] == rho_r
            and rsol[3] == m_r):
        return rsol
    return riemann_solve_k(rho_l, m_l, rho_r, m_r, gamma, theta)


def _build_vac_case1_k(j, rsol, par, h, thr, geo):
    """Near-vacuum Case 1 (1-rarefaction + 2-shock) of the packed solution
    rsol, which is reused wherever the construction needs the Riemann
    solution of its own states.  Returns (pieces, subcode, status)."""
    gamma = par[0]
    theta = par[1]
    dx = par[2]
    xc = j * dx
    rho_r = rsol[2]
    m_r = rsol[3]
    cell = []
    lam_edge, rs, ms, sub, st = vac_left_side_k(
        j, rsol[0], rsol[1], par, h, thr, geo, cell)
    if st != OK:
        return cell, sub, st
    if sub == SUB_12I or sub == SUB_NONE:
        cell = []
        flatten_riemann_k(rsol, xc, -BIG, BIG, theta, cell)
        return cell, sub, OK
    rsol2 = _solution_of(rsol, rs, ms, rho_r, m_r, gamma, theta)
    cell[-1][2] = lam_edge
    cell[-1][3] = 0
    flatten_riemann_k(rsol2, xc, lam_edge, BIG, theta, cell)
    return cell, sub, OK


def _wave_case(k1, k2):
    """The wave case of a Riemann solution with wave kinds k1, k2: 1 for a
    2-shock alone, 2 for a 1-shock alone, 3 for no shock, 4 for two
    shocks."""
    if k1 != W_SHOCK:
        return 1 if k2 == W_SHOCK else 3
    return 4 if k2 == W_SHOCK else 2


def build_vac_cell_k(j, rsol, par, h, thr, geo, geor):
    """Construction dispatch for near-vacuum middle states, with h =
    dx^alpha and thr = dx^beta.

    Returns (pieces, case_code, subcode, status).  Case 2 runs the
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
    if rl < RHO_FLOOR and rr < RHO_FLOOR:
        return [_const(0.0, 0.0)], CASE_VAC_ALLVAC, SUB_NONE, OK
    if _cell_is_inert(j, rsol, dx, geo):
        return [_const(rl, ml)], CASE_VAC_INERT, SUB_NONE, OK
    case = _wave_case(int(rsol[6]), int(rsol[7]))
    if case == 1:
        cell, sub, st = _build_vac_case1_k(j, rsol, par, h, thr, geo)
        return cell, CASE_VAC_1, sub, st
    cell = []
    if case == 2:
        refl, sub, st = _build_vac_case1_k(
            -j, _mirrored(rsol), par, h, thr, geor)
        _unreflect_append(refl, cell)
        return cell, CASE_VAC_2, sub, st
    if case == 4:
        flatten_riemann_k(rsol, xc, -BIG, BIG, theta, cell)
        return cell, CASE_VAC_4, SUB_NONE, OK
    # Case 3: two rarefactions (or degenerate waves)
    lamL, rsl, msl, subL, st = vac_left_side_k(
        j, rl, ml, par, h, thr, geo, cell)
    if st != OK:
        return cell, CASE_VAC_3, subL, st
    right = []
    lamRr, rsrr, msrr, subR, st = vac_left_side_k(
        -j, rr, -mr, par, h, thr, geor, right)
    if st != OK:
        return cell, CASE_VAC_3, subR, st
    lamR = BIG if lamRr == -BIG else -lamRr
    rsolm = _solution_of(rsol, rsl, msl, rsrr, -msrr, gamma, theta)
    if cell:
        cell[-1][2] = lamL
        cell[-1][3] = 0
    flatten_riemann_k(rsolm, xc, lamL, lamR, theta, cell)
    if right:
        cell[-1][2] = lamR
        cell[-1][3] = 0
        _unreflect_append(right, cell)
    return cell, CASE_VAC_3, subL * 10 + subR, OK


# ---------------------------------------------------------------------------
# whole-step drivers
# ---------------------------------------------------------------------------

def build_step_pass_a(jcells, rho, m, par, rsols):
    """Solve all cell Riemann problems, appending each packed solution to
    rsols; cell c lies between entries c and c + 1 of the node row
    (rho, m), whose sound speeds rho^theta are taken once per node."""
    gamma = par[0]
    theta = par[1]
    cs = [pow_g(r, theta) for r in rho]
    for c in range(len(jcells)):
        rsols.append(riemann_solve_k(rho[c], m[c], rho[c + 1], m[c + 1],
                                     gamma, theta, cs[c], cs[c + 1]))


def build_step_pass_b(jcells, rsols, offs, par, geo, geor,
                      kinds, pars, spds, fflag,
                      ncount, ccase, csub, cerr):
    """Build every cell record for one step; an away-from-vacuum cell inside
    a flat run of geo is built with the straight view (module docstring).
    h = dx^alpha and thr = dx^beta are taken once, for every construction.

    The cells' pieces go back to back onto the output lists: kinds, pars
    (six floats a piece), spds and fflag (the ray to the piece's right;
    0.0 and 0 on a cell's last piece).  offs gets each cell's first piece
    and then the total; ncount, ccase, csub and cerr one entry per cell.
    """
    dx = par[2]
    dt = par[3]
    thr = pow_g(dx, par[5])
    h = pow_g(dx, par[4])
    speed_bound = dx / dt
    flats = geo[6]
    C = len(jcells)
    for c in range(C):
        j = jcells[c]
        rsol = rsols[c]
        rM = rsol[4]
        if rM > thr:
            if in_flat_run(flats, (j - 1) * dx, (j + 1) * dx):
                cell, st = build_away_cell_k(j, rsol, par, h, None, None)
            else:
                cell, st = build_away_cell_k(j, rsol, par, h, geo, geor)
            case = _wave_case(int(rsol[6]), int(rsol[7]))
            sub = SUB_NONE
        else:
            cell, case, sub, st = build_vac_cell_k(
                j, rsol, par, h, thr, geo, geor)
        n = len(cell)
        if st == OK:
            # boundary sanity: ordered rays inside the cell light cone
            prev = -BIG
            prev_front = -BIG
            for i in range(n - 1):
                s = cell[i][2]
                if s < prev - 1e-11 * speed_bound:
                    st = ERR_ORDERING
                    break
                if cell[i][3] == 1:
                    if s <= prev_front:
                        st = ERR_ORDERING
                        break
                    prev_front = s
                prev = s
                if abs(s) > speed_bound * (1.0 + 1e-12) and abs(s) < BIG:
                    st = ERR_SPEED_BOUND
                    break
        offs.append(len(kinds))
        for kind, q, s, front in cell:
            kinds.append(kind)
            pars.extend(q)
            spds.append(s)
            fflag.append(front)
        ncount.append(n)
        ccase.append(case)
        csub.append(sub)
        cerr.append(st)
    offs.append(len(kinds))
