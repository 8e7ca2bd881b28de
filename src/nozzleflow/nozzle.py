"""Nozzle geometry, the admissibility condition, and steady in-cell profiles.

The cross section A(x) enters the equations only through a(x) = -A'(x)/A(x).
Internally the package keeps a single source of truth: a piecewise
polynomial IA(x) = integral_0^x a, with a = IA' and A = A(0) exp(-IA).
The bound function b >= |a|/mu with its cumulative integral B(x) is stored
the same way; all kernels evaluate these piecewise polynomials directly so
the scheme, its diagnostics, and the Python API agree bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator, PPoly

from . import _kernels as _k
from . import _traces
from .gas import GasConstants, GasState, from_invariants, to_invariants, InvariantPair


# ---------------------------------------------------------------------------
# admissibility constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityConstants:
    mu: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    @property
    def integral_budget(self):
        """Allowed value of max(int_0^inf b, int_-inf^0 b)."""
        return 0.5 * math.log(1.0 / self.sigma)


def admissibility_constants(c: GasConstants) -> AdmissibilityConstants:
    """mu = (1-th)^2/(th (1+th-2 sqrt(th))), sigma = (1-th)/((1-sqrt(th)) (2 sqrt(th+1)+sqrt(th)-1))."""
    th = c.theta
    if not 0.0 < th < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {th}")
    st = math.sqrt(th)
    mu = (1.0 - th) ** 2 / (th * (1.0 + th - 2.0 * st))
    sigma = (1.0 - th) / ((1.0 - st) * (2.0 * math.sqrt(th + 1.0) + st - 1.0))
    return AdmissibilityConstants(mu=mu, sigma=sigma)


# ---------------------------------------------------------------------------
# piecewise-polynomial helpers
# ---------------------------------------------------------------------------

def _ppoly_arrays(pp):
    return (np.ascontiguousarray(pp.x, dtype=np.float64),
            np.ascontiguousarray(pp.c, dtype=np.float64))


def _zero_ppoly(domain):
    return PPoly(np.zeros((1, 1)), np.array([domain[0], domain[1]], dtype=float))


def reflect_ppoly(pp, sign):
    """PPoly q with q(x) = sign * p(-x) on the mirrored domain.

    Piece i of p, p_i(s) on [x_i, x_{i+1}], becomes p_i(L_i - t) in the
    local coordinate t of the mirrored piece.  The composition runs Horner's
    rule in polynomial space for all pieces at once.
    """
    xs = np.asarray(pp.x, dtype=float)
    c = np.asarray(pp.c, dtype=float)
    k1 = c.shape[0]
    L = np.diff(xs)
    # ascending coefficients of p_i(L_i - t), one column per piece
    comp = np.zeros_like(c)
    comp[0] = c[0]
    for d in range(1, k1):
        # comp <- comp * (L - t) + a_{k-d}
        comp[1:d + 1] = L * comp[1:d + 1] - comp[0:d]
        comp[0] = L * comp[0] + c[d]
    return PPoly(sign * comp[::-1, ::-1], -xs[::-1])


def _shifted_antiderivative(pp, x0=0.0):
    """Antiderivative of pp vanishing at x0."""
    anti = pp.antiderivative()
    c = anti.c.copy()
    c[-1, :] -= anti(x0)
    return PPoly(c, anti.x)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _bump_s_poly(X):
    """Monomial coefficients (ascending) of s(x) = (1 - (x/X)^2)^3."""
    p = np.polynomial.Polynomial([1.0, 0.0, -1.0 / X ** 2])
    return p ** 3


@dataclass(frozen=True)
class NozzleGeometry:
    """Cross section A(x), constant for |x| > X, encoded through IA = int a."""

    A0: float
    X: float
    IA_pp: PPoly = field(repr=False)
    a_pp: PPoly = field(repr=False)
    label: str = "custom"

    def A(self, x):
        return self.A0 * np.exp(-self.IA_pp(np.asarray(x, dtype=float)))

    def a(self, x):
        return self.a_pp(np.asarray(x, dtype=float))

    @classmethod
    def constant(cls, A0=1.0, X=1.0):
        dom = (-X - 1.0, X + 1.0)
        return cls(A0=float(A0), X=float(X), IA_pp=_zero_ppoly(dom),
                   a_pp=_zero_ppoly(dom), label="constant")

    @classmethod
    def bump(cls, eps, X=1.0, A0=1.0):
        """A = A0 exp(-eps s(x)), s = (1-(x/X)^2)^3 inside |x| < X (C^2)."""
        X = float(X)
        s = _bump_s_poly(X)
        s0 = float(s(0.0))
        pad = max(1.0, 0.5 * X)
        xs = np.array([-X - pad, -X, X, X + pad])
        deg = 6
        c = np.zeros((deg + 1, 3))
        # middle piece: eps*(s(x) - s(0)) in local coordinates t = x + X
        mid = float(eps) * (s(np.polynomial.Polynomial([-X, 1.0]))
                            - np.polynomial.Polynomial([s0]))
        coef = np.atleast_1d(mid.coef)
        full = np.zeros(deg + 1)
        full[:coef.size] = coef
        c[:, 1] = full[::-1]
        # outer pieces: constants (s = 0 there, so IA = -eps*s0)
        c[-1, 0] = -float(eps) * s0
        c[-1, 2] = -float(eps) * s0
        IA = PPoly(c, xs)
        return cls(A0=float(A0), X=X, IA_pp=IA, a_pp=IA.derivative(),
                   label=f"bump(eps={eps})")

    @classmethod
    def laval(cls, depth, X=1.0, A0=1.0, n_samples=2001):
        """Converging-diverging duct A = A0 (1 - depth * s(x)), throat at 0."""
        X = float(X)
        depth = float(depth)
        if not 0.0 < depth < 1.0:
            raise ValueError("depth must lie in (0, 1)")
        s = _bump_s_poly(X)
        pad = max(1.0, 0.5 * X)
        xs = np.linspace(-X - pad, X + pad, n_samples)
        sv = np.where(np.abs(xs) < X, s(xs), 0.0)
        ia = -np.log1p(-depth * sv) + math.log1p(-depth * float(s(0.0)))
        cs = CubicSpline(xs, ia, bc_type="clamped")
        IA = PPoly(cs.c, cs.x)
        return cls(A0=float(A0), X=X, IA_pp=IA, a_pp=IA.derivative(),
                   label=f"laval(depth={depth})")

    @classmethod
    def from_table(cls, xs, As, X=None):
        """Tabulated (x, A): strictly increasing x, positive A.

        A is log-PCHIP interpolated; outside the table the section is
        constant at the edge values.
        """
        xs = np.asarray(xs, dtype=float)
        As = np.asarray(As, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("need at least two table rows")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("table x values must be strictly increasing")
        if np.any(As <= 0.0):
            raise ValueError("cross section must be positive")
        la = PchipInterpolator(xs, np.log(As))
        la0 = float(la(0.0)) if xs[0] <= 0.0 <= xs[-1] else float(np.log(As[0]))
        # IA = la0 - la, extended by constants beyond the table
        core = PPoly(-la.c, la.x)
        pad = max(1.0, 0.1 * (xs[-1] - xs[0]))
        new_x = np.concatenate([[xs[0] - pad], core.x, [xs[-1] + pad]])
        k1 = core.c.shape[0]
        new_c = np.zeros((k1, core.c.shape[1] + 2))
        new_c[:, 1:-1] = core.c
        new_c[-1, 0] = float(-la(xs[0]))
        new_c[-1, -1] = float(-la(xs[-1]))
        new_c[-1, :] += la0
        IA = PPoly(new_c, new_x)
        A0 = math.exp(la0)
        if X is None:
            X = float(max(abs(xs[0]), abs(xs[-1])))
        return cls(A0=A0, X=float(X), IA_pp=IA, a_pp=IA.derivative(),
                   label="table")


def load_geometry_table(path):
    """Two-column numeric text (x, A(x)); optional header line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                vals = [float(p) for p in parts[:2]]
            except ValueError:
                if ln == 1:
                    continue    # header
                raise ValueError(f"bad table row {ln}: {line!r}")
            if len(vals) < 2:
                raise ValueError(f"bad table row {ln}: {line!r}")
            rows.append(vals)
    if len(rows) < 2:
        raise ValueError("geometry table needs at least two rows")
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1]


# ---------------------------------------------------------------------------
# bound function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundFunction:
    """Nonnegative b(x) with cached cumulative integral B(x) = int_0^x b."""

    b_pp: PPoly = field(repr=False)
    B_pp: PPoly = field(repr=False)
    I_plus: float
    I_minus: float
    label: str = "custom"

    def b(self, x):
        x = np.clip(np.asarray(x, dtype=float), self.b_pp.x[0], self.b_pp.x[-1])
        return self.b_pp(x)

    def B(self, x):
        x = np.clip(np.asarray(x, dtype=float), self.B_pp.x[0], self.B_pp.x[-1])
        return self.B_pp(x)

    @classmethod
    def _finish(cls, b_pp, label):
        B_pp = _shifted_antiderivative(b_pp, 0.0)
        I_plus = float(B_pp(B_pp.x[-1]))
        I_minus = float(-B_pp(B_pp.x[0]))
        return cls(b_pp=b_pp, B_pp=B_pp, I_plus=I_plus, I_minus=I_minus,
                   label=label)

    @classmethod
    def zero(cls, domain=(-2.0, 2.0)):
        return cls._finish(_zero_ppoly(domain), "zero")

    @classmethod
    def piecewise_constant(cls, breaks, values, pad=1.0):
        """Exact piecewise-constant b; values[i] holds on [breaks[i], breaks[i+1])."""
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values < 0.0):
            raise ValueError("b must be nonnegative")
        xs = np.concatenate([[breaks[0] - pad], breaks, [breaks[-1] + pad]])
        c = np.zeros((1, values.size + 2))
        c[0, 1:-1] = values
        return cls._finish(PPoly(c, xs), "piecewise-constant")

    @classmethod
    def from_samples(cls, xs, vals, label="samples"):
        vals = np.maximum(np.asarray(vals, dtype=float), 0.0)
        pp = PchipInterpolator(np.asarray(xs, dtype=float), vals)
        return cls._finish(PPoly(pp.c, pp.x), label)

    @classmethod
    def auto_for(cls, geom: NozzleGeometry, consts: AdmissibilityConstants,
                 dx, margin=0.01):
        """Tightest admissible bound: b ~ (1+margin) |a|/mu, dilated over a
        window of width max(dx, support/100) and mollified to C^1."""
        mu = consts.mu
        span = geom.X
        hf = min(float(dx), span / 100.0) / 4.0
        pad = 4.0 * max(float(dx), 4.0 * hf)
        xs = np.arange(-span - pad, span + pad + hf, hf)
        raw = np.abs(geom.a(xs)) / mu
        win = max(2, int(round(max(float(dx), 4.0 * hf) / hf)))
        dil = np.empty_like(raw)
        for i in range(raw.size):
            a = max(0, i - win)
            b = min(raw.size, i + win + 1)
            dil[i] = raw[a:b].max()
        # C^2 bump kernel of half-width win//2 lattice steps
        kw = max(1, win // 2)
        t = np.linspace(-1.0, 1.0, 2 * kw + 1)
        ker = (1.0 - t ** 2) ** 3
        ker /= ker.sum()
        smooth = np.convolve(dil, ker, mode="same")
        bvals = (1.0 + margin) * np.where(dil > 0.0, np.maximum(smooth, raw), 0.0)
        return cls.from_samples(xs, bvals, label="auto")


def envelope(M, b: BoundFunction, x):
    """(-M e^{-B(x)}, M e^{B(x)}) for the invariant-region bounds, in the
    shape of x (scalars for a scalar x)."""
    if M < 0.0:
        raise ValueError("M must be nonnegative")
    x = np.asarray(x, dtype=float)
    lo, up = _traces.envelope(M, _ppoly_arrays(b.B_pp), x.ravel())
    return lo.reshape(x.shape)[()], up.reshape(x.shape)[()]


@dataclass
class ValidationReport:
    mu: float
    sigma: float
    budget: float
    I_plus: float
    I_minus: float
    max_pointwise_excess: float
    pointwise_ok: bool
    integral_ok: bool

    @property
    def passed(self):
        return self.pointwise_ok and self.integral_ok

    def lines(self):
        out = [
            f"mu                 = {self.mu:.12g}",
            f"sigma              = {self.sigma:.12g}",
            f"integral budget    = {self.budget:.12g}  (0.5 log(1/sigma))",
            f"int_0^inf b        = {self.I_plus:.12g}",
            f"int_-inf^0 b       = {self.I_minus:.12g}",
            f"max(|a| - mu b)    = {self.max_pointwise_excess:.6g}",
            f"pointwise bound    : {'pass' if self.pointwise_ok else 'FAIL'}",
            f"integral budget    : {'pass' if self.integral_ok else 'FAIL'}",
            f"admissibility      : {'pass' if self.passed else 'FAIL'}",
        ]
        return out


def validate_condition(geom: NozzleGeometry, b: BoundFunction,
                       consts: AdmissibilityConstants, ngrid=4001,
                       tol=1e-12) -> ValidationReport:
    """Check |a| <= mu b pointwise and both half-line integrals of b."""
    lo = min(geom.a_pp.x[0], b.b_pp.x[0])
    hi = max(geom.a_pp.x[-1], b.b_pp.x[-1])
    xs = np.linspace(lo, hi, ngrid)
    excess = float(np.max(np.abs(geom.a(xs)) - consts.mu * b.b(xs)))
    budget = consts.integral_budget
    return ValidationReport(
        mu=consts.mu, sigma=consts.sigma, budget=budget,
        I_plus=b.I_plus, I_minus=b.I_minus,
        max_pointwise_excess=excess,
        pointwise_ok=excess <= tol,
        integral_ok=max(b.I_plus, b.I_minus) <= budget + tol,
    )


# ---------------------------------------------------------------------------
# kernel bundle: geometry + bound packed for the jitted kernels
# ---------------------------------------------------------------------------

def _pack_geo(a_pp, b_pp, B_pp):
    """Kernel geometry tuple (ax, ac, bx, bc, Bx, Bc): the PPoly data of a,
    b and B as packed by ``_kernels.pack_ppoly``."""
    ax, ac = _k.pack_ppoly(*_ppoly_arrays(a_pp))
    bx, bc = _k.pack_ppoly(*_ppoly_arrays(b_pp))
    Bx, Bc = _k.pack_ppoly(*_ppoly_arrays(B_pp))
    return ax, ac, bx, bc, Bx, Bc


class KernelBundle:
    """Geometry data consumed by the kernels, plus the mirrored variant used
    by the reflected (2-family) constructions, and the PPoly data of a, IA,
    b and B as arrays (``tables``) for the whole-array diagnostics."""

    def __init__(self, geom: NozzleGeometry, bound: BoundFunction):
        self.geom = geom
        self.bound = bound
        self.tables = {"a": _ppoly_arrays(geom.a_pp),
                       "IA": _ppoly_arrays(geom.IA_pp),
                       "b": _ppoly_arrays(bound.b_pp),
                       "B": _ppoly_arrays(bound.B_pp)}
        self.geo = _pack_geo(geom.a_pp, bound.b_pp, bound.B_pp)
        self.geo_reflected = _pack_geo(reflect_ppoly(geom.a_pp, -1.0),
                                       reflect_ppoly(bound.b_pp, 1.0),
                                       reflect_ppoly(bound.B_pp, -1.0))


# the bundle of the latest (geometry, bound) pair, keyed by their ids
_BUNDLE_MEMO = {}


def get_bundle(geom: NozzleGeometry, bound: BoundFunction) -> KernelBundle:
    """The kernel bundle of (geom, bound); only the latest pair's bundle is
    kept, so a long process does not hold every geometry it has seen."""
    key = (id(geom), id(bound))
    got = _BUNDLE_MEMO.get(key)
    if got is None:
        got = KernelBundle(geom, bound)
        _BUNDLE_MEMO.clear()
        _BUNDLE_MEMO[key] = got
    return got


# ---------------------------------------------------------------------------
# steady profiles and the linear-in-time correction
# ---------------------------------------------------------------------------

@dataclass
class SteadyProfile:
    """In-cell x-dependent state replacing a constant: z and w scale with
    exp(sz*(B(x)-B(x_d))) resp. exp(sw*(...)); the balanced shape is
    (sz, sw) = (-1, +1), the near-vacuum decay shape (-1, -1)."""

    x_d: float
    z_d: float
    w_d: float
    sz: float
    sw: float
    bound: BoundFunction
    clamp_count: int = 0

    def invariants_at(self, x):
        dB = float(self.bound.B(x)) - float(self.bound.B(self.x_d))
        return self.z_d * math.exp(self.sz * dB), self.w_d * math.exp(self.sw * dB)

    def __call__(self, x, c: GasConstants) -> GasState:
        z, w = self.invariants_at(x)
        return from_invariants(InvariantPair(z, w), c)

    def piece_params(self, corr=1.0):
        q = np.zeros(6)
        q[0] = self.x_d
        q[1] = self.z_d
        q[2] = self.w_d
        q[3] = self.sz
        q[4] = self.sw
        q[5] = corr
        return q


def steady_profile(x_d, u_d: GasState, b: BoundFunction,
                   c: GasConstants) -> SteadyProfile:
    """Balanced profile through (x_d, u_d): z decays, w grows with B."""
    iv = to_invariants(u_d, c)
    if iv.w < iv.z:
        raise ValueError("w_d < z_d")
    return SteadyProfile(float(x_d), iv.z, iv.w, -1.0, 1.0, b)


def vacuum_decay_profile(x_d, u_d: GasState, b: BoundFunction,
                         c: GasConstants) -> SteadyProfile:
    """Decay profile: both invariants scale with e^{-(B(x)-B(x_d))}."""
    iv = to_invariants(u_d, c)
    return SteadyProfile(float(x_d), iv.z, iv.w, -1.0, -1.0, b)


def time_correct(profile: SteadyProfile, x, t_offset, geom: NozzleGeometry,
                 b: BoundFunction, c: GasConstants) -> GasState:
    """First-order-in-time corrected state at (x, t_n + t_offset).

    Implements z_t = -lam1 zbar_x - a vbar rhobar^theta and
    w_t = -lam2 wbar_x + a vbar rhobar^theta with the profile's own spatial
    derivatives, which reproduces both displayed correction variants.
    A corrected pair with w < z is clamped to vacuum and counted.
    """
    bundle = get_bundle(geom, b)
    rho, m, clamped = _k.eval_piece(_k.K_PROFILE, profile.piece_params(1.0),
                                    float(x), float(t_offset), bundle.geo,
                                    c.gamma, c.theta)
    if clamped:
        profile.clamp_count += 1
    return GasState(rho, m)
