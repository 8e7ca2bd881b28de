"""Nozzle geometry, the admissibility condition, and steady in-cell profiles.

The cross section A(x) enters the equations only through a(x) = -A'(x)/A(x).
Internally the package keeps a single source of truth: a piecewise
polynomial IA(x) = integral_0^x a, with a = IA' and A = A(0) exp(-IA).
The bound function b >= |a|/mu with its cumulative integral B(x) is stored
the same way.  Every geometry is constant beyond its core, so a = 0 exactly
there.  Every reader evaluates these piecewise polynomials one way, by
Horner's rule with x clamped to the breakpoints (``_traces.ppoly_values``,
and ``_kernels.ppoly_eval`` on Python floats, bit for bit the same).

The piecewise polynomials (``PiecewisePoly``), the PCHIP interpolant of a
geometry table or a sampled bound, and the clamped cubic spline of the
Laval duct are built here with NumPy alone.  Their construction data (the
interpolants' coefficients, the derivative, and the antiderivative but for
its constants) do the floating-point operations of ``scipy.interpolate``
(``PPoly``, ``PchipInterpolator``, ``CubicSpline``) in scipy's order, and
equal scipy's bit for bit; the tests check this against scipy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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


class PiecewisePoly:
    """Piecewise polynomial in scipy's ``PPoly`` layout: breakpoints ``x``
    (n+1,), coefficients ``c`` (k+1, n) with the highest power first, piece
    i in the local coordinate ``v - x[i]``; read with v clamped to
    [x[0], x[n]], so the end pieces hold their end values beyond."""

    def __init__(self, c, x):
        self.c = np.ascontiguousarray(c, dtype=np.float64)
        self.x = np.ascontiguousarray(x, dtype=np.float64)

    @classmethod
    def zero(cls, domain):
        return cls(np.zeros((1, 1)), [domain[0], domain[1]])

    def __call__(self, v):
        """Values at v, in the shape of v (``_traces.ppoly_values``)."""
        v = np.asarray(v, dtype=np.float64)
        return _traces.ppoly_values((self.x, self.c),
                                    v.ravel()).reshape(v.shape)

    def derivative(self):
        k = self.c.shape[0]
        if k == 1:
            return PiecewisePoly(np.zeros_like(self.c), self.x)
        return PiecewisePoly(self.c[:-1] * np.arange(k - 1, 0, -1.0)[:, None],
                             self.x)

    def antiderivative(self):
        """Antiderivative vanishing at x[0].  Piece i starts at the value
        of piece i-1 at x[i], as Horner's rule reads it: the rise of each
        piece over its width, summed by one ``cumsum``."""
        k = self.c.shape[0]
        c = np.zeros((k + 1, self.c.shape[1]))
        c[:-1] = self.c / np.arange(k, 0, -1.0)[:, None]
        h = np.diff(self.x)[:-1]
        rise = np.zeros_like(h)
        for row in c[:-1, :-1]:
            rise = rise * h + row
        c[-1] = np.cumsum(np.concatenate(([0.0], rise * h)))
        return PiecewisePoly(c, self.x)


def _flat_ends(core, pad):
    """``core`` extended by a constant piece of width ``pad`` beyond each
    end, at core's values there."""
    ends = core(core.x[[0, -1]])
    c = np.zeros((core.c.shape[0], core.c.shape[1] + 2))
    c[:, 1:-1] = core.c
    c[-1, [0, -1]] = ends
    x = np.concatenate(([core.x[0] - pad], core.x, [core.x[-1] + pad]))
    return PiecewisePoly(c, x)


def reflect_ppoly(pp, sign):
    """Piecewise polynomial q with q(x) = sign * p(-x) on the mirrored domain.

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
    return PiecewisePoly(sign * comp[::-1, ::-1], -xs[::-1])


def _hermite(x, y, d):
    """Cubic Hermite interpolant through (x, y) with slopes d."""
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * slope) / h
    return PiecewisePoly(
        np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1])), x)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """PCHIP interpolant (Fritsch-Carlson): slope 0 at a local extremum or
    flat neighbour, else the weighted harmonic mean of the secant slopes;
    a straight line through two points."""
    h = np.diff(x)
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        return _hermite(x, y, np.array([m[0], m[0]]))
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:])
                                           / (w1 + w2)))
    d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])], inner,
                        [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    return _hermite(x, y, d)


def _clamped_spline(x, y):
    """Cubic spline with zero end slopes.  The slopes solve the tridiagonal
    system of the C^2 conditions by LAPACK dgtsv's steps: elimination with
    partial pivoting, then back substitution."""
    h = np.diff(x)
    slope = np.diff(y) / h
    n = x.size
    d = [1.0] + (2 * (h[:-1] + h[1:])).tolist() + [1.0]
    du = [0.0] + h[:-1].tolist()
    dl = h[1:].tolist() + [0.0]
    b = [0.0] + (3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])).tolist() + [0.0]
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # swap rows i and i+1; dl[i] keeps the fill-in two right of d[i]
            fact = d[i] / dl[i]
            temp = d[i + 1]
            d[i] = dl[i]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[-1] = b[-1] / d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return _hermite(x, y, np.array(b))


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
    IA_pp: PiecewisePoly = field(repr=False)
    a_pp: PiecewisePoly = field(repr=False)
    label: str = "custom"

    def A(self, x):
        return self.A0 * np.exp(-self.IA_pp(np.asarray(x, dtype=float)))

    def a(self, x):
        return self.a_pp(np.asarray(x, dtype=float))

    @classmethod
    def constant(cls, A0=1.0, X=1.0):
        dom = (-X - 1.0, X + 1.0)
        return cls(A0=float(A0), X=float(X), IA_pp=PiecewisePoly.zero(dom),
                   a_pp=PiecewisePoly.zero(dom), label="constant")

    @classmethod
    def bump(cls, eps, X=1.0, A0=1.0):
        """A = A0 exp(-eps s(x)), s = (1-(x/X)^2)^3 inside |x| < X (C^2)."""
        X = float(X)
        s = _bump_s_poly(X)
        # eps*(s(x) - s(0)) in the local coordinate t = x + X
        core = float(eps) * (s(np.polynomial.Polynomial([-X, 1.0]))
                             - np.polynomial.Polynomial([float(s(0.0))]))
        c = np.zeros(7)
        c[:core.coef.size] = core.coef
        IA = _flat_ends(PiecewisePoly(c[::-1, None], [-X, X]),
                        max(1.0, 0.5 * X))
        return cls(A0=float(A0), X=X, IA_pp=IA, a_pp=IA.derivative(),
                   label=f"bump(eps={eps})")

    @classmethod
    def laval(cls, depth, X=1.0, A0=1.0, n_samples=2001):
        """Converging-diverging duct A = A0 (1 - depth * s(x)), throat at 0:
        log A fitted by a clamped cubic spline on n_samples points of
        [-X, X], where s' and s'' vanish at both ends."""
        X = float(X)
        depth = float(depth)
        if not 0.0 < depth < 1.0:
            raise ValueError(f"depth must lie in (0, 1), got {depth}")
        s = _bump_s_poly(X)
        xs = np.linspace(-X, X, n_samples)
        sv = np.where(np.abs(xs) < X, s(xs), 0.0)
        ia = -np.log1p(-depth * sv) + math.log1p(-depth * float(s(0.0)))
        IA = _flat_ends(_clamped_spline(xs, ia), max(1.0, 0.5 * X))
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
        la = _pchip(xs, np.log(As))
        # IA = log A(0) - log A, with A(0) read at the nearest end when the
        # table does not reach x = 0
        la0 = float(la(0.0))
        c = -la.c
        c[-1] += la0
        IA = _flat_ends(PiecewisePoly(c, la.x),
                        max(1.0, 0.1 * (xs[-1] - xs[0])))
        if X is None:
            X = float(max(abs(xs[0]), abs(xs[-1])))
        return cls(A0=math.exp(la0), X=float(X), IA_pp=IA,
                   a_pp=IA.derivative(), label="table")


def read_table(path, ncols):
    """The rows of ``ncols`` numbers of a text table, as an array: comma or
    blank separated, ``#`` comments and blank lines skipped, the first
    other line may be a header; at least two rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(ln, s) for ln, s in enumerate(map(str.strip, fh), 1)
                 if s and not s.startswith("#")]
    rows = []
    for k, (ln, line) in enumerate(lines):
        try:
            vals = [float(p) for p in line.replace(",", " ").split()[:ncols]]
        except ValueError:
            if k == 0:
                continue    # header
            vals = []
        if len(vals) < ncols:
            raise ValueError(f"bad table row {ln}: {line!r}")
        rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"table {path} needs at least two rows")
    return np.asarray(rows)


def load_geometry_table(path):
    """Two-column numeric text (x, A(x)); optional header line."""
    arr = read_table(path, 2)
    return arr[:, 0], arr[:, 1]


# ---------------------------------------------------------------------------
# bound function
# ---------------------------------------------------------------------------

AUTO_MAX_SAMPLES = 10 ** 6      # sample grid of BoundFunction.auto_for


@dataclass(frozen=True)
class BoundFunction:
    """Nonnegative b(x) with cached cumulative integral B(x) = int_0^x b."""

    b_pp: PiecewisePoly = field(repr=False)
    B_pp: PiecewisePoly = field(repr=False)
    I_plus: float
    I_minus: float
    label: str = "custom"

    def b(self, x):
        return self.b_pp(x)

    def B(self, x):
        return self.B_pp(x)

    @classmethod
    def _finish(cls, b_pp, label):
        anti = b_pp.antiderivative()
        c = anti.c.copy()
        c[-1, :] -= anti(0.0)
        B_pp = PiecewisePoly(c, anti.x)
        I_plus = float(B_pp(B_pp.x[-1]))
        I_minus = float(-B_pp(B_pp.x[0]))
        return cls(b_pp=b_pp, B_pp=B_pp, I_plus=I_plus, I_minus=I_minus,
                   label=label)

    @classmethod
    def zero(cls, domain=(-2.0, 2.0)):
        return cls._finish(PiecewisePoly.zero(domain), "zero")

    @classmethod
    def piecewise_constant(cls, breaks, values):
        """Exact piecewise-constant b; values[i] holds on [breaks[i],
        breaks[i+1]), and b = 0 on a pad of width 1 beyond each end."""
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values < 0.0):
            raise ValueError("b must be nonnegative")
        if not np.all(np.diff(breaks) > 0.0):
            raise ValueError("the breaks of b must increase")
        xs = np.concatenate([[breaks[0] - 1.0], breaks, [breaks[-1] + 1.0]])
        c = np.zeros((1, values.size + 2))
        c[0, 1:-1] = values
        return cls._finish(PiecewisePoly(c, xs), "piecewise-constant")

    @classmethod
    def from_samples(cls, xs, vals, label="samples"):
        vals = np.maximum(np.asarray(vals, dtype=float), 0.0)
        return cls._finish(_pchip(np.asarray(xs, dtype=float), vals), label)

    @classmethod
    def auto_for(cls, geom: NozzleGeometry, consts: AdmissibilityConstants,
                 dx, margin=0.01):
        """Tightest admissible bound: b ~ (1+margin) |a|/mu, dilated over a
        window of width max(dx, support/100) and mollified to C^1.  Raises
        ValueError when that takes more than AUTO_MAX_SAMPLES samples."""
        mu = consts.mu
        span = geom.X
        hf = min(float(dx), span / 100.0) / 4.0
        pad = 4.0 * max(float(dx), 4.0 * hf)
        # samples at hf k, |k| <= n: mirror images of each other
        n = math.ceil((span + pad) / hf)
        count = 2 * n + 1
        if count > AUTO_MAX_SAMPLES:
            raise ValueError(
                f"the auto bound function needs {count} samples at dx = "
                f"{dx!r}, more than {AUTO_MAX_SAMPLES}")
        xs = hf * np.arange(-n, n + 1)
        raw = np.abs(geom.a(xs)) / mu
        win = max(2, int(round(max(float(dx), 4.0 * hf) / hf)))
        dil = _dilate(raw, win)
        # C^2 bump kernel of half-width win//2 lattice steps
        kw = max(1, win // 2)
        t = np.linspace(-1.0, 1.0, 2 * kw + 1)
        ker = (1.0 - t ** 2) ** 3
        ker /= ker.sum()
        smooth = np.convolve(dil, ker, mode="same")
        bvals = (1.0 + margin) * np.where(dil > 0.0, np.maximum(smooth, raw), 0.0)
        return cls.from_samples(xs, bvals, label="auto")


def _dilate(raw, win):
    """Maximum of raw over the samples i - win .. i + win, at every i (the
    window cut at both ends)."""
    pad = np.full(win, -np.inf)
    padded = np.concatenate([pad, raw, pad])
    return np.lib.stride_tricks.sliding_window_view(
        padded, 2 * win + 1).max(axis=1)


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
        return [
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


def validate_condition(geom: NozzleGeometry, b: BoundFunction,
                       consts: AdmissibilityConstants) -> ValidationReport:
    """Check |a| <= mu b pointwise, on 4001 samples, and both half-line
    integrals of b, each to 1e-12."""
    lo = min(geom.a_pp.x[0], b.b_pp.x[0])
    hi = max(geom.a_pp.x[-1], b.b_pp.x[-1])
    xs = np.linspace(lo, hi, 4001)
    excess = float(np.max(np.abs(geom.a(xs)) - consts.mu * b.b(xs)))
    budget = consts.integral_budget
    return ValidationReport(
        mu=consts.mu, sigma=consts.sigma, budget=budget,
        I_plus=b.I_plus, I_minus=b.I_minus,
        max_pointwise_excess=excess,
        pointwise_ok=excess <= 1e-12,
        integral_ok=max(b.I_plus, b.I_minus) <= budget + 1e-12,
    )


# ---------------------------------------------------------------------------
# kernel bundle: geometry + bound packed for the jitted kernels
# ---------------------------------------------------------------------------

def flat_runs(a_table, b_table):
    """The duct's flat runs: the maximal x-intervals on which every piece
    of both the a-table and the b-table (PPoly data (xs, c)) has all-zero
    coefficients, as the lists (starts, ends), in increasing order.  End
    pieces extend to -inf and +inf, as the clamped evaluation reads them.

    There a = b = 0, and B, the antiderivative of b, is one constant, so
    the steady profiles are constant and their time correction vanishes
    (see ``_kernels.in_flat_run``)."""
    # the breakpoints of both tables, merged by a list sort: np.union1d
    # imports numpy.ma and np.sort pages in its SIMD kernels, 1.6 and 0.4
    # MiB of resident memory.  A repeated breakpoint adds an empty
    # interval, flat or not as the next one is: it never splits a run
    edges = np.array([-math.inf] + sorted(a_table[0].tolist()
                                          + b_table[0].tolist())
                     + [math.inf])
    # the piece of each table that holds on [edges[k], edges[k + 1]]
    flat = np.ones(edges.size - 1, dtype=bool)
    for xs, c in (a_table, b_table):
        piece = np.clip(np.searchsorted(xs, edges[:-1], "right") - 1,
                        0, xs.size - 2)
        flat &= np.all(c == 0.0, axis=0)[piece]
    bounds = np.flatnonzero(np.diff(np.concatenate(([0], flat, [0]))))
    return edges[bounds[0::2]].tolist(), edges[bounds[1::2]].tolist()


def _pack_geo(a_pp, b_pp, B_pp, flats):
    """Kernel geometry tuple (ax, ac, bx, bc, Bx, Bc, flats): the PPoly
    data of a, b and B as packed by ``_kernels.pack_ppoly``, and the flat
    runs of a and b (:func:`flat_runs`)."""
    ax, ac = _k.pack_ppoly(*_ppoly_arrays(a_pp))
    bx, bc = _k.pack_ppoly(*_ppoly_arrays(b_pp))
    Bx, Bc = _k.pack_ppoly(*_ppoly_arrays(B_pp))
    # _kernels.geo_at looks up the piece of b and B once
    assert bx == Bx, "B must share b's breakpoints"
    return ax, ac, bx, bc, Bx, Bc, flats


class KernelBundle:
    """Geometry data consumed by the kernels, plus the mirrored variant used
    by the reflected (2-family) constructions, and the PPoly data of a, IA,
    b and B as arrays (``tables``) for the whole-array diagnostics.  The
    flat runs are computed once here; both kernel tuples carry their
    frame's, and ``tables["flats"]`` holds them as arrays."""

    def __init__(self, geom: NozzleGeometry, bound: BoundFunction):
        self.geom = geom
        self.bound = bound
        self.tables = {"a": _ppoly_arrays(geom.a_pp),
                       "IA": _ppoly_arrays(geom.IA_pp),
                       "b": _ppoly_arrays(bound.b_pp),
                       "B": _ppoly_arrays(bound.B_pp)}
        starts, ends = flat_runs(self.tables["a"], self.tables["b"])
        self.tables["flats"] = (np.array(starts), np.array(ends))
        self.geo = _pack_geo(geom.a_pp, bound.b_pp, bound.B_pp,
                             (starts, ends))
        # reflect_ppoly maps zero pieces, and only those, to zero pieces
        self.geo_reflected = _pack_geo(
            reflect_ppoly(geom.a_pp, -1.0), reflect_ppoly(bound.b_pp, 1.0),
            reflect_ppoly(bound.B_pp, -1.0),
            ([-x for x in ends[::-1]], [-x for x in starts[::-1]]))


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

    def invariants_at(self, x):
        dB = float(self.bound.B(x)) - float(self.bound.B(self.x_d))
        return self.z_d * math.exp(self.sz * dB), self.w_d * math.exp(self.sw * dB)

    def __call__(self, x, c: GasConstants) -> GasState:
        z, w = self.invariants_at(x)
        return from_invariants(InvariantPair(z, w), c)

    def piece_params(self):
        return np.array([self.x_d, self.z_d, self.w_d, self.sz, self.sw,
                         1.0], dtype=float)


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
    A corrected pair with w < z is vacuum.
    """
    bundle = get_bundle(geom, b)
    rho, m = _k.eval_piece(_k.K_PROFILE, profile.piece_params(), float(x),
                           float(t_offset), bundle.geo, c.theta)
    return GasState(rho, m)
