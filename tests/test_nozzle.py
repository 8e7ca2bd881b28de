import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PchipInterpolator, PPoly

import nozzleflow._kernels as _k
import nozzleflow._traces as _traces
from nozzleflow import nozzle
from nozzleflow import (GasConstants, GasState, admissibility_constants,
                        envelope, steady_profile, time_correct,
                        vacuum_decay_profile, validate_condition)
from nozzleflow.gas import from_invariants, to_invariants, InvariantPair
from nozzleflow.initialdata import GaussianBumpData, load_initial_table
from nozzleflow.nozzle import (BoundFunction, NozzleGeometry, get_bundle,
                               load_geometry_table, reflect_ppoly)
from nozzleflow.scheme import SchemeParameters

C14 = GasConstants.for_gamma(1.4)


class TestAdmissibilityConstants:
    def test_mu_simplified_form(self):
        # 1 + th - 2 sqrt(th) = (1 - sqrt(th))^2, so mu = ((1+sqrt(th))/sqrt(th))^2
        c = GasConstants.for_gamma(5 / 3)
        ad = admissibility_constants(c)
        st = math.sqrt(c.theta)
        assert ad.mu == pytest.approx(((1 + st) / st) ** 2, rel=1e-12)
        assert ad.mu == pytest.approx(4 + 2 * math.sqrt(3), rel=1e-12)

    def test_sigma_direct(self):
        c = GasConstants.for_gamma(5 / 3)
        ad = admissibility_constants(c)
        th = 1 / 3
        want = (1 - th) / ((1 - math.sqrt(th))
                           * (2 * math.sqrt(th + 1) + math.sqrt(th) - 1))
        assert ad.sigma == pytest.approx(want, rel=1e-12)
        assert ad.sigma == pytest.approx(0.8360, abs=5e-5)

    def test_sigma_in_unit_interval(self):
        for g in np.linspace(1.0 + 1e-6, 5 / 3, 100):
            ad = admissibility_constants(GasConstants.for_gamma(g))
            assert 0.0 < ad.sigma < 1.0
            assert ad.mu > 0.0


class TestGeometry:
    def test_constant_duct(self):
        g = NozzleGeometry.constant(A0=2.0, X=1.5)
        xs = np.linspace(-3, 3, 11)
        assert np.all(g.A(xs) == 2.0)
        assert np.all(g.a(xs) == 0.0)

    def test_bump_coefficient_analytic(self):
        eps, X = 0.2, 1.0
        g = NozzleGeometry.bump(eps, X=X)
        for x in (-0.7, -0.2, 0.0, 0.3, 0.9):
            s_prime = -6 * x / X ** 2 * (1 - (x / X) ** 2) ** 2
            assert float(g.a(x)) == pytest.approx(eps * s_prime, rel=1e-12,
                                                  abs=1e-14)
        # constant (a = 0) outside the support
        assert float(g.a(1.2)) == 0.0
        assert float(g.A(1.4)) == pytest.approx(float(g.A(2.0)), rel=1e-14)

    def test_bump_c2_at_edge(self):
        g = NozzleGeometry.bump(0.3, X=1.0)
        # a and a' vanish at |x| = X; the difference quotient shrinks ~ h
        assert abs(float(g.a(1.0))) < 1e-12
        quotients = []
        for h in (1e-4, 1e-5, 1e-6):
            quotients.append(abs(float(g.a(1.0 + h)) - float(g.a(1.0 - h)))
                             / (2 * h))
        assert quotients[1] < 0.2 * quotients[0]
        assert quotients[2] < 0.2 * quotients[1]

    def test_laval_shape(self):
        g = NozzleGeometry.laval(0.3, X=1.0)
        assert float(g.A(0.0)) < float(g.A(0.9)) < float(g.A(2.0))

    def test_table_round_trip(self, tmp_path):
        xs = np.linspace(-1.5, 1.5, 61)
        A = 1.0 + 0.1 * np.exp(-xs ** 2 / 0.3)
        path = tmp_path / "geom.txt"
        with open(path, "w") as fh:
            fh.write("x A\n")
            for x, a_ in zip(xs, A):
                fh.write(f"{x:.17g} {a_:.17g}\n")
        tx, tA = load_geometry_table(path)
        g = NozzleGeometry.from_table(tx, tA)
        for x in (-1.2, -0.4, 0.0, 0.7, 1.4):
            want = 1.0 + 0.1 * math.exp(-x * x / 0.3)
            assert float(g.A(x)) == pytest.approx(want, rel=1e-5)
        # a = -A'/A by finite differences of the interpolated A (probes
        # away from the C^1 interpolation nodes)
        h = 1e-6
        for x in (-0.813, 0.118, 0.911):
            da = -(float(g.A(x + h)) - float(g.A(x - h))) / (2 * h * float(g.A(x)))
            assert float(g.a(x)) == pytest.approx(da, rel=1e-5, abs=1e-8)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            NozzleGeometry.from_table([0.0, 0.0, 1.0], [1, 1, 1])
        with pytest.raises(ValueError):
            NozzleGeometry.from_table([0.0, 1.0], [1.0, -1.0])


def _initial_columns(path):
    u0 = load_initial_table(path)
    return u0.xs, u0.rho, u0.m


class TestTableLoaders:
    """Both table loaders read through ``nozzle.read_table``."""

    LOADERS = [(load_geometry_table, 2), (_initial_columns, 3)]

    @pytest.mark.parametrize("load, ncols", LOADERS)
    def test_header_after_comment(self, tmp_path, load, ncols):
        path = tmp_path / "t.csv"
        rows = [[-1.0, 1.0, 0.5], [0.0, 1.2, 0.5], [1.0, 1.1, 0.25]]
        path.write_text("# made by hand\n\n" + ",".join("xyz"[:ncols])
                        + "\n" + "".join(",".join(map(repr, r[:ncols]))
                                         + "\n" for r in rows))
        cols = load(path)
        for k in range(ncols):
            assert np.array_equal(cols[k], [r[k] for r in rows])

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "x,A,m\n",
                                      "x,A,m\n1,1,1\n"])
    @pytest.mark.parametrize("load, ncols", LOADERS)
    def test_too_few_rows(self, tmp_path, load, ncols, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="at least two rows"):
            load(path)

    @pytest.mark.parametrize("load, ncols", LOADERS)
    def test_bad_row_named(self, tmp_path, load, ncols):
        path = tmp_path / "t.csv"
        path.write_text("x y z\n0 1 1\nnot a row\n1 1 1\n")
        with pytest.raises(ValueError, match="bad table row 3"):
            load(path)


class TestGaussianBump:
    @pytest.mark.parametrize("width", [0.0, -0.3])
    def test_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=width)


class TestBoundFunction:
    def test_zero(self):
        b = BoundFunction.zero()
        assert b.I_plus == 0.0 and b.I_minus == 0.0
        assert float(b.B(0.7)) == 0.0

    def test_piecewise_constant_exact(self):
        b = BoundFunction.piecewise_constant([0.0, 1.0], [0.1])
        assert float(b.B(1.0)) == pytest.approx(0.1, rel=1e-15)
        assert float(b.B(0.5)) == pytest.approx(0.05, rel=1e-15)
        assert float(b.B(-2.0)) == 0.0
        assert b.I_plus == pytest.approx(0.1, rel=1e-15)
        assert b.I_minus == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BoundFunction.piecewise_constant([0, 1], [-0.1])

    @pytest.mark.parametrize("breaks", [[2.0, -2.0], [1.0, 1.0],
                                        [0.0, math.nan]])
    def test_breaks_that_do_not_increase_rejected(self, breaks):
        with pytest.raises(ValueError, match="must increase"):
            BoundFunction.piecewise_constant(breaks, [0.1])

    def test_auto_dilation_matches_loop(self):
        # the sliding-window maximum equals the per-sample loop bit for bit
        rng = np.random.default_rng(16)
        geom = NozzleGeometry.laval(0.1, X=1.0)
        xs = np.linspace(-1.5, 1.5, 3001)
        mu = admissibility_constants(C14).mu
        cases = [(np.abs(geom.a(xs)) / mu, 4), (np.abs(geom.a(xs)) / mu, 37)]
        for n, win in ((1, 2), (3, 10), (50, 4), (400, 17)):
            raw = rng.uniform(0.0, 1.0, n)
            raw[rng.uniform(size=n) < 0.3] = 0.0
            cases.append((raw, win))
        for raw, win in cases:
            want = np.empty_like(raw)
            for i in range(raw.size):
                want[i] = raw[max(0, i - win):min(raw.size, i + win + 1)].max()
            assert nozzle._dilate(raw, win).tobytes() == want.tobytes()

    @pytest.mark.parametrize("geom", [NozzleGeometry.bump(0.1),
                                      NozzleGeometry.bump(0.2, X=0.7),
                                      NozzleGeometry.laval(0.1),
                                      NozzleGeometry.laval(0.3, X=1.3)],
                             ids=lambda g: g.label)
    @pytest.mark.parametrize("dx", [0.05, 0.04, 0.03, 0.025, 0.02, 0.01])
    def test_auto_bound_of_a_symmetric_duct_is_symmetric(self, geom, dx):
        # the samples of |a| are mirror images of each other, so both
        # half-line integrals of b agree to rounding
        b = BoundFunction.auto_for(geom, admissibility_constants(C14), dx)
        assert b.I_plus == pytest.approx(b.I_minus, rel=1e-12, abs=0.0)

    def test_auto_dominates_a(self):
        geom = NozzleGeometry.bump(0.25, X=1.0)
        ad = admissibility_constants(C14)
        b = BoundFunction.auto_for(geom, ad, dx=0.02)
        xs = np.linspace(-2, 2, 4001)
        assert np.all(np.abs(geom.a(xs)) <= ad.mu * b.b(xs) + 1e-13)

    def test_quadrature_consistency(self):
        # cached B matches adaptive quadrature of b at 100 probe points
        # (coarse sample grid so the quad oracle resolves every kink)
        xs = np.linspace(-1.5, 1.5, 41)
        vals = 0.05 * (1 + np.cos(np.pi * xs / 1.5)) ** 2
        b = BoundFunction.from_samples(xs, vals)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x0, x1 = sorted(rng.uniform(-1.5, 1.5, 2))
            inner = xs[(xs > x0) & (xs < x1)]
            want = quad(lambda y: float(b.b(y)), x0, x1, limit=500,
                        epsabs=1e-13, epsrel=1e-13, points=inner)[0]
            assert float(b.B(x1)) - float(b.B(x0)) == pytest.approx(
                want, abs=1e-10)


class TestValidateCondition:
    def test_straight_duct(self):
        geom = NozzleGeometry.constant()
        b = BoundFunction.zero()
        rep = validate_condition(geom, b, admissibility_constants(C14))
        assert rep.passed
        assert rep.max_pointwise_excess == 0.0
        assert rep.I_plus == 0.0 and rep.I_minus == 0.0

    def test_constructed_bump_passes(self):
        geom = NozzleGeometry.bump(0.15, X=1.0)
        ad = admissibility_constants(C14)
        b = BoundFunction.auto_for(geom, ad, dx=0.02)
        assert validate_condition(geom, b, ad).passed

    def test_over_budget_fails(self):
        ad = admissibility_constants(C14)
        budget = ad.integral_budget
        # b alone busts the half-line integral budget by 10%
        val = 1.1 * budget
        b = BoundFunction.piecewise_constant([0.0, 1.0], [val])
        geom = NozzleGeometry.constant()
        rep = validate_condition(geom, b, ad)
        assert not rep.passed
        assert not rep.integral_ok
        assert rep.I_plus == pytest.approx(val, rel=1e-13)

    def test_pointwise_monotone_under_scaling(self):
        # scaling b up never converts a pointwise pass into a failure
        geom = NozzleGeometry.bump(0.15, X=1.0)
        ad = admissibility_constants(C14)
        b = BoundFunction.auto_for(geom, ad, dx=0.02)
        scaled = BoundFunction(b_pp=PPoly(3.0 * b.b_pp.c, b.b_pp.x),
                               B_pp=PPoly(3.0 * b.B_pp.c, b.B_pp.x),
                               I_plus=3 * b.I_plus, I_minus=3 * b.I_minus)
        assert validate_condition(geom, scaled, ad).pointwise_ok


class TestEnvelope:
    def test_zero_bound(self):
        lo, up = envelope(2.0, BoundFunction.zero(), 0.7)
        assert lo == -2.0 and up == 2.0

    def test_at_origin(self):
        b = BoundFunction.piecewise_constant([-1, 1], [0.3])
        lo, up = envelope(2.0, b, 0.0)
        assert lo == -2.0 and up == 2.0

    def test_interval_bound(self):
        b = BoundFunction.piecewise_constant([0.0, 1.0], [0.1])
        lo, up = envelope(3.0, b, 1.0)
        assert lo == pytest.approx(-3 * math.exp(-0.1), rel=1e-14)
        assert up == pytest.approx(3 * math.exp(0.1), rel=1e-14)

    def test_negative_M_rejected(self):
        with pytest.raises(ValueError):
            envelope(-1.0, BoundFunction.zero(), 0.0)


class TestSteadyProfile:
    def test_constant_when_b_zero(self):
        b = BoundFunction.zero()
        u = GasState.from_primitive(1.2, 0.3)
        prof = steady_profile(0.0, u, b, C14)
        for x in (-0.5, 0.0, 0.8):
            got = prof(x, C14)
            assert got.rho == pytest.approx(u.rho, rel=1e-13)
            assert got.m == pytest.approx(u.m, rel=1e-13)

    def test_anchor_identity(self):
        b = BoundFunction.piecewise_constant([-1, 1], [0.2])
        u = GasState.from_primitive(0.7, -0.4)
        prof = steady_profile(0.3, u, b, C14)
        got = prof(0.3, C14)
        assert got.rho == pytest.approx(u.rho, rel=1e-13)
        assert got.m == pytest.approx(u.m, rel=1e-13)

    def test_exponential_factors(self):
        b = BoundFunction.piecewise_constant([0.0, 1.0], [0.1])
        u = from_invariants(InvariantPair(-5.0, 5.0), C14)
        prof = steady_profile(0.0, u, b, C14)
        z1, w1 = prof.invariants_at(1.0)
        assert z1 == pytest.approx(-5 * math.exp(-0.1), rel=1e-13)
        assert w1 == pytest.approx(5 * math.exp(0.1), rel=1e-13)

    def test_profile_ode(self):
        # d z/dx = -b z and d w/dx = +b w by central differences
        geom = NozzleGeometry.bump(0.2, X=1.0)
        ad = admissibility_constants(C14)
        b = BoundFunction.auto_for(geom, ad, dx=0.05)
        u = GasState.from_primitive(1.0, 0.2)
        prof = steady_profile(-0.2, u, b, C14)
        h = 1e-6
        for x in (-0.5, 0.0, 0.4):
            zp, wp = prof.invariants_at(x + h)
            zm, wm = prof.invariants_at(x - h)
            z0, w0 = prof.invariants_at(x)
            bx = float(b.b(x))
            assert (zp - zm) / (2 * h) == pytest.approx(-bx * z0, abs=1e-7)
            assert (wp - wm) / (2 * h) == pytest.approx(bx * w0, abs=1e-7)

    def test_envelope_closure(self):
        # anchored inside the envelope implies inside everywhere (identity)
        b = BoundFunction.piecewise_constant([-0.5, 1.5], [0.25])
        M = 3.0
        x_d = 0.2
        lo_d, up_d = envelope(M, b, x_d)
        z_d, w_d = 0.9 * float(lo_d), 0.9 * float(up_d)
        u = from_invariants(InvariantPair(z_d, w_d), C14)
        prof = steady_profile(x_d, u, b, C14)
        for x in np.linspace(-1.0, 2.0, 25):
            z, w = prof.invariants_at(x)
            lo, up = envelope(M, b, x)
            assert z >= float(lo) - 1e-12
            assert w <= float(up) + 1e-12

    def test_inverted_invariants_rejected(self):
        # w_d < z_d cannot be expressed through a GasState, so the guard
        # lives on the invariant pair itself
        with pytest.raises(ValueError):
            from_invariants(InvariantPair(2.0, 1.0), C14)


def _const_slope_geometry(slope, span=2.0):
    """Geometry with a(x) = slope on [-span, span] (A = A0 e^{-slope x})."""
    xs = np.array([-span, span])
    ia = PPoly(np.array([[slope], [-slope * -span * 0 - slope * span * 0]]),
               xs)
    # IA(x) = slope * x  in local coordinates: slope*(x - (-span)) - slope*span
    c = np.zeros((2, 1))
    c[0, 0] = slope
    c[1, 0] = -slope * span
    ia = PPoly(c, xs)
    return NozzleGeometry(A0=1.0, X=span, IA_pp=ia, a_pp=ia.derivative(),
                          label="slope")


class TestTimeCorrection:
    def test_zero_offset(self):
        geom = _const_slope_geometry(0.3)
        b = BoundFunction.piecewise_constant([-1.5, 1.5], [0.1])
        u = GasState.from_primitive(1.0, 0.0)
        prof = steady_profile(0.5, u, b, C14)
        got = time_correct(prof, 0.5, 0.0, geom, b, C14)
        assert got.rho == pytest.approx(1.0, rel=1e-13)
        assert got.m == pytest.approx(0.0, abs=1e-13)

    def test_no_geometry_no_correction(self):
        geom = NozzleGeometry.constant()
        b = BoundFunction.zero()
        u = GasState.from_primitive(1.1, 0.4)
        prof = steady_profile(0.0, u, b, C14)
        got = time_correct(prof, 0.3, 0.02, geom, b, C14)
        assert got.rho == pytest.approx(u.rho, rel=1e-13)
        assert got.m == pytest.approx(u.m, rel=1e-13)

    def test_frozen_example(self):
        # a = 0.3, b = 0.1, ubar = (rho=1, v=0), t_offset = 0.01 at the anchor:
        # z := z - {a v rho^th - b lam1 z} t = -5 + 0.005
        # w := w + {a v rho^th - b lam2 w} t =  5 - 0.005
        geom = _const_slope_geometry(0.3)
        b = BoundFunction.piecewise_constant([-1.5, 1.5], [0.1])
        u = GasState.from_primitive(1.0, 0.0)
        prof = steady_profile(0.0, u, b, C14)
        got = time_correct(prof, 0.0, 0.01, geom, b, C14)
        iv = to_invariants(got, C14)
        assert iv.z == pytest.approx(-5 + 0.005, rel=1e-12)
        assert iv.w == pytest.approx(5 - 0.005, rel=1e-12)

    def test_fractional_step_ode_oracle(self):
        # the correction is the forward-Euler step of
        # z_t = -lam1 zbar_x - a vbar rhobar^th (and the w analogue)
        geom = _const_slope_geometry(0.3)
        b = BoundFunction.piecewise_constant([-1.5, 1.5], [0.1])
        u = GasState.from_primitive(1.0, 0.25)
        x = 0.4
        for prof in (steady_profile(0.0, u, b, C14),
                     vacuum_decay_profile(0.0, u, b, C14)):
            h = 1e-6
            zp, wp = prof.invariants_at(x + h)
            zm, wm = prof.invariants_at(x - h)
            z0, w0 = prof.invariants_at(x)
            zx = (zp - zm) / (2 * h)
            wx = (wp - wm) / (2 * h)
            ubar = from_invariantspair = from_invariants(InvariantPair(z0, w0), C14)
            lam1 = ubar.v - ubar.rho ** 0.2
            lam2 = ubar.v + ubar.rho ** 0.2
            av = 0.3 * ubar.v * ubar.rho ** 0.2
            dt = 1e-6
            got = time_correct(prof, x, dt, geom, b, C14)
            iv = to_invariants(got, C14)
            assert iv.z == pytest.approx(z0 + dt * (-lam1 * zx - av),
                                         rel=1e-9, abs=1e-12)
            assert iv.w == pytest.approx(w0 + dt * (-lam2 * wx + av),
                                         rel=1e-9, abs=1e-12)

    def test_decay_profile_sign_variant(self):
        # the near-vacuum profile flips the sign of the b lam2 w term:
        # w := w + {a v rho^th + b lam2 w} t
        geom = _const_slope_geometry(0.3)
        b = BoundFunction.piecewise_constant([-1.5, 1.5], [0.1])
        u = GasState.from_primitive(1.0, 0.0)
        prof = vacuum_decay_profile(0.0, u, b, C14)
        got = time_correct(prof, 0.0, 0.01, geom, b, C14)
        iv = to_invariants(got, C14)
        # lam2 = 1, w = 5: w + {0 + 0.1*1*5}*0.01 = 5.005
        assert iv.w == pytest.approx(5.005, rel=1e-12)
        # z term: -{a v rho^th - b lam1 z} = -{0 - 0.1*(-1)*(-5)} = +0.5
        assert iv.z == pytest.approx(-4.995, rel=1e-12)

    def test_inverted_pair_clamped(self):
        # pathological correction driving w below z snaps to vacuum
        geom = _const_slope_geometry(0.0)
        b = BoundFunction.piecewise_constant([-1.5, 1.5], [40.0])
        u = GasState.from_primitive(1e-4, 5.0)
        prof = steady_profile(0.0, u, b, C14)
        got = time_correct(prof, 0.0, 0.5, geom, b, C14)
        assert got.is_vacuum


class TestReflection:
    def test_reflect_ppoly_values(self):
        geom = NozzleGeometry.bump(0.2, X=1.0)
        refl = reflect_ppoly(geom.a_pp, -1.0)
        for x in np.linspace(-1.4, 1.4, 23):
            assert float(refl(x)) == pytest.approx(-float(geom.a(-x)),
                                                   rel=1e-12, abs=1e-14)

    def test_reflect_cumulative(self):
        b = BoundFunction.piecewise_constant([0.0, 1.0], [0.1])
        refl = reflect_ppoly(b.B_pp, -1.0)
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert float(refl(x)) == pytest.approx(-float(b.B(-x)),
                                                   abs=1e-15)


def _ppoly_reference(xs, c, x):
    """Clamped PPoly evaluation on the raw arrays, with a NumPy search
    for the piece."""
    n = xs.size - 1
    x = min(max(x, xs[0]), xs[n])
    i = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0), n - 1)
    t = x - xs[i]
    acc = 0.0
    for mdeg in range(c.shape[0]):
        acc = acc * t + c[mdeg, i]
    return float(acc)


class TestKernelLookup:
    def test_packed_lookup_bitwise(self):
        # the kernel-side packing and lookup reproduce the array version
        # bit for bit, at breakpoints, next to them and off the domain
        geom = NozzleGeometry.bump(0.2, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(C14),
                                   dx=0.02)
        rng = np.random.default_rng(4)
        for pp in (geom.a_pp, geom.IA_pp, b.b_pp, b.B_pp):
            xs = np.ascontiguousarray(pp.x, dtype=float)
            c = np.ascontiguousarray(pp.c, dtype=float)
            pxs, pc = _k.pack_ppoly(xs, c)
            pts = np.concatenate([xs, np.nextafter(xs, -np.inf),
                                  np.nextafter(xs, np.inf),
                                  rng.uniform(xs[0] - 1, xs[-1] + 1, 200)])
            for x in pts.tolist():
                assert _k.ppoly_eval(pxs, pc, x) == _ppoly_reference(xs, c, x)

    @pytest.mark.parametrize("family", ["bump", "laval", "table"])
    def test_geo_at_one_lookup_for_b_and_B(self, family):
        # b and B share their breakpoints, so geo_at finds both pieces with
        # one lookup: the values of three separate lookups, in both frames,
        # also where a's domain and b's differ
        geom = {"bump": NozzleGeometry.bump(0.2, X=1.0),
                "laval": NozzleGeometry.laval(0.2, X=1.0),
                "table": NozzleGeometry.from_table(
                    [-1.5, -0.5, 0.0, 0.7, 1.5],
                    [1.0, 0.8, 0.7, 0.9, 1.1])}[family]
        b = BoundFunction.auto_for(geom, admissibility_constants(C14),
                                   dx=0.02)
        bundle = nozzle.KernelBundle(geom, b)
        rng = np.random.default_rng(9)
        for geo in (bundle.geo, bundle.geo_reflected):
            assert geo[2] == geo[4]
            xs = np.array(geo[4] + geo[0])
            pts = np.concatenate([xs, np.nextafter(xs, -np.inf),
                                  np.nextafter(xs, np.inf),
                                  rng.uniform(xs.min() - 1, xs.max() + 1,
                                              300)])
            for x in pts.tolist():
                want = (_k.ppoly_eval(geo[4], geo[5], x),
                        _k.ppoly_eval(geo[0], geo[1], x),
                        _k.ppoly_eval(geo[2], geo[3], x))
                assert _k.geo_at(geo, x) == want


class TestOneEnvelope:
    @pytest.mark.parametrize("geom", [NozzleGeometry.bump(0.11),
                                      NozzleGeometry.laval(0.09)],
                             ids=["bump", "laval"])
    def test_envelope_is_the_step_clamp(self, geom):
        # every cell holds a state outside both bounds, so the step's
        # projection returns the bounds it clamps to as the invariants
        dx, M = 0.005, 2.0
        b = BoundFunction.auto_for(geom, admissibility_constants(C14), dx=dx)
        params = SchemeParameters.create(dx=dx, M=M, b=b, T=0.0, c=C14)
        jcells = np.arange(-600, 601, 2, dtype=np.int64)
        C = jcells.size
        pars = np.zeros((C, 6))
        pars[:, 0] = 1.0
        pcs = _traces._Pieces(jcells, np.ones(C, dtype=np.int64),
                              np.full(C, _k.K_CONST), pars, np.zeros(C), dx,
                              get_bundle(geom, b).tables, C14.theta)
        rho, m, z, w, _lo, _up, stats = _traces.average_project(
            jcells, pcs, params, C14)
        assert stats[0] == C and stats[3] == 0 and np.all(rho > 0.0)
        lo, up = envelope(M, b, jcells * dx)
        assert np.array_equal(z, lo)
        assert np.array_equal(w, up)

    @pytest.mark.parametrize("geom", [NozzleGeometry.bump(0.11),
                                      NozzleGeometry.laval(0.09)],
                             ids=["bump", "laval"])
    def test_near_vacuum_floor_is_the_lower_bound(self, geom):
        # pass B's near-vacuum construction floors z at -M e^{-B(x)},
        # evaluated in the scalar kernel: it must equal the envelope
        M = 2.0
        b = BoundFunction.auto_for(geom, admissibility_constants(C14),
                                   dx=0.005)
        geo = get_bundle(geom, b).geo
        xs = np.arange(-601, 602, 2) * 0.005
        lo, _up = envelope(M, b, xs)
        assert [-M * math.exp(-_k.geo_B(geo, x)) for x in xs.tolist()] \
            == lo.tolist()

    def test_scalar_and_array_agree(self):
        geom = NozzleGeometry.laval(0.09)
        b = BoundFunction.auto_for(geom, admissibility_constants(C14),
                                   dx=0.02)
        xs = np.linspace(-1.5, 1.5, 31)
        lo, up = envelope(1.5, b, xs)
        for i, x in enumerate(xs.tolist()):
            assert envelope(1.5, b, x) == (lo[i], up[i])


class TestBundleMemo:
    def test_keeps_latest_bundle_only(self):
        b = BoundFunction.zero()
        g1, g2 = NozzleGeometry.bump(0.1), NozzleGeometry.laval(0.1)
        first = get_bundle(g1, b)
        assert get_bundle(g1, b) is first
        second = get_bundle(g2, b)
        assert len(nozzle._BUNDLE_MEMO) == 1
        assert second.geom is g2
        assert get_bundle(g2, b) is second


def _table(xs, cols):
    """PPoly data (xs, c) with one coefficient column per piece."""
    return np.array(xs, dtype=float), np.array(cols, dtype=float).T


ZERO_B = _table([-5.0, 5.0], [[0.0, 0.0]])


class TestFlatRuns:
    def test_zero_piece_between_nonzero_pieces(self):
        a = _table([0.0, 1.0, 2.0, 3.0], [[0.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        assert nozzle.flat_runs(a, ZERO_B) == ([1.0], [2.0])

    def test_zero_end_pieces_extend_past_the_table(self):
        # the kernels clamp x to the table, so the end pieces hold beyond it
        a = _table([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        assert nozzle.flat_runs(a, ZERO_B) == ([-math.inf, 2.0],
                                               [1.0, math.inf])
        assert nozzle.flat_runs(ZERO_B, ZERO_B) == ([-math.inf], [math.inf])

    def test_top_coefficient_alone_is_not_flat(self):
        # the piece vanishes at its left end, with a zero constant term
        a = _table([0.0, 1.0, 2.0], [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert nozzle.flat_runs(a, ZERO_B) == ([-math.inf], [1.0])

    def test_adjacent_zero_pieces_merge_and_tables_intersect(self):
        a = _table([0.0, 1.0, 2.0, 3.0, 4.0],
                   [[1.0, 0.0], [0.0, -0.0], [0.0, 0.0], [1.0, 0.0]])
        b = _table([-1.0, 1.5, 2.5, 3.5],
                   [[0.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert nozzle.flat_runs(a, b) == ([1.0, 2.5], [1.5, 3.0])
        # breakpoints shared by both tables
        assert nozzle.flat_runs(a, a) == nozzle.flat_runs(a, ZERO_B) == \
            ([1.0], [3.0])

    def test_bundle_frames_mirror_each_other(self):
        c = GasConstants.for_gamma(1.4)
        geom = NozzleGeometry.bump(0.1, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(c), dx=0.02)
        bundle = get_bundle(geom, b)
        starts, ends = bundle.geo[6]
        assert starts[0] == -math.inf and ends[-1] == math.inf
        assert len(starts) == 2 and -1.05 < ends[0] < -1.0 < 1.0 < starts[1]
        mirrored = ([-e for e in ends[::-1]], [-s for s in starts[::-1]])
        assert bundle.geo_reflected[6] == mirrored
        tables = [nozzle._ppoly_arrays(reflect_ppoly(pp, sign))
                  for pp, sign in ((geom.a_pp, -1.0), (b.b_pp, 1.0))]
        assert nozzle.flat_runs(*tables) == mirrored
        # the Laval duct's a is exactly 0 beyond +-X, so with the same b
        # its flat runs are b's, and by its own a alone they begin at +-X
        laval = NozzleGeometry.laval(0.1, X=1.0)
        assert get_bundle(laval, b).geo[6] == (starts, ends)
        assert nozzle.flat_runs(nozzle._ppoly_arrays(laval.a_pp), ZERO_B) \
            == ([-math.inf, 1.0], [-1.0, math.inf])


# ---------------------------------------------------------------------------
# the in-house piecewise polynomials against scipy.interpolate: the
# construction data bit for bit, the values through the one evaluator
# ---------------------------------------------------------------------------

def _bits_equal(a, b):
    """Same shape, same values (NaN matching NaN) and same signed zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _probe_points(xs, rng):
    """Random points, every breakpoint and its two floating-point
    neighbours, points beyond both ends and a NaN."""
    return np.concatenate([xs, np.nextafter(xs, -np.inf),
                           np.nextafter(xs, np.inf),
                           rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 200),
                           [xs[0] - 10.0, xs[-1] + 10.0, np.nan]])


def _assert_values(ours, ref, absolute, rng):
    """ours reads every probe point as ``_kernels.ppoly_eval`` does, bit for
    bit, in the shape of the points.  Inside [x[0], x[-1]] it agrees with
    scipy's ref within the rounding bound of the two sums, (2k + n + 2) eps
    times the value of ``absolute``, the same sum of the absolute terms
    (k coefficient rows, n pieces)."""
    pts = _probe_points(ours.x, rng)
    vals = ours(pts)
    bx, bc = _k.pack_ppoly(ours.x, ours.c)
    assert _bits_equal(vals, [_k.ppoly_eval(bx, bc, p) for p in pts.tolist()])
    assert _bits_equal(ours(pts[:200].reshape(40, 5)),
                       vals[:200].reshape(40, 5))
    assert _bits_equal(ours(float(pts[-4])), vals[-4])
    inside = (pts >= ours.x[0]) & (pts <= ours.x[-1])
    k, n = ours.c.shape
    bound = (2 * k + n + 2) * np.finfo(float).eps * absolute(pts[inside])
    assert np.all(np.abs(vals[inside] - ref(pts[inside])) <= bound)


def _assert_matches_scipy(ours, ref, rng):
    """ours equals the scipy PPoly ref in data, in its derivative's data and
    in its antiderivative's data but for the constants; the values of all
    three as :func:`_assert_values` states."""
    assert _bits_equal(ours.x, ref.x) and _bits_equal(ours.c, ref.c)
    d, dref = ours.derivative(), ref.derivative()
    assert _bits_equal(d.x, dref.x) and _bits_equal(d.c, dref.c)
    anti, aref = ours.antiderivative(), ref.antiderivative()
    assert _bits_equal(anti.x, aref.x)
    assert _bits_equal(anti.c[:-1], aref.c[:-1])
    absolute = nozzle.PiecewisePoly(np.abs(ours.c), ours.x)
    _assert_values(ours, ref, absolute, rng)
    _assert_values(d, dref, absolute.derivative(), rng)
    _assert_values(anti, aref, absolute.antiderivative(), rng)


def _built_with_scipy(build):
    """build() run with the data of scipy's interpolants in place of
    nozzle's own."""
    def ours(pp):
        return nozzle.PiecewisePoly(pp.c, pp.x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nozzle, "_pchip",
                   lambda x, y: ours(PchipInterpolator(x, y)))
        mp.setattr(nozzle, "_clamped_spline",
                   lambda x, y: ours(CubicSpline(x, y, bc_type="clamped")))
        return build()


def _random_table(rng):
    xs = np.sort(rng.uniform(-1.5, 1.5, 40))
    return xs, 1.0 + 0.3 * rng.random(40)


GEOMETRIES = {
    **{f"bump-{eps}": (lambda eps=eps: NozzleGeometry.bump(eps))
       for eps in (0.1, 0.2, 0.3)},
    **{f"laval-{depth}-{n}":
       (lambda depth=depth, n=n: NozzleGeometry.laval(depth, n_samples=n))
       for depth in (0.05, 0.1, 0.3, 0.5) for n in (2, 3, 50, 2001)},
    "table": lambda: NozzleGeometry.from_table(
        *_random_table(np.random.default_rng(5))),
    "table-two-rows": lambda: NozzleGeometry.from_table([0.0, 1.0],
                                                        [1.0, 2.0]),
}


class TestSameBitsAsScipy:
    def test_random_piecewise_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = int(rng.integers(1, 8))
            xs = np.unique(rng.uniform(-3.0, 3.0, int(rng.integers(2, 30))))
            c = rng.normal(size=(k, xs.size - 1))
            c[rng.random(c.shape) < 0.2] = -0.0
            _assert_matches_scipy(nozzle.PiecewisePoly(c, xs), PPoly(c, xs),
                                  rng)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_geometry_data(self, name):
        rng = np.random.default_rng(12)
        ours = GEOMETRIES[name]()
        ref = _built_with_scipy(GEOMETRIES[name])
        for field in ("IA_pp", "a_pp"):
            pp, ref_pp = getattr(ours, field), getattr(ref, field)
            _assert_matches_scipy(pp, PPoly(ref_pp.c, ref_pp.x), rng)

    @pytest.mark.parametrize("name", ["bump-0.2", "laval-0.1-2001", "table"])
    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5 / 3])
    @pytest.mark.parametrize("dx", [0.01, 0.05])
    def test_auto_bound_data(self, name, gamma, dx):
        rng = np.random.default_rng(13)
        geom = GEOMETRIES[name]()
        ad = admissibility_constants(GasConstants.for_gamma(gamma))
        ours = BoundFunction.auto_for(geom, ad, dx)
        ref = _built_with_scipy(lambda: BoundFunction.auto_for(geom, ad, dx))
        assert (ours.I_plus, ours.I_minus) == (ref.I_plus, ref.I_minus)
        assert _bits_equal(ours.B_pp.c, ref.B_pp.c)
        _assert_matches_scipy(ours.b_pp, PPoly(ref.b_pp.c, ref.b_pp.x), rng)

    def test_pchip(self):
        rng = np.random.default_rng(14)
        for case in range(120):
            n = 2 if case % 10 == 0 else int(rng.integers(3, 40))
            xs = np.sort(rng.uniform(-2.0, 2.0, n))
            ys = rng.normal(size=n)
            if case % 3 == 1:           # flat runs
                ys[rng.integers(0, n, n // 2)] = 0.5
            if case % 3 == 2:           # sign changes through zero
                ys = np.round(ys)
            _assert_matches_scipy(nozzle._pchip(xs, ys),
                                  PchipInterpolator(xs, ys), rng)

    def test_clamped_spline(self):
        # spacings above 1 make dgtsv swap rows in the first column
        rng = np.random.default_rng(15)
        for case in range(60):
            xs = np.sort(rng.uniform(-4.0, 4.0, 2 + case % 20))
            ys = rng.normal(size=xs.size)
            _assert_matches_scipy(nozzle._clamped_spline(xs, ys),
                                  CubicSpline(xs, ys, bc_type="clamped"), rng)


def _piece_ends(pp):
    """The value of each piece but the last at its right breakpoint, read by
    the package's evaluator from that piece alone."""
    return np.array([nozzle.PiecewisePoly(pp.c[:, i:i + 1], pp.x[i:i + 2])(
        pp.x[i + 1]) for i in range(pp.x.size - 2)])


class TestAntiderivativeContinuity:
    """Each piece of an antiderivative starts exactly where the one before
    it ends, as the package's one evaluator reads that piece."""

    def test_random_piecewise_polynomials(self):
        rng = np.random.default_rng(13)
        for i in range(200):
            k = int(rng.integers(1, 6))
            xs = np.unique(rng.uniform(-3.0, 3.0, int(rng.integers(2, 40))))
            c = rng.normal(size=(k, xs.size - 1)) * 10.0 ** rng.uniform(
                -8, 3, (k, xs.size - 1))
            c[rng.random(c.shape) < 0.2] = -0.0
            c[rng.random(c.shape) < 0.1] = 0.0
            if i % 10 == 0:
                c[:] = -0.0
            anti = nozzle.PiecewisePoly(c, xs).antiderivative()
            assert _bits_equal(anti.c[-1, :1], [0.0])
            assert _bits_equal(anti.c[-1, 1:], _piece_ends(anti))

    def test_bound_function_data(self):
        geom = NozzleGeometry.laval(0.3)
        b = BoundFunction.auto_for(geom, admissibility_constants(C14),
                                   dx=1e-3)
        assert b.b_pp.x.size > 5000
        anti = b.b_pp.antiderivative()
        assert _bits_equal(anti.c[-1, 1:], _piece_ends(anti))
