import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PPoly

import nozzleflow._kernels as _k
import nozzleflow._traces as _traces
from nozzleflow import nozzle
from nozzleflow import (GasConstants, GasState, admissibility_constants,
                        envelope, steady_profile, time_correct,
                        vacuum_decay_profile, validate_condition)
from nozzleflow.gas import from_invariants, to_invariants, InvariantPair
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
        assert prof.clamp_count == 1


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
    """Clamped PPoly evaluation on the raw arrays: the compiled lookup."""
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
        rho, m, z, w, stats = _traces.average_project(
            jcells, np.arange(C + 1), np.ones(C, dtype=np.int64),
            np.full(C, _k.K_CONST), pars, np.zeros(C), params, C14,
            get_bundle(geom, b).tables)
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
