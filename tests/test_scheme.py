import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import nozzleflow._kernels as _k
import nozzleflow._traces as _traces
from nozzleflow import (ConfigError, GasConstants, GasState, advance,
                        build_cell, build_cell_vacuum, build_fan,
                        cell_average, entropy_admissible, initialize,
                        project_node, rh_speed, run, sample, select_M,
                        solve_front, solve_riemann, to_invariants)
from nozzleflow.gas import from_invariants, InvariantPair
from nozzleflow.initialdata import (GaussianBumpData, RiemannStepData,
                                    TableData)
from nozzleflow.nozzle import (BoundFunction, NozzleGeometry,
                               admissibility_constants, envelope,
                               get_bundle, steady_profile)
from nozzleflow.scheme import SchemeParameters

C14 = GasConstants.for_gamma(1.4)


def straight_setup(dx=0.05, M=6.0, T=0.0):
    geom = NozzleGeometry.constant(X=1.0)
    b = BoundFunction.zero(domain=(-2.0, 2.0))
    params = SchemeParameters.create(dx=dx, M=M, b=b, T=T, c=C14)
    return geom, b, params


def nozzle_setup(dx=0.025, eps=0.15, data=None, gamma=1.4):
    c = GasConstants.for_gamma(gamma)
    geom = NozzleGeometry.bump(eps, X=1.0)
    ad = admissibility_constants(c)
    b = BoundFunction.auto_for(geom, ad, dx=dx)
    u0 = data or GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
    M = select_M(u0, b, c)
    params = SchemeParameters.create(dx=dx, M=M, b=b, T=0.0, c=c)
    return c, geom, b, u0, params


class TestSchemeParameters:
    def test_cfl_ratio(self):
        b = BoundFunction.piecewise_constant([0, 1], [0.1])
        p = SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=C14)
        assert p.dx / p.dt == pytest.approx(2 * 3.0 * math.exp(0.1), rel=1e-14)

    def test_alpha_range(self):
        b = BoundFunction.zero()
        with pytest.raises(ConfigError):
            SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=C14,
                                    alpha=0.4)
        with pytest.raises(ConfigError):
            SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=C14,
                                    alpha=1.0)

    def test_beta_constraints(self):
        b = BoundFunction.zero()
        with pytest.raises(ConfigError):
            SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=C14,
                                    beta=0.2)   # alpha < 1 - 2 beta fails

    def test_delta_range(self):
        b = BoundFunction.zero()
        with pytest.raises(ConfigError):
            SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=C14,
                                    delta=0.9)
        c53 = GasConstants.for_gamma(5 / 3)
        with pytest.raises(ConfigError):
            SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=c53,
                                    delta=1.6)  # 1/(2 theta) = 1.5

    def test_default_delta_valid_across_gamma(self):
        b = BoundFunction.zero()
        for g in (1.2, 1.4, 5 / 3):
            c = GasConstants.for_gamma(g)
            p = SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=c)
            assert 1.0 < p.delta < 1.0 / (2 * c.theta)


class TestBuildFan:
    def test_degenerate(self):
        u = GasState.from_primitive(1.0, 0.0)
        _, _, params = straight_setup()
        z_L = to_invariants(u, C14).z
        fan = build_fan(u, z_L, params, C14)
        assert fan.p == 2
        assert fan.z_stars[0] == fan.z_stars[-1] == z_L

    def test_state_count_and_steps(self):
        u = GasState.from_primitive(1.0, 0.0)
        _, _, params = straight_setup()
        h = params.dx ** params.alpha
        z_L = to_invariants(u, C14).z
        fan = build_fan(u, z_L + 2.5 * h, params, C14)
        # 2.5 intervals of h -> 3 intervals -> 4 states
        assert fan.p == 4
        gaps = np.diff(fan.z_stars)
        assert gaps[0] == pytest.approx(h, rel=1e-13)
        assert gaps[1] == pytest.approx(h, rel=1e-13)
        assert gaps[2] == pytest.approx(0.5 * h, rel=1e-12)
        assert np.all(gaps <= h * (1 + 1e-12))
        assert fan.z_stars[-1] - fan.z_stars[0] == pytest.approx(2.5 * h,
                                                                 rel=1e-12)

    def test_speeds_increasing(self):
        u = GasState.from_primitive(1.0, 0.0)
        _, _, params = straight_setup()
        fan = build_fan(u, to_invariants(u, C14).z + 1.7, params, C14)
        assert np.all(np.diff(fan.speeds) > 0)

    def test_jumps_are_rarefaction_shocks(self):
        # every adjacent jump solved onto the inverse-shock locus fails the
        # entropy condition (acceptance 7 core)
        u = GasState.from_primitive(1.0, 0.0)
        _, _, params = straight_setup()
        fan = build_fan(u, to_invariants(u, C14).z + 1.3, params, C14)
        ul = u
        for i in range(1, fan.p):
            zt = float(fan.z_stars[i])
            if zt <= to_invariants(ul, C14).z:
                continue
            rho_u, st = _k.hugoniot_z_k(ul.rho, ul.v, zt, 1.4, 0.2, -1.0)
            assert st == 0
            v_u = ul.v - _k.hjump_k(rho_u, ul.rho, 1.4)
            ur = GasState.from_primitive(rho_u, v_u)
            lam = rh_speed(ul, ur, C14)
            assert not entropy_admissible(ul, ur, lam, C14)
            ul = ur

    def test_wrong_direction_rejected(self):
        u = GasState.from_primitive(1.0, 0.0)
        _, _, params = straight_setup()
        with pytest.raises(ValueError):
            build_fan(u, to_invariants(u, C14).z - 1.0, params, C14)


class TestProjectNode:
    def test_inside_bounds_unchanged(self):
        _, b, params = straight_setup()
        E = GasState.from_primitive(1.0, 0.2)
        got = project_node(E, 0, params, b, C14)
        assert got.rho == pytest.approx(1.0, rel=1e-13)
        assert got.m == pytest.approx(0.2, rel=1e-13)

    def test_w_clamped(self):
        _, b, params = straight_setup(dx=0.02, M=2.0)
        iv = InvariantPair(-1.0, 2.3)   # w above the bound 2.0
        E = from_invariants(iv, C14)
        got = project_node(E, 0, params, b, C14)
        ivp = to_invariants(got, C14)
        assert ivp.w == pytest.approx(2.0, rel=1e-12)
        assert ivp.z == pytest.approx(-1.0, rel=1e-12)

    def test_vacuum_threshold(self):
        _, b, params = straight_setup()
        thr = params.dx ** params.delta
        got = project_node(GasState(thr / 2, 0.0), 0, params, b, C14)
        assert got.is_vacuum

    def test_matches_step_projection(self):
        # one constant cell per outcome: unclamped, w clamped, inverted by
        # the clamp (z above the upper bound), below dx^delta
        geom = NozzleGeometry.bump(0.15, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(C14),
                                   dx=0.02)
        params = SchemeParameters.create(dx=0.02, M=6.0, b=b, T=0.0, c=C14)
        states = [GasState.from_primitive(1.0, 0.2),
                  GasState.from_primitive(1.0, 1.5),
                  GasState.from_primitive(0.01, 12.0),
                  GasState(0.5 * params.dx ** params.delta, 0.0)]
        jcells = np.array([-10, -4, 0, 6], dtype=np.int64)
        C = jcells.size
        pars = np.zeros((C, 6))
        pars[:, 0] = [u.rho for u in states]
        pars[:, 1] = [u.m for u in states]
        packed = (jcells, np.arange(C + 1), np.ones(C, dtype=np.int64),
                  np.full(C, _k.K_CONST), pars, np.zeros(C), params, C14,
                  get_bundle(geom, b).tables)
        e_r, e_m = _traces.cell_averages(*packed)
        rho, m, _z, _w, stats = _traces.average_project(*packed)
        assert list(stats[[0, 1, 3]]) == [2, 1, 1]
        assert rho[0] == e_r[0] and rho[2] == 0.0 and rho[3] == 0.0
        for i, j in enumerate(jcells.tolist()):
            got = project_node(GasState(e_r[i], e_m[i]), j, params, b, C14)
            assert (got.rho, got.m) == (rho[i], m[i])


class TestInitialize:
    def test_all_vacuum(self):
        geom, b, params = straight_setup()
        u0 = TableData([-1, 1], [0, 0], [0, 0])
        st, mesh = initialize(u0, params, geom, b, C14)
        assert np.all(st.rho == 0.0) and np.all(st.m == 0.0)

    def test_constant_with_cutoff(self):
        geom, b, params = straight_setup(dx=0.05)
        u0 = RiemannStepData(1.0, 0.0, 1.0, 0.0)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=True)
        X = geom.X
        for i, j in enumerate(st.js):
            a_edge, b_edge = (j - 1) * params.dx, (j + 1) * params.dx
            frac = max(0.0, (min(b_edge, X) - a_edge)) / (b_edge - a_edge)
            want = 1.0 * frac
            if want < params.dx ** params.delta:
                assert st.rho[i] == 0.0
            else:
                assert st.rho[i] == pytest.approx(want, rel=1e-12)

    def test_riemann_step_averages(self):
        geom, b, params = straight_setup(dx=0.05)
        u0 = RiemannStepData(1.0, 0.1, 0.8, -0.2, x0=0.012)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        dx = params.dx
        for i, j in enumerate(st.js):
            a_edge, b_edge = (j - 1) * dx, (j + 1) * dx
            # closed-form piecewise integral of the step data
            lo, hi = min(b_edge, u0.x0), max(a_edge, u0.x0)
            wl = (max(0.0, min(b_edge, u0.x0) - a_edge)) / (2 * dx)
            wl = min(max(wl, 0.0), 1.0)
            want_rho = wl * 1.0 + (1 - wl) * 0.8
            want_m = wl * 0.1 + (1 - wl) * (0.8 * -0.2)
            assert st.rho[i] == pytest.approx(want_rho, rel=1e-12)
            assert st.m[i] == pytest.approx(want_m, rel=1e-10, abs=1e-13)

    def test_bound_violation_rejected(self):
        geom, b, params = straight_setup(M=1.0)   # M far too small
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        with pytest.raises(ConfigError):
            initialize(u0, params, geom, b, C14)


class TestSolveFront:
    def test_reduces_to_fan_speed_without_geometry(self):
        geom, b, params = straight_setup()
        u_L = GasState.from_primitive(1.0, 0.0)
        iv = to_invariants(u_L, C14)
        h = params.dx ** params.alpha
        fan = build_fan(u_L, iv.z + 2 * h, params, C14)
        prof = steady_profile(-params.dx, u_L, b, C14)
        sigma, u = solve_front(prof, float(fan.z_stars[1]), -1e9, 0,
                               params, geom, b, C14)
        # plain-fan speed agrees to the O(h^3) locus-vs-curve gap
        assert sigma == pytest.approx(float(fan.speeds[0]),
                                      abs=2 * h ** 3 + 1e-11)
        assert to_invariants(u, C14).z == pytest.approx(
            float(fan.z_stars[1]), abs=1e-12)
        # and the solved pair satisfies RH exactly
        lam = rh_speed(GasState.from_primitive(1.0, 0.0), u, C14)
        assert sigma == pytest.approx(lam, abs=1e-11)

    def test_zero_strength_target(self):
        geom, b, params = straight_setup()
        u_L = GasState.from_primitive(1.0, 0.3)
        prof = steady_profile(-params.dx, u_L, b, C14)
        iv = to_invariants(u_L, C14)
        sigma, u = solve_front(prof, iv.z, -1e9, 0, params, geom, b, C14)
        lam1 = u_L.v - u_L.rho ** 0.2
        assert sigma == pytest.approx(lam1, abs=1e-10)
        assert u.rho == pytest.approx(u_L.rho, rel=1e-10)

    def test_dense_scan_oracle(self):
        # constant b = 0.05 on the cell; locate the residual zero by a
        # dense scan over sigma and compare
        geom = NozzleGeometry.constant(X=1.0)
        b = BoundFunction.piecewise_constant([-1.0, 1.0], [0.05])
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        u_L = GasState.from_primitive(1.0, 0.0)
        prof = steady_profile(-params.dx, u_L, b, C14)
        z_t = to_invariants(u_L, C14).z + 0.3
        sigma, u = solve_front(prof, z_t, -1e9, 0, params, geom, b, C14)

        from nozzleflow.nozzle import get_bundle
        bundle = get_bundle(geom, b)

        def g_of(s):
            rl, ml, _cl = _k.eval_piece(_k.K_PROFILE, prof.piece_params(1.0),
                                        s * params.dt / 2, params.dt / 2,
                                        bundle.geo, 1.4, 0.2)
            vl = ml / rl
            rho_u, st = _k.hugoniot_z_k(rl, vl, z_t, 1.4, 0.2, -1.0)
            return _k.sigma1_k(rl, vl, rho_u, 1.4) - s

        grid = np.arange(sigma - 5e-4, sigma + 5e-4, 1e-6)
        vals = np.array([g_of(s) for s in grid])
        sign_change = np.nonzero(np.diff(np.sign(vals)))[0]
        assert sign_change.size >= 1
        s_scan = grid[sign_change[0]]
        assert sigma == pytest.approx(s_scan, abs=2e-6)
        # converged front satisfies RH at the half time
        xf = sigma * params.dt / 2
        rl, ml, _cl = _k.eval_piece(_k.K_PROFILE, prof.piece_params(1.0),
                                    xf, params.dt / 2, bundle.geo, 1.4, 0.2)
        f1l, f2l = _k.flux_k(rl, ml, 1.4)
        f1r, f2r = _k.flux_k(u.rho, u.m, 1.4)
        res = max(abs(f1r - f1l - sigma * (u.rho - rl)),
                  abs(f2r - f2l - sigma * (u.m - ml)))
        assert res < 1e-10


class TestBuildCell:
    def test_equal_states_single_piece(self):
        geom, b, params = straight_setup()
        u = GasState.from_primitive(1.0, 0.2)
        cell = build_cell(u, u, 1, 0, params, geom, b, C14)
        assert len(cell.pieces) == 1
        assert cell.pieces[0].kind_name == "constant"
        assert len(cell.fronts) == 0

    def test_homogeneous_matches_exact_riemann(self):
        # region-I data in a straight duct: the trace reproduces the exact
        # solution up to the fan discretization error O(dx^alpha)
        geom, b, params = straight_setup(dx=0.02)
        ul = GasState.from_primitive(1.0, 0.0)
        ur = GasState.from_primitive(1.0, 1.2)
        cell = build_cell(ul, ur, 0, 0, params, geom, b, C14)
        sol = solve_riemann(ul, ur, C14)
        h = params.dx ** params.alpha
        t = params.dt
        worst = 0.0
        for x in np.linspace(-0.9 * params.dx, 0.9 * params.dx, 81):
            got = cell.trace(x, t)
            want = sample(sol, x / t)
            worst = max(worst,
                        abs(to_invariants(got, C14).z
                            - to_invariants(want, C14).z))
        assert worst <= 1.5 * h

    def test_mid_time_rh_on_nozzle_cell(self):
        c, geom, b, u0, params = nozzle_setup()
        ul = GasState.from_primitive(1.1, 0.05)
        ur = GasState.from_primitive(0.95, -0.1)
        cell = build_cell(ul, ur, 2, 0, params, geom, b, c)
        assert cell.max_rh_residual() < 1e-10
        assert len(cell.fronts) >= 2

    def test_front_ordering_and_speed_bound(self):
        c, geom, b, u0, params = nozzle_setup()
        rng = np.random.default_rng(4)
        bound = params.dx / params.dt
        for _ in range(25):
            ul = GasState.from_primitive(rng.uniform(0.9, 1.4),
                                         rng.uniform(-0.3, 0.3))
            ur = GasState.from_primitive(rng.uniform(0.9, 1.4),
                                         rng.uniform(-0.3, 0.3))
            cell = build_cell(ul, ur, 0, 0, params, geom, b, c)
            fr = [f.speed for f in cell.fronts]
            assert all(fr[i] < fr[i + 1] for i in range(len(fr) - 1))
            assert all(abs(s) <= bound for s in fr)
            assert cell.max_rh_residual() < 1e-10

    def test_cell_average_matches_adaptive_quadrature(self):
        c, geom, b, u0, params = nozzle_setup()
        ul = GasState.from_primitive(1.1, 0.05)
        ur = GasState.from_primitive(0.95, -0.1)
        cell = build_cell(ul, ur, 2, 0, params, geom, b, c)
        E = cell_average(cell)
        dx, dt = params.dx, params.dt
        xc = 2 * dx
        kinks = [xc + s * dt for s in cell.speeds]
        pts = sorted(x for x in kinks if xc - dx < x < xc + dx)

        def rho_of(x):
            return cell.trace(x, dt).rho

        def m_of(x):
            return cell.trace(x, dt).m
        want_r = quad(rho_of, xc - dx, xc + dx, points=pts, limit=300,
                      epsabs=1e-12)[0] / (2 * dx)
        want_m = quad(m_of, xc - dx, xc + dx, points=pts, limit=300,
                      epsabs=1e-12)[0] / (2 * dx)
        assert E.rho == pytest.approx(want_r, abs=1e-9)
        assert E.m == pytest.approx(want_m, abs=1e-9)


class TestVacuumCells:
    """Near-vacuum constructions, one per routing case."""

    def setup_method(self):
        self.c = C14
        self.geom = NozzleGeometry.bump(0.1, X=1.0)
        ad = admissibility_constants(self.c)
        self.dx = 0.01
        self.b = BoundFunction.auto_for(self.geom, ad, dx=self.dx)
        self.params = SchemeParameters.create(dx=self.dx, M=6.0, b=self.b,
                                              T=0.0, c=self.c)
        self.thr = self.dx ** self.params.beta

    def _post_projection_ok(self, cell):
        E = cell.average()
        st = project_node(E, cell.j, self.params, self.b, self.c)
        if st.is_vacuum:
            return True
        iv = to_invariants(st, self.c)
        lo, up = envelope(self.params.M, self.b, cell.j * self.dx)
        return iv.z >= float(lo) - 1e-12 and iv.w <= float(up) + 1e-12

    def test_case4_two_shocks_bitwise(self):
        ul = GasState.from_primitive(0.5, 0.15)
        ur = GasState.from_primitive(0.5, -0.15)
        cell = build_cell_vacuum(ul, ur, 1, 0, self.params, self.geom,
                                 self.b, self.c)
        assert cell.case == _k.CASE_VAC_4
        sol = solve_riemann(ul, ur, self.c)
        t = 0.6 * self.params.dt
        for x in np.linspace(0.0, 2 * self.dx, 41):
            got = cell.trace(x, t)
            want = sample(sol, (x - self.dx) / t)
            assert got.rho == want.rho and got.m == want.m
        fr = [f.speed for f in cell.fronts]
        assert all(fr[i] < fr[i + 1] for i in range(len(fr) - 1))
        assert self._post_projection_ok(cell)

    def test_case3_two_rarefactions(self):
        ul = GasState.from_primitive(0.5, -0.3)
        ur = GasState.from_primitive(0.5, 0.3)
        cell = build_cell_vacuum(ul, ur, 1, 0, self.params, self.geom,
                                 self.b, self.c)
        assert cell.case == _k.CASE_VAC_3
        assert self._post_projection_ok(cell)
        assert cell.max_rh_residual() < 1e-10

    def test_case_11_truncated_fan(self):
        ul = GasState.from_primitive(1.7, 0.0)
        wL = to_invariants(ul, self.c).w
        zM = wL - 2 * _k.kfun(0.5, 0.2)
        vM = 0.5 * (zM + wL)
        vR = vM + _k.hjump_k(0.2, 0.5, 1.4)
        ur = GasState.from_primitive(0.2, vR)
        sol = solve_riemann(ul, ur, self.c)
        assert sol.region == "IV" and sol.middle.rho <= self.thr
        assert ul.rho > 2 * self.thr
        cell = build_cell_vacuum(ul, ur, 1, 0, self.params, self.geom,
                                 self.b, self.c)
        assert cell.case == _k.CASE_VAC_1
        assert cell.subcase == _k.SUB_11
        # the fan stops at density 2 (dx)^beta: its last solved profile
        # has z close to w_L - 2 K(2 thr)
        z1 = wL - 2 * _k.kfun(2 * self.thr, 0.2)
        prof_kinds = [p.kind_name for p in cell.pieces]
        assert prof_kinds[0] == "profile"
        fr = [f.speed for f in cell.fronts]
        assert all(fr[i] < fr[i + 1] for i in range(len(fr) - 1))
        assert self._post_projection_ok(cell)
        assert cell.max_rh_residual() < 1e-9

    def test_case_12i_plain_riemann_bitwise(self):
        ul = GasState.from_primitive(0.3, 0.2)
        wL = to_invariants(ul, self.c).w
        zm = wL - 2 * _k.kfun(0.25, 0.2)
        vm = 0.5 * (zm + wL)
        vR = vm + _k.hjump_k(0.08, 0.25, 1.4)
        ur = GasState.from_primitive(0.08, vR)
        sol = solve_riemann(ul, ur, self.c)
        assert sol.middle.rho <= self.thr and ul.rho <= 2 * self.thr
        Lj = -self.params.M * math.exp(-float(self.b.B(2 * self.dx)))
        assert to_invariants(ul, self.c).z >= Lj
        cell = build_cell_vacuum(ul, ur, 1, 0, self.params, self.geom,
                                 self.b, self.c)
        assert cell.case == _k.CASE_VAC_1
        assert cell.subcase == _k.SUB_12I
        t = 0.7 * self.params.dt
        for x in np.linspace(0.0, 2 * self.dx, 41):
            got = cell.trace(x, t)
            want = sample(sol, (x - self.dx) / t)
            assert got.rho == want.rho and got.m == want.m
        assert self._post_projection_ok(cell)

    def test_case_12ii_decay_profile(self):
        # needs z(u_L) below the floor L_j: strong local b
        b = BoundFunction.piecewise_constant([-0.05, 0.15], [0.4])
        params = SchemeParameters.create(dx=self.dx, M=2.0, b=b, T=0.0,
                                         c=self.c)
        j = 1
        Lj = -params.M * math.exp(-float(b.B((j + 1) * self.dx)))
        lower_c = -params.M * math.exp(-float(b.B(j * self.dx)))
        z_L = 0.5 * (lower_c + Lj)     # in (lower(x_c), L_j)
        assert z_L < Lj
        rho_L = 0.3
        w_L = z_L + 2 * _k.kfun(rho_L, 0.2)
        ul = from_invariants(InvariantPair(z_L, w_L), self.c)
        zm = w_L - 2 * _k.kfun(0.2, 0.2)
        vm = 0.5 * (zm + w_L)
        vR = vm + _k.hjump_k(0.08, 0.2, 1.4)
        ur = GasState.from_primitive(0.08, vR)
        cell = build_cell_vacuum(ul, ur, j, 0, params, self.geom, b, self.c)
        assert cell.case == _k.CASE_VAC_1
        assert cell.subcase == _k.SUB_12II
        assert cell.pieces[0].kind_name == "profile"
        # both invariants decay: sz = sw = -1
        assert cell.pieces[0].params[3] == -1.0
        assert cell.pieces[0].params[4] == -1.0
        # root solve: at x4 the profile z equals L_j
        need = math.log(z_L / Lj)
        x4 = brentq(lambda x: float(b.B(x)) - float(b.B(j * self.dx)) - need,
                    j * self.dx, (j + 1) * self.dx, xtol=1e-14)
        fac = math.exp(-(float(b.B(x4)) - float(b.B(j * self.dx))))
        assert z_L * fac == pytest.approx(Lj, abs=1e-10)
        assert self._post_projection_ok(cell)

    def test_case2_reflection(self):
        # mirror of case 1: 1-shock + 2-rarefaction near vacuum
        ul = GasState.from_primitive(0.3, 0.2)
        wL = to_invariants(ul, self.c).w
        zm = wL - 2 * _k.kfun(0.25, 0.2)
        vm = 0.5 * (zm + wL)
        vR = vm + _k.hjump_k(0.08, 0.25, 1.4)
        ur = GasState.from_primitive(0.08, vR)
        cell = build_cell_vacuum(GasState(ur.rho, -ur.m),
                                 GasState(ul.rho, -ul.m), 1, 0, self.params,
                                 self.geom, self.b, self.c)
        assert cell.case == _k.CASE_VAC_2
        assert self._post_projection_ok(cell)

    def test_vacuum_side(self):
        cell = build_cell(GasState(0.0, 0.0), GasState.from_primitive(0.4, 0.0),
                          1, 0, self.params, self.geom, self.b, self.c)
        assert cell.case == _k.CASE_VAC_3
        t = 0.6 * self.params.dt
        sol = solve_riemann(GasState(0.0, 0.0),
                            GasState.from_primitive(0.4, 0.0), self.c)
        got = cell.trace(0.0, t)
        want = sample(sol, (0.0 - self.dx) / t)
        assert got.rho == want.rho

    def test_away_middle_rejected(self):
        ul = GasState.from_primitive(1.2, 0.0)
        ur = GasState.from_primitive(1.2, 0.0)
        with pytest.raises(ValueError):
            build_cell_vacuum(ul, ur, 1, 0, self.params, self.geom, self.b,
                              self.c)


class TestAdvance:
    def test_vacuum_everywhere(self):
        geom, b, params = straight_setup()
        u0 = TableData([-1, 1], [0, 0], [0, 0])
        st, mesh = initialize(u0, params, geom, b, C14)
        new, rec = advance(st, params, geom, b, C14, mesh)
        assert np.all(new.rho == 0.0) and np.all(new.m == 0.0)

    def test_constant_state_preserved_exactly(self):
        geom, b, params = straight_setup()
        u0 = RiemannStepData(1.0, 0.0, 1.0, 0.0)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        new, rec = advance(st, params, geom, b, C14, mesh)
        assert np.all(new.rho == 1.0)
        assert np.all(new.m == 0.0)
        assert rec.clamp_count == 0 and rec.vacuum_count == 0

    def test_riemann_step_matches_sampled_quadrature(self):
        # single Riemann datum in a straight duct, step on a cell edge of
        # the initial lattice: step-1 nodes equal the quadrature of the
        # exact solution up to the fan error O(dx^alpha)
        geom, b, params = straight_setup(dx=0.02)
        x0 = params.dx        # odd multiple of dx: edge of every J_0 cell
        ul = GasState.from_primitive(1.0, 0.0)
        ur = GasState.from_primitive(0.6, 0.0)
        u0 = RiemannStepData(1.0, 0.0, 0.6, 0.0, x0=x0)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        assert np.all(np.isin(st.rho, (1.0, 0.6)))   # no smearing at n=0
        new, rec = advance(st, params, geom, b, C14, mesh)
        sol = solve_riemann(ul, ur, C14)
        dt = params.dt
        h = params.dx ** params.alpha
        for i, j in enumerate(new.js):
            if abs(j) > 10:
                continue
            xc = j * params.dx
            want = quad(lambda x: sample(sol, (x - x0) / dt).rho,
                        xc - params.dx, xc + params.dx,
                        points=[x0], limit=200)[0] / (2 * params.dx)
            assert new.rho[i] == pytest.approx(want, abs=0.7 * h + 1e-9)

    def test_deterministic(self):
        c, geom, b, u0, params = nozzle_setup()
        st, mesh = initialize(u0, params, geom, b, c)
        a1, r1 = advance(st, params, geom, b, c, mesh)
        a2, r2 = advance(st, params, geom, b, c, mesh)
        assert np.array_equal(a1.rho, a2.rho)
        assert np.array_equal(a1.m, a2.m)
        assert np.array_equal(r1.spds[:r1.offs[-1]], r2.spds[:r2.offs[-1]])

    def test_mass_conserved_homogeneous(self):
        geom, b, params = straight_setup(dx=0.02, M=7.0)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.3, width=0.25)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        mass = 2 * params.dx * st.rho.sum()
        for _ in range(10):
            new, rec = advance(st, params, geom, b, C14, mesh)
            assert rec.clamp_count == 0 and rec.vacuum_count == 0
            growth = new.rho.size - st.rho.size
            new_mass = 2 * params.dx * new.rho.sum()
            # window growth adds frozen ambient (rho = 1) nodes
            drift = new_mass - mass - growth * 2 * params.dx * 1.0
            assert abs(drift) < 1e-12 * mass
            st, mass = new, new_mass

    def test_envelope_enforced_every_step(self):
        c, geom, b, u0, params = nozzle_setup()
        st, mesh = initialize(u0, params, geom, b, c)
        for _ in range(8):
            st, rec = advance(st, params, geom, b, c, mesh)
            for i, j in enumerate(st.js):
                if st.rho[i] == 0.0:
                    continue
                lo, up = envelope(params.M, b, j * params.dx)
                assert st.z[i] >= float(lo) - 1e-12
                assert st.w[i] <= float(up) + 1e-12

    def test_smooth_piece_residual_order(self):
        # on smooth pieces u_t + f(u)_x - g = O(dx), stable across
        # resolutions
        results = {}
        for dx in (0.02, 0.01):
            c, geom, b, u0, params = nozzle_setup(dx=dx)
            st, mesh = initialize(u0, params, geom, b, c)
            st, rec = advance(st, params, geom, b, c, mesh)
            cells = rec.cell_solutions()
            worst = 0.0
            for cell in cells:
                if abs(cell.j * dx) > 0.5 or len(cell.pieces) < 2:
                    continue
                tau = 0.5 * params.dt
                x = cell.xc + 0.05 * dx   # interior of some piece
                hx = 1e-7
                ht = 1e-7
                u0s = cell.trace(x, tau)
                if u0s.rho < 0.2:
                    continue
                up = cell.trace(x + hx, tau)
                um = cell.trace(x - hx, tau)
                utp = cell.trace(x, tau + ht)
                utm = cell.trace(x, tau - ht)
                # skip if the probe straddles a front
                if abs(up.rho - um.rho) > 0.01 or abs(utp.rho - utm.rho) > 0.01:
                    continue
                du_dt = np.array([(utp.rho - utm.rho), (utp.m - utm.m)]) / (2 * ht)
                fp = np.array(_k.flux_k(up.rho, up.m, c.gamma))
                fm = np.array(_k.flux_k(um.rho, um.m, c.gamma))
                df_dx = (fp - fm) / (2 * hx)
                ax = float(geom.a(x))
                g_val = np.array([ax * u0s.m, ax * u0s.m ** 2 / u0s.rho])
                res = np.max(np.abs(du_dt + df_dx - g_val))
                worst = max(worst, res)
            results[dx] = worst
        # O(dx): the ratio between resolutions stays bounded
        assert results[0.02] < 1.0
        assert results[0.01] < 1.5 * results[0.02] + 1e-9


class TestRun:
    def test_t_zero_returns_initial(self):
        geom, b, params = straight_setup(T=0.0)
        u0 = RiemannStepData(1.0, 0.0, 1.0, 0.0)
        st, mesh = run(u0, params, geom, b, C14, cutoff=False)
        assert st.n == 0

    def test_t_below_dt_one_step(self):
        geom, b, _ = straight_setup()
        bz = BoundFunction.zero(domain=(-2, 2))
        params = SchemeParameters.create(dx=0.05, M=6.0, b=bz, T=1e-5, c=C14)
        assert params.n_steps == 1
        u0 = RiemannStepData(1.0, 0.0, 1.0, 0.0)
        st, mesh = run(u0, params, geom, bz, C14, cutoff=False)
        assert st.n == 1

    def test_smoke_run_with_observer(self):
        calls = []

        class Obs:
            def on_step(self, prev, new, record):
                calls.append(new.n)

        c, geom, b, u0, params = nozzle_setup(dx=0.05)
        params2 = SchemeParameters.create(dx=0.05, M=params.M, b=b,
                                          T=10 * params.dt, c=c)
        run(u0, params2, geom, b, c, observers=(Obs(),))
        assert calls == list(range(1, 11))
