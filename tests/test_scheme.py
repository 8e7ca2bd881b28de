import importlib.util
import math
import os
import types

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
from nozzleflow.nozzle import (BoundFunction, NozzleGeometry, PiecewisePoly,
                               admissibility_constants, envelope,
                               get_bundle, steady_profile)
from nozzleflow.scheme import (ALPHA, BETA, SchemeParameters, _build_cells,
                               gather_neighbors)

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

    def test_exponents_meet_the_papers_conditions(self):
        # the paper's conditions on (alpha, beta, delta), at every gamma in
        # (1, 5/3], both ends included
        a, be = ALPHA, BETA
        assert 0.5 < a < 1.0 and 0.0 < be < a
        assert 0.5 + be / 2.0 < a < 1.0 - 2.0 * be
        b = BoundFunction.zero()
        for g in (1.0 + 1e-15, *np.linspace(1.0, 5.0 / 3.0, 101)[1:]):
            c = GasConstants.for_gamma(g)
            p = SchemeParameters.create(dx=0.02, M=3.0, b=b, T=1.0, c=c)
            assert (p.alpha, p.beta) == (a, be)
            assert be < 2.0 / (g + 5.0)
            assert (9.0 - 3.0 * g) * be / 2.0 < a
            assert 1.0 < p.delta < 1.0 / (2.0 * c.theta)

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
        pcs = _traces._Pieces(jcells, np.ones(C, dtype=np.int64),
                              np.full(C, _k.K_CONST), pars, np.zeros(C),
                              params.dx, get_bundle(geom, b).tables,
                              C14.theta)
        e_r, e_m = _traces.cell_averages(pcs, params, C14)
        rho, m, _z, _w, _lo, _up, stats = _traces.average_project(
            jcells, pcs, params, C14)
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
            rl, ml = _k.eval_piece(_k.K_PROFILE, prof.piece_params(),
                                   s * params.dt / 2, params.dt / 2,
                                   bundle.geo, 0.2)
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
        rl, ml = _k.eval_piece(_k.K_PROFILE, prof.piece_params(),
                               xf, params.dt / 2, bundle.geo, 0.2)
        f1l, f2l = _k.flux_k(rl, ml, 1.4)
        f1r, f2r = _k.flux_k(u.rho, u.m, 1.4)
        res = max(abs(f1r - f1l - sigma * (u.rho - rl)),
                  abs(f2r - f2l - sigma * (u.m - ml)))
        assert res < 1e-10


class TestHugoniotDensity:
    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
    def test_recovers_density_on_both_sides(self, gamma):
        # z_t >= z_l puts the root at or below rho_l, z_t < z_l above it
        theta = (gamma - 1.0) / 2.0
        rho_l, v_l = 0.7, 0.3
        for rho_t in (1e-3, 0.2, 0.69, 0.71, 1.5, 40.0):
            z_t = (v_l - _k.hjump_k(rho_t, rho_l, gamma)
                   - _k.kfun(rho_t, theta))
            rho, st = _k.hugoniot_z_k(rho_l, v_l, z_t, gamma, theta, -1.0)
            assert st == _k.OK
            assert rho == pytest.approx(rho_t, rel=1e-12, abs=0.0)

    def test_vacuum_left_state_refused(self):
        assert (_k.hugoniot_z_k(0.0, 0.0, -1.0, 1.4, 0.2, -1.0)
                == (0.0, _k.ERR_HUGONIOT))


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

    @pytest.mark.parametrize("dx", [0.007, 0.023])
    def test_threshold_is_the_dispatch_threshold(self, dx):
        # the guard compares rho_M with the step's dx^beta (pow_g), which
        # differs from dx ** beta in the last bit at these dx
        b = BoundFunction.auto_for(self.geom,
                                   admissibility_constants(self.c), dx=dx)
        params = SchemeParameters.create(dx=dx, M=6.0, b=b, T=0.0, c=self.c)
        thr = _k.pow_g(dx, params.beta)
        assert thr != dx ** params.beta
        for rho in (thr, dx ** params.beta):
            u = GasState.from_primitive(rho, 0.0)
            cell = build_cell(u, u, 1, 0, params, self.geom, b, self.c)
            near_vacuum = cell.case >= _k.CASE_VAC_1
            assert near_vacuum == (rho <= thr)
            if near_vacuum:
                got = build_cell_vacuum(u, u, 1, 0, params, self.geom, b,
                                        self.c)
                assert got.case == cell.case
            else:
                with pytest.raises(ValueError):
                    build_cell_vacuum(u, u, 1, 0, params, self.geom, b,
                                      self.c)


def _neighbor_pairs(rng, count):
    """(lrho, lm, rrho, rm) of generated cells in four rotating groups:
    dense pairs (the away-from-vacuum wave patterns, cases 1-4), thin pairs
    and pairs with one vacuum side (near-vacuum cases 11/21/31/41) and
    all-vacuum pairs (case 50)."""
    out = np.zeros((4, count))
    for i in range(count):
        group = i % 4
        if group == 0:
            rl, rr = rng.uniform(0.9, 2.5, 2)
            vl, vr = rng.uniform(-1.5, 1.5, 2)
        elif group == 1:
            rl, rr = rng.uniform(0.0, 0.9, 2)
            vl, vr = rng.uniform(-2.0, 2.0, 2)
        elif group == 2:
            rl, rr = rng.uniform(0.0, 2.0), 0.0
            vl, vr = rng.uniform(-2.0, 2.0), 0.0
            if rng.uniform() < 0.5:
                rl, rr, vl, vr = rr, rl, vr, vl
        else:
            continue
        out[:, i] = rl, rl * vl, rr, rr * vr
    return tuple(out)


class TestPassBCapacity:
    """Pass B packs the cells' pieces back to back: cell i's pieces fill
    exactly the slots from offs[i] to offs[i + 1], with no padding."""

    @pytest.mark.parametrize("family", ["bump", "laval"])
    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0])
    def test_pieces_fit_reserved_slots(self, family, gamma):
        c = GasConstants.for_gamma(gamma)
        dx = 0.025
        geom = getattr(NozzleGeometry, family)(0.1, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(c), dx=dx)
        rng = np.random.default_rng([round(100 * gamma), len(family)])
        # 400 generated pairs, back to back in one row of node states: 799
        # cells at 40 positions across the nozzle, the generated pairs
        # and the pairs across them
        lrho, lm, rrho, rm = _neighbor_pairs(rng, 400)
        row = (np.stack([lrho, rrho], axis=1).ravel(),
               np.stack([lm, rm], axis=1).ravel())
        jcells = (2 * (np.arange(799) % 40) - 39).astype(np.int64)
        # the smallest envelope constant holding every node state
        M = 0.0
        for off, sl in ((-1, slice(None, -1)), (1, slice(1, None))):
            z, w = _traces.invariants(row[0][sl], row[1][sl], c.theta)
            B = b.B((jcells + off) * dx)
            M = max(M, np.max(-z * np.exp(B)), np.max(w * np.exp(-B)))
        params = SchemeParameters.create(dx=dx, M=1.01 * M, b=b, T=0.0, c=c)
        pieces, _fflag, ccase, _csub = _build_cells(jcells, row, 0, params,
                                                    get_bundle(geom, b), c)
        assert {1, 2, 3, 4, 11, 21, 31, 41, 50} <= set(ccase.tolist())
        total = pieces.ncount.sum()
        assert len(pieces.kinds) == len(pieces.q) == len(pieces.spds) == total
        assert [sl.stop - sl.start for sl in pieces.cell_slices()] == \
            pieces.ncount.tolist()


class TestPassBPowers:
    def test_one_pow_per_dx_power(self, monkeypatch):
        # pass B takes dx^beta and dx^alpha once and hands them to every
        # construction, the near-vacuum ones included
        dx = 0.025
        geom = NozzleGeometry.bump(0.1, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(C14), dx=dx)
        lrho, lm, rrho, rm = _neighbor_pairs(np.random.default_rng(5), 200)
        row = (np.stack([lrho, rrho], axis=1).ravel(),
               np.stack([lm, rm], axis=1).ravel())
        jcells = (2 * (np.arange(399) % 40) - 39).astype(np.int64)
        params = SchemeParameters.create(dx=dx, M=50.0, b=b, T=0.0, c=C14)
        calls = []
        pow_g = _k.pow_g

        def counted(x, e):
            if x == dx:
                calls.append(e)
            return pow_g(x, e)

        monkeypatch.setattr(_k, "pow_g", counted)
        ccase = _build_cells(jcells, row, 0, params, get_bundle(geom, b),
                             C14)[2]
        assert {11, 21, 31} <= set(ccase.tolist())
        assert calls == [params.beta, params.alpha]


class TestNodeRow:
    def test_gather_refuses_other_windows(self):
        # the row is the state's nodes with the ambient states at both
        # ends, so the cells must be the next step's window
        c, geom, b, u0, params = nozzle_setup()
        state, mesh = initialize(u0, params, geom, b, c)
        jcells = np.append(state.js - 1, state.js[-1] + 1)
        rho, m = gather_neighbors(state, jcells, mesh)
        assert rho.size == m.size == jcells.size + 1
        for bad in (jcells + 2, jcells - 2, jcells[:-1], jcells[1:],
                    np.append(jcells, jcells[-1] + 2)):
            with pytest.raises(ValueError):
                gather_neighbors(state, bad, mesh)


class TestNodeSoundSpeeds:
    def test_pass_a_takes_rho_theta_once_per_node(self, monkeypatch):
        # a row of generated node states of every kind: pass A takes each
        # node's rho^theta once, and no kfun or sound_k call reads a node
        theta = C14.theta
        lrho, lm, rrho, rm = _neighbor_pairs(np.random.default_rng(23), 200)
        rho = np.stack([lrho, rrho], axis=1).ravel().tolist()
        m = np.stack([lm, rm], axis=1).ravel().tolist()
        nodes = set(rho)
        taken, again = [], []
        pow_g = _k.pow_g

        def counted_pow(x, e):
            if e == theta and x in nodes:
                taken.append(x)
            return pow_g(x, e)

        def no_node(f):
            def wrapper(r, th):
                if r in nodes:
                    again.append((f.__name__, r))
                return f(r, th)
            return wrapper

        monkeypatch.setattr(_k, "pow_g", counted_pow)
        monkeypatch.setattr(_k, "kfun", no_node(_k.kfun))
        monkeypatch.setattr(_k, "sound_k", no_node(_k.sound_k))
        rsols = []
        _k.build_step_pass_a(list(range(len(rho) - 1)), rho, m,
                             straight_setup()[2].par_array(C14), rsols)
        assert len(rsols) == len(rho) - 1
        assert sorted(taken) == sorted(rho)
        assert again == []

    def test_packed_invariants_and_middle_sound_speed(self):
        # the solution carries the nodes' invariants as invariants_k gives
        # them and rho_M^theta, bit for bit
        lrho, lm, rrho, rm = _neighbor_pairs(np.random.default_rng(29), 400)
        for g in (1.2, 1.4, 5.0 / 3.0):
            th = 0.5 * (g - 1.0)
            for args in zip(lrho, lm, rrho, rm):
                rsol = _k.riemann_solve_k(*args, g, th)
                want = (_k.invariants_k(args[0], args[1], th)
                        + _k.invariants_k(args[2], args[3], th)
                        + (_k.sound_k(rsol[4], th),))
                assert _bits(*rsol[12:]) == _bits(*want)


class TestOneRiemannSolvePerCell:
    def test_near_vacuum_cells_reuse_the_pass_a_solution(self, monkeypatch):
        # compact-support data in a bump nozzle (vacuum around the support):
        # the first step has near-vacuum cells of Cases 1, 2 and 3, and
        # every cell, near vacuum or not, is built from pass A's one solve
        xs = np.linspace(-1.2, 1.2, 241)
        phi = np.clip(1.0 - xs ** 2, 0.0, None) ** 2
        rho = 0.95 * phi
        c, geom, b, u0, params = nozzle_setup(
            dx=0.0125, eps=0.11, data=TableData(xs, rho, 0.1 * rho * phi))
        state, mesh = initialize(u0, params, geom, b, c)
        calls = [0]
        solve = _k.riemann_solve_k

        def counted(*args):
            calls[0] += 1
            return solve(*args)

        monkeypatch.setattr(_k, "riemann_solve_k", counted)
        _new, rec = advance(state, params, geom, b, c, mesh)
        assert {_k.CASE_VAC_1, _k.CASE_VAC_2, _k.CASE_VAC_3} <= set(
            rec.ccase.tolist())
        assert calls[0] == rec.jcells.size


class TestReflectedPieces:
    def test_involution_swapping_rarefaction_families(self):
        pieces = {_k.K_CONST: (0.7, -0.2, 0.0, 0.0, 0.0, 0.0),
                  _k.K_PROFILE: (0.3, -1.2, 2.5, -1.0, 1.0, 1.0),
                  _k.K_RAREF1: (0.1, 2.0, 0.0, 0.0, 0.0, 0.0),
                  _k.K_RAREF2: (-0.4, -3.0, 0.0, 0.0, 0.0, 0.0)}
        swapped = {_k.K_CONST: _k.K_CONST, _k.K_PROFILE: _k.K_PROFILE,
                   _k.K_RAREF1: _k.K_RAREF2, _k.K_RAREF2: _k.K_RAREF1}
        for kind, q in pieces.items():
            rkind, rq = _k._reflected(kind, q)
            assert rkind == swapped[kind] and rq != q
            assert _k._reflected(rkind, rq) == (kind, q)


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
        assert np.array_equal(r1.pieces.spds, r2.pieces.spds)

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


# ---------------------------------------------------------------------------
# the time-corrected profile evaluation and the gap fill
# ---------------------------------------------------------------------------

SHAPES = ((-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0))


def _profile_reference(q, dB, ax, bx, tau, theta):
    """A profile piece's value from the definition: the steady invariants
    z, w, then the linear-in-time correction with v = (z + w)/2 and
    c = rho^theta = theta (w - z)/2 wherever c >= RHO_FLOOR^theta, then the
    state, vacuum for w < z."""
    z = q[1] * math.exp(q[3] * dB)
    w = q[2] * math.exp(q[4] * dB)
    v = (w + z) / 2.0
    c = theta * (w - z) / 2.0
    if q[5] != 0.0 and tau > 0.0 and c >= _k.pow_g(_k.RHO_FLOOR, theta):
        z, w = (z + tau * (-(v - c) * (q[3] * bx * z) - ax * v * c),
                w + tau * (-(v + c) * (q[4] * bx * w) + ax * v * c))
    if w < z:
        return 0.0, 0.0
    return _k.state_k(z, w, theta)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def _generated_profiles(rng, count, theta):
    """count profile pieces (x_d, z_d, w_d, sz, sw, corr) of all three
    shapes, corrected or not; every fifth has c = theta (w - z)/2 at its
    anchor on the double next to RHO_FLOOR^theta, alternately below it and
    at or above it."""
    floor = _k.sound_floor(theta)
    out = []
    for i in range(count):
        sz, sw = SHAPES[i % 3]
        v = rng.uniform(-2.0, 2.0)
        c = math.exp(rng.uniform(math.log(1e-4), math.log(3.0)))
        z, w = v - c / theta, v + c / theta
        if i % 5 == 4:
            z = v - floor / theta
            w = z + 2.0 * floor / theta
            above = i % 10 == 4
            while (theta * (w - z) / 2.0 >= floor) != above:
                w = math.nextafter(w, math.inf if above else -math.inf)
        out.append((rng.uniform(-0.9, 0.9), z, w, sz, sw,
                    float(rng.uniform() < 0.8)))
    return out


class TestProfileEvaluation:
    """The profile value, its time correction in closed form from the
    invariants, and the inversion of that correction at a fan front."""

    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0])
    def test_profile_at_matches_reference(self, gamma):
        theta = 0.5 * (gamma - 1.0)
        floor = _k.sound_floor(theta)
        assert floor == _k.pow_g(_k.RHO_FLOOR, theta)
        rng = np.random.default_rng([7, round(100 * gamma)])
        near = {False: 0, True: 0}
        for q in _generated_profiles(rng, 3000, theta):
            dB = 0.0 if rng.uniform() < 0.3 else rng.uniform(-0.4, 0.4)
            ax, bx = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0)
            tau = 0.0 if rng.uniform() < 0.1 else rng.uniform(0.0, 0.05)
            got = _k.profile_at(q[1], q[2], q[3], q[4], q[5], dB, ax, bx,
                                tau, theta, floor)
            assert _bits(*got) == _bits(*_profile_reference(
                q, dB, ax, bx, tau, theta))
            c = theta * (q[2] - q[1]) / 2.0
            if dB == 0.0 and abs(c / floor - 1.0) < 1e-9:
                near[c >= floor] += 1
        # anchors on both sides of the correction's guard
        assert near[False] > 5 and near[True] > 5

    def test_clamped_pair(self):
        theta = C14.theta
        floor = _k.sound_floor(theta)
        # a correction driving w below z is vacuum
        got = _k.profile_at(4.9, 5.1, -1.0, 1.0, 1.0, 0.0, 0.0, 40.0, 0.5,
                            theta, floor)
        assert got == (0.0, 0.0)
        assert _profile_reference((0.0, 4.9, 5.1, -1.0, 1.0, 1.0), 0.0, 0.0,
                                  40.0, 0.5, theta) == got

    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0])
    def test_whole_array_pieces_match(self, gamma):
        # _traces.pieces_at against profile_at, on the same generated
        # pieces at their anchors and around them in a Laval nozzle
        c = GasConstants.for_gamma(gamma)
        geom = NozzleGeometry.laval(0.1, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(c), dx=0.025)
        bundle = get_bundle(geom, b)
        rng = np.random.default_rng([8, round(100 * gamma)])
        q = np.array(_generated_profiles(rng, 2000, c.theta))
        x = np.where(rng.uniform(size=q.shape[0]) < 0.3, q[:, 0],
                     q[:, 0] + rng.uniform(-0.1, 0.1, q.shape[0]))
        kinds = np.full(q.shape[0], _k.K_PROFILE)
        floor = _k.sound_floor(c.theta)
        for tau in (0.0, 0.004, 0.01):
            rho, m = _traces.pieces_at(kinds, q, x, tau, bundle.tables,
                                       c.theta)
            for i, qi in enumerate(q.tolist()):
                Bx, ax, bx = _k.geo_at(bundle.geo, x[i])
                r0, m0 = _k.profile_at(
                    qi[1], qi[2], qi[3], qi[4], qi[5],
                    Bx - _k.geo_B(bundle.geo, qi[0]), ax, bx, tau, c.theta,
                    floor)
                assert _bits(rho[i], m[i]) == _bits(r0, m0)

    @pytest.mark.parametrize("family", ["bump", "laval"])
    def test_inversion_round_trips(self, family):
        c = C14
        dx = 0.025
        geom = getattr(NozzleGeometry, family)(0.1, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(c), dx=dx)
        geo = get_bundle(geom, b).geo
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            x_a = rng.uniform(-0.9, 0.9)
            rho, v = rng.uniform(0.05, 2.5), rng.uniform(-1.5, 1.5)
            z_r, w_r = _k.invariants_k(rho, rho * v, c.theta)
            tau = rng.uniform(0.001, 0.01)
            zd, wd = _k.invert_correction_k(x_a, z_r, w_r, tau, geo, c.theta)
            r1, m1 = _k.eval_piece(_k.K_PROFILE,
                                   (x_a, zd, wd, -1.0, 1.0, 1.0), x_a, tau,
                                   geo, c.theta)
            z1, w1 = _k.invariants_k(r1, m1, c.theta)
            err = (abs(z1 - z_r) + abs(w1 - w_r)) / (1.0 + abs(z_r)
                                                    + abs(w_r))
            worst = max(worst, err)
        assert worst <= 1e-15


def _old_profile_at(q, Bd, g, tau, theta):
    """The old call form profile_at(q, Bd, g, tau, theta), on the new
    evaluation."""
    return _k.profile_at(q[1], q[2], q[3], q[4], q[5], g[0] - Bd, g[1], g[2],
                         tau, theta, _k.sound_floor(theta))


def _gap_fill_lists(lq, rq, xc, dt, geo, gamma, theta, sa0, sb0, zm0, wm0,
                    fscale):
    """The gap fill as it was written with the helpers _gap_outer and
    _gap_residual and the per-call lists X, Xt, mq, O, Ot, F, Fp and Ft,
    on the new profile evaluation: gap_fill_k must equal it bit for bit."""

    def gap_outer(O, ga, gb, lq, lBd, rq, rBd, tau, theta):
        O[0], O[1] = _old_profile_at(lq, lBd, ga, tau, theta)
        O[2], O[3] = _old_profile_at(rq, rBd, gb, tau, theta)

    def gap_residual(F, X, O, ga, gb, mq, mBd, tau, gamma, theta):
        mq[1] = X[2]
        mq[2] = X[3]
        rra, mra = _old_profile_at(mq, mBd, ga, tau, theta)
        F[0], F[1] = _k._rh_residual(X[0], O[0], O[1], rra, mra, gamma)
        rlb, mlb = _old_profile_at(mq, mBd, gb, tau, theta)
        F[2], F[3] = _k._rh_residual(X[1], rlb, mlb, O[2], O[3], gamma)

    geo_at = _k.geo_at
    tau = 0.5 * dt
    X = [sa0, sb0, zm0, wm0]
    Xt = [0.0] * 4
    mq = [xc, 0.0, 0.0, -1.0, 1.0, 1.0]
    lBd = _k.geo_B(geo, lq[0])
    rBd = _k.geo_B(geo, rq[0])
    mBd = _k.geo_B(geo, xc)
    O, Ot, F, Fp, Ft = ([0.0] * 4 for _ in range(5))
    J = [0.0] * 16
    atol = 1e-12 * fscale
    ga = geo_at(geo, xc + X[0] * tau)
    gb = geo_at(geo, xc + X[1] * tau)
    gap_outer(O, ga, gb, lq, lBd, rq, rBd, tau, theta)
    gap_residual(F, X, O, ga, gb, mq, mBd, tau, gamma, theta)
    fn = max(max(abs(F[0]), abs(F[1])), max(abs(F[2]), abs(F[3])))
    if fn <= 1e-13 * fscale:
        return X[0], X[1], X[2], X[3], _k.OK
    for it in range(80):
        if fn <= atol:
            return X[0], X[1], X[2], X[3], _k.OK
        h = 1e-7 * (1.0 + abs(X[0]))
        s = X[0] + h
        g = geo_at(geo, xc + s * tau)
        rl, ml = _old_profile_at(lq, lBd, g, tau, theta)
        mq[1] = X[2]
        mq[2] = X[3]
        rr, mr = _old_profile_at(mq, mBd, g, tau, theta)
        f0, f1 = _k._rh_residual(s, rl, ml, rr, mr, gamma)
        J[0] = (f0 - F[0]) / h
        J[4] = (f1 - F[1]) / h
        J[8] = 0.0
        J[12] = 0.0
        h = 1e-7 * (1.0 + abs(X[1]))
        s = X[1] + h
        g = geo_at(geo, xc + s * tau)
        rl, ml = _old_profile_at(mq, mBd, g, tau, theta)
        rr, mr = _old_profile_at(rq, rBd, g, tau, theta)
        f2, f3 = _k._rh_residual(s, rl, ml, rr, mr, gamma)
        J[1] = 0.0
        J[5] = 0.0
        J[9] = (f2 - F[2]) / h
        J[13] = (f3 - F[3]) / h
        for cdx in range(2, 4):
            h = 1e-7 * (1.0 + abs(X[cdx]))
            Xs = X[cdx]
            X[cdx] = Xs + h
            gap_residual(Fp, X, O, ga, gb, mq, mBd, tau, gamma, theta)
            X[cdx] = Xs
            for r in range(4):
                J[4 * r + cdx] = (Fp[r] - F[r]) / h
        rhs = [-F[r] for r in range(4)]
        dX, ok = _k._solve4(J, rhs)
        if not ok:
            for r in range(4):
                J[5 * r] += 1e-9 * (1.0 + abs(J[5 * r]))
            dX, ok = _k._solve4(J, rhs)
            if not ok:
                return X[0], X[1], X[2], X[3], _k.ERR_GAP_CONV
        lam = 1.0
        improved = False
        for _ in range(40):
            for r in range(4):
                Xt[r] = X[r] + lam * dX[r]
            gat = geo_at(geo, xc + Xt[0] * tau)
            gbt = geo_at(geo, xc + Xt[1] * tau)
            gap_outer(Ot, gat, gbt, lq, lBd, rq, rBd, tau, theta)
            gap_residual(Ft, Xt, Ot, gat, gbt, mq, mBd, tau, gamma, theta)
            fnew = max(max(abs(Ft[0]), abs(Ft[1])),
                       max(abs(Ft[2]), abs(Ft[3])))
            if fnew < fn * (1.0 - 1e-4 * lam) or fnew <= atol:
                X[:], F[:], O[:] = Xt, Ft, Ot
                ga = gat
                gb = gbt
                fn = fnew
                improved = True
                break
            lam *= 0.5
        if not improved:
            return X[0], X[1], X[2], X[3], _k.ERR_GAP_CONV
    if fn <= atol:
        return X[0], X[1], X[2], X[3], _k.OK
    return X[0], X[1], X[2], X[3], _k.ERR_GAP_CONV


def _captured_gap_fills(monkeypatch, family, gamma, seed):
    """The arguments of every gap fill pass B makes on 400 generated
    neighbour pairs (799 cells) in a bump or Laval nozzle, or in a constant
    duct, where every cell is built with the straight view."""
    c = GasConstants.for_gamma(gamma)
    dx = 0.025
    if family == "constant":
        geom = NozzleGeometry.constant(X=1.0)
        b = BoundFunction.zero(domain=(-2.0, 2.0))
    else:
        geom = getattr(NozzleGeometry, family)(0.1, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(c), dx=dx)
    lrho, lm, rrho, rm = _neighbor_pairs(np.random.default_rng(seed), 400)
    row = (np.stack([lrho, rrho], axis=1).ravel(),
           np.stack([lm, rm], axis=1).ravel())
    jcells = (2 * (np.arange(799) % 40) - 39).astype(np.int64)
    params = SchemeParameters.create(dx=dx, M=40.0, b=b, T=0.0, c=c)
    calls = []
    fill = _k.gap_fill_k

    def captured(*args):
        calls.append(args)
        return fill(*args)

    with monkeypatch.context() as mp:
        mp.setattr(_k, "gap_fill_k", captured)
        _build_cells(jcells, row, 0, params, get_bundle(geom, b), c)
    return calls


class TestGapFillInPlace:
    def test_equals_the_list_based_loop(self, monkeypatch):
        calls = []
        for family in ("bump", "laval"):
            for gamma in (1.2, 1.4, 5.0 / 3.0):
                calls += _captured_gap_fills(monkeypatch, family, gamma,
                                             [round(100 * gamma), 3])
        assert len(calls) >= 500
        statuses = set()
        for args in calls:
            got = _k.gap_fill_k(*args)
            assert _bits(*got) == _bits(*_gap_fill_lists(*args))
            statuses.add(got[4])
        assert _k.OK in statuses

    def test_straight_view_equals_the_list_based_loop(self, monkeypatch):
        # in a constant duct every gap fill runs under the straight view,
        # which reuses its traces across the Newton iteration
        calls = []
        for gamma in (1.2, 1.4, 5.0 / 3.0):
            calls += _captured_gap_fills(monkeypatch, "constant", gamma,
                                         [round(100 * gamma), 17])
        assert len(calls) >= 500
        assert all(args[4] is None for args in calls)
        iterated = 0
        for args in calls:
            got = _k.gap_fill_k(*args)
            assert _bits(*got) == _bits(*_gap_fill_lists(*args))
            iterated += got[:4] != args[7:11]
        assert iterated >= 100

    @staticmethod
    def _profile_evaluations(monkeypatch, args):
        evals = [0]
        profile = _k.profile_at

        def counted(*a):
            evals[0] += 1
            return profile(*a)

        with monkeypatch.context() as mp:
            mp.setattr(_k, "profile_at", counted)
            got = _k.gap_fill_k(*args)
        return got, evals[0]

    def test_first_guess_takes_three_profile_evaluations(self, monkeypatch):
        # two colliding streams in a straight duct: the exact Riemann
        # solution is the gap fill's first guess, and its root.  The
        # straight view evaluates the two outer traces and the middle
        # profile, which has one trace at both fronts
        geom, b, params = straight_setup()
        row = (np.array([1.0, 0.8]), np.array([0.9, -0.6]))
        calls = []
        fill = _k.gap_fill_k

        def captured(*args):
            calls.append(args)
            return fill(*args)

        monkeypatch.setattr(_k, "gap_fill_k", captured)
        _build_cells(np.array([1], dtype=np.int64), row, 0, params,
                     get_bundle(geom, b), C14)
        monkeypatch.setattr(_k, "gap_fill_k", fill)
        (args,) = calls
        assert args[4] is None
        (sa, sb, zm, wm, st), evals = self._profile_evaluations(monkeypatch,
                                                                args)
        assert st == _k.OK
        assert (sa, sb, zm, wm) == args[7:11]
        assert evals == 3

    def test_curved_first_guess_takes_four_profile_evaluations(
            self, monkeypatch):
        # a curved bump cell, restarted from its own root: the outer traces
        # and the middle profile at both fronts, nothing more
        c, geom, b, _u0, params = nozzle_setup()
        row = (np.array([1.0, 0.8]), np.array([0.9, -0.6]))
        calls = []
        fill = _k.gap_fill_k

        def captured(*args):
            calls.append(args)
            return fill(*args)

        monkeypatch.setattr(_k, "gap_fill_k", captured)
        _build_cells(np.array([1], dtype=np.int64), row, 0, params,
                     get_bundle(geom, b), c)
        monkeypatch.setattr(_k, "gap_fill_k", fill)
        (args,) = calls
        assert args[4] is not None
        root = _k.gap_fill_k(*args)
        assert root[4] == _k.OK and root[:4] != args[7:11]
        again = args[:7] + root[:4] + args[11:]
        got, evals = self._profile_evaluations(monkeypatch, again)
        assert got == root
        assert evals == 4


def _sliver_setup(x_lo, x_hi, slope=0.4):
    """A duct whose a = slope and b = |slope|/mu (1.01) only on [x_lo, x_hi],
    straight elsewhere: IA is piecewise linear and B its antiderivative."""
    xs = np.array([-2.0, x_lo, x_hi, 2.0])
    c = np.zeros((2, 3))
    c[0, 1] = slope
    c[1, 2] = slope * (x_hi - x_lo)
    ia = PiecewisePoly(c, xs)
    geom = NozzleGeometry(A0=1.0, X=2.0, IA_pp=ia, a_pp=ia.derivative())
    mu = admissibility_constants(C14).mu
    b = BoundFunction.piecewise_constant([x_lo, x_hi],
                                         [1.01 * abs(slope) / mu])
    return geom, b


def _same_outputs():
    """The module tools/same_outputs.py."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "same_outputs.py")
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pass_b_lists(jcells, row, params, c, geo, geor):
    """Everything pass B appends, for the cells centred at jcells."""
    par = params.par_array(c)
    rsols = []
    _k.build_step_pass_a(jcells, *(a.tolist() for a in row), par, rsols)
    out = [[] for _ in range(9)]
    _k.build_step_pass_b(jcells, rsols, out[0], par, geo, geor, *out[1:])
    return out


class TestStraightCells:
    """Away-from-vacuum cells inside a flat run of the duct are built with
    the straight view: no geometry lookups, the same bytes."""

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    def test_geometry_between_samples_is_not_inert(self, rho):
        # a and b are nonzero only on (0.055, 0.07), between the points
        # xc, xc + dx/2 of the cell at j = 1 (xc = 0.05): equal node states
        # there are not a constant solution
        geom, b = _sliver_setup(0.055, 0.07)
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        assert 0.5 < params.dx ** params.beta < 1.0    # 1.0 away, 0.5 near
        u = GasState.from_primitive(rho, 0.3)
        cell = build_cell(u, u, 1, 0, params, geom, b, C14)
        assert cell.case != _k.CASE_VAC_INERT
        if rho == 1.0:
            assert _k.K_PROFILE in cell.kinds.tolist()
        # the same states in the flat run beyond the sliver stay constant
        far = build_cell(u, u, 11, 0, params, geom, b, C14)
        assert far.kinds.tolist() == [_k.K_CONST]
        assert far.case == (3 if rho == 1.0 else _k.CASE_VAC_INERT)

    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0])
    @pytest.mark.parametrize("family", ["bump", "laval", "constant"])
    def test_straight_view_builds_the_same_bytes(self, family, gamma):
        c = GasConstants.for_gamma(gamma)
        dx = 0.025
        if family != "constant":
            geom = (NozzleGeometry.bump(0.1, X=1.0) if family == "bump"
                    else NozzleGeometry.laval(0.1, X=1.0))
            b = BoundFunction.auto_for(geom, admissibility_constants(c),
                                       dx=dx)
        else:
            geom = NozzleGeometry.constant(X=1.0)
            b = BoundFunction.zero(domain=(-2.0, 2.0))
        rng = np.random.default_rng([round(100 * gamma), len(family), 15])
        lrho, lm, rrho, rm = _neighbor_pairs(rng, 400)
        row = (np.stack([lrho, rrho], axis=1).ravel(),
               np.stack([lm, rm], axis=1).ravel())
        # 799 cells at 60 positions j = -59 .. 59: in the bump and the
        # Laval duct those at |j| >= 43 lie in their straight stretches,
        # |x| > 1.0225
        jcells = (2 * (np.arange(799) % 60) - 59).astype(np.int64)
        M = 0.0
        for off, sl in ((-1, slice(None, -1)), (1, slice(1, None))):
            z, w = _traces.invariants(row[0][sl], row[1][sl], c.theta)
            B = b.B((jcells + off) * dx)
            M = max(M, np.max(-z * np.exp(B)), np.max(w * np.exp(-B)))
        params = SchemeParameters.create(dx=dx, M=1.01 * M, b=b, T=0.0, c=c)
        bundle = get_bundle(geom, b)
        tables = bundle.geo[:6] + (([], []),)
        tables_r = bundle.geo_reflected[:6] + (([], []),)
        jl = jcells.tolist()
        got = _pass_b_lists(jl, row, params, c, bundle.geo,
                            bundle.geo_reflected)
        want = _pass_b_lists(jl, row, params, c, tables, tables_r)
        for i in (2, 3):            # pars and spds, bit for bit
            assert _bits(*got[i]) == _bits(*want[i])
            got[i] = want[i] = None
        assert got == want
        ccase = np.array(want[6])
        straight = np.array([_k.in_flat_run(bundle.geo[6], (j - 1) * dx,
                                            (j + 1) * dx) for j in jl])
        assert set(ccase[straight].tolist()) >= {1, 2, 3, 4}
        if family != "constant":
            assert set(ccase[~straight].tolist()) >= {1, 2, 3, 4}
            assert np.array_equal(straight, np.abs(jcells) >= 43)

    def test_gas_in_a_laval_duct_builds_straight_cells(self, tmp_path):
        # the laval-flow config of tools/same_outputs.py: gas everywhere,
        # so every cell is built away from vacuum, and those beyond the
        # duct's ends with the straight view
        from nozzleflow.cli import parse_config
        path = tmp_path / "laval-flow.cfg"
        path.write_text(_same_outputs().LAVAL_FLOW)
        cfg = parse_config(str(path))
        counts = types.SimpleNamespace(straight=0, cells=0)

        def on_step(_prev, _new, rec):
            flats = rec.bundle.geo[6]
            assert rec.ccase.max() <= 4
            counts.cells += rec.jcells.size
            counts.straight += sum(
                _k.in_flat_run(flats, (j - 1) * cfg.params.dx,
                               (j + 1) * cfg.params.dx)
                for j in rec.jcells.tolist())

        run(cfg.initial, cfg.params, cfg.geometry, cfg.bound, cfg.constants,
            observers=[types.SimpleNamespace(on_step=on_step)],
            cutoff=cfg.cutoff)
        assert cfg.bound.label == "auto" and cfg.geometry.label.startswith(
            "laval")
        assert (counts.straight, counts.cells) == (4252, 6120)

    def test_straight_cells_make_no_lookups(self, monkeypatch):
        calls = [0]
        lookup = _k.ppoly_eval

        def counted(*a):
            calls[0] += 1
            return lookup(*a)

        monkeypatch.setattr(_k, "ppoly_eval", counted)
        # a whole step in a straight duct, every cell away from vacuum
        geom, b, params = straight_setup()
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.3, width=0.3,
                              v_inf=0.2)
        state, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        calls[0] = 0
        _new, rec = advance(state, params, geom, b, C14, mesh)
        assert rec.ccase.max() <= 4 and rec.pieces.ncount.max() > 1
        assert calls[0] == 0
        # a cell in the curved middle of a bump still reads the tables
        c, geom, b, u0, params = nozzle_setup()
        row = (np.array([1.0, 0.8]), np.array([0.9, -0.6]))
        got = _build_cells(np.array([1], dtype=np.int64), row, 0, params,
                           get_bundle(geom, b), c)
        assert got[2][0] <= 4
        assert calls[0] > 0

    def test_flat_run_holds_open_intervals(self):
        flats = ([-math.inf, 1.0], [0.0, math.inf])
        inside = [(-5.0, -0.1), (1.5, 9.0), (-1e300, -1e-300)]
        ends = [(-0.5, 0.0), (1.0, 1.5), (-0.5, 0.5), (0.2, 0.8)]
        assert [_k.in_flat_run(flats, *c) for c in inside + ends] == \
            [True] * 3 + [False] * 4
        assert not _k.in_flat_run(([], []), -1.0, 1.0)

    @pytest.mark.parametrize("ax, bx", [(0.0, 0.0), (-0.0, 0.0),
                                        (0.0, -0.0), (0.3, 0.0),
                                        (0.0, 0.3)])
    def test_zero_geometry_skips_match_reference(self, ax, bx):
        # a = b = 0 skips the correction, dB = +-0.0 the exponentials
        theta = C14.theta
        floor = _k.sound_floor(theta)
        rng = np.random.default_rng(17)
        for i, q in enumerate(_generated_profiles(rng, 600, theta)):
            dB = (0.0, -0.0, rng.uniform(-0.4, 0.4))[i % 3]
            tau = (0.0, 0.01)[i % 2]
            got = _k.profile_at(q[1], q[2], q[3], q[4], q[5], dB, ax, bx,
                                tau, theta, floor)
            assert _bits(*got) == _bits(*_profile_reference(
                q, dB, ax, bx, tau, theta))


def _tiled_rows_at(kinds, q, Bd, x, tau, tables, theta, once):
    """The per-node evaluation of the step readers: ``_traces.pieces_at``
    of every piece tiled over every row of the points x, whatever
    ``once`` says."""
    k = x.shape[0]
    rho, m = _traces.pieces_at(np.tile(kinds, k), np.tile(q, (k, 1)),
                               x.ravel(), tau, tables, theta, np.tile(Bd, k))
    return rho.reshape(x.shape), m.reshape(x.shape)


README_BUMP = """
gamma        = 1.4
geometry     = bump
geometry_eps = 0.15
geometry_x   = 1.0
initial      = gaussian-density
rho_inf      = 1.0
rho_amp      = 0.2
width        = 0.3
dx           = 0.02
t_final      = 0.05
"""


def _stepped_records(setup, tmp_path):
    """(record, new state) of every step of a short run: gas everywhere in
    a constant duct or in the sliver duct (a and b nonzero on [0.1, 0.3]
    only, two cell ends of dx = 0.05), or the README's bump example."""
    if setup == "readme-bump":
        from nozzleflow.cli import parse_config
        path = tmp_path / "run.cfg"
        path.write_text(README_BUMP)
        cfg = parse_config(str(path))
        u0, params, geom, b, c = (cfg.initial, cfg.params, cfg.geometry,
                                  cfg.bound, cfg.constants)
        cutoff, steps = cfg.cutoff, cfg.params.n_steps
    else:
        if setup == "straight":
            geom = NozzleGeometry.constant(X=1.0)
            b = BoundFunction.zero(domain=(-2.0, 2.0))
        else:
            geom, b = _sliver_setup(0.1, 0.3)
        c = C14
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.3, width=0.3,
                              v_inf=0.2)
        params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, c),
                                         b=b, T=0.0, c=c)
        cutoff, steps = False, 4
    state, mesh = initialize(u0, params, geom, b, c, cutoff=cutoff)
    out = []
    for _ in range(steps):
        state, rec = advance(state, params, geom, b, c, mesh)
        out.append((rec, state))
    return out


def _aq_integrals_of_every_piece(record):
    """``_traces.cell_aq_integrals`` skipping only the pieces at rest, as it
    was before the pieces of cells in a flat run were skipped too."""
    c, dt = record.constants, record.params.dt
    pcs = record.pieces
    at_rest = (pcs.kinds == _k.K_CONST) & (pcs.q[:, 1] == 0.0)
    out = np.zeros(record.jcells.size)
    for gt in range(3):
        tau = 0.5 * dt + 0.5 * dt * _traces._G3X[gt]
        wt = 0.5 * dt * _traces._G3W[gt]
        sel, rho, m, x, half = pcs.gauss(tau, _traces._G3X, keep=~at_rest)
        ax = _traces.ppoly_values(pcs.tables["a"], x)
        qs = _traces.energy_flux(rho, m, c.gamma)
        acc = np.zeros(sel.size)
        for g in range(3):
            acc = acc + _traces._G3W[g] * ax[g] * qs[g]
        np.add.at(out, pcs.cell[sel], wt * acc * half)
    return out


def _step_readers(rec, record, new, aq_integrals):
    """Every whole-array reader of a step record, on the piece table of
    ``record`` (the record itself or a stand-in) and its tables."""
    dt, c = rec.params.dt, rec.constants
    return [
        *_traces.cell_averages(record.pieces, rec.params, c),
        [_traces.energy_trace(record, tau) for tau in (0.0, 0.5 * dt, dt)],
        [_traces.jump_integral(record, new.z, new.w)],
        aq_integrals(record),
        [_traces.max_rh_residual(record.pieces, rec.fflag, dt, c)],
    ]


class TestStraightPieces:
    """The step readers evaluate each profile of a cell inside a flat run
    at one node and broadcast it, and the a q* integrals skip the pieces of
    those cells: the same bytes as evaluating every piece at every node,
    with a q* integrated over every piece not at rest."""

    @pytest.mark.parametrize("setup", ["straight", "sliver", "readme-bump"])
    def test_readers_match_the_per_node_evaluation(self, setup, tmp_path,
                                                   monkeypatch):
        once = 0
        for rec, new in _stepped_records(setup, tmp_path):
            once += np.count_nonzero(rec.pieces.once)
            got = _step_readers(rec, rec, new, _traces.cell_aq_integrals)
            tables = dict(rec.bundle.tables,
                          flats=(np.array([]), np.array([])))
            pcs = rec.pieces
            pieces = _traces._Pieces(pcs.jcells, pcs.ncount, pcs.kinds,
                                     pcs.q, pcs.spds, rec.params.dx,
                                     tables, rec.constants.theta)
            assert not pieces.straight.any()
            parent = types.SimpleNamespace(
                pieces=pieces, constants=rec.constants, params=rec.params,
                jcells=rec.jcells, bundle=rec.bundle)
            with monkeypatch.context() as mp:
                mp.setattr(_traces, "_rows_at", _tiled_rows_at)
                want = _step_readers(rec, parent, new,
                                     _aq_integrals_of_every_piece)
            assert [_bits(*g) for g in got] == [_bits(*w) for w in want]
        assert once > 0

    def test_cells_touching_a_run_end_are_not_straight(self, tmp_path):
        # the runs end at the cell ends 0.1 and 0.3: the cells [0, 0.1] and
        # [0.3, 0.4], whose outer pieces reach those ends and are anchored
        # there, are not inside a run
        touching = 0
        for rec, _new in _stepped_records("sliver", tmp_path):
            pcs = rec.pieces
            dx = rec.params.dx
            j = rec.jcells[pcs.cell]
            inside = ((j + 1) * dx < 0.075) | ((j - 1) * dx > 0.325)
            assert np.array_equal(pcs.straight, inside)
            assert np.array_equal(pcs.once,
                                  inside & (pcs.kinds == _k.K_PROFILE))
            ends = (pcs.kinds == _k.K_PROFILE) & np.isin(
                pcs.q[:, 0], [2 * dx, 6 * dx])
            touching += np.count_nonzero(ends & np.isin(j, [1, 7]))
            assert 0 < np.count_nonzero(pcs.straight) < pcs.cell.size
        assert touching >= 2


class TestPieceTableOwnsTheCells:
    """A step record's cells are read from its piece table: each entry of
    ``cell_solutions()`` is the cell that ``build_cell`` makes from the
    same two neighbour states, bit for bit, so each cell's pieces start
    where ``pieces.ncount`` puts them."""

    @pytest.mark.parametrize("family", ["bump", "laval"])
    def test_cell_solutions_are_build_cell(self, family):
        c, geom, b, u0, params = nozzle_setup(dx=0.05)
        if family == "laval":
            geom = NozzleGeometry.laval(0.1, X=1.0)
            b = BoundFunction.auto_for(geom, admissibility_constants(c),
                                       dx=0.05)
            params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, c),
                                             b=b, T=0.0, c=c)
        state, mesh = initialize(u0, params, geom, b, c)
        for _ in range(3):
            state, rec = advance(state, params, geom, b, c, mesh)
        rho, m = rec.neighbors
        cells = rec.cell_solutions()
        assert len(cells) == rec.jcells.size
        assert len({cs.kinds.size for cs in cells}) > 1
        assert any(cs.fronts for cs in cells)
        for i, cs in enumerate(cells):
            # the row's own floats: a GasState normalizes near-vacuum states
            want = build_cell(types.SimpleNamespace(rho=rho[i], m=m[i]),
                              types.SimpleNamespace(rho=rho[i + 1],
                                                    m=m[i + 1]),
                              int(rec.jcells[i]), rec.n, params, geom, b, c)
            assert (cs.j, cs.case, cs.subcase) == (want.j, want.case,
                                                   want.subcase)
            for name in ("kinds", "pars", "speeds", "is_front"):
                got, exp = getattr(cs, name), getattr(want, name)
                assert got.dtype == exp.dtype and got.shape == exp.shape
                assert got.tobytes() == exp.tobytes(), (i, name)
            assert cs.fronts == want.fronts
