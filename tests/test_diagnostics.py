import math

import numpy as np
import pytest
from scipy.integrate import quad

import nozzleflow._kernels as _k
import nozzleflow._traces as _traces
from nozzleflow import (EnergyMonitor, GasConstants, GasState,
                        RecurrenceAuditor, advance, correction_R,
                        initialize, mechanical_pair, run, select_M,
                        total_energy_nodes, total_energy_trace)
from nozzleflow.diagnostics import envelope_violation, node_areas
from nozzleflow.initialdata import (GaussianBumpData, RiemannStepData,
                                    TableData)
from nozzleflow.nozzle import (BoundFunction, NozzleGeometry,
                               admissibility_constants, get_bundle)
from nozzleflow.scheme import SchemeParameters, StaggeredState

C14 = GasConstants.for_gamma(1.4)


def _R_oracle(x, rho, m, g, dx, dt, a_of, b_of):
    """Independently transcribed correction formula."""
    th = (g - 1) / 2
    bx = b_of(x)
    ax = a_of(x)
    t1 = -(dx / (4 * dt)) * bx * (3 / (g - 1) * rho ** th * m
                                  + m ** 3 / (2 * rho ** (th + 2)))
    t2 = (dt / (4 * dx)) * ax * (g / (g - 1) * rho ** (2 * th) * m ** 2 / rho
                                 + m ** 4 / (2 * rho ** 3))
    t3 = -(dt / (4 * dx)) * bx * (
        (g + th + 1) / ((g - 1) * th) * m * rho ** (3 * th)
        + (g + 3 * th + 4) / (2 * th) * m ** 3 * rho ** th / rho ** 2
        + m ** 5 / (2 * rho ** (th + 4)))
    return t1 + t2 + t3


def nozzle_setup(dx=0.025, eps=0.15):
    geom = NozzleGeometry.bump(eps, X=1.0)
    ad = admissibility_constants(C14)
    b = BoundFunction.auto_for(geom, ad, dx=dx)
    return geom, b


class TestCorrectionR:
    def test_zero_momentum(self):
        geom, b = nozzle_setup()
        params = SchemeParameters.create(dx=0.025, M=6.0, b=b, T=0.0, c=C14)
        assert correction_R(0.2, GasState(1.3, 0.0), params, geom, b, C14) == 0.0

    def test_straight_duct_zero(self):
        geom = NozzleGeometry.constant()
        b = BoundFunction.zero()
        params = SchemeParameters.create(dx=0.025, M=6.0, b=b, T=0.0, c=C14)
        assert correction_R(0.1, GasState(1.0, 1.0), params, geom, b, C14) == 0.0

    def test_vacuum_zero(self):
        geom, b = nozzle_setup()
        params = SchemeParameters.create(dx=0.025, M=6.0, b=b, T=0.0, c=C14)
        assert correction_R(0.0, GasState(0.0, 0.0), params, geom, b, C14) == 0.0

    def test_dual_transcription_oracle(self):
        geom, b = nozzle_setup()
        params = SchemeParameters.create(dx=0.025, M=6.0, b=b, T=0.0, c=C14)
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = rng.uniform(-0.9, 0.9)
            rho = rng.uniform(0.3, 2.0)
            m = rng.uniform(-1.5, 1.5)
            got = correction_R(x, GasState(rho, m), params, geom, b, C14)
            want = _R_oracle(x, rho, m, 1.4, params.dx, params.dt,
                             lambda y: float(geom.a(y)),
                             lambda y: float(b.b(y)))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_odd_in_momentum_without_area_term(self):
        # with a == 0 every term is odd in m (the a-term is even; it
        # vanishes in a straight duct)
        geom = NozzleGeometry.constant()
        b = BoundFunction.piecewise_constant([-1, 1], [0.08])
        params = SchemeParameters.create(dx=0.025, M=6.0, b=b, T=0.0, c=C14)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-0.9, 0.9)
            rho = rng.uniform(0.3, 2.0)
            m = rng.uniform(-1.5, 1.5)
            rp = correction_R(x, GasState(rho, m), params, geom, b, C14)
            rm = correction_R(x, GasState(rho, -m), params, geom, b, C14)
            assert rp == pytest.approx(-rm, rel=1e-12, abs=1e-15)


class TestTotalEnergy:
    def test_vacuum(self):
        geom = NozzleGeometry.constant()
        b = BoundFunction.zero()
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        u0 = TableData([-1, 1], [0, 0], [0, 0])
        st, mesh = initialize(u0, params, geom, b, C14)
        assert total_energy_nodes(st, geom, b, C14, params) == 0.0

    def test_constant_block(self):
        # constant (1, 0) on support of length L with A = 1: energy L/0.56
        geom = NozzleGeometry.constant(X=4.0)
        b = BoundFunction.zero(domain=(-6, 6))
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        u0 = RiemannStepData(1.0, 0.0, 1.0, 0.0)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        got = total_energy_nodes(st, geom, b, C14, params)
        L = (st.js[-1] - st.js[0] + 2) * params.dx
        assert got == pytest.approx(L / 0.56, rel=1e-12)

    def test_trace_energy_matches_adaptive_quadrature(self):
        geom, b = nozzle_setup()
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        M = select_M(u0, b, C14)
        params = SchemeParameters.create(dx=0.05, M=M, b=b, T=0.0, c=C14)
        st, mesh = initialize(u0, params, geom, b, C14)
        st, rec = advance(st, params, geom, b, C14, mesh)
        got = total_energy_trace(rec, params.dt)
        want = 0.0
        for cell in rec.cell_solutions():
            xc = cell.j * params.dx
            pts = sorted(xc + s * params.dt for s in cell.speeds
                         if abs(s) < 1e300)
            pts = [p for p in pts if xc - params.dx < p < xc + params.dx]

            def f(x, cell=cell):
                u = cell.trace(x, params.dt)
                return float(geom.A(x)) * mechanical_pair(u, C14).eta
            want += quad(f, xc - params.dx, xc + params.dx, points=pts,
                         limit=200, epsabs=1e-11)[0]
        # fixed Gauss-5 vs adaptive over the whole trace (the vacuum-edge
        # fans cost a few 1e-9 relative)
        assert got == pytest.approx(want, rel=5e-9)

    def test_single_profile_piece_quadrature(self):
        # one steady-profile piece matches adaptive quadrature to 1e-9
        geom, b = nozzle_setup()
        bundle = get_bundle(geom, b)
        q = np.array([0.1, -4.8, 5.1, -1.0, 1.0, 0.0])
        a, bb = 0.05, 0.15
        got = _k._gauss5_piece(_k.K_PROFILE, q, a, bb, 0.0, bundle.geo,
                               1.4, 0.2)

        def rho_of(x):
            r, m, _c = _k.eval_piece(_k.K_PROFILE, q, x, 0.0, bundle.geo,
                                     1.4, 0.2)
            return r
        want = quad(rho_of, a, bb, limit=100, epsabs=1e-13)[0]
        assert got[0] == pytest.approx(want, abs=1e-9)


class TestNodeAreas:
    @pytest.mark.parametrize("geom", [
        NozzleGeometry.bump(0.15), NozzleGeometry.laval(0.3),
        NozzleGeometry.from_table([-1.0, -0.3, 0.2, 1.0],
                                  [1.0, 0.8, 0.7, 1.1])],
        ids=["bump", "laval", "table"])
    def test_match_adaptive_quadrature(self, geom):
        dx = 0.02
        b = BoundFunction.zero()
        params = SchemeParameters.create(dx=dx, M=6.0, b=b, T=0.0, c=C14)
        js = np.arange(-131, 132, 2)
        st = StaggeredState(n=1, j0=int(js[0]), rho=np.zeros(js.size),
                            m=np.zeros(js.size), z=None, w=None)
        got = node_areas(st, params, get_bundle(geom, b))
        for j, area in zip(js.tolist(), got.tolist()):
            lo, hi = (j - 1) * dx, (j + 1) * dx
            pts = [p for p in geom.IA_pp.x if lo < p < hi] or None
            want = quad(lambda x: float(geom.A(x)), lo, hi, points=pts,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert area == pytest.approx(want, rel=1e-12)

    def test_equal_to_panel_loop(self):
        # the per-node scalar loop the whole-array areas replaced, bit for bit
        geom, dx = NozzleGeometry.laval(0.3), 0.02
        tables = get_bundle(geom, BoundFunction.zero()).tables
        xs, c = _k.pack_ppoly(*tables["IA"])
        js = np.arange(-131, 132, 2)
        got = _traces.node_areas(js, dx, geom.A0, tables)
        for j, area in zip(js.tolist(), got.tolist()):
            a = (j - 1) * dx
            step = ((j + 1) * dx - a) / 4.0
            half = 0.5 * step
            want = 0.0
            for p in range(4):
                xm = a + p * step + half
                for g in range(5):
                    x = xm + half * _k._G5X[g]
                    A = geom.A0 * math.exp(-_k.ppoly_eval(xs, c, x))
                    want += _k._G5W[g] * A * half
            assert area == want


def _run_monitored(u0, geom, b, steps, dx, M=None, slack_coeff=1.0,
                   cutoff=True, gamma=1.4):
    c = GasConstants.for_gamma(gamma)
    if M is None:
        M = select_M(u0, b, c)
    params = SchemeParameters.create(dx=dx, M=M, b=b, T=0.0, c=c)
    params = SchemeParameters.create(dx=dx, M=M, b=b, T=steps * params.dt,
                                     c=c)
    mon = EnergyMonitor()
    aud = RecurrenceAuditor(slack_coeff=slack_coeff)
    state, mesh = run(u0, params, geom, b, c, observers=(mon, aud),
                      cutoff=cutoff)
    return state, mon, aud, params


class TestMonitor:
    def test_step0_slack_zero(self):
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        _, mon, _, _ = _run_monitored(u0, geom, b, 1, 0.05)
        assert mon.reports[0].slack == 0.0

    def test_straight_duct_constant_slack_machine_level(self):
        # constant block with vacuum tails (finite energy): the interior
        # keeps its energy exactly, the vacuum edges only dissipate
        geom = NozzleGeometry.constant(X=2.0)
        b = BoundFunction.zero(domain=(-3, 3))
        u0 = TableData([-1.2001, -1.2, 1.2, 1.2001], [0, 1, 1, 0],
                       [0, 0, 0, 0])
        _, mon, _, _ = _run_monitored(u0, geom, b, 10, 0.05)
        for r in mon.reports:
            assert r.slack >= -1e-10

    def test_envelope_zero_after_projection(self):
        geom, b = nozzle_setup(dx=0.025)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        _, mon, _, _ = _run_monitored(u0, geom, b, 15, 0.025)
        assert all(r.max_envelope_violation == 0.0 for r in mon.reports)

    def test_jump_sum_monotone_and_flagged_fields(self):
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        _, mon, _, _ = _run_monitored(u0, geom, b, 8, 0.05)
        sums = [r.jump_sum for r in mon.reports]
        assert all(s1 >= s0 for s0, s1 in zip(sums, sums[1:]))
        assert math.isinf(mon.reports[3].jump_ceiling)
        assert mon.reports[-1].jump_ceiling > 0.0

    def test_weighted_mass_conditional(self):
        # A constant, zero counters: weighted mass drifts below C dx n dt
        geom = NozzleGeometry.constant(X=1.0)
        b = BoundFunction.zero(domain=(-2, 2))
        u0 = GaussianBumpData(rho_inf=0.9, rho_amp=0.3, width=0.25)
        state, mon, _, params = _run_monitored(u0, geom, b, 10, 0.02,
                                               cutoff=False)
        for r in mon.reports[1:]:
            assert r.clamp_count == 0 and r.vacuum_count == 0
        # window growth adds ambient mass 2 dx rho_inf A per node; compare
        # consecutive reports net of that
        for r0, r1 in zip(mon.reports, mon.reports[1:]):
            growth = 2 * params.dx * 0.9
            assert r1.total_mass - r0.total_mass - growth == pytest.approx(
                0.0, abs=1e-11)


class TestRecurrenceAudit:
    def test_vacuum_step_zero(self):
        geom = NozzleGeometry.constant(X=1.0)
        b = BoundFunction.zero(domain=(-2, 2))
        u0 = TableData([-1, 1], [0, 0], [0, 0])
        _, mon, aud, _ = _run_monitored(u0, geom, b, 3, 0.05, M=1.0)
        assert aud.worst_raw == 0.0

    def test_single_admissible_shock_no_violation(self):
        # entropy-dissipative averaging across one genuine shock
        geom = NozzleGeometry.constant(X=1.0)
        b = BoundFunction.zero(domain=(-2, 2))
        from nozzleflow.riemann import shock_velocity_jump
        rho_r = 1.6
        v_r = 0.0 - float(shock_velocity_jump(rho_r, 1.0, C14))
        # 1-shock pair as left/right data
        u0 = RiemannStepData(1.0, 0.0, rho_r, v_r, x0=0.05)
        _, mon, aud, _ = _run_monitored(u0, geom, b, 6, 0.05, cutoff=False)
        assert aud.worst_raw <= 1e-12

    def test_nozzle_run_small_violation(self):
        geom, b = nozzle_setup(dx=0.025)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        _, mon, aud, params = _run_monitored(u0, geom, b, 12, 0.025)
        # the recurrence holds up to o(dx); the slacked violation vanishes
        assert aud.worst_slacked == 0.0
        assert aud.worst_raw < params.dx

    def test_audit_records_both_sides(self):
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        _, mon, aud, _ = _run_monitored(u0, geom, b, 2, 0.05)
        a = aud.audits[0]
        assert a.lhs.shape == a.rhs.shape == a.js.shape
        assert a.worst_raw >= 0.0


def _piece_spans(rec, t):
    """(cell, packed index, a, b) of every piece of a step at offset t:
    the loop the scalar quadrature kernels ran."""
    dx = rec.params.dx
    for ci, j in enumerate(rec.jcells.tolist()):
        xc = j * dx
        o, n = int(rec.offs[ci]), int(rec.ncount[ci])
        for p in range(n):
            a = xc - dx if p == 0 else min(max(xc + rec.spds[o + p - 1] * t,
                                               xc - dx), xc + dx)
            b = xc + dx if p == n - 1 else min(max(xc + rec.spds[o + p] * t,
                                                   xc - dx), xc + dx)
            if b > a:
                yield ci, o + p, a, b


class TestWholeArrayTraces:
    """The whole-array averaging and diagnostics against per-node loops over
    the scalar kernels: the same arithmetic, so equal bit for bit."""

    @pytest.fixture(scope="class")
    def step(self):
        geom, b = nozzle_setup(dx=0.05)
        u0 = TableData([-1.3, -1.0, -0.2, 0.2, 1.0, 1.3],
                       [0, 0.9, 1.1, 1.1, 0.9, 0], [0, 0.1, 0.2, 0.2, 0.0, 0])
        M = select_M(u0, b, C14)
        params = SchemeParameters.create(dx=0.05, M=M, b=b, T=0.0, c=C14)
        st, mesh = initialize(u0, params, geom, b, C14)
        for _ in range(4):
            st, rec = advance(st, params, geom, b, C14, mesh)
        return rec, st

    def test_pieces_match_scalar_eval(self, step):
        rec, _st = step
        idx = np.concatenate([np.arange(o, o + n) for o, n in
                              zip(rec.offs[:-1], rec.ncount)])
        kinds = rec.kinds[idx]
        assert set(kinds.tolist()) == {_k.K_CONST, _k.K_PROFILE,
                                       _k.K_RAREF1, _k.K_RAREF2}
        rng = np.random.default_rng(8)
        jc = np.repeat(rec.jcells, rec.ncount)
        x = (jc + rng.uniform(-1, 1, idx.size)) * rec.params.dx
        for tau in (0.0, 0.5 * rec.params.dt, rec.params.dt):
            rho, m = _traces.pieces_at(kinds, rec.pars[idx], x, tau,
                                       rec.bundle.tables, C14.theta)
            for i in range(idx.size):
                r0, m0, _c = _k.eval_piece(int(kinds[i]), rec.pars[idx[i]],
                                           float(x[i]), tau, rec.bundle.geo,
                                           C14.gamma, C14.theta)
                assert (rho[i], m[i]) == (r0, m0)

    def test_area_term_matches_loop(self, step):
        rec, _st = step
        dt, geo = rec.params.dt, rec.bundle.geo
        want = np.zeros(rec.jcells.size)
        for gt in range(3):
            tau = 0.5 * dt + 0.5 * dt * _traces._G3X[gt]
            wt = 0.5 * dt * _traces._G3W[gt]
            for ci, i, a, b in _piece_spans(rec, tau):
                xm, half = 0.5 * (a + b), 0.5 * (b - a)
                acc = 0.0
                for g in range(3):
                    x = xm + half * _traces._G3X[g]
                    r, m, _c = _k.eval_piece(int(rec.kinds[i]), rec.pars[i],
                                             x, tau, geo, C14.gamma,
                                             C14.theta)
                    acc += (_traces._G3W[g] * _k.geo_a(geo, x)
                            * _k.eta_q_k(r, m, C14.gamma)[1])
                want[ci] += wt * acc * half
        got = _traces.cell_aq_integrals(rec)
        assert np.any(want != 0.0)
        np.testing.assert_array_equal(got, want)

    def test_jump_integral_matches_loop(self, step):
        rec, st = step
        dt, geo = rec.params.dt, rec.bundle.geo
        want = 0.0
        for ci, i, a, b in _piece_spans(rec, dt):
            xm, half = 0.5 * (a + b), 0.5 * (b - a)
            z, w = float(st.z[ci]), float(st.w[ci])
            node = np.array([rec.jcells[ci] * rec.params.dx, z, w,
                             -1.0, 1.0, 0.0])
            for g in range(3):
                x = xm + half * _traces._G3X[g]
                r0, m0, _c = _k.eval_piece(int(rec.kinds[i]), rec.pars[i], x,
                                           dt, geo, C14.gamma, C14.theta)
                r1 = m1 = 0.0
                if z != 0.0 or w != 0.0:
                    r1, m1, _c = _k.eval_piece(_k.K_PROFILE, node, x, 0.0,
                                               geo, C14.gamma, C14.theta)
                want += _traces._G3W[g] * ((r0 - r1) ** 2 + (m0 - m1) ** 2) \
                    * half
        got = _traces.jump_integral(rec, st.z, st.w)
        assert want > 0.0
        assert got == want

    def test_rh_residual_matches_loop(self, step):
        # a perturbed front speed gives a residual far above rounding
        rec, _st = step
        cell = next(cs for cs in rec.cell_solutions() if cs.fronts)
        i = cell.fronts[0].left
        cell.speeds[i] += 1e-3
        s = float(cell.speeds[i])
        tau = 0.5 * rec.params.dt
        xf = cell.xc + s * tau
        g, th = C14.gamma, C14.theta
        rl, ml, _c = _k.eval_piece(int(cell.kinds[i]), cell.pars[i], xf, tau,
                                   rec.bundle.geo, g, th)
        rr, mr, _c = _k.eval_piece(int(cell.kinds[i + 1]), cell.pars[i + 1],
                                   xf, tau, rec.bundle.geo, g, th)
        f1l, f2l = _k.flux_k(rl, ml, g)
        f1r, f2r = _k.flux_k(rr, mr, g)
        want = max(abs(f1r - f1l - s * (rr - rl)),
                   abs(f2r - f2l - s * (mr - ml)))
        others = [cs.max_rh_residual() for cs in rec.cell_solutions()]
        assert want > 1e3 * max(others)
        assert cell.max_rh_residual() == want

    def test_cell_averages_match_loop(self, step):
        rec, st = step
        assert rec.clamp_count == 0 and np.count_nonzero(st.rho) > 10
        dx, dt, geo = rec.params.dx, rec.params.dt, rec.bundle.geo
        for ci, j in enumerate(rec.jcells.tolist()):
            o, n = int(rec.offs[ci]), int(rec.ncount[ci])
            acc_r = acc_m = 0.0
            for p in range(n):
                # extents relative to the centre, as the scheme integrates
                a = -dx if p == 0 else min(max(rec.spds[o + p - 1] * dt, -dx),
                                           dx)
                b = dx if p == n - 1 else min(max(rec.spds[o + p] * dt, -dx),
                                              dx)
                if b <= a:
                    continue
                if rec.kinds[o + p] == _k.K_CONST:
                    ir = rec.pars[o + p, 0] * (b - a)
                    im = rec.pars[o + p, 1] * (b - a)
                else:
                    ir, im = _k._gauss5_piece(int(rec.kinds[o + p]),
                                              rec.pars[o + p], j * dx + a,
                                              j * dx + b, dt, geo, C14.gamma,
                                              C14.theta)
                acc_r += ir
                acc_m += im
            e_r, e_m = acc_r / (2.0 * dx), acc_m / (2.0 * dx)
            if e_r < _k.pow_g(dx, rec.params.delta):
                assert st.rho[ci] == 0.0 and st.m[ci] == 0.0
                continue
            # unclamped nodes keep the average bit for bit
            assert (st.rho[ci], st.m[ci]) == (e_r, e_m)
            assert (st.z[ci], st.w[ci]) == _k.invariants_k(e_r, e_m,
                                                           C14.theta)
