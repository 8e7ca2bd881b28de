import math

import numpy as np
import pytest
from scipy.integrate import quad

import nozzleflow._kernels as _k
import nozzleflow._traces as _traces
from nozzleflow import diagnostics
from nozzleflow import (EnergyMonitor, GasConstants, GasState,
                        RecurrenceAuditor, advance, correction_R,
                        initialize, mechanical_pair, run, select_M,
                        total_energy_nodes, total_energy_trace)
from nozzleflow.baseline import run_baseline
from nozzleflow.diagnostics import (RunNodeAreas, envelope_violation,
                                    node_areas)
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


def _R_scalar(x, rho, m, params, geo, c):
    """R at one node with the scalar kernels' lookups and powers and
    Python's ``**`` on floats: the per-node formula the whole-array R must
    reproduce bit for bit."""
    if rho == 0.0:
        return 0.0
    g = c.gamma
    th = c.theta
    bx = _k.geo_b(geo, x)
    ax = _k.geo_a(geo, x)
    rt = _k.pow_g(rho, th)
    t1 = -(params.dx / (4.0 * params.dt)) * bx * (
        3.0 / (g - 1.0) * rt * m + m ** 3 / (2.0 * _k.pow_g(rho, th + 2.0)))
    t2 = (params.dt / (4.0 * params.dx)) * ax * (
        g / (g - 1.0) * _k.pow_g(rho, 2.0 * th) * m * m / rho
        + 0.5 * m ** 4 / rho ** 3)
    t3 = -(params.dt / (4.0 * params.dx)) * bx * (
        (g + th + 1.0) / ((g - 1.0) * th) * m * _k.pow_g(rho, 3.0 * th)
        + (g + 3.0 * th + 4.0) / (2.0 * th) * m ** 3 * rt / rho ** 2
        + m ** 5 / (2.0 * _k.pow_g(rho, th + 4.0)))
    return t1 + t2 + t3


def _gauss5_piece(kind, q, a, b, tau, geo, theta):
    """Integral of (rho, m) over [a, b] for one piece at time offset tau."""
    if kind == _k.K_CONST:
        return q[0] * (b - a), q[1] * (b - a)
    Bd = _k.anchor_B(kind, q, geo)
    xm = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_r = 0.0
    acc_m = 0.0
    for g in range(5):
        x = xm + half * _traces._G5X[g]
        rho, m = _k.eval_piece_at(kind, q, Bd, x, tau, geo, theta)
        acc_r += _traces._G5W[g] * rho
        acc_m += _traces._G5W[g] * m
    return acc_r * half, acc_m * half


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

    @pytest.mark.parametrize("family,gamma", [
        ("bump", 1.4), ("laval", 1.2), ("laval", 5.0 / 3.0)])
    def test_whole_array_equals_per_node_formula(self, family, gamma):
        c = GasConstants.for_gamma(gamma)
        geom = getattr(NozzleGeometry, family)(0.15, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(c),
                                   dx=0.025)
        params = SchemeParameters.create(dx=0.025, M=6.0, b=b, T=0.0, c=c)
        bundle = get_bundle(geom, b)
        rng = np.random.default_rng([7, round(100 * gamma), len(family)])
        n = 1500
        # nodes inside and beyond the nozzle; vacuum, near-vacuum and
        # dense states, momentum of both signs
        x = rng.integers(-50, 51, n) * params.dx
        rho = rng.uniform(0.0, 2.5, n)
        rho[::10] = 0.0
        rho[1::10] = 10.0 ** rng.uniform(-12.0, -3.0, rho[1::10].size)
        m = rho * rng.uniform(-3.0, 3.0, n)
        got = _traces.correction_R(x, rho, m, params, c, bundle.tables)
        want = np.array([_R_scalar(xi, ri, mi, params, bundle.geo, c)
                         for xi, ri, mi in zip(x.tolist(), rho.tolist(),
                                               m.tolist())])
        assert np.count_nonzero(want) > n // 2
        assert got.tobytes() == want.tobytes()
        for i in range(0, n, 37):
            one = correction_R(x[i], GasState(rho[i], m[i]), params, geom,
                               b, c)
            assert np.float64(one).tobytes() == want[i:i + 1].tobytes()


class TestTotalEnergy:
    def test_vacuum(self):
        geom = NozzleGeometry.constant()
        b = BoundFunction.zero()
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        u0 = TableData([-1, 1], [0, 0], [0, 0])
        st, mesh = initialize(u0, params, geom, b, C14)
        areas = node_areas(st, params, get_bundle(geom, b))
        assert total_energy_nodes(st, areas, C14.gamma) == 0.0

    def test_constant_block(self):
        # constant (1, 0) on support of length L with A = 1: energy L/0.56
        geom = NozzleGeometry.constant(X=4.0)
        b = BoundFunction.zero(domain=(-6, 6))
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        u0 = RiemannStepData(1.0, 0.0, 1.0, 0.0)
        st, mesh = initialize(u0, params, geom, b, C14, cutoff=False)
        got = total_energy_nodes(st, node_areas(st, params,
                                                get_bundle(geom, b)),
                                 C14.gamma)
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
        got = _gauss5_piece(_k.K_PROFILE, q, a, bb, 0.0, bundle.geo, 0.2)

        def rho_of(x):
            r, m = _k.eval_piece(_k.K_PROFILE, q, x, 0.0, bundle.geo, 0.2)
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
                    x = xm + half * _traces._G5X[g]
                    A = geom.A0 * math.exp(-_k.ppoly_eval(xs, c, x))
                    want += _traces._G5W[g] * A * half
            assert area == want


class TestRunNodeAreas:
    def test_slices_equal_per_step_areas(self, monkeypatch):
        # one table over every node the run reaches, both parities; each
        # step's slice is node_areas of that step's window, byte for byte
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, v_amp=0.1, width=0.3)
        params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, C14),
                                         b=b, T=0.0, c=C14)
        params = SchemeParameters.create(dx=0.05, M=params.M, b=b,
                                         T=12 * params.dt, c=C14)
        bundle = get_bundle(geom, b)
        states = []

        class Keep:
            def on_start(self, state, ctx):
                states.append(state)

            def on_step(self, prev, new, record):
                states.append(new)

        run(u0, params, geom, b, C14, observers=(Keep(),))
        calls = []
        areas = _traces.node_areas

        def counted(js, *args):
            calls.append(js.size)
            return areas(js, *args)

        monkeypatch.setattr(_traces, "node_areas", counted)
        table = RunNodeAreas(params, bundle)
        got = [table(st) for st in states]
        assert len(calls) == 1
        assert calls[0] == states[-1].rho.size * 2 - 1
        monkeypatch.setattr(_traces, "node_areas", areas)
        assert len(got) == params.n_steps + 1
        for st, sliced in zip(states, got):
            assert sliced.tobytes() == node_areas(st, params,
                                                  bundle).tobytes()

    def test_state_past_the_table_widens_it(self):
        geom, b = nozzle_setup(dx=0.05)
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        bundle = get_bundle(geom, b)
        table = RunNodeAreas(params, bundle)
        for j0, size in ((-11, 12), (-13, 14), (4, 3), (-40, 5)):
            st = StaggeredState(n=j0 % 2, j0=j0, rho=np.zeros(size),
                                m=np.zeros(size), z=None, w=None)
            assert table(st).tobytes() == node_areas(st, params,
                                                     bundle).tobytes()

    def test_long_run_holds_a_few_windows(self):
        # 10^6 steps widen a 30-node window by at most its size per side
        geom, b = nozzle_setup(dx=0.05)
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b, T=0.0, c=C14)
        params = SchemeParameters.create(dx=0.05, M=6.0, b=b,
                                         T=1e6 * params.dt, c=C14)
        assert params.n_steps >= 10 ** 6
        bundle = get_bundle(geom, b)
        table = RunNodeAreas(params, bundle)
        st = StaggeredState(n=1, j0=-29, rho=np.zeros(30), m=np.zeros(30),
                            z=None, w=None)
        assert table(st).tobytes() == node_areas(st, params,
                                                 bundle).tobytes()
        assert table.areas.size == 2 * 30 + 59

    def test_one_node_areas_call_per_reader(self, monkeypatch):
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, v_amp=0.1, width=0.3)
        params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, C14),
                                         b=b, T=0.0, c=C14)
        params = SchemeParameters.create(dx=0.05, M=params.M, b=b,
                                         T=8 * params.dt, c=C14)
        calls = [0]
        areas = _traces.node_areas

        def counted(*args):
            calls[0] += 1
            return areas(*args)

        monkeypatch.setattr(_traces, "node_areas", counted)
        mon = EnergyMonitor()
        run(u0, params, geom, b, C14, observers=(mon,))
        assert len(mon.reports) == params.n_steps + 1 > 5
        assert calls[0] == 1
        run_baseline(u0, params, geom, b, C14)
        assert calls[0] == 2


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

    def test_record_neighbors_are_the_step_inputs(self):
        # the audit reads the row of old nodes the step gathered: the old
        # nodes with the ambient states at both ends, cell i between row
        # entries i and i + 1
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, v_inf=0.3,
                              width=0.3)
        M = select_M(u0, b, C14)
        params = SchemeParameters.create(dx=0.05, M=M, b=b, T=0.0, c=C14)
        params = SchemeParameters.create(dx=0.05, M=M, b=b,
                                         T=4 * params.dt, c=C14)
        steps = []

        class Keep:
            def on_step(self, prev, new, record):
                steps.append((prev, record))

        _, mesh = run(u0, params, geom, b, C14,
                      observers=(EnergyMonitor(), RecurrenceAuditor(),
                                 Keep()))
        assert len(steps) == 4
        amb_l, amb_r = mesh.ambient_left, mesh.ambient_right
        for prev, rec in steps:
            assert np.array_equal(prev.js, rec.jcells[:-1] + 1)
            rho, m = rec.neighbors
            want_rho = np.concatenate(([amb_l.rho], prev.rho, [amb_r.rho]))
            want_m = np.concatenate(([amb_l.m], prev.m, [amb_r.m]))
            assert rho.tobytes() == want_rho.tobytes()
            assert m.tobytes() == want_m.tobytes()

    def test_one_correction_R_per_step(self, monkeypatch):
        # every old node's R is computed once, on the row of C + 1 old
        # nodes around the step's C cells
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, v_inf=0.3,
                              width=0.3)
        sizes = []
        R = _traces.correction_R

        def counted(x, *args):
            sizes.append(x.size)
            return R(x, *args)

        monkeypatch.setattr(_traces, "correction_R", counted)
        _, _mon, aud, _ = _run_monitored(u0, geom, b, 3, 0.05)
        assert sizes == [a.js.size + 1 for a in aud.audits]

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
                r0, m0 = _k.eval_piece(int(kinds[i]), rec.pars[idx[i]],
                                       float(x[i]), tau, rec.bundle.geo,
                                       C14.theta)
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
                    r, m = _k.eval_piece(int(rec.kinds[i]), rec.pars[i],
                                         x, tau, geo, C14.theta)
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
                r0, m0 = _k.eval_piece(int(rec.kinds[i]), rec.pars[i], x,
                                       dt, geo, C14.theta)
                r1 = m1 = 0.0
                if z != 0.0 or w != 0.0:
                    r1, m1 = _k.eval_piece(_k.K_PROFILE, node, x, 0.0,
                                           geo, C14.theta)
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
        rl, ml = _k.eval_piece(int(cell.kinds[i]), cell.pars[i], xf, tau,
                               rec.bundle.geo, th)
        rr, mr = _k.eval_piece(int(cell.kinds[i + 1]), cell.pars[i + 1],
                               xf, tau, rec.bundle.geo, th)
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
                    ir, im = _gauss5_piece(int(rec.kinds[o + p]),
                                           rec.pars[o + p], j * dx + a,
                                           j * dx + b, dt, geo, C14.theta)
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

    def test_energy_trace_matches_loop(self, step):
        rec, _st = step
        geo, A0 = rec.bundle.geo, rec.bundle.geom.A0
        xs, c = _k.pack_ppoly(*rec.bundle.tables["IA"])
        for tau in (0.5 * rec.params.dt, rec.params.dt):
            want = 0.0
            for _ci, i, a, b in _piece_spans(rec, tau):
                xm, half = 0.5 * (a + b), 0.5 * (b - a)
                for g in range(5):
                    x = xm + half * _traces._G5X[g]
                    r, m = _k.eval_piece(int(rec.kinds[i]), rec.pars[i],
                                         x, tau, geo, C14.theta)
                    area = A0 * math.exp(-_k.ppoly_eval(xs, c, x))
                    eta = _k.eta_q_k(r, m, C14.gamma)[0]
                    want += _traces._G5W[g] * area * eta * half
            assert want > 0.0
            assert _traces.energy_trace(rec, tau) == want

    def test_one_piece_table_per_step(self, monkeypatch):
        # the step builds one for its averaging; the monitors share it
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, v_amp=0.1, width=0.3)
        params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, C14),
                                         b=b, T=0.0, c=C14)
        st, mesh = initialize(u0, params, geom, b, C14)
        mon, aud = EnergyMonitor(), RecurrenceAuditor()
        mon.on_start(st, {"params": params, "geom": geom, "bound": b,
                          "constants": C14})
        built = []
        init = _traces._Pieces.__init__

        def counted(self, *a):
            built.append(a)
            init(self, *a)

        monkeypatch.setattr(_traces._Pieces, "__init__", counted)
        new, rec = advance(st, params, geom, b, C14, mesh)
        assert len(built) == 1
        mon.on_step(st, new, rec)
        aud.on_step(st, new, rec)
        assert len(built) == 1


@pytest.fixture(scope="module", params=["bump", "laval"])
def stepped(request):
    """(new state, record) of each of 7 steps of compactly supported data
    in a bump (flat runs beyond X) or a Laval nozzle, vacuum outside."""
    geom = (NozzleGeometry.bump(0.15, X=1.0) if request.param == "bump"
            else NozzleGeometry.laval(0.15, X=1.0))
    b = BoundFunction.auto_for(geom, admissibility_constants(C14), dx=0.05)
    u0 = TableData([-1.3, -1.0, -0.2, 0.2, 1.0, 1.3],
                   [0, 0.9, 1.1, 1.1, 0.9, 0], [0, 0.1, 0.2, 0.2, 0.0, 0])
    params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, C14), b=b,
                                     T=0.0, c=C14)
    st, mesh = initialize(u0, params, geom, b, C14)
    out = []
    for _ in range(7):
        st, rec = advance(st, params, geom, b, C14, mesh)
        out.append((st, rec))
    return out


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


class TestBlockReaders:
    """The step readers on one piece table per step and on the tables of
    consecutive steps back to back (``_Pieces.concat``), as the monitors
    read them: the same bytes, step by step."""

    def test_time_offset_per_point(self, stepped):
        # one call with a time offset per point equals one call per offset
        for _new, rec in stepped:
            pcs = rec.pieces
            dt = rec.params.dt
            rng = np.random.default_rng(rec.n)
            taus = [0.0, 0.5 * dt - 0.5 * dt * 0.7745966692414834,
                    0.5 * dt, dt]
            xs = [pcs.xc + rng.uniform(-1, 1, pcs.xc.size) * pcs.dx
                  for _ in taus]
            want = [_traces.pieces_at(pcs.kinds, pcs.q, x, tau, pcs.tables,
                                      pcs.theta, pcs.Bd)
                    for x, tau in zip(xs, taus)]
            k = len(taus)
            got = _traces.pieces_at(
                np.tile(pcs.kinds, k), np.tile(pcs.q, (k, 1)),
                np.concatenate(xs), np.repeat(taus, pcs.xc.size),
                pcs.tables, pcs.theta, np.tile(pcs.Bd, k))
            assert _bits(*got) == _bits(
                np.concatenate([w[0] for w in want]),
                np.concatenate([w[1] for w in want]))

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_blocks_equal_single_steps(self, stepped, size):
        dt, c = stepped[0][1].params.dt, C14
        vacuum = 0
        for lo in range(0, len(stepped), size):
            steps = stepped[lo:lo + size]
            block = diagnostics._block(steps)
            assert block.pieces.first_cell.size == len(steps)
            aq = np.split(_traces.cell_aq_integrals(block),
                          block.pieces.first_cell[1:])
            jumps = _traces.jump_integral(
                block, np.concatenate([new.z for new, _ in steps]),
                np.concatenate([new.w for new, _ in steps]))
            rh = _traces.max_rh_residual(
                block.pieces, np.concatenate([r.fflag for _, r in steps]),
                dt, c)
            assert len(aq) == jumps.size == rh.size == len(steps)
            for i, (new, rec) in enumerate(steps):
                vacuum += np.count_nonzero(new.rho == 0.0)
                assert _bits(aq[i]) == _bits(_traces.cell_aq_integrals(rec))
                assert _bits(jumps[i]) == _bits(
                    _traces.jump_integral(rec, new.z, new.w)[0])
                assert rh[i] == rec.max_rh_residual()
                assert np.any(aq[i] != 0.0) and jumps[i] > 0.0 < rh[i]
        assert vacuum > 0

    def test_concat_joins_without_init(self, stepped, monkeypatch):
        def refuse(*a):
            raise AssertionError("__init__ ran")

        monkeypatch.setattr(_traces._Pieces, "__init__", refuse)
        tables = [rec.pieces for _, rec in stepped[:3]]
        block = _traces._Pieces.concat(tables)
        assert _traces._Pieces.concat(tables[:1]) is tables[0]
        sizes = [t.jcells.size for t in tables]
        assert block.first_cell.tolist() == [0, sizes[0], sum(sizes[:2])]
        assert block.first_piece.tolist() == [
            0, tables[0].cell.size, tables[0].cell.size + tables[1].cell.size]
        assert np.array_equal(block.cell[block.first_piece],
                              block.first_cell)
        assert np.array_equal(block.kinds,
                              np.concatenate([t.kinds for t in tables]))

    def test_constant_pieces_take_one_energy_flux(self, stepped,
                                                  monkeypatch):
        # a constant piece has one q* at all nine space-time nodes
        sizes = []
        flux = _traces.energy_flux

        def counted(rho, m, gamma):
            sizes.append(rho.size)
            return flux(rho, m, gamma)

        monkeypatch.setattr(_traces, "energy_flux", counted)
        consts = 0
        for _new, rec in stepped:
            pcs, dt = rec.pieces, rec.params.dt
            kept = ~((pcs.kinds == _k.K_CONST) & (pcs.q[:, 1] == 0.0)
                     | pcs.straight)
            const = np.zeros(pcs.kinds.size, dtype=bool)
            nodes = 0
            for x in _traces._G3X:
                a, b = pcs.extent(0.5 * dt + 0.5 * dt * x)
                live = (b > a) & kept
                const |= live & (pcs.kinds == _k.K_CONST)
                nodes += 3 * np.count_nonzero(live & (pcs.kinds
                                                      != _k.K_CONST))
            sizes.clear()
            _traces.cell_aq_integrals(rec)
            assert sizes == [nodes + np.count_nonzero(const)]
            consts += np.count_nonzero(const)
        assert consts > 0


class TestBlockMonitors:
    """The monitors read a run's steps in blocks of diagnostics.BLOCK, the
    last block inside the run's last on_step call."""

    @staticmethod
    def _run(steps, monkeypatch=None, block=None):
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, v_amp=0.1,
                              width=0.3)
        if block is not None:
            monkeypatch.setattr(diagnostics, "BLOCK", block)
        return _run_monitored(u0, geom, b, steps, 0.05)

    @pytest.mark.parametrize("steps", [3, 4])
    def test_nothing_pending_after_run(self, steps):
        _, mon, aud, params = self._run(steps)
        assert params.n_steps == steps
        assert mon._steps == [] and aud._steps == []
        assert len(mon._reports) == steps + 1
        assert len(aud._audits) == steps

    @pytest.mark.parametrize("steps", [3, 4])
    def test_one_piece_table_per_monitored_step(self, monkeypatch, steps):
        # each step builds one table; the monitors read every step from
        # it, inside the run, and join blocks without building another
        built = []
        init = _traces._Pieces.__init__

        def counted(self, *a):
            built.append(a)
            init(self, *a)

        monkeypatch.setattr(_traces._Pieces, "__init__", counted)
        _, mon, aud, _ = self._run(steps)
        assert len(built) == steps
        assert len(mon._reports) == steps + 1 and len(aud._audits) == steps

    @pytest.mark.parametrize("block", [1, 3])
    def test_any_block_size_reads_the_same(self, monkeypatch, block):
        _, mon, aud, _ = self._run(5)
        _, mon2, aud2, _ = self._run(5, monkeypatch, block)
        assert mon2.reports == mon.reports
        for a, a2 in zip(aud.audits, aud2.audits, strict=True):
            assert _bits(a.lhs, a.rhs) == _bits(a2.lhs, a2.rhs)
            assert (a.worst_raw, a.worst_slacked) == (a2.worst_raw,
                                                      a2.worst_slacked)

    def test_results_read_early_are_flushed(self):
        # a driver reading the results before the last step gets every
        # step it has stepped
        geom, b = nozzle_setup(dx=0.05)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.2, width=0.3)
        params = SchemeParameters.create(dx=0.05, M=select_M(u0, b, C14),
                                         b=b, T=1.0, c=C14)
        st, mesh = initialize(u0, params, geom, b, C14)
        mon, aud = EnergyMonitor(), RecurrenceAuditor()
        mon.on_start(st, {"params": params, "geom": geom, "bound": b,
                          "constants": C14})
        for n in range(3):
            new, rec = advance(st, params, geom, b, C14, mesh)
            mon.on_step(st, new, rec)
            aud.on_step(st, new, rec)
            st = new
            assert len(mon.reports) == n + 2 and len(aud.audits) == n + 1
