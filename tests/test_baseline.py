import numpy as np
import pytest

import nozzleflow._traces as _traces
from nozzleflow import (GasConstants, select_M, total_energy_nodes,
                        total_mass_nodes)
from nozzleflow.baseline import run_baseline
from nozzleflow.diagnostics import node_areas
from nozzleflow.initialdata import (GaussianBumpData, RiemannStepData,
                                    TableData)
from nozzleflow.nozzle import (BoundFunction, NozzleGeometry,
                               admissibility_constants, get_bundle)
from nozzleflow.scheme import SchemeParameters, StaggeredState

C14 = GasConstants.for_gamma(1.4)


def _duct_run(u0, T=0.2, dx=0.05):
    geom = NozzleGeometry.constant(X=1.0)
    b = BoundFunction.zero(domain=(-2.0, 2.0))
    params = SchemeParameters.create(dx=dx, M=select_M(u0, b, C14), b=b,
                                     T=T, c=C14)
    snaps = []
    series = run_baseline(
        u0, params, geom, b, C14, cutoff=False,
        snapshot_cb=lambda n, xs, rho, m: snaps.append((rho.copy(),
                                                        m.copy())))
    return params, snaps, series


class TestStraightDuct:
    def test_constant_state_stays_constant(self):
        # the step sits on a node-interval edge, so every average is exact
        u0 = RiemannStepData(1.0, 0.3, 1.0, 0.3, x0=-0.05)
        params, snaps, series = _duct_run(u0)
        assert len(snaps) == params.n_steps + 1 > 10
        for rho, m in snaps:
            assert np.all(rho == 1.0) and np.all(m == 0.3)
        assert series.negative_density_events == 0

    def test_mass_balance_per_step(self):
        # the window grows by one node per step; the mass changes only by
        # the inflow of the frozen ambient states: the ambient halves of the
        # two edge cells and the flux difference of the ambient states
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.3, v_inf=0.2,
                              width=0.3)
        params, _snaps, series = _duct_run(u0)
        dx, dt = params.dx, params.dt
        amb_l, amb_r = u0.ambient_left, u0.ambient_right
        inflow = dx * (amb_l.rho + amb_r.rho) - dt * (amb_r.m - amb_l.m)
        assert series.mass.size == params.n_steps + 1 > 10
        for n in range(params.n_steps):
            change = series.mass[n + 1] - series.mass[n]
            assert change == pytest.approx(inflow, abs=1e-12 * series.mass[n])


class TestNodeRow:
    def test_one_flux_per_step(self, monkeypatch):
        # each old node's flux is computed once, on the row of old nodes
        # around the new ones
        sizes = []
        flux = _traces.flux

        def counted(rho, *args):
            sizes.append(rho.size)
            return flux(rho, *args)

        monkeypatch.setattr(_traces, "flux", counted)
        u0 = GaussianBumpData(rho_inf=1.0, rho_amp=0.3, v_inf=0.2,
                              width=0.3)
        params, snaps, _series = _duct_run(u0)
        assert len(sizes) == params.n_steps > 10
        assert sizes == [rho.size + 1 for rho, _m in snaps[1:]]


class TestSeries:
    def test_series_are_the_node_totals(self):
        # compactly supported data in a bump nozzle: vacuum nodes at both
        # ends of every window
        dx = 0.025
        geom = NozzleGeometry.bump(0.12, X=1.0)
        b = BoundFunction.auto_for(geom, admissibility_constants(C14), dx=dx)
        xs = np.linspace(-0.8, 0.8, 41)
        rho = (1.0 - (xs / 0.8) ** 2) ** 2
        u0 = TableData(xs, rho, 0.3 * rho)
        params = SchemeParameters.create(dx=dx, M=select_M(u0, b, C14), b=b,
                                         T=0.05, c=C14)
        states = []

        def keep(n, xs, rho, m):
            states.append(StaggeredState(n=n, j0=round(xs[0] / dx),
                                         rho=rho.copy(), m=m.copy(), z=None,
                                         w=None))

        series = run_baseline(u0, params, geom, b, C14, snapshot_cb=keep)
        assert len(states) == series.ns.size == params.n_steps + 1 > 10
        for st in states:
            assert st.rho[0] == st.rho[-1] == 0.0
            areas = node_areas(st, params, get_bundle(geom, b))
            e = total_energy_nodes(st, areas, C14.gamma)
            mass = total_mass_nodes(st, areas)
            assert series.energy[st.n] == e and series.mass[st.n] == mass
