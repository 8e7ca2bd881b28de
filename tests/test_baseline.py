import numpy as np
import pytest

from nozzleflow import GasConstants, select_M
from nozzleflow.baseline import run_baseline
from nozzleflow.initialdata import GaussianBumpData, RiemannStepData
from nozzleflow.nozzle import BoundFunction, NozzleGeometry
from nozzleflow.scheme import SchemeParameters

C14 = GasConstants.for_gamma(1.4)


def _duct_run(u0, T=0.2, dx=0.05):
    geom = NozzleGeometry.constant(X=1.0)
    b = BoundFunction.zero(domain=(-2.0, 2.0))
    params = SchemeParameters.create(dx=dx, M=select_M(u0, b, C14), b=b,
                                     T=T, c=C14)
    snaps = []
    _xs, _rho, _m, series = run_baseline(
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
