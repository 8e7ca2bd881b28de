"""Plain staggered Lax-Friedrichs scheme with pointwise source evaluation.

Comparison baseline only: no steady profiles, no rarefaction fans, no
invariant projection.  This is NOT the modified scheme; it ignores the
well-balancing machinery entirely.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from . import _traces
from .diagnostics import node_areas
from .gas import GasConstants
from .nozzle import BoundFunction, NozzleGeometry, get_bundle
from .scheme import (SchemeParameters, StaggeredState, _window_bounds,
                     gather_neighbors, initial_averages)


@dataclass
class BaselineSeries:
    ns: np.ndarray
    ts: np.ndarray
    energy: np.ndarray
    mass: np.ndarray
    negative_density_events: int


def run_baseline(u0, params: SchemeParameters, geom: NozzleGeometry,
                 b: BoundFunction, c: GasConstants, cutoff=True,
                 snapshot_cb=None):
    """March the baseline scheme; returns (xs, rho, m, BaselineSeries)."""
    dx, dt = params.dx, params.dt
    g = c.gamma
    bundle = get_bundle(geom, b)
    js, rho, m, mesh = initial_averages(u0, params, geom, cutoff)
    # the baseline carries no invariants
    state = StaggeredState(n=0, j0=int(js[0]), rho=rho, m=m, z=None, w=None)
    neg = 0

    def totals(state):
        r = np.maximum(state.rho, 0.0)
        eta, _q = _traces.eta_q(r, state.m, g)
        areas = node_areas(state, params, bundle)
        return (_traces.sequential_sum(eta * areas),
                _traces.sequential_sum(r * areas))

    def source(a, rho, m):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.where(rho > 0, a * m, 0.0),
                    np.where(rho > 0, a * m * m / rho, 0.0))

    N = params.n_steps
    ns = [0]
    ts = [0.0]
    e0, m0 = totals(state)
    energy = [e0]
    mass = [m0]
    if snapshot_cb is not None:
        snapshot_cb(0, js * dx, rho, m)
    for n in range(N):
        j_lo, j_hi = _window_bounds(n + 1, mesh.W0)
        js = np.arange(j_lo, j_hi + 1, 2)
        rl, ml, rr, mr = gather_neighbors(state, js, mesh)
        f1l, f2l = _traces.flux(rl, ml, g)
        f1r, f2r = _traces.flux(rr, mr, g)
        # a at the old nodes (j - 1) dx and (j + 1) dx of every new node j
        a = geom.a(np.arange(j_lo - 1, j_hi + 2, 2) * dx)
        s1l, s2l = source(a[:-1], rl, ml)
        s1r, s2r = source(a[1:], rr, mr)
        rho = 0.5 * (rl + rr) - 0.5 * dt / dx * (f1r - f1l) \
            + 0.5 * dt * (s1l + s1r)
        m = 0.5 * (ml + mr) - 0.5 * dt / dx * (f2r - f2l) \
            + 0.5 * dt * (s2l + s2r)
        floor = rho <= _k.RHO_FLOOR
        neg += int(np.count_nonzero(rho < 0.0))
        rho = np.where(floor, 0.0, rho)
        m = np.where(floor, 0.0, m)
        state = StaggeredState(n=n + 1, j0=int(js[0]), rho=rho, m=m, z=None,
                               w=None)
        e, ms = totals(state)
        ns.append(n + 1)
        ts.append((n + 1) * dt)
        energy.append(e)
        mass.append(ms)
        if snapshot_cb is not None:
            snapshot_cb(n + 1, js * dx, rho, m)
    series = BaselineSeries(np.array(ns), np.array(ts), np.array(energy),
                            np.array(mass), neg)
    return js * dx, rho, m, series
