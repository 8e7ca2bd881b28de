"""Plain staggered Lax-Friedrichs scheme with pointwise source evaluation.

Comparison baseline only: no steady profiles, no rarefaction fans, no
invariant projection.  This is NOT the modified scheme; it ignores the
well-balancing machinery entirely.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from . import _traces
from .diagnostics import RunNodeAreas, total_energy_nodes, total_mass_nodes
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
    """March the baseline scheme; returns its BaselineSeries."""
    dx, dt = params.dx, params.dt
    g = c.gamma
    bundle = get_bundle(geom, b)
    js, rho, m, mesh = initial_averages(u0, params, geom, cutoff)
    # the baseline carries no invariants
    state = StaggeredState(n=0, j0=int(js[0]), rho=rho, m=m, z=None, w=None)
    neg = 0
    energy = []
    mass = []
    areas_of = RunNodeAreas(params, bundle)

    def record(state):
        """Append the node totals of a state; pass it to the snapshot
        callback."""
        areas = areas_of(state)
        energy.append(total_energy_nodes(state, areas, g))
        mass.append(total_mass_nodes(state, areas))
        if snapshot_cb is not None:
            snapshot_cb(state.n, state.js * dx, state.rho, state.m)

    N = params.n_steps
    record(state)
    for n in range(N):
        j_lo, j_hi = _window_bounds(n + 1, mesh.W0)
        js = np.arange(j_lo, j_hi + 1, 2)
        # the row of old nodes: new node i lies between entries i and i + 1
        r0, m0 = gather_neighbors(state, js, mesh)
        f1, f2 = _traces.flux(r0, m0, g)
        a = geom.a(np.arange(j_lo - 1, j_hi + 2, 2) * dx)
        s1, s2 = _traces.source(a, r0, m0)
        rho = 0.5 * (r0[:-1] + r0[1:]) - 0.5 * dt / dx * (f1[1:] - f1[:-1]) \
            + 0.5 * dt * (s1[:-1] + s1[1:])
        m = 0.5 * (m0[:-1] + m0[1:]) - 0.5 * dt / dx * (f2[1:] - f2[:-1]) \
            + 0.5 * dt * (s2[:-1] + s2[1:])
        floor = rho <= _k.RHO_FLOOR
        neg += int(np.count_nonzero(rho < 0.0))
        rho = np.where(floor, 0.0, rho)
        m = np.where(floor, 0.0, m)
        state = StaggeredState(n=n + 1, j0=int(js[0]), rho=rho, m=m, z=None,
                               w=None)
        record(state)
    ns = np.arange(N + 1)
    return BaselineSeries(ns, ns * dt, np.array(energy), np.array(mass), neg)
