"""Equation of state, state algebra, Riemann invariants, mechanical entropy.

States are conserved pairs (rho, m) of a gamma-law isentropic gas with
p(rho) = rho^gamma / gamma, gamma in (1, 5/3].  The Riemann invariants
z = v - rho^theta/theta and w = v + rho^theta/theta (theta = (gamma-1)/2)
diagonalize the system; bounds on (z, w) bound rho and |v|.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from . import _traces

VACUUM_RHO = _k.RHO_FLOOR   # densities below this are normalized to vacuum


@dataclass(frozen=True)
class GasConstants:
    """Adiabatic exponent and the derived invariant exponent theta."""

    gamma: float
    theta: float

    def __post_init__(self):
        if not 1.0 < self.gamma <= 5.0 / 3.0:
            raise ValueError(f"gamma must lie in (1, 5/3], got {self.gamma}")
        if self.theta != (self.gamma - 1.0) / 2.0:
            raise ValueError("theta must equal (gamma - 1)/2 exactly")

    @classmethod
    def for_gamma(cls, gamma):
        return cls(gamma=float(gamma), theta=(float(gamma) - 1.0) / 2.0)


@dataclass(frozen=True)
class GasState:
    """Conserved pair (density, momentum).  Near-vacuum is normalized."""

    rho: float
    m: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "m", float(self.m))
        if not np.isfinite(self.rho) or not np.isfinite(self.m):
            raise ValueError(f"non-finite state ({self.rho}, {self.m})")
        if self.rho < 0.0:
            raise ValueError(f"negative density {self.rho}")
        if self.rho < VACUUM_RHO:
            object.__setattr__(self, "rho", 0.0)
            object.__setattr__(self, "m", 0.0)

    @property
    def v(self):
        return self.m / self.rho if self.rho > 0.0 else 0.0

    @property
    def is_vacuum(self):
        return self.rho == 0.0

    @classmethod
    def from_primitive(cls, rho, v):
        rho = float(rho)
        return cls(rho, rho * float(v))


@dataclass(frozen=True)
class InvariantPair:
    """Riemann invariants (z, w); w >= z corresponds to rho >= 0."""

    z: float
    w: float

    def __post_init__(self):
        if self.w < self.z:
            raise ValueError(f"invalid invariants: w={self.w} < z={self.z}")


@dataclass(frozen=True)
class EntropyPairValue:
    eta: float
    q: float


def pressure(rho, c: GasConstants):
    """p(rho) = rho^gamma / gamma."""
    if rho < 0.0:
        raise ValueError(f"negative density {rho}")
    return _k.pressure_k(float(rho), c.gamma)


def to_invariants(u: GasState, c: GasConstants) -> InvariantPair:
    """Map (rho, m) to (z, w); vacuum maps to (0, 0)."""
    z, w = _k.invariants_k(u.rho, u.m, c.theta)
    return InvariantPair(z, w)


def from_invariants(p: InvariantPair, c: GasConstants) -> GasState:
    """Map (z, w) back to (rho, m) via rho = (theta (w - z)/2)^(1/theta).

    Powers are evaluated through exp/log, so the round trip with
    to_invariants holds to 1e-12 relative, not exactly.
    """
    rho, m = _k.state_k(p.z, p.w, c.theta)
    return GasState(rho, m)


def flux(u: GasState, c: GasConstants):
    """f(u) = (m, m^2/rho + p(rho)); vacuum gives (0, 0)."""
    return np.array(_k.flux_k(u.rho, u.m, c.gamma))


def source(x, u: GasState, a):
    """g(x, u) = (a(x) m, a(x) m^2 / rho) for the nozzle coefficient a:
    :func:`nozzleflow._traces.source` of one-element arrays."""
    s1, s2 = _traces.source(np.array([float(a(x))]), np.array([u.rho]),
                            np.array([u.m]))
    return np.concatenate([s1, s2])


def mechanical_pair(u: GasState, c: GasConstants) -> EntropyPairValue:
    """The mechanical energy / energy-flux pair (weak entropy)."""
    eta, q = _k.eta_q_k(u.rho, u.m, c.gamma)
    return EntropyPairValue(eta, q)


def characteristic_speeds(u: GasState, c: GasConstants):
    """(lam1, lam2) = (v - rho^theta, v + rho^theta); vacuum gives (0, 0)."""
    return _k.lambdas_k(u.rho, u.m, c.theta)

