"""Exact Riemann solver for the homogeneous isentropic system.

Wave curves in the (z, w) plane: 1- and 2-rarefactions keep w resp. z
constant; shock curves follow the Rankine-Hugoniot velocity jump
v - v0 = -/+ sqrt((p - p0) / (rho rho0 (rho - rho0))) (rho - rho0).
The middle state is found by bracketed regula falsi (Illinois) on density
along the monotone curve intersection; vacuum middles arise when
w(uL) <= z(uR).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .gas import GasConstants, GasState, mechanical_pair

REGIONS = {
    (1, 1): "I",    # rarefaction + rarefaction
    (2, 1): "II",   # shock + rarefaction
    (2, 2): "III",  # shock + shock
    (1, 2): "IV",   # rarefaction + shock
}


class HugoniotError(ValueError):
    """The state pair does not lie on a Hugoniot locus."""

    def __init__(self, msg, residual):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class WaveCurveKind:
    family: int
    kind: str   # "rarefaction" | "shock" | "rarefaction-shock"

    def __post_init__(self):
        if self.family not in (1, 2):
            raise ValueError(f"family must be 1 or 2, got {self.family}")
        if self.kind not in ("rarefaction", "shock", "rarefaction-shock"):
            raise ValueError(f"unknown wave kind {self.kind!r}")


@dataclass(frozen=True)
class WaveDescriptor:
    kind: WaveCurveKind
    speed_lo: float
    speed_hi: float
    upstream: GasState
    downstream: GasState

    def __post_init__(self):
        if self.speed_lo > self.speed_hi:
            raise ValueError("speed_lo > speed_hi")


@dataclass(frozen=True)
class RiemannSolution:
    left: GasState
    right: GasState
    middle: GasState
    region: str
    wave1: WaveDescriptor
    wave2: WaveDescriptor
    constants: GasConstants
    _packed: np.ndarray

    @property
    def has_vacuum_middle(self):
        return self.middle.is_vacuum


def shock_velocity_jump(rho, rho0, c: GasConstants):
    """Signed velocity increment along a shock/inverse-shock curve.

    Returns sqrt((p(rho)-p(rho0)) / (rho rho0 (rho-rho0))) * (rho - rho0);
    callers apply the family sign (1-family: v = v0 - jump).
    """
    if rho0 <= 0.0 and rho <= 0.0:
        raise ValueError("both densities vanish; no Hugoniot locus")
    if rho < 0.0:
        raise ValueError(f"negative density {rho}")
    return _k.hjump_k(float(rho), float(rho0), c.gamma)


def lax_speed(rho, rho0, c: GasConstants):
    """S(rho, rho0) = sqrt(rho (p(rho)-p(rho0)) / (rho0 (rho-rho0))).

    Continuous at rho == rho0 with value sqrt(p'(rho0)).
    """
    if rho0 <= 0.0:
        raise ValueError(f"upstream density must be positive, got {rho0}")
    if rho < 0.0:
        raise ValueError(f"negative density {rho}")
    return _k.lax_S_k(float(rho), float(rho0), c.gamma)


def rh_speed(ul: GasState, ur: GasState, c: GasConstants):
    """Propagation speed from the Rankine-Hugoniot condition.

    Least-squares ratio of f(ur)-f(ul) against ur-ul, validated to lie on
    a Hugoniot locus within 1e-10 * (1 + |f|_inf).
    """
    du = np.array([ur.rho - ul.rho, ur.m - ul.m])
    fl = np.array(_k.flux_k(ul.rho, ul.m, c.gamma))
    fr = np.array(_k.flux_k(ur.rho, ur.m, c.gamma))
    df = fr - fl
    nn = float(du @ du)
    if nn == 0.0:
        raise ValueError("equal states carry no discontinuity speed")
    lam = float(df @ du) / nn
    resid = float(np.max(np.abs(df - lam * du)))
    fscale = 1.0 + float(np.max(np.abs(np.concatenate([fl, fr]))))
    if resid > 1e-10 * fscale:
        raise HugoniotError(
            f"pair is not on a Hugoniot locus (residual {resid:.3e})", resid)
    return lam


def entropy_admissible(ul: GasState, ur: GasState, lam, c: GasConstants,
                       slack=1e-12):
    """Entropy condition lam*[eta] - [q] >= 0 for the mechanical pair."""
    pl = mechanical_pair(ul, c)
    pr = mechanical_pair(ur, c)
    production = lam * (pr.eta - pl.eta) - (pr.q - pl.q)
    return production >= -slack


def _wave_descriptor(packed, family, ul, ur, c):
    th = c.theta
    if family == 1:
        kcode = int(packed[6])
        lo, hi = packed[8], packed[9]
        upstream, downstream = ul, GasState(packed[4], packed[4] * packed[5])
    else:
        kcode = int(packed[7])
        lo, hi = packed[10], packed[11]
        upstream, downstream = GasState(packed[4], packed[4] * packed[5]), ur
    if kcode == _k.W_SHOCK:
        kind = "shock"
    else:
        kind = "rarefaction"
        if kcode == _k.W_NONE:
            lam1, lam2 = _k.lambdas_k(upstream.rho, upstream.m, th)
            lo = hi = lam1 if family == 1 else lam2
    lo = max(lo, -1e308)
    hi = min(hi, 1e308)
    return WaveDescriptor(WaveCurveKind(family, kind), lo, hi,
                          upstream, downstream)


def solve_riemann(ul: GasState, ur: GasState, c: GasConstants) -> RiemannSolution:
    """Construct the unique self-similar solution of the Riemann problem."""
    for u in (ul, ur):
        if not (np.isfinite(u.rho) and np.isfinite(u.m)):
            raise ValueError("non-finite input state")
    packed = _k.riemann_solve_k(ul.rho, ul.m, ur.rho, ur.m, c.gamma, c.theta)
    mid = GasState(packed[4], packed[4] * packed[5])
    w1 = _wave_descriptor(packed, 1, ul, ur, c)
    w2 = _wave_descriptor(packed, 2, ul, ur, c)
    key1 = 2 if w1.kind.kind == "shock" else 1
    key2 = 2 if w2.kind.kind == "shock" else 1
    region = REGIONS[(key1, key2)]
    return RiemannSolution(ul, ur, mid, region, w1, w2, c, packed)


def sample(sol: RiemannSolution, xi) -> GasState:
    """Self-similar state at xi = x/t; downstream state at exact shocks."""
    rho, m = _k.riemann_sample_k(sol._packed, float(xi), sol.constants.theta)
    return GasState(rho, m)


def wave_breakpoints(sol: RiemannSolution):
    """Similarity speeds of every kink in the solution, sorted.  A wave next
    to a vacuum state has no kink on that side; the kernels mark it +-BIG."""
    p = sol._packed
    pts = [p[8], p[9], p[10], p[11]]
    return sorted(x for x in pts if abs(x) < _k.BIG)
