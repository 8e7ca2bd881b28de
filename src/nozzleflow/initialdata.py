"""Initial-data profiles with exact cell averaging.

Each profile exposes ``eval(x)`` (vectorized), ``average(a, b)`` returning
the exact mean of (rho, m) over [a, b], the constant far-field states, and
``extent``, beyond which the data are constant.
"""

import math

import numpy as np

from .gas import GasState
from .nozzle import read_table

_SQRT_PI = math.sqrt(math.pi)


class RiemannStepData:
    """Two constant states separated at x0."""

    def __init__(self, rho_l, v_l, rho_r, v_r, x0=0.0):
        self.left = GasState.from_primitive(rho_l, v_l)
        self.right = GasState.from_primitive(rho_r, v_r)
        self.x0 = float(x0)
        self.extent = abs(self.x0) + 1.0

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.where(x < self.x0, self.left.rho, self.right.rho)
        m = np.where(x < self.x0, self.left.m, self.right.m)
        return rho, m

    def average(self, a, b):
        if b <= self.x0:
            return self.left.rho, self.left.m
        if a >= self.x0:
            return self.right.rho, self.right.m
        wl = (self.x0 - a) / (b - a)
        wr = 1.0 - wl
        return (wl * self.left.rho + wr * self.right.rho,
                wl * self.left.m + wr * self.right.m)

    @property
    def ambient_left(self):
        return self.left

    @property
    def ambient_right(self):
        return self.right


class GaussianBumpData:
    """Constant background with Gaussian bumps in density and/or velocity.

    rho(x) = rho_inf + rho_amp * exp(-((x-center)/width)^2)
    v(x)   = v_inf + v_amp * exp(-((x-center)/width)^2)

    Averages are exact (erf) when only one of the bumps is active, and use
    the closed form of the product of the two Gaussians otherwise.
    """

    def __init__(self, rho_inf, rho_amp=0.0, v_inf=0.0, v_amp=0.0,
                 center=0.0, width=0.3):
        if rho_inf < 0.0 or rho_inf + min(0.0, rho_amp) < 0.0:
            raise ValueError("density must stay nonnegative")
        if not width > 0.0:
            raise ValueError(f"width must be positive, got {width}")
        self.rho_inf = float(rho_inf)
        self.rho_amp = float(rho_amp)
        self.v_inf = float(v_inf)
        self.v_amp = float(v_amp)
        self.center = float(center)
        self.width = float(width)
        self.extent = abs(center) + 9.0 * self.width

    def _g(self, x):
        return np.exp(-((x - self.center) / self.width) ** 2)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        g = self._g(x)
        rho = self.rho_inf + self.rho_amp * g
        v = self.v_inf + self.v_amp * g
        return rho, rho * v

    def _int_g(self, a, b, scale=1.0):
        # integral of exp(-scale ((x-c)/w)^2) over [a, b]
        w = self.width / math.sqrt(scale)
        za = (a - self.center) / w
        zb = (b - self.center) / w
        return 0.5 * _SQRT_PI * w * (math.erf(zb) - math.erf(za))

    def average(self, a, b):
        L = b - a
        i_g = self._int_g(a, b)
        i_g2 = self._int_g(a, b, 2.0)
        rho_int = self.rho_inf * L + self.rho_amp * i_g
        m_int = (self.rho_inf * self.v_inf * L
                 + (self.rho_inf * self.v_amp + self.rho_amp * self.v_inf) * i_g
                 + self.rho_amp * self.v_amp * i_g2)
        return rho_int / L, m_int / L

    @property
    def ambient_left(self):
        return GasState.from_primitive(self.rho_inf, self.v_inf)

    ambient_right = ambient_left


class TableData:
    """Piecewise-linear (x, rho, m) samples; constant beyond the table."""

    def __init__(self, xs, rho, m):
        self.xs = np.asarray(xs, dtype=float)
        self.rho = np.asarray(rho, dtype=float)
        self.m = np.asarray(m, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(self.xs) <= 0.0):
            raise ValueError("x samples must be strictly increasing")
        if np.any(self.rho < 0.0):
            raise ValueError("negative density in table")
        self.extent = float(max(abs(self.xs[0]), abs(self.xs[-1])))

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.interp(x, self.xs, self.rho)
        m = np.interp(x, self.xs, self.m)
        return rho, m

    def average(self, a, b):
        # exact integral of the piecewise-linear interpolant (trapezoid on
        # the union of sample points and the interval ends)
        pts = self.xs[(self.xs > a) & (self.xs < b)]
        grid = np.concatenate([[a], pts, [b]])
        rho = np.interp(grid, self.xs, self.rho)
        m = np.interp(grid, self.xs, self.m)
        w = np.diff(grid)
        ir = float(np.sum(0.5 * (rho[1:] + rho[:-1]) * w))
        im = float(np.sum(0.5 * (m[1:] + m[:-1]) * w))
        return ir / (b - a), im / (b - a)

    @property
    def ambient_left(self):
        return GasState(self.rho[0], self.m[0])

    @property
    def ambient_right(self):
        return GasState(self.rho[-1], self.m[-1])


def load_initial_table(path):
    """Three-column numeric text (x, rho, m), header optional."""
    arr = read_table(path, 3)
    return TableData(arr[:, 0], arr[:, 1], arr[:, 2])
