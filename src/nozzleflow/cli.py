"""Command-line interface: run, riemann, validate.

Config files are plain ``key = value`` text (``#`` comments).  Output files
are UTF-8 CSV with a header row and 17-significant-digit floats, plus a
JSON audit summary; identical configs produce byte-identical files.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from ._traces import invariants
from .baseline import run_baseline
from .diagnostics import EnergyMonitor, RecurrenceAuditor
from .errors import ConfigError
from .gas import GasConstants, GasState
from .initialdata import (GaussianBumpData, RiemannStepData,
                          load_initial_table)
from .nozzle import (BoundFunction, NozzleGeometry, admissibility_constants,
                     envelope, load_geometry_table, validate_condition)
from .riemann import sample, solve_riemann, wave_breakpoints
from .scheme import SchemeParameters, run, select_M

RH_HARD_THRESHOLD = 1e-9


def _fmt(x):
    return f"{float(x):.17g}"


_DEFAULTS = {
    "gamma": "1.4",
    "geometry": "constant",
    "geometry_eps": "0.1",
    "geometry_x": "1.0",
    "geometry_a0": "1.0",
    "geometry_table": "",
    "initial": "riemann-step",
    "rho_left": "1.0",
    "v_left": "0.0",
    "rho_right": "0.8",
    "v_right": "0.0",
    "x_step": "0.0",
    "rho_inf": "1.0",
    "rho_amp": "0.2",
    "v_inf": "0.0",
    "v_amp": "0.0",
    "center": "0.0",
    "width": "0.3",
    "initial_table": "",
    "m_bound": "auto",
    "dx": "0.02",
    "t_final": "0.05",
    "alpha": "0.8",
    "beta": "0.05",
    "delta": "auto",
    "mode": "modified",
    "out_dir": "out",
    "stride": "10",
    "cutoff": "on",
    "b_function": "auto",
    "b_margin": "0.01",
    "audit_slack": "1.0",
}


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    raw: dict
    constants: GasConstants
    geometry: NozzleGeometry
    bound: BoundFunction
    initial: object
    M: float
    params: SchemeParameters
    mode: str
    out_dir: str
    stride: int
    cutoff: bool
    audit_slack: float


def _parse_kv(path):
    vals = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            k, v = line.split("=", 1)
            k = k.strip().lower().replace("-", "_")
            if k not in _DEFAULTS:
                raise ConfigError(f"{path}:{ln}: unknown key {k!r}")
            vals[k] = v.strip()
    return vals


def _getf(d, key):
    try:
        return float(d[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {d[key]!r}")


def parse_config(path, overrides=None) -> RunConfig:
    """Parse and fully resolve a config file; defaults fill missing keys."""
    d = dict(_DEFAULTS)
    d.update(_parse_kv(path))
    if overrides:
        d.update({k: str(v) for k, v in overrides.items() if v is not None})

    gamma = _getf(d, "gamma")
    try:
        c = GasConstants.for_gamma(gamma)
    except ValueError as e:
        raise ConfigError(f"key 'gamma': {e}")

    gkind = d["geometry"].lower()
    X = _getf(d, "geometry_x")
    A0 = _getf(d, "geometry_a0")
    if gkind == "constant":
        geom = NozzleGeometry.constant(A0=A0, X=X)
    elif gkind == "bump":
        geom = NozzleGeometry.bump(_getf(d, "geometry_eps"), X=X, A0=A0)
    elif gkind == "laval":
        geom = NozzleGeometry.laval(_getf(d, "geometry_eps"), X=X, A0=A0)
    elif gkind == "table":
        if not d["geometry_table"]:
            raise ConfigError("geometry = table requires geometry_table")
        xs, As = load_geometry_table(d["geometry_table"])
        geom = NozzleGeometry.from_table(xs, As, X=X)
    else:
        raise ConfigError(f"key 'geometry': unknown family {gkind!r}")

    ikind = d["initial"].lower()
    if ikind == "riemann-step":
        u0 = RiemannStepData(_getf(d, "rho_left"), _getf(d, "v_left"),
                             _getf(d, "rho_right"), _getf(d, "v_right"),
                             _getf(d, "x_step"))
    elif ikind == "gaussian-density":
        u0 = GaussianBumpData(rho_inf=_getf(d, "rho_inf"),
                              rho_amp=_getf(d, "rho_amp"),
                              v_inf=_getf(d, "v_inf"),
                              center=_getf(d, "center"),
                              width=_getf(d, "width"))
    elif ikind == "gaussian-velocity":
        u0 = GaussianBumpData(rho_inf=_getf(d, "rho_inf"),
                              v_inf=_getf(d, "v_inf"),
                              v_amp=_getf(d, "v_amp"),
                              center=_getf(d, "center"),
                              width=_getf(d, "width"))
    elif ikind == "table":
        if not d["initial_table"]:
            raise ConfigError("initial = table requires initial_table")
        u0 = load_initial_table(d["initial_table"])
    else:
        raise ConfigError(f"key 'initial': unknown profile {ikind!r}")

    ad = admissibility_constants(c)
    bkind = d["b_function"].lower()
    dx = _getf(d, "dx")
    if dx <= 0:
        raise ConfigError("key 'dx': must be positive")
    if bkind == "auto":
        b = BoundFunction.auto_for(geom, ad, dx, margin=_getf(d, "b_margin"))
    elif bkind == "zero":
        b = BoundFunction.zero(domain=(-X - 1.0, X + 1.0))
    elif bkind.startswith("const:"):
        parts = bkind.split(":")
        if len(parts) != 4:
            raise ConfigError("b_function = const:VALUE:LO:HI")
        val, lo, hi = (float(p) for p in parts[1:])
        b = BoundFunction.piecewise_constant([lo, hi], [val])
    else:
        raise ConfigError(f"key 'b_function': unknown spec {bkind!r}")

    if d["m_bound"].lower() == "auto":
        M = select_M(u0, b, c)
    else:
        M = _getf(d, "m_bound")
    delta = None if d["delta"].lower() == "auto" else _getf(d, "delta")
    try:
        params = SchemeParameters.create(
            dx=dx, M=M, b=b, T=_getf(d, "t_final"), c=c,
            alpha=_getf(d, "alpha"), beta=_getf(d, "beta"), delta=delta)
    except ConfigError:
        raise
    mode = d["mode"].lower()
    if mode not in ("modified", "baseline-lf"):
        raise ConfigError(f"key 'mode': must be modified|baseline-lf")
    cutoff = d["cutoff"].lower() in ("on", "1", "true", "yes")
    return RunConfig(raw=d, constants=c, geometry=geom, bound=b, initial=u0,
                     M=M, params=params, mode=mode, out_dir=d["out_dir"],
                     stride=max(1, int(float(d["stride"]))),
                     cutoff=cutoff, audit_slack=_getf(d, "audit_slack"))


class SnapshotWriter:
    """Per-node CSV snapshots every `stride` steps, in both modes: an
    observer of the modified scheme and the baseline's snapshot callback."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    def write(self, n, xs, rho, m, z, w):
        """One snapshot: a row per node, with the envelope bounds at x."""
        cfg = self.cfg
        lo, up = envelope(cfg.params.M, cfg.bound, xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(rho > 0, m / rho, 0.0)
        path = os.path.join(cfg.out_dir, f"snapshot_{cfg.mode}_{n:05d}.csv")
        cols = (col.tolist() for col in (xs, rho, m, v, z, w, lo, up))
        _write_csv(path, "t,x,rho,m,v,z,w,lower,upper",
                   ",".join(["%.17g"] * 9),
                   zip(repeat(n * cfg.params.dt), *cols))

    def on_start(self, state, ctx):
        self._emit(state)

    def on_step(self, prev, new, record):
        if new.n % self.cfg.stride == 0:
            self._emit(new)

    def _emit(self, state):
        self.write(state.n, state.js * self.cfg.params.dx, state.rho,
                   state.m, state.z, state.w)

    def __call__(self, n, xs, rho, m):
        """``run_baseline``'s snapshot callback."""
        if n % self.cfg.stride == 0:
            z, w = invariants(np.maximum(rho, 0.0), m,
                              self.cfg.constants.theta)
            self.write(n, xs, rho, m, z, w)


# the columns of energy_modified.csv: EnergyReport fields
_ENERGY_COLUMNS = ("n", "t", "total_energy", "total_mass", "energy_bound",
                   "slack", "clamp_count", "vacuum_count", "max_rh_residual",
                   "max_envelope_violation", "max_pre_violation", "jump_sum")


def _write_csv(path, header, row_fmt, rows):
    """The package's one CSV writer: the header line, then ``row_fmt % row``
    for every row (floats as ``%.17g``, step numbers as ``%d``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_fmt % row + "\n")


def _maybe_write_comparison(out_dir):
    pm = os.path.join(out_dir, "energy_modified.csv")
    pb = os.path.join(out_dir, "energy_baseline-lf.csv")
    if not (os.path.exists(pm) and os.path.exists(pb)):
        return None
    rows_m = np.genfromtxt(pm, delimiter=",", names=True, ndmin=1)
    rows_b = np.genfromtxt(pb, delimiter=",", names=True, ndmin=1)
    n = min(rows_m.shape[0], rows_b.shape[0])
    e_m = rows_m["total_energy"][:n]
    e_b = rows_b["total_energy"][:n]
    path = os.path.join(out_dir, "energy_comparison.csv")
    _write_csv(path, "n,t,energy_modified,energy_baseline,difference",
               "%d" + ",%.17g" * 4,
               zip(*(col.tolist() for col in (rows_m["n"][:n], rows_m["t"][:n],
                                              e_m, e_b, e_m - e_b))))
    return path


def cmd_run(cfg: RunConfig, quiet=False):
    """Run the configured scheme; emit snapshots, energy series, audit."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    ad = admissibility_constants(cfg.constants)
    rep = validate_condition(cfg.geometry, cfg.bound, ad)
    if not rep.passed:
        print("\n".join(rep.lines()), file=sys.stderr)
        print("admissibility condition failed; aborting", file=sys.stderr)
        return 1

    writer = SnapshotWriter(cfg)
    if cfg.mode == "baseline-lf":
        _xs, _rho, _m, series = run_baseline(
            cfg.initial, cfg.params, cfg.geometry, cfg.bound, cfg.constants,
            cutoff=cfg.cutoff, snapshot_cb=writer)
        columns = ("n", "t", "total_energy", "total_mass")
        rows = zip(*(col.tolist() for col in
                     (series.ns, series.ts, series.energy, series.mass)))
        summary = {
            "mode": "baseline-lf",
            "note": "plain staggered Lax-Friedrichs comparison baseline; "
                    "not the modified scheme",
            "steps": int(series.ns[-1]),
            "negative_density_events": series.negative_density_events,
            "final_energy": series.energy[-1],
            "initial_energy": series.energy[0],
        }
        hard_fail = False
        message = (f"baseline-lf run complete: {series.ns[-1]} steps, "
                   f"energy {series.energy[0]:.6g} -> "
                   f"{series.energy[-1]:.6g}")
    else:
        monitor = EnergyMonitor()
        auditor = RecurrenceAuditor(slack_coeff=cfg.audit_slack)
        run(cfg.initial, cfg.params, cfg.geometry, cfg.bound, cfg.constants,
            observers=(monitor, auditor, writer), cutoff=cfg.cutoff)
        columns = _ENERGY_COLUMNS
        rows = map(attrgetter(*columns), monitor.reports)
        worst_env = max(r.max_envelope_violation for r in monitor.reports)
        worst_rh = max(r.max_rh_residual for r in monitor.reports)
        summary = {
            "mode": "modified",
            "steps": cfg.params.n_steps,
            "dx": cfg.params.dx,
            "dt": cfg.params.dt,
            "M": cfg.M,
            "min_energy_slack": monitor.min_slack,
            "max_envelope_violation": worst_env,
            "max_rh_residual": worst_rh,
            "max_pre_projection_violation":
                max(r.max_pre_violation for r in monitor.reports),
            "clamp_events": sum(r.clamp_count for r in monitor.reports),
            "vacuum_events": sum(r.vacuum_count for r in monitor.reports),
            "worst_recurrence_violation_raw": auditor.worst_raw,
            "worst_recurrence_violation_slacked": auditor.worst_slacked,
            "jump_sum": monitor.reports[-1].jump_sum,
            "jump_flag": bool(any(r.jump_flag for r in monitor.reports)),
        }
        hard_fail = worst_env > 0.0 or worst_rh > RH_HARD_THRESHOLD
        message = (f"modified run complete: {cfg.params.n_steps} steps, "
                   f"min slack {monitor.min_slack:.3e}, "
                   f"max RH residual {worst_rh:.3e}, "
                   f"envelope violation {worst_env:.3e}")
    _write_csv(os.path.join(cfg.out_dir, f"energy_{cfg.mode}.csv"),
               ",".join(columns), "%d" + ",%.17g" * (len(columns) - 1), rows)
    with open(os.path.join(cfg.out_dir, f"audit_{cfg.mode}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    _maybe_write_comparison(cfg.out_dir)
    if not quiet:
        print(message)
        if hard_fail:
            print("AUDIT HARD FAILURE", file=sys.stderr)
    return 2 if hard_fail else 0


def _parse_state(text):
    try:
        rho, v = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"state must be 'rho,v', got {text!r}")
    return GasState.from_primitive(rho, v)


def cmd_riemann(args):
    """Solve one Riemann problem and print the sampled profile."""
    if not args.t > 0.0:
        raise ConfigError(f"--t must be positive, got {args.t}")
    c = GasConstants.for_gamma(args.gamma)
    ul = _parse_state(args.left)
    ur = _parse_state(args.right)
    sol = solve_riemann(ul, ur, c)
    print(f"region        : {sol.region}")
    print(f"middle state  : rho={_fmt(sol.middle.rho)} m={_fmt(sol.middle.m)}"
          f" v={_fmt(sol.middle.v)}")
    for w, name in ((sol.wave1, "1-wave"), (sol.wave2, "2-wave")):
        print(f"{name}        : {w.kind.kind}  speeds "
              f"[{_fmt(w.speed_lo)}, {_fmt(w.speed_hi)}]")
    pts = wave_breakpoints(sol)
    if pts:
        lo = min(pts) - 0.2 * (1 + max(pts) - min(pts))
        hi = max(pts) + 0.2 * (1 + max(pts) - min(pts))
    else:
        lo, hi = -1.0, 1.0
    t = args.t
    print(f"profile at t = {_fmt(t)}")
    print("x,rho,m,v")
    for xi in np.linspace(lo, hi, args.samples):
        u = sample(sol, xi)
        print(",".join(_fmt(v) for v in (xi * t, u.rho, u.m, u.v)))
    return 0


def cmd_validate(cfg: RunConfig):
    """Print the admissibility report and the data bound M."""
    ad = admissibility_constants(cfg.constants)
    rep = validate_condition(cfg.geometry, cfg.bound, ad)
    for line in rep.lines():
        print(line)
    print(f"M (data bound)     = {_fmt(cfg.M)}")
    print(f"dx                 = {_fmt(cfg.params.dx)}")
    print(f"dt                 = {_fmt(cfg.params.dt)}")
    return 0 if rep.passed else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="nozzleflow",
        description="Modified staggered Lax-Friedrichs solver for 1D "
                    "isentropic nozzle flow")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--mode", choices=["modified", "baseline-lf"],
                       default=None)
    p_run.add_argument("--stride", type=int, default=None)
    p_run.add_argument("--dx", type=float, default=None)
    p_run.add_argument("--t-final", type=float, default=None)

    p_rie = sub.add_parser("riemann", help="solve one Riemann problem")
    p_rie.add_argument("--left", required=True, help="rho,v")
    p_rie.add_argument("--right", required=True, help="rho,v")
    p_rie.add_argument("--gamma", type=float, default=1.4)
    p_rie.add_argument("--t", type=float, default=0.2)
    p_rie.add_argument("--samples", type=int, default=21)

    p_val = sub.add_parser("validate", help="check the admissibility "
                                            "condition for a config")
    p_val.add_argument("--config", required=True)

    args = ap.parse_args(argv)
    try:
        if args.command == "riemann":
            return cmd_riemann(args)
        overrides = {}
        if args.command == "run":
            overrides = {"out_dir": args.out, "mode": args.mode,
                         "stride": args.stride, "dx": args.dx,
                         "t_final": args.t_final}
        cfg = parse_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_validate(cfg)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
