"""The benchmark's three workloads: inputs from a seed, set-up, rounds.

Every workload repeats whole rounds of the same operations on inputs that
depend only on the seed.  A round returns its timed seconds, the work done
in them and one error (or None) per operation; the checks in ``checks``
run outside the timed part.

* ``nozzle-cli``: ``nozzleflow run`` through ``cli.main`` on compact-support
  table data in a bump and a Laval nozzle, snapshots every step, each
  modified run followed by a ``baseline-lf`` run of the same config.  An
  operation is one ``nozzleflow run``; the work is the cells built.
* ``duct-stepping``: bare ``scheme.advance`` steps in a straight duct
  (b = 0, cutoff off) on a mirror-symmetric Gaussian density bump.  An
  operation is one step; the work is the cells built.
* ``riemann-batch``: ``riemann.solve_riemann`` and ``riemann.sample`` on
  generated problems at gamma = 1.2, 1.4 and 5/3.  An operation is one
  problem solved and sampled.
"""

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

import checks
from nozzleflow import cli, initialdata, nozzle, riemann, scheme
from nozzleflow.gas import GasConstants, GasState

GAMMAS = (1.2, 1.4, 5.0 / 3.0)


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# nozzle-cli
# ---------------------------------------------------------------------------

NOZZLE_DX = 0.0125
NOZZLE_T_FINAL = 0.07
NOZZLE_GAMMA = 1.4


def nozzle_inputs(seed, work):
    """Write the seed's initial table and one config per nozzle family.

    The data are a compactly supported bump in density and velocity,
    rho = A phi, v = V phi with phi = (1 - ((x - c)/L)^2)^2 on |x - c| < L
    and vacuum elsewhere, tabulated on 241 points of [-1.2, 1.2].
    """
    rng = np.random.default_rng([seed, 1])
    amp = _uniform(rng, 0.9, 1.0)
    vel = _uniform(rng, -0.2, 0.2)
    half = _uniform(rng, 0.95, 1.05)
    centre = _uniform(rng, -0.05, 0.05)
    eps = {"bump": _uniform(rng, 0.10, 0.12),
           "laval": _uniform(rng, 0.08, 0.10)}
    xs = np.linspace(-1.2, 1.2, 241)
    phi = np.clip(1.0 - ((xs - centre) / half) ** 2, 0.0, None) ** 2
    rho = amp * phi
    os.makedirs(work, exist_ok=True)
    table = os.path.join(work, "initial.csv")
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("x,rho,m\n")
        for row in zip(xs.tolist(), rho.tolist(), (rho * vel * phi).tolist()):
            fh.write(",".join(map(repr, row)) + "\n")
    configs = []
    for kind in ("bump", "laval"):
        path = os.path.join(work, f"{kind}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"gamma = {NOZZLE_GAMMA!r}\n"
                     f"geometry = {kind}\n"
                     f"geometry_eps = {eps[kind]!r}\n"
                     f"initial = table\n"
                     f"initial_table = {table}\n"
                     f"dx = {NOZZLE_DX!r}\n"
                     f"t_final = {NOZZLE_T_FINAL!r}\n"
                     f"stride = 1\n")
        configs.append({"kind": kind, "eps": eps[kind], "config": path})
    return {"configs": configs}


def nozzle_setup(inputs):
    """What `nozzleflow run` does before its first step, for the first
    config: parse and resolve it (bound function, select_M), build the
    kernel bundle, initialize."""
    cfg = cli.parse_config(inputs["configs"][0]["config"])
    nozzle.get_bundle(cfg.geometry, cfg.bound)
    scheme.initialize(cfg.initial, cfg.params, cfg.geometry, cfg.bound,
                      cfg.constants, cutoff=cfg.cutoff)
    return cfg


class NozzleCli:
    def __init__(self, inputs, work):
        self.configs = inputs["configs"]
        self.work = work
        self.digests = {}
        self.stepping = 0.0

    @contextlib.contextmanager
    def _timed_stepping(self):
        """Time `scheme.run` as `cmd_run` calls it: the stepping of a
        modified run, its observers included."""
        orig = cli.run

        def timed_run(*a, **kw):
            t0 = time.perf_counter()
            try:
                return orig(*a, **kw)
            finally:
                self.stepping += time.perf_counter() - t0
        cli.run = timed_run
        try:
            yield
        finally:
            cli.run = orig

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), self._timed_stepping():
            try:
                return cli.main(argv), None
            except Exception as e:        # counted as a failed operation
                return None, f"{type(e).__name__}: {e}"

    def round(self, k):
        seconds, cells, errors, wrong, snap_bytes = 0.0, 0, [], 0, 0
        self.stepping = 0.0
        for cfg in self.configs:
            out = os.path.join(self.work, f"round{k}_{cfg['kind']}")
            argv = ["run", "--config", cfg["config"], "--out", out]
            t0 = time.perf_counter()
            ran = (self._main(argv),
                   self._main(argv + ["--mode", "baseline-lf"]))
            seconds += time.perf_counter() - t0
            digest = checks.tree_digest(out)
            first = self.digests.setdefault(cfg["kind"], digest)
            for baseline, (rc, exc) in zip((False, True), ran):
                mode = "baseline" if baseline else "modified"
                label = f"{cfg['kind']} {mode}"
                # exit status 2 is the CLI's own audit failure: wrong output
                if exc or rc not in ((0,) if baseline else (0, 2)):
                    errors.append(f"{label}: {exc or f'exit status {rc}'}")
                    continue
                if baseline:
                    found = checks.check_baseline_run(out)
                else:
                    found, n = checks.check_modified_run(
                        out, NOZZLE_GAMMA, cfg["kind"], cfg["eps"], NOZZLE_DX)
                    found += [f"exit status {rc}"] if rc else []
                    cells += n
                found += checks.check_identical(
                    *(checks.mode_files(d, baseline) for d in (first, digest)))
                wrong += bool(found)
                errors.append(found and f"{label}: {'; '.join(found)}" or None)
            snap_bytes += sum(os.path.getsize(os.path.join(out, n))
                              for n in digest if n.startswith("snapshot_"))
            shutil.rmtree(out, ignore_errors=True)
        return {"seconds": seconds, "stepping": self.stepping,
                "work": cells, "errors": errors, "wrong": wrong,
                "snapshot_bytes": snap_bytes}


# ---------------------------------------------------------------------------
# duct-stepping
# ---------------------------------------------------------------------------

DUCT_DX = 0.02
DUCT_STEPS = 60


def duct_inputs(seed, work):
    """A Gaussian density bump at rest, centred at 0 (mirror-symmetric)."""
    rng = np.random.default_rng([seed, 2])
    return {"rho_inf": _uniform(rng, 0.95, 1.05),
            "rho_amp": _uniform(rng, 0.2, 0.3),
            "width": 0.2}


def duct_setup(inputs):
    """Straight duct, b = 0, M from the data, kernel bundle, step-0 state."""
    c = GasConstants.for_gamma(1.4)
    geom = nozzle.NozzleGeometry.constant(X=1.0)
    b = nozzle.BoundFunction.zero(domain=(-2.0, 2.0))
    u0 = initialdata.GaussianBumpData(rho_inf=inputs["rho_inf"],
                                      rho_amp=inputs["rho_amp"],
                                      width=inputs["width"])
    M = scheme.select_M(u0, b, c)
    params = scheme.SchemeParameters.create(dx=DUCT_DX, M=M, b=b, T=0.0, c=c)
    nozzle.get_bundle(geom, b)
    state, mesh = scheme.initialize(u0, params, geom, b, c, cutoff=False)
    return {"args": (params, geom, b, c, mesh), "state": state}


class DuctStepping:
    def __init__(self, inputs, work):
        self.rho_inf = inputs["rho_inf"]
        self.setup = duct_setup(inputs)

    def round(self, k):
        args = self.setup["args"]
        dx = args[0].dx
        state = self.setup["state"]
        seconds, cells, errors, wrong = 0.0, 0, [], 0
        for step in range(DUCT_STEPS):
            t0 = time.perf_counter()
            try:
                new, rec = scheme.advance(state, *args)
            except Exception as e:        # counted as failed operations
                errors += [f"step {step}: {type(e).__name__}: {e}"] * (
                    DUCT_STEPS - step)
                break
            seconds += time.perf_counter() - t0
            cells += new.rho.size
            errs = checks.check_duct_step(state.rho, new.rho, new.m, dx,
                                          self.rho_inf, rec.clamp_count,
                                          rec.vacuum_count)
            errors.append(errs and f"step {step}: " + "; ".join(errs) or None)
            wrong += bool(errs)
            state = new
        return {"seconds": seconds, "stepping": seconds, "work": cells,
                "errors": errors, "wrong": wrong}


# ---------------------------------------------------------------------------
# riemann-batch
# ---------------------------------------------------------------------------

RIEMANN_PER_KIND = 60


def _riemann_problems(rng, gamma, n):
    """n problems of each kind; away from the vacuum threshold except
    where a vacuum middle is intended, so both flags are unambiguous."""
    th = 0.5 * (gamma - 1.0)

    def K(r):
        return r ** th / th

    out = {k: [] for k in ("rho_l", "v_l", "rho_r", "v_r")}

    def add(rl, vl, rr, vr, vacuum):
        gap = (vl + K(rl)) - (vr - K(rr))        # w_L - z_R
        margin = 0.02 * (1.0 + K(rl) + K(rr))
        if (gap <= -margin) if vacuum else (gap >= margin):
            for key, val in zip(out, (rl, vl, rr, vr)):
                out[key].append(val)
            return True
        return False

    for kind in ("generic", "near-vacuum", "vacuum", "equal", "shock"):
        made = 0
        while made < n:
            u = rng.uniform
            if kind == "generic":
                ok = add(u(0.1, 4.0), u(-2, 2), u(0.1, 4.0), u(-2, 2), False)
            elif kind == "near-vacuum":
                tiny, other = 10.0 ** u(-8, -3), u(0.1, 2.0)
                if u() < 0.5:
                    ok = add(tiny, u(-1, 1), other, u(-1, 1), False)
                else:
                    ok = add(other, u(-1, 1), tiny, u(-1, 1), False)
            elif kind == "vacuum":
                rl, rr = u(0.05, 1.0), u(0.05, 1.0)
                spread = 0.5 * (K(rl) + K(rr))
                ok = add(rl, -spread - u(0.1, 1.0), rr, spread + u(0.1, 1.0),
                         True)
            elif kind == "equal":
                r, v = u(0.1, 4.0), u(-2, 2)
                ok = add(r, v, r, v, False)
            elif u() < 0.5:                       # colliding streams
                ok = add(u(0.5, 2.0), u(3, 8), u(0.5, 2.0), -u(3, 8), False)
            else:                                 # density ratio 100-10^4
                ok = add(u(100.0, 1000.0), 0.0, u(0.1, 1.0), 0.0, False)
            made += ok
    return {k: np.array(v) for k, v in out.items()}


def riemann_inputs(seed, work):
    rng = np.random.default_rng([seed, 3])
    return {"problems": [
        {"gamma": g, **{k: v.tolist() for k, v in
                        _riemann_problems(rng, g, RIEMANN_PER_KIND).items()}}
        for g in GAMMAS]}


def riemann_setup(inputs):
    """The gas constants (the solver needs nothing else after import)."""
    return {g: GasConstants.for_gamma(g) for g in GAMMAS}


class RiemannBatch:
    def __init__(self, inputs, work):
        self.consts = riemann_setup(inputs)
        self.batches = []
        for p in inputs["problems"]:
            arr = {k: np.array(p[k]) for k in ("rho_l", "v_l", "rho_r", "v_r")}
            far = checks.far_speed(arr["rho_l"], arr["v_l"], arr["rho_r"],
                                   arr["v_r"], p["gamma"])
            oracle = checks.middle_density(arr["rho_l"], arr["v_l"],
                                           arr["rho_r"], arr["v_r"],
                                           p["gamma"])
            self.batches.append((p["gamma"], arr, far, oracle))
        self.problems = sum(b[1]["rho_l"].size for b in self.batches)

    def _solve(self, c, arr, far):
        """Solve and sample every problem; the timed part of a round."""
        solve, sample = riemann.solve_riemann, riemann.sample
        n = arr["rho_l"].size
        res = {k: np.zeros(n) for k in ("rho_m", "vacuum", "left_rho",
                                        "left_m", "right_rho", "right_m")}
        excs = [None] * n
        rl, vl = arr["rho_l"].tolist(), arr["v_l"].tolist()
        rr, vr = arr["rho_r"].tolist(), arr["v_r"].tolist()
        for i, xi in enumerate(far.tolist()):
            try:
                sol = solve(GasState.from_primitive(rl[i], vl[i]),
                            GasState.from_primitive(rr[i], vr[i]), c)
                left = sample(sol, -xi)
                for s in (-1.0, 0.0, 1.0):
                    sample(sol, s)
                right = sample(sol, xi)
            except Exception as e:        # counted as a failed operation
                excs[i] = f"{type(e).__name__}: {e}"
                continue
            res["rho_m"][i] = sol.middle.rho
            res["vacuum"][i] = sol.has_vacuum_middle
            res["left_rho"][i], res["left_m"][i] = left.rho, left.m
            res["right_rho"][i], res["right_m"][i] = right.rho, right.m
        return res, excs

    def round(self, k):
        seconds, errors, wrong = 0.0, [], 0
        for gamma, arr, far, oracle in self.batches:
            t0 = time.perf_counter()
            res, excs = self._solve(self.consts[gamma], arr, far)
            seconds += time.perf_counter() - t0
            found = checks.check_riemann(arr, res, oracle)
            for exc, bad in zip(excs, found):
                errors.append((exc or bad) and f"gamma={gamma}: {exc or bad}")
                wrong += exc is None and bad is not None
        return {"seconds": seconds, "stepping": seconds,
                "work": self.problems, "errors": errors, "wrong": wrong}


WORKLOADS = {
    "nozzle-cli": (nozzle_inputs, nozzle_setup, NozzleCli),
    "duct-stepping": (duct_inputs, duct_setup, DuctStepping),
    "riemann-batch": (riemann_inputs, riemann_setup, RiemannBatch),
}


def load_inputs(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
