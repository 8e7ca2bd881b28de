"""Output checks for the benchmark workloads, computed apart from nozzleflow.

Nothing here imports the package under test.  Each check recomputes what it
compares from the program's outputs with its own formulas (invariants,
mechanical energy, the closed-form nozzle area with its own quadrature, a
vectorized bisection for the Riemann middle state) or tests a property the
method must have (the invariant region, the energy inequality, mass
conservation, mirror symmetry).  Every check returns a list of failure
messages; an empty list means the output passed.
"""

import hashlib
import json
import os

import numpy as np

# Tolerances, fixed from the arithmetic rather than from today's outputs.
RH_LIMIT = 1e-9            # half-time Rankine-Hugoniot residual (cli gate)
ENVELOPE_RTOL = 1e-11      # recomputing z, w from 17-digit rho, m rounds
ENERGY_RTOL = 1e-9         # program quadrature and spline vs closed form
INEQUALITY_RTOL = 1e-12    # rounding in the recomputed node sums
MASS_RTOL = 1e-12          # per-step relative mass drift in the duct
SYMMETRY_RTOL = 1e-10      # left-to-right cell assembly vs its mirror
MIDDLE_RTOL = 1e-9         # middle density vs the bisection oracle

# Gauss-Legendre rule for the benchmark's own area quadrature.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# gas algebra (p = rho^gamma / gamma, theta = (gamma - 1) / 2)
# ---------------------------------------------------------------------------

def invariants(rho, m, gamma):
    """Riemann invariants z = v - rho^theta/theta, w = v + rho^theta/theta."""
    th = 0.5 * (gamma - 1.0)
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    pos = rho > 0.0
    v = np.where(pos, m / np.where(pos, rho, 1.0), 0.0)
    k = np.where(pos, np.maximum(rho, 0.0) ** th / th, 0.0)
    return v - k, v + k


def mechanical_energy(rho, m, gamma):
    """eta* = m^2 / (2 rho) + rho^gamma / (gamma (gamma - 1)); 0 in vacuum."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    pos = rho > 0.0
    safe = np.where(pos, rho, 1.0)
    eta = 0.5 * m * m / safe + safe ** gamma / (gamma * (gamma - 1.0))
    return np.where(pos, eta, 0.0)


# ---------------------------------------------------------------------------
# nozzle area in closed form, s(x) = (1 - (x/X)^2)^3 inside |x| < X
# ---------------------------------------------------------------------------

def _s(x, X):
    inside = np.abs(x) < X
    return np.where(inside, (1.0 - (x / X) ** 2) ** 3, 0.0)


def area(kind, eps, x, X=1.0, A0=1.0):
    """Cross section of the package's geometry families, normalized so that
    A(0) = A0: bump A0 exp(eps (1 - s)), laval A0 (1 - eps s)/(1 - eps)."""
    x = np.asarray(x, dtype=float)
    if kind == "bump":
        return A0 * np.exp(eps * (1.0 - _s(x, X)))
    if kind == "laval":
        return A0 * (1.0 - eps * _s(x, X)) / (1.0 - eps)
    raise ValueError(f"no closed-form area for geometry {kind!r}")


def node_areas(kind, eps, xs, dx, X=1.0, A0=1.0):
    """int A over [x_j - dx, x_j + dx] per node, Gauss-Legendre on each
    piece of the interval split at the kinks x = -X, X of s."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.size)
    lo, hi = xs - dx, xs + dx
    cuts = [np.full(xs.size, -np.inf), np.full(xs.size, -X),
            np.full(xs.size, X), np.full(xs.size, np.inf)]
    for k in range(3):
        a = np.clip(lo, cuts[k], cuts[k + 1])
        b = np.clip(hi, cuts[k], cuts[k + 1])
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        pts = mid[:, None] + half[:, None] * _GL_X[None, :]
        out += half * (area(kind, eps, pts, X, A0) @ _GL_W)
    return out


# ---------------------------------------------------------------------------
# nozzle-cli: the files one `nozzleflow run` writes
# ---------------------------------------------------------------------------

def read_csv(path):
    """Header row plus float columns, as a dict of arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {k: rows[:, i] for i, k in enumerate(names)}


def snapshot_paths(out_dir, mode):
    """Snapshot files of one mode, in step order."""
    pre = f"snapshot_{mode}_"
    names = sorted(n for n in os.listdir(out_dir)
                   if n.startswith(pre) and n.endswith(".csv"))
    return [os.path.join(out_dir, n) for n in names]


def check_audit(audit):
    """Post-projection envelope violation 0, RH residual below 1e-9."""
    errs = []
    if audit.get("max_envelope_violation") != 0.0:
        errs.append(f"audit envelope violation "
                    f"{audit.get('max_envelope_violation')!r} != 0")
    rh = audit.get("max_rh_residual")
    if not (isinstance(rh, float) and rh < RH_LIMIT):
        errs.append(f"audit RH residual {rh!r} not below {RH_LIMIT}")
    return errs


def check_snapshot_envelope(snap, gamma):
    """Recompute z, w from each row's rho, m: lower <= z and w <= upper."""
    z, w = invariants(snap["rho"], snap["m"], gamma)
    lo, up = snap["lower"], snap["upper"]
    tol = ENVELOPE_RTOL * np.maximum(np.abs(lo), np.abs(up))
    bad = (z < lo - tol) | (w > up + tol) | (snap["rho"] < 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"node x={snap['x'][i]!r} at t={snap['t'][i]!r} outside the "
                f"envelope: z={z[i]!r} lower={lo[i]!r} w={w[i]!r} "
                f"upper={up[i]!r}"]
    return []


def snapshot_energy(snap, gamma, kind, eps, dx):
    """Node energy sum eta*(rho_j, m_j) int_{I_j} A of one snapshot."""
    eta = mechanical_energy(snap["rho"], snap["m"], gamma)
    return float(np.sum(eta * node_areas(kind, eps, snap["x"], dx)))


def check_energy_series(energies, series):
    """Recomputed node energies match the program's series, step for step,
    and satisfy the energy inequality E_n <= E_0 of the paper."""
    errs = []
    prog = series["total_energy"]
    if prog.size != len(energies):
        return [f"{prog.size} energy rows for {len(energies)} snapshots"]
    e = np.asarray(energies)
    scale = max(abs(e[0]), 1e-300)
    diff = np.abs(e - prog)
    if np.any(diff > ENERGY_RTOL * scale):
        i = int(np.argmax(diff))
        errs.append(f"step {i}: recomputed energy {e[i]!r} != program "
                    f"{prog[i]!r}")
    over = e - e[0]
    if np.any(over > INEQUALITY_RTOL * scale):
        i = int(np.argmax(over))
        errs.append(f"step {i}: energy {e[i]!r} exceeds the step-0 energy "
                    f"{e[0]!r}")
    return errs


def check_modified_run(out_dir, gamma, kind, eps, dx):
    """All checks on one modified-mode run directory.

    Returns (errors, cells), cells being the nodes written after step 0,
    one per cell built.
    """
    errs = []
    with open(os.path.join(out_dir, "audit_modified.json"),
              encoding="utf-8") as fh:
        errs += check_audit(json.load(fh))
    energies = []
    cells = 0
    for n, path in enumerate(snapshot_paths(out_dir, "modified")):
        snap = read_csv(path)
        errs += check_snapshot_envelope(snap, gamma)
        energies.append(snapshot_energy(snap, gamma, kind, eps, dx))
        if n > 0:
            cells += snap["x"].size
    series = read_csv(os.path.join(out_dir, "energy_modified.csv"))
    errs += check_energy_series(energies, series)
    return errs, cells


def check_baseline_run(out_dir):
    """The baseline run wrote its series, audit and the comparison."""
    errs = []
    for name in ("energy_baseline-lf.csv", "audit_baseline-lf.json",
                 "energy_comparison.csv"):
        if not os.path.exists(os.path.join(out_dir, name)):
            errs.append(f"baseline run left no {name}")
    if not errs:
        series = read_csv(os.path.join(out_dir, "energy_baseline-lf.csv"))
        if not np.all(np.isfinite(series["total_energy"])):
            errs.append("baseline energy series is not finite")
    return errs


def tree_digest(out_dir):
    """sha256 of every file in a run directory, by name."""
    out = {}
    if not os.path.isdir(out_dir):
        return out
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def mode_files(digest, baseline):
    """The part of a run directory's digest that one mode wrote (the
    comparison file is written by the second, baseline, run)."""
    return {n: h for n, h in digest.items()
            if ("baseline" in n or "comparison" in n) == baseline}


def check_identical(first, again):
    """A rerun of one config wrote byte-identical files."""
    if first == again:
        return []
    names = sorted(set(first) ^ set(again)) or sorted(
        k for k in first if first[k] != again.get(k))
    return [f"rerun differs from the first run in {names[:3]}"]


# ---------------------------------------------------------------------------
# duct-stepping: one step of the straight-duct scheme
# ---------------------------------------------------------------------------

def excess_mass(rho, dx, rho_inf):
    """Mass above the ambient density, sum (rho_j - rho_inf) 2 dx."""
    return float(np.sum(np.asarray(rho) - rho_inf)) * 2.0 * dx


def check_duct_step(rho_prev, rho, m, dx, rho_inf, clamps, vacuums):
    """Mass conservation, no projection events, mirror symmetry."""
    errs = []
    total = float(np.sum(rho)) * 2.0 * dx
    drift = abs(excess_mass(rho, dx, rho_inf)
                - excess_mass(rho_prev, dx, rho_inf)) / total
    if not drift < MASS_RTOL:
        errs.append(f"relative mass drift {drift:.3e} not below {MASS_RTOL}")
    if clamps or vacuums:
        errs.append(f"{clamps} clamp and {vacuums} vacuum events")
    scale = 1.0 + float(np.max(np.abs(rho)))
    asym_r = float(np.max(np.abs(rho - rho[::-1])))
    asym_m = float(np.max(np.abs(m + m[::-1])))
    if not max(asym_r, asym_m) < SYMMETRY_RTOL * scale:
        errs.append(f"mirror symmetry broken: |rho(x)-rho(-x)| {asym_r:.3e}, "
                    f"|m(x)+m(-x)| {asym_m:.3e}")
    return errs


# ---------------------------------------------------------------------------
# riemann-batch: the exact solver
# ---------------------------------------------------------------------------

def _hjump(r, r0, gamma):
    """sqrt((p - p0)(rho - rho0) / (rho rho0)), the shock velocity jump."""
    p = r ** gamma / gamma
    p0 = r0 ** gamma / gamma
    return np.sqrt(np.maximum((p - p0) * (r - r0), 0.0) / (r * r0))


def _phi(r, r0, v0, sign, gamma):
    """Velocity on the 1-curve (sign -1) or 2-curve (sign +1) through
    (r0, v0) at density r: rarefaction below r0, shock above."""
    th = 0.5 * (gamma - 1.0)
    raref = v0 + sign * (r ** th - r0 ** th) / th
    shock = v0 + sign * _hjump(np.maximum(r, r0), r0, gamma)
    return np.where(r <= r0, raref, shock)


def middle_density(rho_l, v_l, rho_r, v_r, gamma):
    """Vectorized bisection for rho_M, where the 1-curve through the left
    state meets the 2-curve through the right one.  Returns (rho_M, vacuum);
    vacuum middles (w_L <= z_R) get rho_M = 0."""
    th = 0.5 * (gamma - 1.0)
    rho_l, v_l, rho_r, v_r = (np.asarray(a, dtype=float)
                              for a in (rho_l, v_l, rho_r, v_r))
    vacuum = v_l + rho_l ** th / th <= v_r - rho_r ** th / th

    def gap(r):
        return _phi(r, rho_l, v_l, -1.0, gamma) - _phi(r, rho_r, v_r, 1.0,
                                                       gamma)

    lo = np.zeros_like(rho_l)
    hi = np.maximum(rho_l, rho_r)
    for _ in range(200):
        grow = gap(hi) > 0.0
        if not np.any(grow):
            break
        hi = np.where(grow, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        pos = gap(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return np.where(vacuum, 0.0, 0.5 * (lo + hi)), vacuum


def check_riemann(problems, results, oracle):
    """Compare solver outputs with the bisection oracle ``middle_density``.

    problems: arrays rho_l, v_l, rho_r, v_r; results: arrays rho_m, vacuum,
    and the far-left / far-right samples (rho, m).  Returns one error string
    or None per problem.
    """
    rl, vl, rr, vr = (problems[k] for k in ("rho_l", "v_l", "rho_r", "v_r"))
    want, want_vac = oracle
    got = results["rho_m"]
    errs = [None] * rl.size
    ml, mr = rl * vl, rr * vr
    for i in range(rl.size):
        msg = []
        if bool(results["vacuum"][i]) != bool(want_vac[i]):
            msg.append(f"vacuum flag {bool(results['vacuum'][i])} != "
                       f"{bool(want_vac[i])}")
        if not abs(got[i] - want[i]) <= MIDDLE_RTOL * max(1.0, want[i]):
            msg.append(f"rho_M {got[i]!r} != oracle {want[i]!r}")
        far = (results["left_rho"][i], results["left_m"][i],
               results["right_rho"][i], results["right_m"][i])
        if far != (rl[i], ml[i], rr[i], mr[i]):
            msg.append(f"far samples {far} are not the input states")
        if msg:
            errs[i] = f"problem {i}: " + "; ".join(msg)
    return errs


def far_speed(rho_l, v_l, rho_r, v_r, gamma):
    """A similarity speed beyond every wave of the problem."""
    c = np.sqrt(np.maximum(rho_l, rho_r) ** (gamma - 1.0))
    th = 0.5 * (gamma - 1.0)
    k = (np.maximum(rho_l, rho_r) ** th) / th
    return 10.0 * (1.0 + np.abs(v_l) + np.abs(v_r) + c + k)

