"""Self-checks of the benchmark's output checks.

Each check passes on the program's real output and fails on the same output
corrupted the way a defect would corrupt it.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from nozzleflow import cli, scheme  # noqa: E402

GAMMA = 1.4
DX = 0.05


def _write_snapshot(path, snap):
    cols = list(snap)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*(snap[c].tolist() for c in cols)):
            fh.write(",".join(map(repr, row)) + "\n")


@pytest.fixture(scope="module", params=["bump", "laval"])
def nozzle_run(request, tmp_path_factory):
    """A small modified + baseline run on the nozzle-cli data."""
    work = str(tmp_path_factory.mktemp(request.param))
    inputs = workloads.nozzle_inputs(3, work)
    cfg = next(c for c in inputs["configs"] if c["kind"] == request.param)
    out = os.path.join(work, "out")
    argv = ["run", "--config", cfg["config"], "--out", out,
            "--dx", str(DX), "--t-final", "0.02"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--mode", "baseline-lf"]) == 0
    return out, cfg


def _mid_snapshot(out):
    paths = checks.snapshot_paths(out, "modified")
    return paths[len(paths) // 2]


class TestNozzleChecks:
    def test_real_output_passes(self, nozzle_run):
        out, cfg = nozzle_run
        errs, cells = checks.check_modified_run(out, GAMMA, cfg["kind"],
                                                cfg["eps"], DX)
        assert errs == []
        assert cells > 0
        assert checks.check_baseline_run(out) == []

    def test_node_outside_envelope_fails(self, nozzle_run):
        out, _cfg = nozzle_run
        snap = checks.read_csv(_mid_snapshot(out))
        assert checks.check_snapshot_envelope(snap, GAMMA) == []
        i = int(np.argmax(snap["rho"]))
        th = 0.5 * (GAMMA - 1.0)
        # raise v until w = v + rho^theta/theta passes the upper bound
        v = snap["upper"][i] - snap["rho"][i] ** th / th + 1e-6
        snap["m"][i] = snap["rho"][i] * v
        assert checks.check_snapshot_envelope(snap, GAMMA)

    def test_energy_mismatch_fails(self, nozzle_run, tmp_path):
        out, cfg = nozzle_run
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in os.listdir(out):
            (bad / name).write_bytes((open(os.path.join(out, name), "rb")
                                      .read()))
        path = str(bad / os.path.basename(_mid_snapshot(out)))
        snap = checks.read_csv(path)
        snap["rho"] = snap["rho"] * (1.0 + 1e-6)
        _write_snapshot(path, snap)
        errs, _ = checks.check_modified_run(str(bad), GAMMA, cfg["kind"],
                                            cfg["eps"], DX)
        assert any("recomputed energy" in e for e in errs)

    def test_energy_increase_fails(self):
        e = [1.0, 0.999, 1.0 + 1e-9]
        series = {"total_energy": np.array(e)}
        assert any("exceeds the step-0" in m
                   for m in checks.check_energy_series(e, series))

    def test_audit_violation_fails(self):
        assert checks.check_audit({"max_envelope_violation": 0.0,
                                   "max_rh_residual": 1e-14}) == []
        assert checks.check_audit({"max_envelope_violation": 1e-15,
                                   "max_rh_residual": 1e-14})
        assert checks.check_audit({"max_envelope_violation": 0.0,
                                   "max_rh_residual": 2e-9})

    def test_changed_rerun_fails(self, nozzle_run):
        out, _cfg = nozzle_run
        first = checks.tree_digest(out)
        again = dict(first, **{"energy_modified.csv": "0" * 64})
        assert checks.check_identical(first, first) == []
        assert checks.check_identical(first, again)


class TestDuctChecks:
    @pytest.fixture(scope="class")
    def steps(self):
        setup = workloads.duct_setup(workloads.duct_inputs(5, None))
        prev = setup["state"]
        new, rec = scheme.advance(prev, *setup["args"])
        new2, rec2 = scheme.advance(new, *setup["args"])
        return new, new2, rec2, setup["args"][0].dx

    def test_real_step_passes(self, steps):
        prev, new, rec, dx = steps
        rho_inf = new.rho[0]
        assert checks.check_duct_step(prev.rho, new.rho, new.m, dx, rho_inf,
                                      rec.clamp_count, rec.vacuum_count) == []

    def test_broken_symmetry_fails(self, steps):
        prev, new, _rec, dx = steps
        rho_inf = new.rho[0]
        m = new.m.copy()
        m[m.size // 2 - 3] += 1e-7
        errs = checks.check_duct_step(prev.rho, new.rho, m, dx, rho_inf, 0, 0)
        assert any("mirror symmetry" in e for e in errs)

    def test_mass_drift_fails(self, steps):
        prev, new, _rec, dx = steps
        rho_inf = new.rho[0]
        rho = new.rho.copy()
        rho[rho.size // 2] += 1e-9
        errs = checks.check_duct_step(prev.rho, rho, new.m, dx, rho_inf, 0, 0)
        assert any("mass drift" in e for e in errs)

    def test_projection_events_fail(self, steps):
        prev, new, _rec, dx = steps
        errs = checks.check_duct_step(prev.rho, new.rho, new.m, dx,
                                      new.rho[0], 1, 0)
        assert any("clamp" in e for e in errs)


class TestRiemannChecks:
    @pytest.fixture(scope="class")
    def solved(self):
        bench = workloads.RiemannBatch(workloads.riemann_inputs(9, None),
                                       None)
        gamma, arr, far, oracle = bench.batches[1]
        res, excs = bench._solve(bench.consts[gamma], arr, far)
        assert excs == [None] * len(excs)
        return arr, res, oracle

    def test_real_solves_pass(self, solved):
        arr, res, oracle = solved
        assert oracle[1].any() and not oracle[1].all()
        assert checks.check_riemann(arr, res, oracle) == [None] * len(
            res["rho_m"])

    def test_perturbed_middle_density_fails(self, solved):
        arr, res, oracle = solved
        i = int(np.argmax(res["rho_m"]))
        bad = dict(res, rho_m=res["rho_m"].copy())
        bad["rho_m"][i] *= 1.0 + 1e-6
        errs = checks.check_riemann(arr, bad, oracle)
        assert errs[i] and "oracle" in errs[i]
        assert sum(e is not None for e in errs) == 1

    def test_flipped_vacuum_flag_fails(self, solved):
        arr, res, oracle = solved
        i = int(np.argmax(oracle[1]))
        bad = dict(res, vacuum=res["vacuum"].copy())
        bad["vacuum"][i] = 0.0
        assert "vacuum flag" in checks.check_riemann(arr, bad, oracle)[i]

    def test_far_sample_not_input_fails(self, solved):
        arr, res, oracle = solved
        bad = dict(res, right_m=res["right_m"] + 1e-9)
        assert all(e and "far samples" in e
                   for e in checks.check_riemann(arr, bad, oracle))


def test_area_quadrature_is_exact_on_polynomials():
    # laval area is a degree-6 polynomial inside |x| < 1: Gauss-Legendre
    # with 8 points integrates it exactly on each piece
    xs = np.array([-1.0, -0.3, 0.0, 0.95, 1.0])
    dx = 0.05
    fine = np.linspace(0.0, 1.0, 200001)
    for x, got in zip(xs, checks.node_areas("laval", 0.1, xs, dx)):
        pts = x - dx + 2 * dx * fine
        ref = np.trapezoid(checks.area("laval", 0.1, pts), pts)
        assert got == pytest.approx(ref, rel=1e-9)
