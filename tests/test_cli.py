import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import nozzleflow
from nozzleflow.cli import main, parse_config
from nozzleflow.errors import ConfigError


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
gamma = 1.4
geometry = constant
dx = 0.05
t_final = 0.01
initial = riemann-step
"""

NOZZLE = """
gamma = 1.4
geometry = bump
geometry_eps = 0.12
geometry_x = 1.0
initial = gaussian-density
rho_inf = 1.0
rho_amp = 0.15
width = 0.3
dx = 0.05
t_final = 0.02
stride = 4
"""


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.constants.gamma == 1.4
        assert cfg.params.alpha == 0.8
        assert cfg.mode == "modified"
        assert cfg.stride == 10

    def test_gamma_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(write_cfg(tmp_path, MINIMAL.replace(
                "gamma = 1.4", "gamma = 2.0")))

    def test_alpha_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(write_cfg(tmp_path, MINIMAL + "alpha = 0.4\n"))

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="not_a_key"):
            parse_config(write_cfg(tmp_path, MINIMAL + "not_a_key = 3\n"))

    def test_mesh_ratio_resolved(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        imax = max(cfg.bound.I_plus, cfg.bound.I_minus)
        assert cfg.params.dx / cfg.params.dt == pytest.approx(
            2 * cfg.M * np.exp(imax), rel=1e-13)


class TestCmdRun:
    def test_vacuum_initial_data(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + f"""
rho_left = 0.0
v_left = 0.0
rho_right = 0.0
v_right = 0.0
m_bound = 1.0
out_dir = {tmp_path}/out
""")
        assert main(["run", "--config", path]) == 0
        snaps = sorted(p for p in os.listdir(tmp_path / "out")
                       if p.startswith("snapshot_modified"))
        data = np.genfromtxt(tmp_path / "out" / snaps[-1], delimiter=",",
                             names=True)
        assert np.all(data["rho"] == 0.0)
        series = np.genfromtxt(tmp_path / "out" / "energy_modified.csv",
                               delimiter=",", names=True)
        assert np.all(series["slack"] == 0.0)

    def test_run_outputs_and_exit(self, tmp_path):
        path = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 0
        out = tmp_path / "out"
        assert (out / "energy_modified.csv").exists()
        assert (out / "audit_modified.json").exists()
        assert (out / "snapshot_modified_00000.csv").exists()
        audit = json.loads((out / "audit_modified.json").read_text())
        assert audit["max_envelope_violation"] == 0.0
        assert audit["max_rh_residual"] < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        path = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out1\n")
        assert main(["run", "--config", path]) == 0
        path2 = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out2\n",
                          name="run2.cfg")
        assert main(["run", "--config", path2]) == 0
        for name in os.listdir(tmp_path / "out1"):
            b1 = (tmp_path / "out1" / name).read_bytes()
            b2 = (tmp_path / "out2" / name).read_bytes()
            assert b1 == b2, name

    def test_snapshot_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out\n")
        main(["run", "--config", path])
        snaps = sorted(p for p in os.listdir(tmp_path / "out")
                       if p.startswith("snapshot_modified"))
        data = np.genfromtxt(tmp_path / "out" / snaps[-1], delimiter=",",
                             names=True)
        # 17-significant-digit floats reparse exactly: v = m / rho
        nz = data["rho"] > 0
        assert np.all(data["rho"] >= 0.0)
        assert np.allclose(data["v"][nz], data["m"][nz] / data["rho"][nz],
                           rtol=1e-15, atol=1e-300)
        assert np.all(np.isfinite(data["x"]))

    def test_riemann_step_matches_solver_sampling(self, tmp_path):
        # straight duct, step datum on a cell edge: the snapshot at t equals
        # the exact solution sampled at the nodes within fan tolerance
        cfgtext = """
gamma = 1.4
geometry = constant
geometry_x = 1.0
initial = riemann-step
rho_left = 1.0
v_left = 0.0
rho_right = 0.6
v_right = 0.0
x_step = 0.025
dx = 0.025
t_final = 0.004
stride = 1
cutoff = off
"""
        path = write_cfg(tmp_path, cfgtext + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 0
        from nozzleflow import (GasConstants, GasState, sample,
                                solve_riemann)
        c = GasConstants.for_gamma(1.4)
        sol = solve_riemann(GasState.from_primitive(1.0, 0.0),
                            GasState.from_primitive(0.6, 0.0), c)
        snaps = sorted(p for p in os.listdir(tmp_path / "out")
                       if p.startswith("snapshot_modified"))
        data = np.genfromtxt(tmp_path / "out" / snaps[-1], delimiter=",",
                             names=True)
        t = data["t"][0]
        assert t > 0
        h = 0.025 ** 0.8
        for x, rho in zip(data["x"], data["rho"]):
            want = sample(sol, (x - 0.025) / t).rho
            # node averages vs pointwise samples: off by O(dx + fan error)
            assert abs(rho - want) < 0.5

    def test_baseline_mode_and_comparison(self, tmp_path):
        path = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 0
        assert main(["run", "--config", path, "--mode", "baseline-lf"]) == 0
        out = tmp_path / "out"
        assert (out / "energy_baseline-lf.csv").exists()
        assert (out / "audit_baseline-lf.json").exists()
        assert (out / "energy_comparison.csv").exists()
        audit = json.loads((out / "audit_baseline-lf.json").read_text())
        assert audit["mode"] == "baseline-lf"
        assert "not the modified scheme" in audit["note"]
        comp = np.genfromtxt(out / "energy_comparison.csv", delimiter=",",
                             names=True)
        assert comp.shape[0] > 1

    def test_zero_step_comparison(self, tmp_path):
        # one data row per energy file: the comparison still has its row
        path = write_cfg(tmp_path, MINIMAL.replace("t_final = 0.01",
                                                   "t_final = 0")
                         + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 0
        assert main(["run", "--config", path, "--mode", "baseline-lf"]) == 0
        out = tmp_path / "out"
        comp = np.genfromtxt(out / "energy_comparison.csv", delimiter=",",
                             names=True, ndmin=1)
        assert comp.shape == (1,) and comp["n"][0] == 0
        e_m = np.genfromtxt(out / "energy_modified.csv", delimiter=",",
                            names=True)["total_energy"]
        e_b = np.genfromtxt(out / "energy_baseline-lf.csv", delimiter=",",
                            names=True)["total_energy"]
        assert comp["difference"][0] == e_m - e_b


class TestCmdRiemann:
    def test_equal_states(self, capsys):
        assert main(["riemann", "--left", "1.0,0.0", "--right", "1.0,0.0",
                     "--gamma", "1.4"]) == 0
        out = capsys.readouterr().out
        assert "middle state" in out
        assert "rho=1" in out

    def test_region_one(self, capsys):
        main(["riemann", "--left", "1.0,0.0", "--right", "1.0,2.0"])
        out = capsys.readouterr().out
        assert "region        : I" in out
        # middle (z, w) = (-3, 5): rho = 0.8^5
        assert f"{0.8 ** 5:.6g}"[:7] in out.replace("rho=", "")

    def test_region_three_oracle(self, capsys):
        main(["riemann", "--left", "1.0,1.0", "--right", "1.0,-1.0"])
        out = capsys.readouterr().out
        assert "region        : III" in out

        def h(r):
            p = lambda q: q ** 1.4 / 1.4
            return np.sqrt((p(r) - p(1.0)) / (r * (r - 1.0))) * (r - 1.0)
        rho_m = brentq(lambda r: h(r) - 1.0, 1.0 + 1e-9, 10.0, xtol=1e-13)
        line = [ln for ln in out.splitlines() if "middle state" in ln][0]
        got = float(line.split("rho=")[1].split()[0])
        assert got == pytest.approx(rho_m, rel=1e-10)

    def test_bad_state_usage_error(self):
        assert main(["riemann", "--left", "nope", "--right", "1,0"]) == 1

    def test_vacuum_state_profile_spans_the_waves(self, capsys):
        # a vacuum side has no kink; its +-BIG marker must not set the range
        assert main(["riemann", "--left", "0,0", "--right", "1,0"]) == 0
        out = capsys.readouterr().out
        rows = out.split("x,rho,m,v\n")[1].splitlines()
        xs = [float(r.split(",")[0]) for r in rows]
        assert len(xs) == 21
        assert all(math.isfinite(x) and abs(x) < 10.0 for x in xs)
        assert len({r.split(",", 1)[1] for r in rows}) > 2

    def test_non_positive_time_rejected(self, capsys):
        for t in ("0", "-1"):
            assert main(["riemann", "--left", "1,0", "--right", "1,0",
                         "--t", t]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "--t" in err


class TestCmdValidate:
    def test_straight_duct_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL)
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "admissibility      : pass" in out
        assert "mu" in out and "sigma" in out

    def test_bump_auto_b_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, NOZZLE)
        assert main(["validate", "--config", path]) == 0

    def test_over_budget_fails(self, tmp_path, capsys):
        # constant b busting the integral budget
        path = write_cfg(tmp_path, MINIMAL + "b_function = const:0.5:0:1\n")
        assert main(["validate", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestGeometryTableEndToEnd:
    def test_table_geometry_run(self, tmp_path):
        xs = np.linspace(-1.0, 1.0, 81)
        A = 1.0 + 0.05 * np.cos(np.pi * xs / 2) ** 2
        tab = tmp_path / "geom.txt"
        with open(tab, "w") as fh:
            fh.write("# x A\n")
            for x, a_ in zip(xs, A):
                fh.write(f"{x:.17g} {a_:.17g}\n")
        cfgtext = NOZZLE.replace("geometry = bump",
                                 "geometry = table").replace(
            "geometry_eps = 0.12", f"geometry_table = {tab}")
        path = write_cfg(tmp_path, cfgtext + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 0
        audit = json.loads((tmp_path / "out" / "audit_modified.json")
                           .read_text())
        assert audit["max_envelope_violation"] == 0.0


class TestAuditHardFailure:
    def test_exit_code_2_on_rh_threshold(self, tmp_path, monkeypatch):
        # force the hard-failure branch by making the RH threshold
        # impossible to satisfy
        import nozzleflow.cli as cli_mod
        monkeypatch.setattr(cli_mod, "RH_HARD_THRESHOLD", 0.0)
        path = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 2


class TestInitialTableEndToEnd:
    def test_initial_table_run(self, tmp_path):
        xs = np.linspace(-1.3, 1.3, 53)
        rho = np.where(np.abs(xs) < 1.0, 1.0 - 0.5 * np.abs(xs), 0.0)
        m = 0.05 * rho
        tab = tmp_path / "init.txt"
        with open(tab, "w") as fh:
            fh.write("x rho m\n")
            for row in zip(xs, rho, m):
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        cfgtext = NOZZLE.replace("initial = gaussian-density",
                                 f"initial = table\ninitial_table = {tab}")
        path = write_cfg(tmp_path, cfgtext + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 0
        audit = json.loads((tmp_path / "out" / "audit_modified.json")
                           .read_text())
        assert audit["max_envelope_violation"] == 0.0
        # vacuum-tailed data: the energy inequality holds
        assert audit["min_energy_slack"] >= -1e-10


class TestWithoutScipy:
    def test_runs_never_import_scipy(self, tmp_path):
        # a fresh interpreter in which every import of scipy fails
        xs = np.linspace(-1.0, 1.0, 41)
        np.savetxt(tmp_path / "geom.txt",
                   np.column_stack([xs, 1.0 + 0.05 * np.cos(xs) ** 2]))
        bump = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/bump\n",
                         "bump.cfg")
        few_steps = NOZZLE.replace("stride = 4", "stride = 1")
        laval = write_cfg(tmp_path, few_steps.replace(
            "geometry = bump", "geometry = laval").replace(
            "geometry_eps = 0.12", "geometry_eps = 0.3")
            + f"out_dir = {tmp_path}/laval\n", "laval.cfg")
        table = write_cfg(tmp_path, few_steps.replace(
            "geometry = bump", "geometry = table").replace(
            "geometry_eps = 0.12", f"geometry_table = {tmp_path}/geom.txt")
            + f"out_dir = {tmp_path}/table\n", "table.cfg")
        calls = [["run", "--config", bump],
                 ["run", "--config", bump, "--mode", "baseline-lf"],
                 ["run", "--config", laval],
                 ["run", "--config", table],
                 ["validate", "--config", bump],
                 ["riemann", "--left", "1.0,0.0", "--right", "0.5,0.3"]]
        script = ("import json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from nozzleflow.cli import main\n"
                  "codes = [main(a) for a in json.loads(sys.argv[1])]\n"
                  "print(json.dumps(codes))\n")
        src = os.path.dirname(os.path.dirname(nozzleflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script,
                               json.dumps(calls)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(calls)
        assert (tmp_path / "bump" / "energy_comparison.csv").exists()
