import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import nozzleflow
import nozzleflow._kernels as _k
import nozzleflow._traces as _traces
from nozzleflow.cli import main, parse_config
from nozzleflow.errors import CellBuildError, ConfigError
from nozzleflow.nozzle import NozzleGeometry
from nozzleflow.scheme import run


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

    @pytest.mark.parametrize("line, match", [
        pytest.param(line, match, id=line) for line, match in (
            ("t_final = inf", "'t_final': expected a finite number"),
            ("t_final = nan", "'t_final': expected a finite number"),
            ("audit_slack = nan", "'audit_slack': expected a finite number"),
            ("m_bound = -1", "M must be positive"),
            ("m_bound = 0", "M must be positive"),
            ("cutoff = banana", "'cutoff': expected on"),
            ("geometry_x = 0", "'geometry_x': must be positive"),
            ("geometry_a0 = 0", "'geometry_a0': must be positive"),
            # refused before the sample grid (8e9 points) is allocated
            ("dx = 1e-9", "'dx': the auto bound function needs"),
            # 8,080,000 steps of dt = 1.2e-9
            ("gamma = 1.0000001", "'t_final', 'dx' and 'gamma': the run "
                                  "needs 8080000 steps, more than 1000000"),
            ("t_final = 1e5", "the run needs \\d+ steps"),
            # t_final / dt is inf, which int() refuses
            ("t_final = 1e308", "the run needs inf steps"),
            # window half-widths of inf, 2,000,020, inf and inf dx
            ("x_step = 1e308", "'x_step'.*step-0 window needs"),
            ("x_step = 1e5", "step-0 window needs a half-width of "
                             "2\\.00002e\\+06 dx, more than 1000000"),
            ("initial = gaussian-density\nwidth = 1e308",
             "'width'.*step-0 window needs"),
            ("initial = gaussian-density\ncenter = 1e308",
             "'center'.*step-0 window needs"),
            ("b_function = const:0.1:2.0:-2.0", "'b_function': expected"),
            ("b_function = const:nan:-2:2", "'b_function': expected"),
            ("b_function = const:inf:-2:2", "'b_function': expected"),
            ("b_function = const:-1:-2:2", "'b_function': expected"),
            ("b_function = const:1:-2:x", "'b_function': expected"),
            # exp(I) of the bound overflows in select_M, in
            # SchemeParameters.create, and for a huge auto bound
            ("b_function = const:1e300:-1:1",
             "'b_function'.*max\\(I\\+, I-\\) is 1e\\+300"),
            ("b_function = const:1e300:-1:1\nm_bound = 1",
             "'b_function'.*max\\(I\\+, I-\\) is 1e\\+300"),
            # refused before the auto bound samples |a|, with no warning
            ("geometry = bump\ngeometry_eps = 1e300",
             "'geometry_eps'.*exp overflows"),
            ("geometry = bump\ngeometry_eps = -1e300",
             "'geometry_eps'.*exp overflows"),
            # a Laval depth outside (0, 1)
            ("geometry = laval\ngeometry_eps = 0",
             "'geometry_eps': depth must lie in \\(0, 1\\), got 0"),
            ("geometry = laval\ngeometry_eps = 1.5",
             "'geometry_eps': depth must lie in \\(0, 1\\), got 1.5"),
            # dt = dx / (2 M e^I) rounds to 0
            ("b_function = const:400:-1:1", "'m_bound'.*dt = dx .* is 0\\.0"),
            ("m_bound = 1e308", "'m_bound'.*dt = dx .* is 0\\.0"))])
    def test_bad_value_rejected(self, tmp_path, line, match):
        # a refused config prints nothing but its one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=match):
                parse_config(write_cfg(tmp_path, MINIMAL + line + "\n"))

    @pytest.mark.parametrize("word, on", [("off", False), ("NO", False),
                                          ("0", False), ("yes", True)])
    def test_cutoff_words(self, tmp_path, word, on):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"cutoff = {word}\n"))
        assert cfg.cutoff is on

    def test_mesh_ratio_resolved(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        imax = max(cfg.bound.I_plus, cfg.bound.I_minus)
        assert cfg.params.dx / cfg.params.dt == pytest.approx(
            2 * cfg.params.M * np.exp(imax), rel=1e-13)


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

    def test_one_envelope_per_step(self, tmp_path, monkeypatch):
        # each state keeps the bounds of its projection, which the monitor
        # and the snapshots read: one envelope per step, plus the set-up's
        # two (the initial-data check and the step-0 projection)
        path = write_cfg(tmp_path, NOZZLE + f"out_dir = {tmp_path}/out\n")
        steps = parse_config(path).params.n_steps
        calls = []
        envelope = _traces.envelope

        def counted(*a):
            calls.append(a)
            return envelope(*a)

        monkeypatch.setattr(_traces, "envelope", counted)
        assert main(["run", "--config", path, "--stride", "1"]) == 0
        assert steps > 1
        assert len(calls) == steps + 2
        assert len(os.listdir(tmp_path / "out")) == steps + 3

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


class TestCellBuildFailure:
    def test_reported_as_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_k, "gap_fill_k",
                            lambda *a: (0.0, 0.0, 0.0, 0.0, _k.ERR_GAP_CONV))
        path = write_cfg(tmp_path, MINIMAL + f"out_dir = {tmp_path}/out\n")
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell (j=") and "[code 3]" in err

    @pytest.mark.parametrize("command, extra, named", [
        ("run", None, "{tmp}/missing.cfg"),
        ("validate", None, "{tmp}/missing.cfg"),
        ("run", None, "{tmp}"),
        ("run", "geometry = table\ngeometry_table = {tmp}/missing.csv\n",
         "{tmp}/missing.csv"),
        ("run", "initial = table\ninitial_table = {tmp}/missing.csv\n",
         "{tmp}/missing.csv"),
        ("run", "geometry = table\ngeometry_table = {tmp}\n", "{tmp}"),
        ("run", "out_dir = {tmp}/run.cfg\n", "{tmp}/run.cfg")])
    def test_unreadable_path_reported(self, tmp_path, capsys, command, extra,
                                      named):
        # a missing config or table, a directory in their place, and an
        # output directory that is a file: one error line naming the path
        named = named.format(tmp=tmp_path)
        path = (named if extra is None else
                write_cfg(tmp_path, MINIMAL + extra.format(tmp=tmp_path)))
        assert main([command, "--config", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"'{named}'" in err[0]


REST_IN_BUMP = """
gamma = 1.4
geometry = bump
geometry_eps = 0.1
cutoff = off
initial = gaussian-density
rho_inf = 1.0
rho_amp = 0.0
"""

# the exact subsonic steady flow of steady_bernoulli_table, in its bump
STEADY_IN_BUMP = """
geometry = bump
geometry_eps = 0.2
cutoff = off
initial = table
initial_table = {table}
t_final = 0.2
"""


def steady_bernoulli_table(path):
    """Write the exact subsonic steady flow through the eps-0.2 bump as
    (x, rho, m) rows on 2401 points of [-3, 3]: A m = Q = A(+-inf) 1 0.3
    and v^2/2 + rho^0.4/0.4 = H (gamma 1.4, rho_inf 1, v_inf 0.3), rho by
    200 bisections on the subsonic branch [q^(2/(gamma+1)), 10] of
    q = Q/A, the rows written with repr."""
    g = 1.4
    geom = NozzleGeometry.bump(0.2)
    xs = np.linspace(-3.0, 3.0, 2401)
    Q = float(geom.A(3.0)) * 1.0 * 0.3
    H = 0.3 ** 2 / 2.0 + 1.0 / (g - 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,rho,m\n")
        for x, area in zip(xs.tolist(), geom.A(xs).tolist()):
            q = Q / area
            lo, hi = q ** (2.0 / (g + 1.0)), 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                h = q * q / (2.0 * mid * mid) + mid ** (g - 1.0) / (g - 1.0)
                if h > H:
                    hi = mid
                else:
                    lo = mid
            fh.write(",".join(map(repr, (x, 0.5 * (lo + hi), q))) + "\n")


# configs accepted by parse_config on which a cell build fails yet: (config,
# the failing cell (j, n), the error code).  The steady flow at dx 0.02 runs
# to the end (112 steps).
GAP_FILL_FAILURES = {
    "rest-in-bump-dx0.03": (REST_IN_BUMP + "dx = 0.03\n", (35, 0),
                            _k.ERR_GAP_CONV),
    "rest-in-bump-dx0.02": (REST_IN_BUMP + "dx = 0.02\n", (51, 0),
                            _k.ERR_GAP_CONV),
    "gamma-1.0001": (MINIMAL.replace("dx = 0.05", "dx = 0.02").replace(
        "gamma = 1.4", "gamma = 1.0001"), (1, 0), _k.ERR_GAP_CONV),
    "gamma-1.0002": (MINIMAL.replace("dx = 0.05", "dx = 0.02").replace(
        "gamma = 1.4", "gamma = 1.0002"), (-10, 19), _k.ERR_GAP_CONV),
    "steady-in-bump-dx0.03": (STEADY_IN_BUMP + "dx = 0.03\n", (-12, 31),
                              _k.ERR_GAP_CONV),
    "steady-in-bump-dx0.025": (STEADY_IN_BUMP + "dx = 0.025\n", (-12, 11),
                               _k.ERR_ORDERING),
}


class TestGapFillConverges:
    """Runs that should finish, and stop at a cell whose gap fill does not
    converge: fronts with no jump at rest in a bump's mollified tail, a
    rounding floor near gamma = 1, and an exact subsonic steady flow, which
    at dx 0.025 stops on unordered cell boundaries (ERR_ORDERING) instead.
    Each fails at its known cell with its known code."""

    @pytest.mark.xfail(strict=True, raises=CellBuildError,
                       reason="gap fill does not converge (ERR_GAP_CONV, "
                              "one steady flow ERR_ORDERING)")
    @pytest.mark.parametrize("name", sorted(GAP_FILL_FAILURES))
    def test_run_finishes(self, tmp_path, name):
        text, cell, code = GAP_FILL_FAILURES[name]
        table = tmp_path / "steady.csv"
        if "{table}" in text:
            steady_bernoulli_table(table)
        cfg = parse_config(write_cfg(tmp_path,
                                     text.replace("{table}", str(table))))
        try:
            final, _mesh = run(cfg.initial, cfg.params, cfg.geometry,
                               cfg.bound, cfg.constants, cutoff=cfg.cutoff)
        except CellBuildError as e:
            assert ((e.j, e.n), e.code) == (cell, code)
            raise
        assert np.all(np.isfinite(final.rho)) and np.all(final.rho >= 0.0)


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

    def test_vacuum_side_has_no_wave(self, capsys):
        # next to a vacuum state there is no wave of that family
        for left, right, none, wave in (("0,0", "1,0", "1-wave", "2-wave"),
                                        ("1,0", "0,0", "2-wave", "1-wave")):
            assert main(["riemann", "--left", left, "--right", right]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f"{none}        : none" in lines
            assert any(ln.startswith(f"{wave}        : rarefaction  speeds ")
                       for ln in lines)

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
