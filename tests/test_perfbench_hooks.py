"""The benchmark's tracer (perfbench/tracing.py) wraps the package's layers
by attribute name.  Entering and leaving it here makes a renamed or
reshaped layer fail the test suite, not a later traced benchmark run."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
from nozzleflow import cli  # noqa: E402

CONFIG = """
gamma = 1.4
geometry = bump
geometry_eps = 0.12
initial = gaussian-density
rho_amp = 0.15
width = 0.3
dx = 0.1
t_final = 0.03
stride = 1
"""


def test_tracer_wraps_every_layer_and_restores_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    with tracing.Tracer() as tr:
        hooks = list(tr._undo)
        assert all(getattr(owner, name) is not orig
                   for owner, name, orig in hooks)
        for mode in ("modified", "baseline-lf"):
            assert cli.main(["run", "--config", str(cfg), "--out",
                             str(tmp_path / "out"), "--mode", mode]) == 0
    assert all(getattr(owner, name) is orig for owner, name, orig in hooks)
    for layer in ("cli.parse_config", "scheme.initialize", "scheme.advance",
                  "_kernels.pass_a", "_kernels.pass_b",
                  "_traces.average_project", "diagnostics.energy_monitor",
                  "diagnostics.recurrence_audit", "cli.snapshot",
                  "baseline.run_baseline"):
        assert tr.calls[layer] > 0, layer
    for inner in ("_kernels.gap_fill", "_kernels.riemann_solve", "_phi_left"):
        assert tr.calls[inner] > 0, inner
    assert tr.units["cli.baseline_snapshot"] > 0
    assert tr.units["baseline.run_baseline"] > 0
    assert sum(tr.cases.values()) == tr.units["_kernels.pass_b"] > 0
    assert tr.metrics(1)["scheme.pieces_per_cell"][0] > 0
