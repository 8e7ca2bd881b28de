"""``nozzleflow run`` hands the monitors' reads and the snapshot writes to a
forked worker process (``nozzleflow.worker``).  The worker changes no
output byte, reaps its child on every path, and a step crosses the pipe
without its kernel bundle."""

import io
import os
import pickle
import time

import numpy as np
import pytest

from nozzleflow import cli, diagnostics, scheme, worker
from nozzleflow.cli import main, parse_config
from nozzleflow.nozzle import get_bundle
from test_cli import GAP_FILL_FAILURES, steady_bernoulli_table, write_cfg

BUMP = """
gamma = 1.4
geometry = bump
geometry_eps = 0.12
initial = gaussian-density
rho_amp = 0.15
width = 0.3
dx = 0.05
t_final = 0.1
stride = 1
"""

LAVAL = """
gamma = 1.4
geometry = laval
geometry_eps = 0.1
initial = gaussian-velocity
rho_inf = 1.0
v_inf = 0.2
v_amp = 0.2
width = 0.3
dx = 0.05
t_final = 0.1
stride = 3
cutoff = off
"""


def no_child_left():
    """True when this process has no child, reaped or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def tree(path):
    return {name: (path / name).read_bytes()
            for name in sorted(os.listdir(path))}


def run_both_ways(monkeypatch, argv, out):
    """``main(argv + [--out ...])`` with the worker, then inline (no
    ``os.fork``): the exit statuses and the output trees."""
    codes = [main(argv + ["--out", str(out / "forked")])]
    assert no_child_left()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        codes.append(main(argv + ["--out", str(out / "inline")]))
    return codes, tree(out / "forked"), tree(out / "inline")


@pytest.mark.parametrize("text", [BUMP, LAVAL], ids=["bump", "laval"])
def test_same_bytes_forked_and_inline(tmp_path, monkeypatch, capsys, text):
    cfg = write_cfg(tmp_path, text)
    codes, forked, inline = run_both_ways(
        monkeypatch, ["run", "--config", cfg], tmp_path)
    assert codes == [0, 0]
    assert len(forked) > 5 and forked == inline
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0] == printed[1]


@pytest.mark.parametrize("t_final, parity", [("0.1", 0), ("0.05", 1)],
                         ids=["even", "odd"])
def test_same_bytes_odd_and_even_step_counts(tmp_path, monkeypatch, capsys,
                                             t_final, parity):
    # each step is read as it comes: the last step's read is no special
    # case, whichever the parity of the run's step count
    cfg = write_cfg(tmp_path, BUMP)
    argv = ["run", "--config", cfg, "--t-final", t_final]
    assert parse_config(cfg, {"t_final": float(t_final)}).params.n_steps \
        % 2 == parity
    codes, forked, inline = run_both_ways(monkeypatch, argv, tmp_path)
    assert codes == [0, 0]
    assert len(forked) > 5 and forked == inline
    capsys.readouterr()


def test_cell_build_error_same_snapshots(tmp_path, monkeypatch, capsys):
    # the run stops at step 11; the worker first writes every snapshot it
    # was sent, so both paths leave the same files and one error line
    text, (j, n), code = GAP_FILL_FAILURES["steady-in-bump-dx0.025"]
    table = tmp_path / "steady.csv"
    steady_bernoulli_table(table)
    cfg = write_cfg(tmp_path, text.replace("{table}", str(table)))
    codes, forked, inline = run_both_ways(
        monkeypatch, ["run", "--config", cfg, "--stride", "1"], tmp_path)
    assert codes == [1, 1]
    assert sorted(forked) == [f"snapshot_modified_{k:05d}.csv"
                              for k in range(n + 1)]
    assert forked == inline
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith(f"error: cell (j={j}, n={n})")
    assert err[0].endswith(f"[code {code}]")


class SlowLog:
    """A client whose calls the child runs slowly, each adding a line to a
    file."""

    _worker_state = ()

    def __init__(self, path):
        self.path = path

    def log(self, k):
        time.sleep(0.02)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{k}\n")


def test_error_in_the_parent_lets_the_worker_finish(tmp_path):
    # the calls made before the error all run, then the error is raised
    cfg = parse_config(write_cfg(tmp_path, BUMP))
    state, _mesh = scheme.initialize(cfg.initial, cfg.params, cfg.geometry,
                                     cfg.bound, cfg.constants)
    ctx = {"params": cfg.params, "geom": cfg.geometry, "bound": cfg.bound,
           "constants": cfg.constants}
    log = SlowLog(tmp_path / "log")
    with pytest.raises(ValueError, match="in the parent"):
        with worker.Worker([log]) as w:
            w.on_start(state, ctx)
            for k in range(5):
                w.call(log, "log", k)
            raise ValueError("in the parent")
    assert no_child_left()
    assert (tmp_path / "log").read_text().split() == list("01234")


def _failing_read(self, new, record):
    raise ZeroDivisionError(f"read in process {os.getpid()}")


def test_worker_error_raised_with_its_traceback(tmp_path, monkeypatch):
    monkeypatch.setattr(diagnostics.RecurrenceAuditor, "_read",
                        _failing_read)
    cfg = write_cfg(tmp_path, BUMP)
    with pytest.raises(ZeroDivisionError, match="read in process") as info:
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert no_child_left()
    assert str(info.value) != f"read in process {os.getpid()}"
    cause = info.value.__cause__
    assert isinstance(cause, worker.WorkerTraceback)
    assert "in _failing_read" in str(cause)


def test_worker_reaped_inside_run(tmp_path, monkeypatch):
    # the benchmark times cli.run: the child has ended when it returns
    seen = []
    orig = cli.run

    def checked_run(*a, **kw):
        out = orig(*a, **kw)
        seen.append(no_child_left())
        return out
    monkeypatch.setattr(cli, "run", checked_run)
    cfg = write_cfg(tmp_path, BUMP)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert seen == [True]


def test_keyboard_interrupt_kills_the_worker(tmp_path, monkeypatch):
    orig = scheme.advance

    def interrupted(state, *a):
        if state.n == 3:
            raise KeyboardInterrupt
        return orig(state, *a)
    monkeypatch.setattr(scheme, "advance", interrupted)
    cfg = write_cfg(tmp_path, BUMP)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert no_child_left()


def test_step_crosses_without_its_bundle(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, LAVAL))
    state, mesh = scheme.initialize(cfg.initial, cfg.params, cfg.geometry,
                                    cfg.bound, cfg.constants)
    new, record = scheme.advance(state, cfg.params, cfg.geometry, cfg.bound,
                                 cfg.constants, mesh)
    ctx = {"params": cfg.params, "geom": cfg.geometry, "bound": cfg.bound,
           "constants": cfg.constants}
    refs = worker.references(ctx)
    buf = io.BytesIO()
    worker._Pickler(buf, refs).dump((0, "_read", (new, record)))
    bundle = get_bundle(cfg.geometry, cfg.bound)
    assert buf.tell() < len(pickle.dumps(bundle.tables))
    buf.seek(0)
    _i, _name, (new2, record2) = worker._Unpickler(buf, refs).load()
    assert record2.bundle is bundle and record2.pieces.tables is bundle.tables
    assert record2.params is cfg.params
    assert record2.constants is cfg.constants
    assert np.array_equal(new2.rho, new.rho)
    assert np.array_equal(record2.pieces.q, record.pieces.q)
