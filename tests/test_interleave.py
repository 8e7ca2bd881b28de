"""``tools/interleave.py`` on a tiny config: two copies of the package in one
process, alternating rounds, and the ratio summary."""

import importlib
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "interleave", os.path.join(ROOT, "tools", "interleave.py"))
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)

CONFIG = """
gamma = 1.4
geometry = bump
geometry_eps = 0.12
initial = gaussian-density
rho_amp = 0.15
width = 0.3
dx = 0.1
t_final = 0.02
stride = 1
"""


@pytest.fixture
def packages():
    """This checkout's package imported twice, as the two sides."""
    names = ("nozzleflow_side_a", "nozzleflow_side_b")
    src = os.path.join(ROOT, "src")
    yield [interleave.load_package(src, name) for name in names]
    for key in [k for k in sys.modules if k.split(".")[0] in names]:
        del sys.modules[key]


def test_two_packages_in_one_process(packages):
    a, b = packages
    cli_a, cli_b = (importlib.import_module(p.__name__ + ".cli")
                    for p in (a, b))
    assert cli_a is not cli_b
    assert cli_a.run.__module__ == "nozzleflow_side_a.scheme"
    assert cli_b.run.__module__ == "nozzleflow_side_b.scheme"


def test_alternating_cli_rounds(packages, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    sides = {side: interleave.cli_rounds(pkg, [str(cfg)], str(tmp_path))
             for side, pkg in zip(("parent", "change"), packages)}
    clis = [importlib.import_module(p.__name__ + ".cli") for p in packages]
    runs = [cli.run for cli in clis]
    rounds = interleave.alternate(sides, 2)
    assert [cli.run for cli in clis] == runs      # the timer is removed
    assert [(r["pair"], r["side"]) for r in rounds] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    for r in rounds:
        assert 0.0 < r["stepping"] < r["seconds"]
    assert os.listdir(tmp_path) == ["run.cfg"]   # outputs removed
    summary = interleave.summarize(rounds)
    for key in ("stepping", "seconds"):
        s = summary[key]
        lo, mid, hi = s["ratio_quartiles"]
        assert s["ratio_min"] <= lo <= mid <= hi <= s["ratio_max"]
        assert s["pairs"] == 2
        assert s["pairs_change_faster"] + s["pairs_parent_faster"] <= 2


def test_duct_rounds(packages):
    one_round = interleave.duct_rounds(
        packages[0], {"rho_inf": 1.0, "rho_amp": 0.25, "width": 0.2},
        dx=0.1, steps=2)
    stepping, seconds = one_round(1)
    assert stepping == seconds > 0.0


def test_summary_ratios():
    rounds = [{"pair": 1, "side": "parent", "stepping": 2.0, "seconds": 4.0},
              {"pair": 1, "side": "change", "stepping": 1.0, "seconds": 4.0},
              {"pair": 2, "side": "change", "stepping": 3.0, "seconds": 2.0},
              {"pair": 2, "side": "parent", "stepping": 2.0, "seconds": 4.0}]
    s = interleave.summarize(rounds)
    assert (s["stepping"]["ratio_min"], s["stepping"]["ratio_max"]) == (
        0.5, 1.5)
    assert s["stepping"]["ratio_quartiles"][1] == 1.0
    assert (s["stepping"]["pairs_change_faster"],
            s["stepping"]["pairs_parent_faster"]) == (1, 1)
    assert (s["seconds"]["pairs_change_faster"],
            s["seconds"]["pairs_parent_faster"]) == (1, 0)
