"""``tools/same_outputs.compare_dirs`` on synthetic output directories:
identical trees, changed floats, and a missing file; and
``run_difference`` on two runs' exit statuses and standard output."""

import importlib.util
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

FILES = {
    "energy_modified.csv": "n,t,total_energy\n0,0,1.5\n1,0.01,1.25\n",
    "audit_modified.json": '{\n  "steps": 1\n}',
}


def _tree(path, files):
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return str(path)


def test_identical_trees(tmp_path):
    report = same_outputs.compare_dirs(_tree(tmp_path / "a", FILES),
                                       _tree(tmp_path / "b", FILES))
    assert report == {"missing": [], "extra": [], "differing": {},
                      "files": 2}


def test_one_changed_float(tmp_path):
    changed = dict(FILES)
    changed["energy_modified.csv"] = FILES["energy_modified.csv"].replace(
        "1.25", "1.2500000000000002")
    report = same_outputs.compare_dirs(_tree(tmp_path / "a", FILES),
                                       _tree(tmp_path / "b", changed))
    assert list(report["differing"]) == ["energy_modified.csv"]
    col, rel, absolute = report["differing"]["energy_modified.csv"]
    assert col == "total_energy"
    assert rel == (1.2500000000000002 - 1.25) / 1.2500000000000002
    assert absolute == 1.2500000000000002 - 1.25
    assert report["missing"] == report["extra"] == []


def test_column_of_the_largest_relative_difference(tmp_path):
    # t moves most in relative terms, total_energy most in absolute terms:
    # the report names t, with t's own largest absolute difference
    changed = dict(FILES)
    changed["energy_modified.csv"] = (
        "n,t,total_energy\n0,1e-12,1.6\n1,0.01,1.25\n")
    report = same_outputs.compare_dirs(_tree(tmp_path / "a", FILES),
                                       _tree(tmp_path / "b", changed))
    assert report["differing"]["energy_modified.csv"] == ("t", 1.0, 1e-12)


def test_missing_file(tmp_path):
    fewer = {"energy_modified.csv": FILES["energy_modified.csv"]}
    report = same_outputs.compare_dirs(_tree(tmp_path / "a", FILES),
                                       _tree(tmp_path / "b", fewer))
    assert report["missing"] == ["audit_modified.json"]
    assert report["extra"] == [] and report["differing"] == {}
    swapped = same_outputs.compare_dirs(str(tmp_path / "b"),
                                        str(tmp_path / "a"))
    assert swapped["extra"] == ["audit_modified.json"]


def test_csv_of_another_shape_differs_infinitely(tmp_path):
    longer = dict(FILES)
    longer["energy_modified.csv"] += "2,0.02,1.0\n"
    report = same_outputs.compare_dirs(_tree(tmp_path / "a", FILES),
                                       _tree(tmp_path / "b", longer))
    assert report["differing"]["energy_modified.csv"] == (None, math.inf,
                                                           math.inf)


def test_run_difference_names_statuses_and_first_line():
    parent = ("modified", 0, "modified run complete: 3 steps\nok\n")
    assert same_outputs.run_difference(parent, parent) is None
    assert same_outputs.run_difference(
        parent, ("modified", 2, "modified run complete: 3 steps\nbad\n")
    ) == ("modified: exit status 0 (parent), 2 (change); stdout line 2: "
          "parent 'ok', change 'bad'")
    # a missing line, and output that differs only in its line ends
    assert same_outputs.run_difference(
        parent, ("modified", 0, "modified run complete: 3 steps\n")
    ).endswith("stdout line 2: parent 'ok', change '(no line)'")
    assert same_outputs.run_difference(
        parent, ("modified", 1, parent[2].replace("\n", "\r\n"))
    ) == ("modified: exit status 0 (parent), 1 (change); stdout differs in "
          "its line ends")
