#!/usr/bin/env python3
"""Byte-identity of ``nozzleflow run`` outputs against a parent revision.

    python3 tools/same_outputs.py --parent HEAD~1

The parent side is ``git archive PARENT`` unpacked into a work directory;
the change side is this checkout's ``src/``, uncommitted edits included.
Every config of the set runs with ``python -m nozzleflow.cli run``, in
``modified`` mode and then in ``baseline-lf`` mode, from each side's
``src`` into one output directory per side and config.  The set is the
README's config, a constant-duct riemann-step, gas moving through a Laval
duct with no vacuum (``cutoff = off``), and the seed-4101 and seed-701
``nozzle-cli`` bump and Laval configs that
``perfbench/workloads.nozzle_inputs`` writes.  For each config the report
names the files only the parent wrote (missing), the files only the change
wrote (extra) and the files whose bytes differ, and for each differing
CSV the column with the largest relative difference, that difference and
the column's largest absolute difference; also the runs whose exit status or
standard output differ, with both exit statuses and the first differing
line of standard output (standard error is not compared: a warning names
its source file, whose path differs between the sides).  The exit status
is 1 on any difference.
"""

import argparse
import csv
import itertools
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RIEMANN_STEP = """gamma = 1.4
geometry = constant
initial = riemann-step
rho_left = 1.0
v_left = 0.3
rho_right = 0.6
v_right = -0.2
dx = 0.02
t_final = 0.1
cutoff = off
"""

# no vacuum anywhere: every cell of the curved duct is built away from it
LAVAL_FLOW = """gamma = 1.4
geometry = laval
geometry_eps = 0.1
initial = gaussian-velocity
rho_inf = 1.0
v_inf = 0.2
v_amp = 0.2
width = 0.3
dx = 0.025
t_final = 0.1
cutoff = off
"""


def readme_config():
    """The first ``ini`` block of README.md."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def write_configs(work):
    """The config set, as {name: path}, written under ``work``."""
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import workloads
    os.makedirs(work)
    configs = {}
    for name, text in (("readme", readme_config()),
                       ("riemann-step", RIEMANN_STEP),
                       ("laval-flow", LAVAL_FLOW)):
        configs[name] = os.path.join(work, f"{name}.cfg")
        with open(configs[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    for seed in (4101, 701):
        inputs = workloads.nozzle_inputs(seed, os.path.join(work, str(seed)))
        for c in inputs["configs"]:
            configs[f"{c['kind']}-{seed}"] = c["config"]
    return configs


def csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def csv_difference(path_a, path_b):
    """(column, relative, absolute) for two CSV files of the same shape:
    the header of the column holding the largest |a - b| / max(|a|, |b|),
    that relative difference, and the largest |a - b| in that column;
    (None, inf, inf) when the shapes or a non-numeric cell differ."""
    rows_a, rows_b = csv_rows(path_a), csv_rows(path_b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None, math.inf, math.inf
    rel, absolute = {}, {}
    for ra, rb in zip(rows_a, rows_b):
        for col, (sa, sb) in enumerate(zip(ra, rb)):
            if sa == sb:
                continue
            try:
                a, b = float(sa), float(sb)
            except ValueError:
                return None, math.inf, math.inf
            if a != b:
                rel[col] = max(rel.get(col, 0.0),
                               abs(a - b) / max(abs(a), abs(b)))
                absolute[col] = max(absolute.get(col, 0.0), abs(a - b))
    if not rel:
        return None, 0.0, 0.0
    col = max(rel, key=rel.get)
    return rows_a[0][col], rel[col], absolute[col]


def compare_dirs(parent_dir, change_dir):
    """{"missing", "extra", "differing", "files"}: the names only in the
    parent's directory, only in the change's, and those whose bytes differ
    (with :func:`csv_difference` for a CSV, else None)."""
    parent, change = set(os.listdir(parent_dir)), set(os.listdir(change_dir))
    differing = {}
    for name in sorted(parent & change):
        pa, pb = os.path.join(parent_dir, name), os.path.join(change_dir, name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                continue
        differing[name] = (csv_difference(pa, pb)
                           if name.endswith(".csv") else None)
    return {"missing": sorted(parent - change),
            "extra": sorted(change - parent),
            "differing": differing, "files": len(parent | change)}


def run_config(src, config, out):
    """Both modes of one config from the sources ``src``: the mode, exit
    status and standard output of each run."""
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for mode in ("modified", "baseline-lf"):
        proc = subprocess.run(
            [sys.executable, "-m", "nozzleflow.cli", "run", "--config",
             config, "--out", out, "--mode", mode],
            env=env, capture_output=True, text=True)
        results.append((mode, proc.returncode, proc.stdout))
    return results


def run_difference(parent, change):
    """How two runs ``(mode, exit status, standard output)`` differ: the
    mode, both exit statuses and the first line of standard output that
    differs, with its number; None when they do not differ."""
    (mode, code_p, out_p), (_mode, code_c, out_c) = parent, change
    if (code_p, out_p) == (code_c, out_c):
        return None
    text = f"{mode}: exit status {code_p} (parent), {code_c} (change)"
    lines = itertools.zip_longest(out_p.splitlines(), out_c.splitlines(),
                                  fillvalue="(no line)")
    for k, (a, b) in enumerate(lines, 1):
        if a != b:
            return text + f"; stdout line {k}: parent {a!r}, change {b!r}"
    return text + "; stdout differs in its line ends"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    args = ap.parse_args(argv)
    work = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        tree = os.path.join(work, "parent")
        os.makedirs(tree)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        srcs = {"parent": os.path.join(tree, "src"),
                "change": os.path.join(ROOT, "src")}
        configs = write_configs(os.path.join(work, "configs"))
        files = differences = 0
        for name, config in configs.items():
            outs = {side: os.path.join(work, "out", side, name)
                    for side in srcs}
            runs = {side: run_config(srcs[side], config, outs[side])
                    for side in srcs}
            report = compare_dirs(outs["parent"], outs["change"])
            runs_differ = [d for d in map(run_difference, runs["parent"],
                                          runs["change"]) if d]
            files += report["files"]
            n_diff = (len(report["missing"]) + len(report["extra"])
                      + len(report["differing"]) + len(runs_differ))
            differences += n_diff
            status = ", ".join(f"{mode} exit {code}"
                               for mode, code, _out in runs["change"])
            print(f"{name}: {report['files']} files, {n_diff} differences "
                  f"({status})")
            for diff in runs_differ:
                print(f"  run differs: {diff}")
            for key in ("missing", "extra"):
                for f in report[key]:
                    print(f"  {key}: {f}")
            for f, diff in report["differing"].items():
                tail = ""
                if diff is not None:
                    col, rel, absolute = diff
                    tail = (f", column {col}: max relative diff {rel:.3g}, "
                            f"max absolute diff {absolute:.3g}")
                print(f"  differing: {f}{tail}")
        print(f"{differences} differences over {files} files in "
              f"{len(configs)} configs, modified and baseline-lf")
        return 1 if differences else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
