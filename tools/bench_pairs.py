#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, into a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload duct-stepping \
        --pairs 10 --seed0 9100 --seconds 20 --out BENCH_name.json

The parent side is ``git archive PARENT`` unpacked into a work directory;
the change side is a copy of this checkout's ``src/`` and ``perfbench/``,
uncommitted edits included.  Pair i runs both sides on seed ``seed0 + i``,
the parent first in odd pairs and the change first in even pairs, one run
at a time.  Every run's metrics go to ``--out`` under the workload, with a
summary per end-to-end metric: each side's median and quartiles, the pairs
each side won (a tie counts for neither), the gain, which is the gap
between the medians signed to be positive where the change is better,
whether that gain exceeds the parent's quartile spread, and the metric's
bound from ``BENCHMARK.json``.  With ``--trace 1`` the runs are traced and
their per-layer metrics go under ``traced`` instead.  The file names the
parent by its commit hash; an existing ``--out`` file keeps its other
workloads, and one that names another parent is refused.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--label", default="")
    return ap.parse_args(argv)


def resolve(rev):
    """The full hash of the commit that the git revision ``rev`` names now,
    so that a BENCH file names the commit it measured, not ``HEAD``."""
    return subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def open_doc(path, parent):
    """The BENCH file at ``path``, or None if there is none; refused if it
    measured another parent commit than ``parent``."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("parent_commit") != parent:
        sys.exit(f"{path} measured parent {doc.get('parent_commit')}, "
                 f"not {parent}")
    return doc


def unpack_sides(parent, work):
    """Directories holding each side's src/ and perfbench/."""
    sides = {"parent": os.path.join(work, "parent"),
             "change": os.path.join(work, "change")}
    os.makedirs(sides["parent"])
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive,
                   check=True)
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for sub in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, sub),
                        os.path.join(sides["change"], sub), ignore=skip)
    return sides


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {k: result[k] for k in ("attempted", "failed", "correct")}
    run.update({k: m["value"] for k, m in result["metrics"].items()})
    run["units"] = {k: m["unit"] for k, m in result["metrics"].items()}
    return run


def quartiles(values):
    return [float(q) for q in np.percentile(values, [25, 75])]


def summarize(runs, bounds):
    """Per end-to-end metric: medians, quartiles, wins and the bound.  The
    gaps and wins are signed by the metric's ``better`` direction, so a
    regression never reads as a gain."""
    out = {}
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    for name, (better, bound) in bounds.items():
        if name not in pairs[0]["parent"]:
            continue
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        pm, cm = float(np.median(par)), float(np.median(chg))
        pq = quartiles(par)
        ratios = [c / p for c, p in zip(chg, par)]
        gain = sign * (cm - pm)
        worse = sign * (pm - cm) / pm
        out[name] = {
            "better": better,
            "bound": bound,
            "parent_median": pm,
            "parent_quartiles": pq,
            "change_median": cm,
            "change_quartiles": quartiles(chg),
            "relative_change": (cm - pm) / pm,
            "pairs_change_better": sum(sign * (c - p) > 0.0
                                       for c, p in zip(chg, par)),
            "pairs_parent_better": sum(sign * (c - p) < 0.0
                                       for c, p in zip(chg, par)),
            "pairs": len(pairs),
            "median_gain": gain,
            "median_gain_exceeds_parent_quartile_spread":
                gain > pq[1] - pq[0],
            "parent_spread_relative_to_median": (pq[1] - pq[0]) / pm,
            "change_worse_by_relative": worse,
            "within_bound": worse <= bound,
            "pair_ratio_change_over_parent": {
                "median": float(np.median(ratios)),
                "min": min(ratios), "max": max(ratios)},
        }
    return out


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench["end_to_end"]}
    parent = resolve(args.parent)
    doc = open_doc(args.out, parent)
    if doc is None:
        doc = {"label": args.label, "parent_commit": parent,
               "machine": {"cpus": os.cpu_count(),
                           "python": platform.python_version(),
                           "numpy": np.__version__,
                           "platform": platform.platform()}}
    work = tempfile.mkdtemp(prefix="bench_pairs_")
    runs = []
    try:
        sides = unpack_sides(parent, work)
        for i in range(1, args.pairs + 1):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], args.workload, seed,
                               args.seconds, args.trace)
                run.update(side=side, pair=i, seed=seed, first=order[0],
                           seconds=args.seconds,
                           ended=time.strftime("%H:%M:%S"))
                runs.append(run)
                print(f"pair {i} {side}: " + ", ".join(
                    f"{k} {run[k]:.6g}" for k in bounds if k in run),
                    flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    harness = (f"python3 perfbench/run.py --workload {args.workload} --seed "
               f"S --seconds {args.seconds:g} --trace {args.trace}, in "
               f"git archive {parent[:12]} and in a copy of the change's "
               f"src/ and perfbench/; pair i uses seed {args.seed0} + i on "
               f"both sides, the parent first in odd pairs")
    entry = {"harness": harness, "runs": runs}
    if args.trace == 0:
        entry["summary"] = summarize(runs, bounds)
    doc.setdefault("traced" if args.trace else "workloads",
                   {})[args.workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
