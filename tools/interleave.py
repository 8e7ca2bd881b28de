#!/usr/bin/env python3
"""Interleaved rounds of a parent revision and this checkout, in one process.

    python3 tools/interleave.py --parent HEAD~1 --workload nozzle-cli \
        --seed 4101 --rounds 16 --out BENCH_name.json

The parent side is ``git archive PARENT`` unpacked into a work directory
and the change side a copy of this checkout's ``src/``, as
``tools/bench_pairs.py`` makes them.  Both sides' ``src/nozzleflow`` are
imported into this interpreter under two package names, which works
because every import inside the package is relative.  After one untimed
warm-up round per side, the rounds alternate between the sides, the parent
first in odd pairs and the change first in even pairs, so both sample the
same spells of machine speed.

* ``nozzle-cli``: a round is ``cli.main(["run", ...])`` in ``modified`` and
  then ``baseline-lf`` mode on each config that
  ``perfbench/workloads.nozzle_inputs`` writes for ``--seed``.  Its stepping
  time is the time inside ``cli.run``, as the benchmark takes it.
* ``duct-stepping``: a round is the benchmark's 60 ``scheme.advance`` steps
  from the seed's step-0 state.  Its stepping time is the time inside them.

Every round's stepping and wall time go to ``--out`` under ``interleaved``
and the workload, with the quartiles of the change-over-parent ratio of each
pair and the pairs each side won.  The file names the parent by its commit
hash; an existing ``--out`` file keeps its other entries, and one that
names another parent is refused.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--workload", required=True,
                    choices=["nozzle-cli", "duct-stepping"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True,
                    help="pairs of rounds, one round per side each")
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def load_package(src, name):
    """The ``nozzleflow`` package under the directory ``src``, imported as
    ``name``."""
    pkg_dir = os.path.join(src, "nozzleflow")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def cli_rounds(pkg, configs, work):
    """A function k -> (stepping, seconds) of a nozzle-cli round of the
    package on the config paths."""
    cli = importlib.import_module(pkg.__name__ + ".cli")

    def one_round(k):
        orig = cli.run
        stepping = 0.0

        def timed_run(*a, **kw):
            nonlocal stepping
            t0 = time.perf_counter()
            try:
                return orig(*a, **kw)
            finally:
                stepping += time.perf_counter() - t0
        cli.run = timed_run
        t0 = time.perf_counter()
        try:
            for i, config in enumerate(configs):
                out = os.path.join(work, f"{pkg.__name__}-{k}-{i}")
                for mode in ("modified", "baseline-lf"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(["run", "--config", config, "--out",
                                       out, "--mode", mode])
                    if rc not in (0, 2):     # 2: the CLI's audit failure
                        raise RuntimeError(f"{config} {mode}: exit {rc}")
                shutil.rmtree(out)
        finally:
            cli.run = orig
        return stepping, time.perf_counter() - t0
    return one_round


def duct_rounds(pkg, inputs, dx, steps):
    """A function k -> (stepping, seconds) of a duct-stepping round of the
    package: ``steps`` steps from the step-0 state that
    ``perfbench/workloads.duct_setup`` builds from ``inputs``."""
    name = pkg.__name__
    gas, nozzle, initialdata, scheme = (
        importlib.import_module(f"{name}.{m}")
        for m in ("gas", "nozzle", "initialdata", "scheme"))
    c = gas.GasConstants.for_gamma(1.4)
    geom = nozzle.NozzleGeometry.constant(X=1.0)
    b = nozzle.BoundFunction.zero(domain=(-2.0, 2.0))
    u0 = initialdata.GaussianBumpData(**inputs)
    params = scheme.SchemeParameters.create(
        dx=dx, M=scheme.select_M(u0, b, c), b=b, T=0.0, c=c)
    state0, mesh = scheme.initialize(u0, params, geom, b, c, cutoff=False)

    def one_round(k):
        state, stepping = state0, 0.0
        for _ in range(steps):
            t0 = time.perf_counter()
            state, _rec = scheme.advance(state, params, geom, b, c, mesh)
            stepping += time.perf_counter() - t0
        return stepping, stepping
    return one_round


def alternate(sides, pairs):
    """One untimed round per side, then ``pairs`` pairs of rounds, the
    parent first in odd pairs: a list of {pair, side, first, stepping,
    seconds}."""
    for one_round in sides.values():
        one_round(0)
    rounds = []
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            stepping, seconds = sides[side](i)
            rounds.append({"pair": i, "side": side, "first": order[0],
                           "stepping": stepping, "seconds": seconds})
    return rounds


def summarize(rounds):
    """Per timed quantity: the quartiles (25, 50, 75%), min and max of the
    change-over-parent ratio of each pair, and the pairs each side won."""
    by_pair = {}
    for r in rounds:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    out = {}
    for key in ("stepping", "seconds"):
        ratios = [p["change"][key] / p["parent"][key]
                  for _, p in sorted(by_pair.items())]
        out[key] = {
            "ratio_quartiles": [float(q) for q in
                                np.percentile(ratios, [25, 50, 75])],
            "ratio_min": min(ratios), "ratio_max": max(ratios),
            "pairs_change_faster": sum(r < 1.0 for r in ratios),
            "pairs_parent_faster": sum(r > 1.0 for r in ratios),
            "pairs": len(ratios)}
    return out


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "src")]
    import bench_pairs
    import workloads
    parent = bench_pairs.resolve(args.parent)
    doc = bench_pairs.open_doc(args.out, parent) or {"parent_commit": parent}
    work = tempfile.mkdtemp(prefix="interleave_")
    try:
        trees = bench_pairs.unpack_sides(parent, work)
        pkgs = {side: load_package(os.path.join(tree, "src"),
                                   f"nozzleflow_{side}")
                for side, tree in trees.items()}
        if args.workload == "nozzle-cli":
            inputs = workloads.nozzle_inputs(args.seed,
                                             os.path.join(work, "inputs"))
            configs = [cfg["config"] for cfg in inputs["configs"]]
            sides = {side: cli_rounds(pkg, configs, work)
                     for side, pkg in pkgs.items()}
        else:
            inputs = workloads.duct_inputs(args.seed, work)
            sides = {side: duct_rounds(pkg, inputs, workloads.DUCT_DX,
                                       workloads.DUCT_STEPS)
                     for side, pkg in pkgs.items()}
        rounds = alternate(sides, args.rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    harness = (f"python3 tools/interleave.py --parent {parent[:12]} "
               f"--workload {args.workload} --seed {args.seed} --rounds "
               f"{args.rounds}: both sides imported in one process, one "
               f"untimed round each, then alternating rounds, the parent "
               f"first in odd pairs")
    doc.setdefault("interleaved", {})[args.workload] = {
        "harness": harness, "seed": args.seed, "rounds": rounds,
        "summary": summarize(rounds)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for key, s in doc["interleaved"][args.workload]["summary"].items():
        q = ", ".join(f"{v:.4f}" for v in s["ratio_quartiles"])
        print(f"{key}: change/parent quartiles {q}; change faster in "
              f"{s['pairs_change_faster']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
