#!/usr/bin/env python3
"""nozzleflow benchmark: one workload, timed for a fixed length, checked.

    python3 perfbench/run.py --workload nozzle-cli --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout (``src/nozzleflow`` beside this
directory).  The workload's inputs come from ``--seed``; the benchmark
repeats whole rounds of the workload's operations until ``--seconds`` have
passed and checks every round's outputs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
fresh interpreters from start to the first step), ``run_s`` (upper quartile
of the round time), ``cells_per_s`` or ``solves_per_s`` (work of a round
over the upper quartile of its stepping time) and ``peak_rss_mib``.
``--trace 1`` alternates untraced rounds with rounds run under the layer
wrappers of ``tracing`` and reports the per-layer metrics, including
``trace.overhead_s``, the traced minus the untraced upper-quartile round
time.  A record of the run (machine, kernel path, per-round samples, spans)
goes to ``.perfbench_out/results/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
# Peak memory is read after this many rounds, not at the end: the package
# keeps every kernel bundle it builds, so the end-of-run peak would grow
# with the number of rounds a faster machine fits into the run.
RSS_ROUNDS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["nozzle-cli", "duct-stepping", "riemann-batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def setup_seconds(workload, inputs_path):
    """Median wall time from spawning a fresh interpreter to the end of the
    workload's set-up, over SETUP_PROBES interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, probe, workload, inputs_path],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench, seconds, min_rounds, tracer=None):
    """Whole rounds until `seconds` have passed (at least `min_rounds`),
    each with the process's peak resident memory at its end.  With a
    tracer, every second round runs traced and the run ends on a traced
    round, so both kinds sample the same spells of machine speed."""
    rounds = []
    t0 = time.perf_counter()
    while (len(rounds) < min_rounds or time.perf_counter() - t0 < seconds
           or (tracer is not None and len(rounds) % 2)):
        traced = tracer is not None and len(rounds) % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            r = bench.round(len(rounds))
        r["traced"] = traced
        r["rss_mib"] = peak_rss_mib()
        rounds.append(r)
    return rounds


def round_record(r):
    """What the run record keeps of a round."""
    return {"seconds": r["seconds"], "stepping": r["stepping"],
            "work": r["work"], "rss_mib": r["rss_mib"], "traced": r["traced"],
            "failed": sum(e is not None for e in r["errors"])}


def summarize(rounds):
    """Round time and rate from the upper quartile of the rounds' times.

    The shared machine this was tuned on runs at a contended speed most of
    the time, with fast spells of seconds to minutes.  The mean or median
    of a run moves with the share of fast spells it happened to catch; the
    upper quartile follows the contended speed.
    """
    errors = [e for r in rounds for e in r["errors"]]
    failed = sum(e is not None for e in errors)
    return {
        "run_s": float(np.percentile([r["seconds"] for r in rounds], 75)),
        "rate": (statistics.mean(r["work"] for r in rounds)
                 / np.percentile([r["stepping"] for r in rounds], 75)),
        "attempted": len(errors),
        "failed": failed,
        "wrong": sum(r["wrong"] for r in rounds),
        "first_errors": [e for e in errors if e is not None][:5],
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nozzleflow", "__init__.py")):
        print(f"error: no nozzleflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from nozzleflow._numba import NUMBA_ENABLED

    make_inputs, _setup, Bench = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "kernels": "numba" if NUMBA_ENABLED else "interpreted",
              "machine": {"cpus": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": np.__version__,
                          "platform": platform.platform()}}
    try:
        inputs = make_inputs(args.seed, work)
        inputs_path = os.path.join(work, "inputs.json")
        os.makedirs(work, exist_ok=True)
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        if args.trace == 0:
            setup, samples = setup_seconds(args.workload, inputs_path)
            record["setup_samples"] = samples
            rounds = measure(Bench(inputs, work), args.seconds, RSS_ROUNDS)
            s = summarize(rounds)
            rate = ("solves_per_s" if args.workload == "riemann-batch"
                    else "cells_per_s")
            metrics = {
                "setup_s": (setup, "s"),
                "run_s": (s["run_s"], "s"),
                rate: (s["rate"], rate.replace("_per_s", "/s")),
                "peak_rss_mib": (rounds[RSS_ROUNDS - 1]["rss_mib"], "MiB"),
            }
            record["rounds"] = [round_record(r) for r in rounds]
        else:
            import tracing
            from nozzleflow import nozzle
            tracer = tracing.Tracer()
            with tracer:
                bench = Bench(inputs, work)
            bundles = len(nozzle._BUNDLE_MEMO)
            rounds = measure(bench, args.seconds, 2, tracer)
            traced = [r for r in rounds if r["traced"]]
            plain = [r for r in rounds if not r["traced"]]
            s = summarize(rounds)
            metrics = tracer.metrics(len(traced))
            metrics["nozzle.bundles_alive"] = (
                (len(nozzle._BUNDLE_MEMO) - bundles) / len(rounds), "count")
            metrics["cli.snapshot_mib"] = (statistics.mean(
                r.get("snapshot_bytes", 0) for r in traced) / 2.0 ** 20, "MiB")
            metrics["trace.overhead_s"] = (
                summarize(traced)["run_s"] - summarize(plain)["run_s"], "s")
            record["rounds"] = [round_record(r) for r in rounds]
            record["spans"] = tracer.span_records()
        result = {"correct": s["wrong"] == 0,
                  "attempted": s["attempted"], "failed": s["failed"],
                  "metrics": {k: {"value": float(value), "unit": unit}
                              for k, (value, unit) in sorted(metrics.items())}}
        record["result"] = result
        record["first_errors"] = s["first_errors"]
        name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                f"{os.getpid()}.json")
        with open(os.path.join(OUT, "results", name), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in s["first_errors"]:
        print(f"failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
