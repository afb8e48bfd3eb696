#!/usr/bin/env python3
"""Alternating before/after pairs of benchmark runs, written as BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload finite-mc --pairs 10 \\
        --seed 201 --label class_tails

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
``python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` in
each checkout, one after the other, the parent first in even pairs and the
change first in odd ones, so that a drift of the host's speed falls on both
sides alike.  Each run is recorded with its side, seed, length in seconds,
correctness, operation counts and end-to-end metrics.  Runs are appended to
an existing file of the same label, so several workloads can share one file.
A summary per metric (median and quartiles on each side, pairs the change
wins) is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    length = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"run_length_s": round(length), "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def host() -> dict:
    import numpy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        pass
    return info


def summarize(runs: list[dict], workload: str, better_lower=("wall_s", "cpu_s", "setup_s",
                                                            "peak_rss_mb")):
    sides = {side: {r["seed"]: r for r in runs if r["side"] == side and r["workload"] == workload}
             for side in ("parent", "change")}
    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
    if not seeds:
        return
    print(f"{workload}: {len(seeds)} pairs")
    for name in better_lower:
        cols = {}
        for side in ("parent", "change"):
            vals = [sides[side][s]["metrics"][name] for s in seeds]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            cols[side] = (statistics.median(vals), q[0], q[2])
        wins = sum(sides["change"][s]["metrics"][name] < sides["parent"][s]["metrics"][name]
                   for s in seeds)
        (pm, pl, ph), (cm, cl, ch) = cols["parent"], cols["change"]
        print(f"  {name:12s} {pm:.4g} [{pl:.4g}, {ph:.4g}] -> {cm:.4g} [{cl:.4g}, {ch:.4g}] "
              f"({cm / pm - 1:+.1%}), change lower in {wins} of {len(seeds)}")
    for side in ("parent", "change"):
        lengths = [sides[side][s]["run_length_s"] for s in seeds]
        failed = [f"{sides[side][s]['failed']}/{sides[side][s]['attempted']}" for s in seeds]
        correct = all(sides[side][s]["correct"] for s in seeds)
        print(f"  {side}: runs {min(lengths)}-{max(lengths)} s, failed {' '.join(failed)}, "
              f"every run correct: {correct}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=float, default=50.0, help="length of each run's rounds")
    ap.add_argument("--what", default=None, help="one-line description kept in the file")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    path = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {
        "label": args.label,
        "what": args.what or ("paired runs of `python3 perfbench/run.py --workload W --seed N "
                              f"--seconds {args.seconds:g} --trace 0`; order alternated "
                              "within each pair"),
        "host": host(),
        "runs": [],
    }
    if args.what:
        doc["what"] = args.what
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = run_once(checkouts[side], args.workload, seed, args.seconds)
            doc["runs"].append({"side": side, "workload": args.workload, "seed": seed, **rec})
            path.write_text(json.dumps(doc, indent=1) + "\n")     # keep what is done
            print(f"# {args.workload} seed {seed} {side}: wall_s {rec['metrics']['wall_s']:.4g}, "
                  f"{rec['run_length_s']} s", file=sys.stderr)
    summarize(doc["runs"], args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
