"""Run two sets of benchmark runs and report whether they agree within the bounds.

    python3 perfbench/compare.py [--runs 10] [--workload NAME ...] [--seconds S]
                                 [--first-seed 1]

Every run is a fresh ``perfbench/run.py`` process.  The first set uses seeds
first-seed .. first-seed + runs - 1 and the second the next ``runs`` seeds,
so no two runs share a seed.  For each workload and end-to-end metric the
report gives each set's median and its spread, the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  The sets agree when:

* every spread, setup_s's too, is within the metric's bound;
* the two medians differ by no more than the bound times the first median,
  in either direction: a drift that makes the second set faster shows as
  much as one that makes it slower;
* every run is correct and the share of failed operations is exactly the
  same in every run.

Raw results go to ``out/perfbench/compare.json``.  Exit status 0 when the
sets agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    raw: dict[str, list[list[dict]]] = {}
    for wl in workloads:
        raw[wl] = []
        for k in range(2):
            base = args.first_seed + k * args.runs
            runs = []
            for seed in range(base, base + args.runs):
                res = one_run(wl, seed, args.seconds)
                print(f"{wl} set {k + 1} seed {seed}: {res['elapsed_s']:.0f} s, "
                      f"correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                      flush=True)
                runs.append(res)
            raw[wl].append(runs)
    out = ROOT / "out" / "perfbench" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))

    agree = True
    print(f"\n{'workload':14s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(k + 1):>10s} {'spread' + str(k + 1):>8s}"
                     for k in range(2)) + "  verdict")
    for wl in workloads:
        sets = raw[wl]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            agree = False
            print(f"{wl:14s} failed shares {sorted(map(str, shares))}, correct "
                  f"{all(r['correct'] for runs in sets for r in runs)}  DISAGREE")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals))
            ok = all(s <= bound for s in spreads) and abs(meds[1] - meds[0]) <= bound * meds[0]
            agree &= ok
            print(f"{wl:14s} {name:12s} {bound:6.2f} "
                  + " ".join(f"{md:10.4g} {sp:8.4f}" for md, sp in zip(meds, spreads))
                  + ("  ok" if ok else "  DISAGREE"))
    print("\nsets agree within the bounds" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
