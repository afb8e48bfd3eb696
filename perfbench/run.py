"""Benchmark runner for expurg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The runner imports ``expurg`` from ``src/``
of the same checkout, runs whole rounds of the workload's operations for
S seconds (at least three rounds, and none that would end past S), checks
every output against the reference computations in ``reference.py``
outside the timed span, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` every round runs traced and the metrics are the per-layer
ones.  Spans of a traced run are written to ``out/perfbench/`` as JSON lines.
"""

from __future__ import annotations

import os

# one thread per process for every BLAS/OpenMP pool; set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse          # noqa: E402
import contextlib        # noqa: E402
import json              # noqa: E402
import math              # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import time              # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np       # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up probes before the first round and after every round: spread over the
# whole run, their median sees the same stretches of host speed as the rounds
PROBES_PER_GAP = 3
# every operation is timed at least this often, for a median over passes
MIN_ROUNDS = 3
# host-speed kernel: its time on the reference speed, and repetitions per reading
KERNEL_REF_S = 1.0e-3
KERNEL_REPS = 7


def _kernel_py():
    acc = 0
    for i in range(20000):
        acc += i * i


def _kernel_np(m=np.linspace(0.1, 0.9, 64).reshape(8, 8)):
    for _ in range(100):
        m = np.exp(np.log(m + 1.0) - 0.5)
        m = m / m.sum(axis=1, keepdims=True)
        float(m.max())


def kernel_s() -> float:
    """The host's current speed: the time of a fixed kernel of interpreted
    arithmetic and small numpy steps, the mix the program's solvers run
    (geometric mean of the medians of the two parts' times)."""
    logs = []
    for part in (_kernel_py, _kernel_np):
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(times)))
    return math.exp(sum(logs) / len(logs))


def setup_times(instances: tuple[str, ...]) -> list[float]:
    """Process start to ready-for-the-first-operation, in fresh interpreters,
    each scaled to the reference host speed.

    Each probe imports ``expurg`` and builds the workload's instances, then
    prints CLOCK_MONOTONIC, which is shared by all processes of the machine.
    """
    times = []
    k = kernel_s()
    for _ in range(PROBES_PER_GAP):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *instances],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        elapsed = float(proc.stdout.strip().splitlines()[-1]) - t0
        k_after = kernel_s()
        times.append(elapsed * KERNEL_REF_S / math.sqrt(k * k_after))
        k = k_after
    return times


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is in KiB on Linux


def run_ops(ops, tracer=None) -> dict:
    """Time one pass over the round's operations: each operation's wall and CPU
    seconds, the host kernel's time before and after it, and its output."""
    results, op_wall, op_cpu = [], [], []
    kernel = [kernel_s()]
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in ops:
            t0, c0 = time.perf_counter(), cpu_now()
            try:
                results.append((True, op.run()))
            except Exception as exc:            # a failed operation; the run goes on
                results.append((False, f"{type(exc).__name__}: {exc}"))
            op_wall.append(time.perf_counter() - t0)
            op_cpu.append(cpu_now() - c0)
            kernel.append(kernel_s())
    scale = [KERNEL_REF_S / math.sqrt(a * b) for a, b in zip(kernel, kernel[1:])]
    return {"wall": sum(op_wall), "results": results, "op_wall": op_wall, "kernel": kernel,
            "op_wall_ref": [t * f for t, f in zip(op_wall, scale)],
            "op_cpu_ref": [t * f for t, f in zip(op_cpu, scale)]}


def round_time(rounds: list[dict], key: str) -> float:
    """A round's time: the sum over its operations of each one's median over
    the run's rounds, which all repeat the same operations on the same inputs."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in rounds)))


def check_results(ops, results, problems: list[str]) -> int:
    failed = 0
    for op, (ok, out) in zip(ops, results):
        if not ok:
            failed += 1
            print(f"# failed: {op.name}: {out}", file=sys.stderr)
            continue
        op_failed, op_problems = op.check(out)
        if op_failed:
            failed += 1
            print(f"# failed: {op.name}: {str(out)[-300:]!r}", file=sys.stderr)
        problems.extend(f"{op.name}: {p}" for p in op_problems)
    return failed


def layer_metrics(spec: list[dict], rounds: list[dict],
                  wrapper_costs: tuple[float, float]) -> dict[str, dict]:
    """Per-layer figures of the traced rounds: counts are means per round, self
    times medians per round, and ratios are taken over all traced rounds.

    ``trace.overhead_s`` is the wrappers' cost per round: spans per round times
    the cost of a span wrapper plus counted calls per round times the cost of
    a counter wrapper, both measured in this run.  A traced round's wall time
    minus an untraced one's would measure the host's drift between the two
    more than the wrappers."""
    def total(field: str, key: str) -> float:
        return sum(getattr(r["tracer"], field)[key] for r in rounds)

    def calls_per_round(key: str) -> float:
        return total("calls", key) / len(rounds)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    units = {k: sum(r["units"].get(k, 0) for r in rounds) for k in ("rates", "rows")}
    work = {k: sum(r["tracer"].work[k] for r in rounds)
            for k in ("pair_min_iterations", "mc_samples", "simulate_trials", "mc_tail_misses")}
    derived = {
        "dual.ex_cc_dual.calls_per_rate":
            ratio(total("calls", "dual.ex_cc_dual"), units["rates"]),
        "primal.entropic_pair_min.iters_per_call":
            ratio(work["pair_min_iterations"], total("calls", "primal.entropic_pair_min")),
        "type_enum.log_rcux_iid_exact.calls_per_row":
            ratio(total("calls", "type_enum.log_rcux_iid_exact"), units["rows"]),
        "finite.mc_rcux.samples_per_s":
            ratio(work["mc_samples"], total("incl_s", "finite.mc_rcux")),
        "finite.mc_rcux.tail_cache_hit_ratio":
            1.0 - ratio(work["mc_tail_misses"], work["mc_samples"]) if work["mc_samples"] else 0.0,
        "finite.expurgate_simulate.trials_per_s":
            ratio(work["simulate_trials"], total("incl_s", "finite.expurgate_simulate")),
        "trace.overhead_s":
            (sum(len(r["tracer"].spans) for r in rounds) * wrapper_costs[0]
             + sum(r["tracer"].counted_calls() for r in rounds) * wrapper_costs[1])
            / len(rounds),
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = statistics.median(r["tracer"].self_s[name[:-len(".self_s")]] for r in rounds)
        elif name.endswith(".builds") or name == "model.overlap.calls":     # counter layers
            value = calls_per_round(name)
        elif name.endswith(".calls"):                                         # span layers
            value = calls_per_round(name[:-len(".calls")])
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def write_spans(path: Path, rounds: list[dict]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, r in enumerate(rounds):
            for sid, parent, name, start, end in r["tracer"].spans:
                fh.write(json.dumps({"round": i, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (SRC / "expurg" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads                      # noqa: E402  (needs the path set above)
    from tracer import Tracer, wrapper_costs  # noqa: E402

    wl_class = workloads.WORKLOADS[args.workload]
    setups = setup_times(wl_class.instances)
    wl = wl_class(args.seed)
    problems = workloads.check_presets(wl.instances)

    rounds: list[dict] = []
    attempted = failed = 0
    measured = 0.0
    # no round that would, at the mean round time so far, end past --seconds
    while (len(rounds) < MIN_ROUNDS
           or measured * (len(rounds) + 1) / len(rounds) <= args.seconds):
        ops = wl.round(len(rounds))
        tracer = Tracer() if args.trace else None
        rec = run_ops(ops, tracer)
        rec["tracer"] = tracer
        rec["units"] = {}
        for op in ops:
            for k, v in op.units.items():
                rec["units"][k] = rec["units"].get(k, 0) + v
        measured += rec["wall"]
        attempted += len(ops)
        results = rec.pop("results")
        failed += check_results(ops, results, problems)
        problems.extend(wl.check_round(ops, results))
        rounds.append(rec)
        setups += setup_times(wl_class.instances)
        print(f"# round {len(rounds)}: {rec['wall']:.3f} s wall, "
              f"{sum(rec['op_wall_ref']):.3f} s at reference speed, "
              f"kernel {1e3 * statistics.median(rec['kernel']):.3f} ms; "
              f"operations {' '.join(f'{t:.3f}' for t in rec['op_wall'])} s", file=sys.stderr)

    if args.trace:
        # a layer whose function is gone would read 0, which looks like a gain
        problems.extend(f"not traced, absent from the program: {name}"
                        for name in rounds[0]["tracer"].missing)
    for line in problems:
        print(f"# check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(bench["per_layer"], rounds, wrapper_costs())
        write_spans(ROOT / "out" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    rounds)
    else:
        values = {
            "wall_s": round_time(rounds, "op_wall_ref"),
            "cpu_s": round_time(rounds, "op_cpu_ref"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:14s} rounds={len(rounds)} attempted={attempted} failed={failed} "
          f"correct={not problems}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
