"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``expurg`` with wrappers for the
duration of a ``with`` block.  A function imported by name into another
module (``primal``'s ``from .dual import ex_cc_dual``) is replaced in every
``expurg`` module namespace that holds it, so calls through either name are
seen.  Methods are replaced on their class.

Span layers record (id, parent, name, start, end) in memory; a layer's self
time is its span's duration minus the time covered by its child spans.
Counter layers only count calls: they sit under the hottest loops, where a
span per call would cost more than the work it measures.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

from expurg import cli, dual, ensembles, finite, model, primal, type_enum

# (owner, attribute, layer name); an owner is a module or a class
SPANS = [
    (cli, "main", "cli"),
    (dual, "eex_iid", "dual.eex_iid"),
    (dual, "eex_generic", "dual.eex_generic"),
    (dual, "ex_cc_dual", "dual.ex_cc_dual"),
    (dual, "ex_iid", "dual.ex_iid"),
    (primal, "eex_cc_primal", "primal.eex_cc_primal"),
    (primal, "entropic_pair_min", "primal.entropic_pair_min"),
    (type_enum, "log_rcux_iid_exact", "type_enum.log_rcux_iid_exact"),
    (type_enum, "log_rcux_cc_exact", "type_enum.log_rcux_cc_exact"),
    (type_enum.PairwiseTailCalculator, "log_tail", "type_enum.log_tail"),
    (finite, "optimize_rcux_exact", "finite.optimize_rcux_exact"),
    (finite, "optimize_rcux_product", "finite.optimize_rcux_product"),
    (finite, "prefactor_constants", "finite.prefactor_constants"),
    (finite, "mc_rcux", "finite.mc_rcux"),
    (finite, "expurgate_simulate", "finite.expurgate_simulate"),
    (ensembles.EnsembleSpec, "sample_words", "ensembles.sample_words"),
]
COUNTERS = [
    (model.PairKernel, "__init__", "model.pair_kernel.builds"),
    (model.PairKernel, "overlap", "model.overlap.calls"),
    (type_enum.PairwiseTailCalculator, "__init__", "type_enum.tail_calculator.builds"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()       # iterations, samples, trials, tails inside MC
        self.missing: list[str] = []
        self._stack: list[list] = []         # [span id, name, child time]
        self._undo: list[tuple[object, str, object]] = []

    def counted_calls(self) -> int:
        return sum(self.calls[name] for _, _, name in COUNTERS)

    # -- wrappers ----------------------------------------------------------

    def _record_work(self, name: str, bound, result):
        if name == "primal.entropic_pair_min":
            self.work["pair_min_iterations"] += int(result.iterations)
        elif name == "finite.mc_rcux":
            self.work["mc_samples"] += int(bound.arguments["samples"])
        elif name == "finite.expurgate_simulate":
            m = int(bound.arguments["M"])
            phases = 2 * m - 1 + (m if m > 1 else 0)
            self.work["simulate_trials"] += phases * int(bound.arguments["trials"])
        elif name == "type_enum.log_tail" and any(f[1] == "finite.mc_rcux" for f in self._stack):
            self.work["mc_tail_misses"] += 1

    def _span(self, fn, name: str):
        sig = inspect.signature(fn)
        needs_args = name in ("finite.mc_rcux", "finite.expurgate_simulate")
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [sid, name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.incl_s[name] += dur
                tracer.self_s[name] += dur - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tracer.spans[sid] = (sid, parent, name, start, end)
            tracer._record_work(name, sig.bind(*args, **kwargs) if needs_args else None, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ---------------------------------------------------

    def _replace(self, owner, attr: str, make):
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = make(orig)
        if isinstance(owner, type):
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "expurg" and not name.startswith("expurg."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, lambda fn, name=name: self._span(fn, name))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr, lambda fn, name=name: self._counter(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False


def wrapper_costs() -> tuple[float, float]:
    """Seconds a span wrapper and a counter wrapper add to one call.

    Each figure is the least, over 7 batches of 20,000 calls, of the time
    per call through the wrapper minus the time per plain call of the same
    function.  The least batch is the one the host slowed least, which is
    what the wrappers themselves cost.
    """
    def plain():
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(20000):
                fn()
            best = min(best, (time.perf_counter() - t0) / 20000)
        return best

    scratch = Tracer()
    base = per_call(plain)
    span = per_call(scratch._span(plain, "calibration")) - base
    counter = per_call(scratch._counter(plain, "calibration")) - base
    return max(span, 0.0), max(counter, 0.0)
