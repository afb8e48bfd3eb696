"""The workloads: their inputs, the operations of one round, and checks.

A round is a fixed list of operations, and every round of a run repeats the
same operations on the same inputs.  ``Op.run`` is the timed call into the
program; ``Op.check`` runs afterwards, outside the timed span, and returns
``(failed, problems)``: ``failed`` marks an operation that produced no usable
result (exception, non-zero exit, a bound that reads 0), ``problems`` lists
disagreements with the reference values of an operation that did produce one.
``Workload.check_round`` then checks properties that span several operations.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref
from expurg import cli, finite, presets, type_enum
from expurg.ensembles import EnsembleSpec

LN2 = math.log(2.0)
INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, list[str]]]
    units: dict = field(default_factory=dict)      # rates / rows this op produces


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> dict[str, list[float | None]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cols: dict[str, list[float | None]] = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(float(v) if v else None)
    return cols


def log_close(got: float, want: float, what: str) -> list[str]:
    """Log-domain agreement to 1e-5 of the log's magnitude (the program's rho search
    stops at a relative width of 1e-6, which moves a boundary optimum by that much)."""
    if abs(got - want) <= 1e-5 * max(1.0, abs(want)):
        return []
    return [f"{what}: log value {got:.12g}, reference {want:.12g}"]


def golden_min(f: Callable[[float], float], lo: float, hi: float,
               xtol: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi]; a fixed number of calls."""
    a, b = lo, hi
    x1, x2 = b - INVGOLD * (b - a), a + INVGOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol * (1.0 + abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVGOLD * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVGOLD * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def check_presets(names) -> list[str]:
    """The benchmark's reference matrices must be the instances the program builds."""
    problems = []
    for name in names:
        ch, q, qin = presets.load_preset(name)
        w, qq, qv = ref.INSTANCES[name]
        if not (np.array_equal(ch.w, w) and np.array_equal(q.q, qq)
                and np.allclose(qin.q_vec, qv, rtol=0, atol=1e-15)):
            problems.append(f"preset {name} differs from the reference instance")
    return problems


class Workload:
    name = ""
    instances: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.built = {name: presets.load_preset(name) for name in self.instances}

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check_round(self, ops: list[Op], results: list[tuple[bool, Any]]) -> list[str]:
        """Checks across the operations of one round, after the per-operation ones."""
        return []

    def log_inner_fn(self, name: str, n: int, ensemble: str) -> Callable[[float], float]:
        """rho -> log E[T^(1/rho)] from reference.py; ``fig1_tails`` covers fig1 n."""
        if ensemble == "brute":
            return lambda rho: ref.brute_log_inner_iid(name, n, rho)
        if name == "bsc":
            return lambda rho: ref.bsc_log_inner(n, rho, ensemble)
        if ensemble == "iid":
            return lambda rho: self.fig1_tails.log_inner_iid(n, rho)
        return lambda rho: self.fig1_tails.log_inner_cc(n, rho)


# ---------------------------------------------------------------------------
# exponent-grid
# ---------------------------------------------------------------------------

class ExponentGrid(Workload):
    """``expurg exponent`` on fig1-mismatched and fig1-ml.

    The paper's grid is 0.024..0.6 bits in steps of 0.024 (25 rates).  Every
    round evaluates every fifth rate of it, 0.024, 0.144, ..., 0.504 bits, on
    both instances: one rate with an interior rho* (rho* is interior at the
    three lowest rates of the grid) and four with rho* = 1.  The full grid
    takes about 54 s on the reference machine, too long for a round.  Each
    rate is its own CLI call, about 1 s, so that a run times every call
    several times; one call over the five rates costs about the same as the
    five calls.  The seed scales the rates by a factor within 0.2% of 1.
    """

    name = "exponent-grid"
    instances = ("fig1-mismatched", "fig1-ml")
    STEP_BITS = 0.024
    GAP_LIMIT = 1e-4
    TOL = 1e-9            # bits; the program's searches stop far below this

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scale = 1.0 + 0.002 * (2.0 * self.rng.random() - 1.0)
        self.gallager: dict[str, ref.GallagerIID] = {}
        self.eex_ref: dict[tuple[str, float], float] = {}

    def round(self, r: int) -> list[Op]:
        step = 5 * self.STEP_BITS * self.scale
        rates = [self.STEP_BITS * self.scale + i * step for i in range(5)]
        return [Op(f"exponent {name} R={rate:.4g}",
                   lambda name=name, rate=rate: run_cli(
                       ["exponent", "--preset", name, "--grid", f"{rate!r}:{rate!r}:{step!r}",
                        "--unit", "bits"]),
                   lambda out, name=name, rate=rate: self.check(name, rate, out),
                   {"rates": 1})
                for name in self.instances for rate in rates]

    def reference_eex(self, name: str, rate_bits: float) -> float:
        key = (name, rate_bits)
        if key not in self.eex_ref:
            if name not in self.gallager:
                self.gallager[name] = ref.GallagerIID(name)
            self.eex_ref[key] = self.gallager[name].eex(rate_bits * LN2) / LN2
        return self.eex_ref[key]

    def check(self, name: str, rate: float, out) -> tuple[bool, list[str]]:
        """One rate's row: the gap certificate, cc >= iid and the Gallager reference."""
        code, text, _ = out
        if code != 0:
            return True, []
        cols = parse_csv(text)
        if len(cols["rate"]) != 1 or not math.isclose(cols["rate"][0], rate, rel_tol=1e-9):
            return False, [f"{name}: rates {cols['rate']} differ from the requested {rate!r}"]
        iid, ccd, ccp, gap = (cols[c][0] for c in
                              ("eex_iid", "eex_cc_dual", "eex_cc_primal", "gap"))
        where = f"{name} R={rate:.6g} bits"
        problems = []
        if not gap < self.GAP_LIMIT:
            problems.append(f"{where}: primal/dual gap {gap:.3g} >= {self.GAP_LIMIT}")
        if ccd < iid - self.TOL or ccp < iid - self.TOL:
            problems.append(f"{where}: a constant-composition exponent is below eex_iid")
        exp_ref = self.reference_eex(name, rate)
        if abs(iid - exp_ref) > 1e-6:
            problems.append(f"{where}: eex_iid = {iid:.12g}, Gallager grid maximum {exp_ref:.12g}")
        return False, problems

    def check_round(self, ops: list[Op], results: list[tuple[bool, Any]]) -> list[str]:
        """Each instance's curves, over the round's rates, are nonincreasing and convex."""
        problems = []
        per_rate = len(ops) // len(self.instances)
        for i, name in enumerate(self.instances):
            outs = results[i * per_rate:(i + 1) * per_rate]
            if not all(ok and out[0] == 0 for ok, out in outs):
                continue                         # a failed rate is counted on its own
            rows = [parse_csv(out[1]) for _, out in outs]
            for label in ("eex_iid", "eex_cc_dual", "eex_cc_primal"):
                v = np.array([row[label][0] for row in rows])
                if np.any(np.diff(v) > self.TOL):
                    problems.append(f"{name}: {label} increases with the rate")
                if np.any(v[:-2] - 2 * v[1:-1] + v[2:] < -100 * self.TOL):
                    problems.append(f"{name}: {label} is not convex in the rate")
        return problems


# ---------------------------------------------------------------------------
# finite-mc, first half: finite-n rows
# ---------------------------------------------------------------------------

class FiniteSweep(Workload):
    """First half of finite-mc: ``expurg finite`` rows and the cc exact sum.

    BSC(0.1) at rate ~0.02 nats for n = 100, 400, 1600, and fig1-mismatched at
    rate ~0.1 nats for n = 4, 8, 12; one CLI call per row.  The seed scales
    each of the two rates by a factor within 5% of 1.  The BSC row at
    n = 6400 runs at the fixed rate 0.02, with rho fixed at 1 because its
    optimized form alone takes about 51 s (38 exact sums).  The CLI prints it
    as 0 in all three bound columns (``math.exp`` of a log value near -1300
    before formatting), so it is counted as failed in every round.  The cc
    operations minimize ``type_enum.log_rcux_cc_exact`` over rho in [1, 100]
    with the benchmark's golden search (38 calls), on BSC n = 100 and on
    fig1-mismatched n = 9.
    """

    instances = ("bsc", "fig1-mismatched")
    BSC_N = (100, 400, 1600)
    FIG1_N = (4, 8, 12)
    FAILING = (6400, 0.02)

    def __init__(self, seed: int):
        super().__init__(seed)
        f_bsc, f_fig1 = 1.0 + 0.05 * (2.0 * self.rng.random(2) - 1.0)
        self.rate_bsc = float(0.02 * f_bsc)
        self.rate_fig1 = float(0.1 * f_fig1)
        self.rows: dict[tuple, float] = {}
        self.fig1_tails = ref.RowClassTails("fig1-mismatched", max(self.FIG1_N + (9,)))

    def round(self, r: int) -> list[Op]:
        ops = []
        for n in self.BSC_N:
            ops.append(self._cli_row("bsc", n, self.rate_bsc))
        n, rate = self.FAILING
        ops.append(self._cli_row("bsc", n, rate, rho=1.0))
        for n in self.FIG1_N:
            ops.append(self._cli_row("fig1-mismatched", n, self.rate_fig1))
        ops.append(self._cc_op("bsc", 100, self.rate_bsc))
        ops.append(self._cc_op("fig1-mismatched", 9, self.rate_fig1))
        return ops

    # -- reference values ---------------------------------------------------

    def reference(self, name: str, n: int, rate: float, ensemble: str,
                  rho: float | None = None) -> float:
        key = (name, n, rate, ensemble, rho)
        if key not in self.rows:
            fn = self.log_inner_fn(name, n, ensemble)
            if rho is None:
                self.rows[key] = ref.min_over_rho(fn, n * rate)[0]
            else:
                self.rows[key] = ref.log_bound(fn(rho), n * rate, rho)
        return self.rows[key]

    # -- operations ---------------------------------------------------------

    def _cli_row(self, name: str, n: int, rate: float, rho: float | None = None) -> Op:
        argv = ["finite", "--preset", name, "--n", str(n), "--rate", repr(rate)]
        if rho is not None:
            argv += ["--rho", repr(rho)]

        def check(out) -> tuple[bool, list[str]]:
            code, text, _ = out
            if code != 0:
                return True, []
            cols = parse_csv(text)
            exact, product, refined = (cols[c][0] for c in
                                       ("rcux_exact", "rcux_product", "refined_bound"))
            if any(v is None or not (0.0 < v < math.inf) for v in (exact, product, refined)):
                return True, []          # every true bound here is positive and finite
            where = f"finite {name} n={n}"
            problems = log_close(math.log(exact), self.reference(name, n, rate, "iid", rho),
                                 f"{where} rcux_exact")
            if rho is None and exact > product * (1 + 1e-12):
                problems.append(f"{where}: rcux_exact {exact:.12g} > rcux_product {product:.12g}")
            if name == "fig1-mismatched" and n == min(self.FIG1_N):
                problems += log_close(math.log(exact), self.reference(name, n, rate, "brute"),
                                      f"{where} brute force")
            return False, problems

        return Op(f"finite {name} n={n}", lambda: run_cli(argv), check, {"rows": 1})

    def _cc_op(self, name: str, n: int, rate: float) -> Op:
        ch, q, qin = self.built[name]
        m = math.exp(n * rate)

        def run():
            return golden_min(lambda r: type_enum.log_rcux_cc_exact(ch, q, qin, n, m, r),
                              ref.RHO_LO, ref.RHO_HI)[1]

        def check(val) -> tuple[bool, list[str]]:
            if not math.isfinite(val):
                return True, []
            return False, log_close(val, self.reference(name, n, rate, "cc"),
                                    f"cc exact {name} n={n}")

        return Op(f"cc-exact {name} n={n}", run, check)


# ---------------------------------------------------------------------------
# finite-mc, second half: Monte Carlo
# ---------------------------------------------------------------------------

class MonteCarlo(Workload):
    """Second half of finite-mc: ``finite.mc_rcux`` and ``finite.expurgate_simulate``.

    mc_rcux: BSC(0.1) and fig1-mismatched, iid and cc, n = 20 and 80, 2000
    samples each at rho = 2 and M = exp(0.05 n).  expurgate_simulate: BSC,
    iid, n = 24, M = 8, 5000 trials per message.  Each operation draws its
    own seed from the run's seed, and every round of the run reuses it, so
    that rounds repeat the same work.

    The MC check uses the exact standard deviation of T^(1/rho), from
    E[T^(2/rho)] (the inner sum at rho/2), not the sample's: at n = 80 a
    sample that misses the rare close pairs underestimates both its mean and
    its spread, so a half-width from the sample makes the check flaky.
    """

    instances = ("bsc", "fig1-mismatched")
    MC_N = (20, 80)
    SAMPLES = 2000
    RHO = 2.0
    HALF_WIDTHS = 4.0          # |MC mean - exact inner| allowed, in exact 95% half-widths
    SIM = (24, 8, 5000)        # n, M, trials

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = {(name, kind): EnsembleSpec(kind, self.built[name][2])
                      for name in self.instances for kind in ("iid", "cc")}
        self.fig1_tails = ref.RowClassTails("fig1-mismatched", max(self.MC_N))
        self.moments: dict[tuple, tuple[float, float]] = {}
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(9)]
        n, m, _ = self.SIM
        self.sim_bound = math.exp(ref.min_over_rho(self.log_inner_fn("bsc", n, "iid"),
                                                   math.log(m))[0])

    def round(self, r: int) -> list[Op]:
        seeds = iter(self.seeds)
        ops = [self._mc_op(name, kind, n, next(seeds))
               for name in self.instances for kind in ("iid", "cc") for n in self.MC_N]
        ops.append(self._sim_op(next(seeds)))
        return ops

    def exact_moments(self, name: str, kind: str, n: int) -> tuple[float, float]:
        """(mean, standard deviation) of T^(1/rho) over the ensemble's pairs."""
        key = (name, kind, n)
        if key not in self.moments:
            fn = self.log_inner_fn(name, n, kind)
            mean, second = math.exp(fn(self.RHO)), math.exp(fn(self.RHO / 2))
            self.moments[key] = (mean, math.sqrt(max(second - mean * mean, 0.0)))
        return self.moments[key]

    def _mc_op(self, name: str, kind: str, n: int, seed: int) -> Op:
        ch, q, _ = self.built[name]
        spec = self.specs[name, kind]
        m = math.exp(0.05 * n)

        def run():
            return finite.mc_rcux(ch, q, spec, n, m, self.RHO, self.SAMPLES, seed)

        def check(est) -> tuple[bool, list[str]]:
            if not (math.isfinite(est.inner_mean) and est.inner_mean > 0):
                return True, []
            exact, sd = self.exact_moments(name, kind, n)
            half = 1.96 * sd / math.sqrt(self.SAMPLES)
            if abs(est.inner_mean - exact) <= self.HALF_WIDTHS * half:
                return False, []
            return False, [f"mc {name}/{kind} n={n} seed={seed}: mean {est.inner_mean:.6g}, "
                           f"exact {exact:.6g}, half-width {half:.3g}"]

        return Op(f"mc {name}/{kind} n={n}", run, check)

    def _sim_op(self, seed: int) -> Op:
        ch, q, _ = self.built["bsc"]
        spec = self.specs["bsc", "iid"]
        n, m, trials = self.SIM

        def run():
            return finite.expurgate_simulate(ch, q, spec, n, m, seed, trials)

        def check(rep) -> tuple[bool, list[str]]:
            err = rep.max_error
            if not 0.0 <= err <= 1.0:
                return True, []
            if len(rep.per_message) != m:
                return False, [f"simulate seed={seed}: {len(rep.per_message)} messages kept, "
                               f"not {m}"]
            bound = self.sim_bound
            sigma = math.sqrt(max(err * (1 - err), 1.0 / trials) / trials)
            if err <= bound + 3 * sigma:
                return False, []
            return False, [f"simulate seed={seed}: max error {err:.4g} > "
                           f"bound {bound:.4g} + 3 sigma {sigma:.3g}"]

        return Op("simulate bsc", run, check)


class FiniteMC(Workload):
    """The finite-n rows and the Monte Carlo operations in one round.

    The two halves stress different code (lattice convolutions under a rho
    search; sampling and single tails behind the MC cache), and their
    per-layer metrics stay apart.  They share one workload so that each run
    can measure for longer within the same total time: on a host whose speed
    drifts over minutes, longer runs give steadier medians.
    """

    name = "finite-mc"
    instances = ("bsc", "fig1-mismatched")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parts = (FiniteSweep(seed), MonteCarlo(seed))

    def round(self, r: int) -> list[Op]:
        return [op for part in self.parts for op in part.round(r)]


WORKLOADS = {w.name: w for w in (ExponentGrid, FiniteMC)}
