"""Command-line front end.

Subcommands: ``exponent`` (rate-grid curves), ``duality`` (primal-dual gap
audit), ``finite`` (blocklength sweep of the computable bounds), ``check``
(single-letter gate report).  Output is CSV with ``#``-prefixed metadata
lines; byte-identical across runs for a fixed config and seed.

Exit codes: 0 ok, 1 usage error, 2 invariant violation, 3 gate or budget refusal.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, dual, finite, primal
from .config import RunConfig, load_instance, parse_grid, to_unit
from .errors import BudgetError, Error, GateRefusalError, UsageError
from .model import nonsingularity_set, pi_gamma, validate

GAP_LIMIT = 1e-3

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_REFUSAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="expurg", description=__doc__)
    p.add_argument("--version", action="version", version=f"expurg {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="instance config file")
        sp.add_argument("--preset", help="built-in instance name")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--unit", choices=("nats", "bits"), default="nats")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("exponent", help="exponent curves over a rate grid")
    common(sp)
    sp.add_argument("--grid", required=True, help="START:STOP:STEP in --unit")

    sp = sub.add_parser("duality", help="primal-dual gap over a rate grid")
    common(sp)
    sp.add_argument("--grid", required=True, help="START:STOP:STEP in --unit")

    sp = sub.add_parser("finite", help="finite-blocklength bound sweep")
    common(sp)
    sp.add_argument("--n", required=True, help="comma-separated blocklengths")
    sp.add_argument("--M", type=float, help="codebook size")
    sp.add_argument("--rate", type=float, help="rate in --unit (sets M = exp(n*rate))")
    sp.add_argument("--rho", type=float, help="fixed rho (default: optimized)")
    sp.add_argument("--s", type=float, help="fixed s (default: optimized)")
    sp.add_argument("--samples", type=int, default=0, help="Monte Carlo sample count")

    sp = sub.add_parser("check", help="single-letter gate report")
    common(sp)
    sp.add_argument("--gamma", type=float, help="cost ceiling for the worst-pair probability")
    return p


def _run_config(args) -> RunConfig:
    inst = load_instance(args.config, args.preset)
    rc = RunConfig(instance=inst, unit=args.unit, seed=args.seed, out=args.out)
    if getattr(args, "grid", None):
        rc.grid = parse_grid(args.grid, args.unit)
    if getattr(args, "n", None):
        try:
            rc.n_list = [int(v) for v in args.n.split(",")]
        except ValueError:
            raise UsageError("--n must be comma-separated integers") from None
    rc.M = getattr(args, "M", None)
    rate = getattr(args, "rate", None)
    if rate is not None:
        rc.rate = rate * (math.log(2.0) if args.unit == "bits" else 1.0)
    rc.rho = getattr(args, "rho", None)
    rc.s = getattr(args, "s", None)
    rc.samples = getattr(args, "samples", 0)
    return rc


def _emit(rc: RunConfig, command: str, header: list[str], rows: list[list[str]],
          notes: list[str] = ()):
    lines = [f"# expurg {command} v{__version__}",
             f"# instance={rc.instance.digest} unit={rc.unit} seed={rc.seed}"]
    lines += [f"# {n}" for n in notes]
    lines.append(",".join(header))
    lines += [",".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if rc.out:
        with open(rc.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v: float | None) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def _fmt_exp(lv: float | None) -> str:
    """exp(lv) as _fmt prints it, or built from log10 where exp(lv) is not a normal double."""
    if lv is None or not math.isfinite(lv):
        return _fmt(None if lv is None else math.exp(lv))
    if lv <= math.log(sys.float_info.max) and math.exp(lv) >= sys.float_info.min:
        return _fmt(math.exp(lv))
    e10 = lv / math.log(10.0)
    exp10 = math.floor(e10)
    mant = f"{10.0 ** (e10 - exp10):.12g}"
    if mant == "10":                     # the mantissa rounded up to the next decade
        mant, exp10 = "1", exp10 + 1
    return f"{mant}e{exp10:+03d}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_exponent(rc: RunConfig) -> int:
    ch, q, qin = rc.instance.triple()
    aux = rc.instance.ensemble.aux
    cache: dict = {}
    rows = []
    for rate_nats in rc.grid.values():
        iid = dual.eex_iid(ch, q, qin, rate_nats)
        cc_dual = dual.eex_cc_dual(ch, q, qin, rate_nats)
        cc_primal = primal.eex_cc_primal(ch, q, qin, rate_nats, _cache=cache)
        if aux is not None:
            cost = dual.eex_generic(
                lambda rho: dual.ex_cost_opt(ch, q, qin, aux, rho).value, rate_nats)
            cost_v = cost.value
        else:
            cost_v = iid.value      # no auxiliary costs configured: empty-set reduction
        gap = abs(cc_dual.value - cc_primal.value)
        rows.append([
            _fmt(to_unit(rate_nats, rc.unit)),
            _fmt(to_unit(iid.value, rc.unit)),
            _fmt(to_unit(cc_dual.value, rc.unit)),
            _fmt(to_unit(cc_primal.value, rc.unit)),
            _fmt(to_unit(cost_v, rc.unit)),
            _fmt(cc_dual.argmax.rho),
            _fmt(cc_dual.argmax.s),
            _fmt(to_unit(iid.raw, rc.unit)),
            _fmt(to_unit(cc_dual.raw, rc.unit)),
            _fmt(gap),
        ])
    _emit(rc, "exponent",
          ["rate", "eex_iid", "eex_cc_dual", "eex_cc_primal", "eex_cost",
           "rho_star", "s_star", "eex_iid_raw", "eex_cc_raw", "gap"],
          rows)
    return EXIT_OK


def cmd_duality(rc: RunConfig) -> int:
    ch, q, qin = rc.instance.triple()
    gaps, rows = [], []
    for rate_nats in rc.grid.values():
        rep = primal.duality_gap(ch, q, qin, rate_nats)
        gaps.append(rep.gap)
        rows.append([
            _fmt(to_unit(rate_nats, rc.unit)),
            _fmt(to_unit(rep.primal_value, rc.unit)),
            _fmt(to_unit(rep.dual_value, rc.unit)),
            _fmt(rep.gap),
        ])
    max_gap = max(gaps)
    _emit(rc, "duality", ["rate", "primal", "dual", "gap"], rows,
          notes=[f"max_gap={_fmt(max_gap)} limit={GAP_LIMIT:g}"])
    return EXIT_OK if max_gap <= GAP_LIMIT else EXIT_INVARIANT


def cmd_finite(rc: RunConfig) -> int:
    ch, q, qin = rc.instance.triple()
    spec = rc.instance.ensemble
    if not rc.n_list:
        raise UsageError("--n is required")
    if (rc.M is None) == (rc.rate is None):
        raise UsageError("exactly one of --M and --rate is required")

    refusal: str | None = None
    rows = []
    status = EXIT_OK
    for n in rc.n_list:
        M = rc.M if rc.M is not None else math.exp(n * rc.rate)
        log_exact, rho = None, rc.rho
        if spec.kind != "cost":        # the cost-shell ensemble has no exact sum
            log_exact, rho = finite.optimize_rcux_exact(ch, q, qin, n, M, rho=rc.rho,
                                                        ensemble=spec.kind)
        if rc.s is None or rho is None:
            log_prod, rho_prod, s = finite.optimize_rcux_product(ch, q, qin, n, M, rho=rc.rho)
            rho = rho_prod if rho is None else rho
        if rc.s is not None:
            s = rc.s
            log_prod = finite.log_rcux_iid_product(ch, q, qin, n, M, rho, s)
        mc = ci_lo = ci_hi = None
        if rc.samples > 0:
            est = finite.mc_rcux(ch, q, spec, n, M, rho, rc.samples, rc.seed)
            mc, ci_lo, ci_hi = est.value, est.ci_lo, est.ci_hi
        log_refined = None
        if refusal is None:
            rate = rc.rate if rc.rate is not None else math.log(M) / n
            try:
                log_refined = finite.log_refined_bound(ch, q, qin, rho, s, rate, n)
            except GateRefusalError as exc:
                refusal = str(exc)
                status = EXIT_REFUSAL
        rows.append([_fmt(float(n)), _fmt_exp(log_exact), _fmt_exp(log_prod),
                     _fmt(mc), _fmt(ci_lo), _fmt(ci_hi), _fmt_exp(log_refined)])

    notes = [f"refined_bound refused: {refusal}"] if refusal else []
    if spec.kind == "cost":
        notes.append("rcux_exact empty: no exact sum for the cost ensemble")
    _emit(rc, "finite",
          ["n", "rcux_exact", "rcux_product", "mc_estimate", "ci_lo", "ci_hi", "refined_bound"],
          rows, notes=notes)
    return status


def cmd_check(rc: RunConfig, gamma: float | None = None) -> int:
    ch, q, qin = rc.instance.triple()
    rep = validate(ch, q, qin)
    pi = pi_gamma(ch, q, gamma=gamma, q_in=qin)
    pairs, nonsingular = nonsingularity_set(ch, q, qin)
    pair_list = ";".join(f"({a} {b})" for a, b in sorted(pairs))
    rows = [
        ["violations", _fmt(float(len(rep.violations)))],
        ["pi", _fmt(pi)],
        ["support_aligned", str(int(rep.support_aligned))],
        ["nonsingular_pairs", str(int(len(pairs)))],
        ["pair_list", pair_list],
    ]
    notes = [f"violation: {v}" for v in rep.violations]
    if pi == 0.0:
        notes.append("warning: some pair has an empty error set (pi = 0)")
    _emit(rc, "check", ["quantity", "value"], rows, notes=notes)
    gates_ok = rep.ok and rep.support_aligned and nonsingular and pi > 0.0
    return EXIT_OK if gates_ok else EXIT_REFUSAL


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        rc = _run_config(args)
        if args.command == "exponent":
            return cmd_exponent(rc)
        if args.command == "duality":
            return cmd_duality(rc)
        if args.command == "finite":
            return cmd_finite(rc)
        if args.command == "check":
            return cmd_check(rc, gamma=args.gamma)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GateRefusalError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_REFUSAL
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except Error as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:          # an unanticipated failure is still an invariant violation
        print(f"invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
