"""CLI behavior: CSV contracts, exit codes, determinism, unit handling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expurg import cli, finite, presets, type_enum
from expurg.config import parse_grid, parse_instance, to_unit
from expurg.ensembles import EnsembleSpec
from expurg.errors import UsageError


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_exponent_bsc_columns_and_values(capsys):
    code, out, _ = run_cli(["exponent", "--preset", "bsc", "--grid", "0.05:0.15:0.05"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:7] == ["rate", "eex_iid", "eex_cc_dual", "eex_cc_primal", "eex_cost",
                          "rho_star", "s_star"]
    assert len(rows) == 3
    for row in rows:
        vals = dict(zip(header, map(float, row)))
        assert vals["eex_cc_dual"] >= vals["eex_iid"] - 1e-9
        assert vals["gap"] < 1e-4
        assert abs(vals["s_star"] - 0.5) < 1e-2        # ML decoding
        assert vals["eex_cost"] == pytest.approx(vals["eex_iid"], abs=1e-12)


def test_exponent_output_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code = cli.main(["exponent", "--preset", "bsc", "--grid", "0.1:0.2:0.1",
                         "--out", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exponent_bits_unit_conversion(capsys):
    code, out_nats, _ = run_cli(["exponent", "--preset", "bsc", "--grid", "0.1:0.1:0.1"], capsys)
    code2, out_bits, _ = run_cli(["exponent", "--preset", "bsc", "--grid",
                                  f"{0.1 / math.log(2)}:{0.1 / math.log(2)}:0.1",
                                  "--unit", "bits"], capsys)
    assert code == 0 and code2 == 0
    _, rows_n = parse_csv(out_nats)
    _, rows_b = parse_csv(out_bits)
    assert float(rows_b[0][1]) == pytest.approx(float(rows_n[0][1]) / math.log(2), rel=1e-9)


def test_exponent_fig1_presets_order_correctly(capsys):
    for preset in ("fig1-mismatched", "fig1-ml"):
        code, out, _ = run_cli(["exponent", "--preset", preset, "--grid", "0.1:0.3:0.2",
                                "--unit", "bits"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        for row in rows:
            vals = dict(zip(header, map(float, row)))
            assert vals["eex_cc_dual"] >= vals["eex_iid"] - 1e-9
            assert vals["gap"] < 1e-4


def test_duality_gate_passes_on_bsc(capsys):
    code, out, _ = run_cli(["duality", "--preset", "bsc", "--grid", "0.03:0.12:0.03"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rate", "primal", "dual", "gap"]
    assert all(float(r[3]) < 1e-3 for r in rows)


def test_finite_sweep_bsc(capsys):
    code, out, _ = run_cli(["finite", "--preset", "bsc", "--n", "4,8", "--M", "2",
                            "--seed", "1", "--samples", "400"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "rcux_exact", "rcux_product", "mc_estimate", "ci_lo", "ci_hi",
                      "refined_bound"]
    for row in rows:
        assert float(row[1]) <= float(row[2]) + 1e-12      # exact below product form
        assert row[6] != ""


def test_finite_single_codeword_zero_columns(capsys):
    code, out, _ = run_cli(["finite", "--preset", "bsc", "--n", "6", "--M", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 0.0


def test_finite_bec_refuses_refined_column(capsys):
    code, out, _ = run_cli(["finite", "--preset", "bec", "--n", "4", "--M", "2"], capsys)
    assert code == 3
    assert "refused" in out
    _, rows = parse_csv(out)
    assert rows[0][6] == ""                                # refined column empty
    assert rows[0][1] != ""                                # other columns intact


def test_finite_prints_bounds_below_the_smallest_double(capsys):
    n, rate = 4000, 0.02
    code, out, _ = run_cli(["finite", "--preset", "bsc", "--n", str(n), "--rate", repr(rate),
                            "--rho", "1", "--s", "0.5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    ch, q, qin = presets.bsc_ml(0.1)
    m = math.exp(n * rate)
    logs = {
        "rcux_exact": type_enum.log_rcux_iid_exact(ch, q, qin, n, m, 1.0),
        "rcux_product": finite.log_rcux_iid_product(ch, q, qin, n, m, 1.0, 0.5),
        "refined_bound": finite.log_refined_bound(ch, q, qin, 1.0, 0.5, rate, n),
    }
    for col, lv in logs.items():
        assert lv < math.log(sys.float_info.min)
        mant, exp10 = row[col].split("e")
        assert 1.0 <= float(mant) < 10.0
        assert math.log10(float(mant)) + int(exp10) == pytest.approx(lv / math.log(10.0), abs=1e-11)


def _log10_of_printed(text):
    """log10 of a printed bound, including the mantissa-exponent form below the smallest double."""
    mant, _, exp10 = text.partition("e")
    return math.log10(float(mant)) + (int(exp10) if exp10 else 0)


def test_finite_fixed_rho_product_column_bounds_exact_column(capsys):
    # with --rho alone, s is optimized at that rho, and the product form bounds the exact sum
    code, out, _ = run_cli(["finite", "--preset", "bsc", "--n", "100,400", "--rate", "0.002",
                            "--rho", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    for row in rows:
        row = dict(zip(header, row))
        assert _log10_of_printed(row["rcux_product"]) >= _log10_of_printed(row["rcux_exact"])


def _config_text(ch, q, ensemble: str) -> str:
    """A config file holding the channel and metric exactly, under the given ensemble."""
    def rows(m):
        return "\n".join(" ".join(repr(float(v)) for v in row) for row in m)
    return f"[channel]\n{rows(ch.w)}\n\n[metric]\n{rows(q.q)}\n\n[ensemble]\n{ensemble}\n"


def test_finite_exact_column_follows_the_cc_ensemble(tmp_path, capsys):
    ch, q, qin = presets.fig1_mismatched()
    cfg = tmp_path / "cc.cfg"
    cfg.write_text(_config_text(ch, q, "cc"))
    code, out, _ = run_cli(["finite", "--config", str(cfg), "--n", "4,9", "--rate", "0.1",
                            "--rho", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    for row in rows:
        n = int(row[0])
        m = math.exp(n * 0.1)
        log_cc = type_enum.log_rcux_cc_exact(ch, q, qin, n, m, 1.0)
        assert row[1] == cli._fmt_exp(log_cc)
        assert row[1] != cli._fmt_exp(type_enum.log_rcux_iid_exact(ch, q, qin, n, m, 1.0))
        if n <= 4:
            brute = type_enum.brute_force_pairwise(ch, q, EnsembleSpec("cc", qin), n, 1.0)
            assert log_cc == pytest.approx(math.log(4.0 * (m - 1.0) * brute), abs=1e-12)


def test_finite_cost_ensemble_prints_no_exact_value(tmp_path, capsys):
    ch, q, qin = presets.fig1_mismatched()
    cfg = tmp_path / "cost.cfg"
    cfg.write_text(_config_text(ch, q, "cost") + "\n[aux_costs]\n0 1 2\n\n[shell_width]\n0.1\n")
    code, out, _ = run_cli(["finite", "--config", str(cfg), "--n", "4", "--rate", "0.1"], capsys)
    assert code == 0
    assert "# rcux_exact empty: no exact sum for the cost ensemble" in out.splitlines()
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["rcux_exact"] == ""
    # with --rho unset the row runs at the product form's optimum
    log_prod, rho, s = finite.optimize_rcux_product(ch, q, qin, 4, math.exp(0.4))
    assert row["rcux_product"] == cli._fmt_exp(log_prod)
    assert row["refined_bound"] == cli._fmt_exp(
        finite.log_refined_bound(ch, q, qin, rho, s, 0.1, 4))


@pytest.mark.parametrize("n", [8, 20])
def test_finite_over_the_enumeration_budget_is_refused(n):
    # fig1-ml is off the lattice: 12,870 joint types x 3^8 output words at n = 8
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "expurg", "finite", "--preset", "fig1-ml",
                           "--n", str(n), "--rate", "0.1", "--rho", "1"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3
    assert proc.stderr.startswith("refused: ") and "enumeration budget" in proc.stderr
    assert "Chernoff" not in proc.stderr


def test_unanticipated_failure_exits_with_invariant_code(capsys):
    # M = exp(n * rate) overflows a double at n * rate = 800
    code, out, err = run_cli(["finite", "--preset", "bsc", "--n", "8000", "--rate", "0.1"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "OverflowError" in err


def test_exponent_cost_shell_column_sits_between_iid_and_cc(tmp_path, capsys):
    cfg = tmp_path / "shell.cfg"
    cfg.write_text(
        "[channel]\n0.98 0.01 0.01\n0.05 0.9 0.05\n0.25 0.25 0.5\n\n"
        "[metric]\nml\n\n"
        "[ensemble]\ncost\n\n"
        "[aux_costs]\n0 1 2\n\n"
        "[shell_width]\n0.1\n")
    code, out, _ = run_cli(["exponent", "--config", str(cfg), "--grid", "0.05:0.05:0.05"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 1
    vals = dict(zip(header, map(float, rows[0])))
    assert vals["eex_iid"] - 1e-9 <= vals["eex_cost"] <= vals["eex_cc_dual"] + 1e-9
    assert vals["eex_cost"] > vals["eex_iid"] + 1e-4      # the shell tilt is not idle


def test_import_and_cli_calls_leave_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import contextlib, io, sys\n"
        "import expurg\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "import expurg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [expurg.cli.main(['exponent', '--preset', 'fig1-ml', '--grid', '0.1:0.1:0.1']),\n"
        "             expurg.cli.main(['finite', '--preset', 'bsc', '--n', '100', '--rate', '0.02'])]\n"
        "print(codes)\n"
        "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0]", "[]"]


def test_python_m_expurg_runs_without_runpy_warning():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    for module in ("expurg", "expurg.cli"):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                               "check", "--preset", "bsc"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[2] == "quantity,value"


def test_check_bsc_report(capsys):
    code, out, _ = run_cli(["check", "--preset", "bsc"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert float(table["pi"]) == pytest.approx(0.1, abs=1e-12)
    assert table["support_aligned"] == "1"
    assert int(table["nonsingular_pairs"]) == 2


def test_check_bec_fails_gate(capsys):
    code, out, _ = run_cli(["check", "--preset", "bec"], capsys)
    assert code == 3
    _, rows = parse_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert int(table["nonsingular_pairs"]) == 0


def test_usage_errors(capsys):
    assert run_cli(["exponent", "--preset", "bsc", "--grid", "0.5:0.1:0.1"], capsys)[0] == 1
    assert run_cli(["exponent", "--grid", "0.1:0.2:0.1"], capsys)[0] == 1
    assert run_cli(["exponent", "--preset", "nope", "--grid", "0.1:0.2:0.1"], capsys)[0] == 1
    assert run_cli(["finite", "--preset", "bsc", "--n", "4"], capsys)[0] == 1


def test_singular_metric_exits_with_invariant_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[channel]\n0.5 0.5\n0.5 0.5\n\n"
        "[metric]\n0.0 1.0\n1.0 1.0\n")
    code, _, err = run_cli(["exponent", "--config", str(cfg), "--grid", "0.1:0.1:0.1"], capsys)
    assert code == 2
    assert "singular" in err


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "inst.cfg"
    cfg.write_text(
        "# a binary symmetric instance\n"
        "[channel]\n0.9 0.1\n0.1 0.9\n\n"
        "[metric]\nml\n\n"
        "[q]\nuniform\n")
    code, out, _ = run_cli(["check", "--config", str(cfg)], capsys)
    assert code == 0
    table = {r[0]: r[1] for r in parse_csv(out)[1]}
    assert float(table["pi"]) == pytest.approx(0.1, abs=1e-12)


def test_config_parser_errors():
    with pytest.raises(UsageError):
        parse_instance("[metric]\nml\n")                   # missing channel
    with pytest.raises(UsageError):
        parse_instance("[channel]\n0.9 0.1\n0.1\n")        # ragged rows
    with pytest.raises(UsageError):
        parse_instance("0.9 0.1\n")                        # data before section
    with pytest.raises(UsageError):
        parse_instance("[channel]\n1 0\n0 1\n[cost]\n1 2\n")   # cost without budget


def test_config_explicit_metric_and_q():
    inst = parse_instance(
        "[channel]\n0.8 0.2\n0.3 0.7\n"
        "[metric]\n0.7 0.3\n0.4 0.6\n"
        "[q]\n0.25 0.75\n")
    assert inst.metric.q[0, 0] == 0.7
    assert inst.q_in.q_vec[1] == 0.75


def test_unit_round_trip_lossless():
    for v in (0.0, 0.1, 0.25541281188299525, 3.7):
        bits = to_unit(v, "bits")
        assert bits * math.log(2) == pytest.approx(v, abs=1e-12)
    g = parse_grid("0.1:0.5:0.1", "bits")
    back = [to_unit(r, "bits") for r in g.values()]
    assert back == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-12)
