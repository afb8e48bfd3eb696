"""CLI behavior: CSV contracts, exit codes, determinism, unit handling."""

import math
import sys

import pytest

from expurg import cli, finite, presets
from expurg.config import parse_grid, parse_instance, to_unit
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
        "rcux_exact": finite.log_rcux_rho_pairwise_exact(ch, q, qin, n, m, 1.0),
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


def test_unanticipated_failure_exits_with_invariant_code(capsys):
    # M = exp(n * rate) overflows a double at n * rate = 800
    code, out, err = run_cli(["finite", "--preset", "bsc", "--n", "8000", "--rate", "0.1"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "OverflowError" in err


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
