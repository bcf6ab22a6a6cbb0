"""Command-line behavior: formats, exit codes, determinism."""

import json

import pytest

from frobwords import ternary
from frobwords.cli import main
from frobwords.factors import StabilizationError
from frobwords.words import PREFIX_BUDGET, paperfolding_letter


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrefix:
    def test_t_17(self, capsys):
        code, out, _ = run(capsys, "prefix", "--word", "t", "--n", "17")
        assert code == 0
        assert out.strip() == "01201210210210120"

    def test_phi_25(self, capsys):
        code, out, _ = run(capsys, "prefix", "--word", "phi", "--n", "25")
        assert code == 0
        assert out.strip() == "0010100101110110010111011"

    def test_zero_length_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prefix", "--word", "pf", "--n", "0"])
        assert exc.value.code == 2

    def test_unknown_word_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prefix", "--word", "thue", "--n", "5"])
        assert exc.value.code == 2

    def test_at_budget(self, capsys):
        code, out, err = run(capsys, "prefix", "--word", "pf",
                             "--n", str(PREFIX_BUDGET))
        assert (code, err) == (0, "")
        text = out.strip()
        assert len(text) == PREFIX_BUDGET
        assert text[-1] == str(paperfolding_letter(PREFIX_BUDGET))

    @pytest.mark.parametrize("word", ["pf", "fib", "phi", "t"])
    def test_over_budget(self, capsys, word):
        code, out, err = run(capsys, "prefix", "--word", word,
                             "--n", str(PREFIX_BUDGET + 1))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "PREFIX_BUDGET" in err

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "prefix", "--word", "pf", "--n", "12",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["command"] == "prefix"
        assert doc["result"] == "001001100011"
        assert doc["status"] == "ok"
        assert doc["params"] == {"word": "pf", "n": 12}
        assert "budget" in doc


class TestComplexity:
    def test_pf_small_lengths(self, capsys):
        code, out, _ = run(capsys, "complexity", "--word", "pf",
                           "--n-min", "2", "--n-max", "8",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        got = {r["n"]: r["abelian_complexity"] for r in rows}
        assert got[2] == got[4] == got[8] == 3

    def test_fib_constant(self, capsys):
        code, out, _ = run(capsys, "complexity", "--word", "fib",
                           "--n-min", "1", "--n-max", "10", "--format", "json")
        assert code == 0
        assert all(r["abelian_complexity"] == 2 for r in json.loads(out)["rows"])

    def test_t_constant(self, capsys):
        code, out, _ = run(capsys, "complexity", "--word", "t",
                           "--n-min", "1", "--n-max", "10", "--format", "json")
        assert all(r["abelian_complexity"] == 3 for r in json.loads(out)["rows"])

    @pytest.mark.parametrize("word, n, rho", [
        # beyond the default doubling cap; pf at 20000 equals a scan of a
        # 2^25-symbol prefix
        ("pf", 16384, 3), ("pf", 20000, 9), ("t", 16384, 3), ("fib", 20000, 2),
        # one length needs no table, so no budget applies
        ("pf", 10**10, 17), ("t", 10**12, 3), ("fib", 10**12, 2),
        # phi by the desubstitution walk; both values equal the scan of the
        # power-10 cover (four strings of 5^10 symbols)
        ("phi", 2_000_000, 641), ("phi", 9_765_625, 1025),
    ])
    def test_long_lengths(self, capsys, word, n, rho):
        code, out, err = run(capsys, "complexity", "--word", word,
                             "--n-min", str(n), "--n-max", str(n),
                             "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"{n},{rho},"

    def test_phi_beyond_cover_budget(self, capsys):
        # A cover of 10^8 would exceed COVER_BUDGET; the desubstitution walk
        # needs none.  No independent oracle reaches this length, so the
        # value pins the walk.
        code, out, err = run(capsys, "complexity", "--word", "phi",
                             "--n-min", "100000000", "--n-max", "100000000",
                             "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "100000000,4609,"

    def test_csv_has_header(self, capsys):
        _, out, _ = run(capsys, "complexity", "--word", "fib",
                        "--n-min", "1", "--n-max", "3", "--format", "csv")
        assert out.splitlines()[0] == "n,abelian_complexity,error"


class TestComplement:
    def test_phi_2_5(self, capsys):
        code, out, _ = run(capsys, "complement", "--word", "phi",
                           "--weights", "2,5", "--format", "text")
        assert code == 0
        assert out.strip() == "{1,3,6,8,13}"

    def test_t_1_3_5(self, capsys):
        code, out, _ = run(capsys, "complement", "--word", "t",
                           "--weights", "1,3,5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["outcome"] == "finite"
        assert doc["result"]["complement"] == [2]

    def test_t_infinite_witness(self, capsys):
        code, out, _ = run(capsys, "complement", "--word", "t",
                           "--weights", "8,1,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["outcome"] == "infinite"
        witness = doc["result"]["witness"]
        assert set(witness) == {"factor_start_index", "parity", "missed_value",
                                "factor"}
        # half-integers ride in JSON as twice-values
        assert doc["result"]["max_offset"] == {"twice": 14}

    def test_non_coprime_usage_error(self, capsys):
        code, _, err = run(capsys, "complement", "--word", "t",
                           "--weights", "2,4,6")
        assert code == 2
        assert "coprime" in err

    def test_t_beyond_enumeration_budget(self, capsys):
        code, out, err = run(capsys, "complement", "--word", "t",
                             "--weights", "1,100000,2", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "2^22-symbol" in err

    def test_phi_beyond_table_budget(self, capsys):
        # factor lengths to 3,000,000 exceed the desubstitution table budget:
        # one error line, no traceback, before anything is allocated
        code, out, err = run(capsys, "complement", "--word", "phi",
                             "--weights", "1,2", "--bound", "3000000")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert "DESUBSTITUTION_TABLE_BUDGET" in err

    def test_t_rejects_bound(self, capsys):
        code, out, err = run(capsys, "complement", "--word", "t",
                             "--weights", "1,3,5", "--bound", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "--bound" in err

    @pytest.mark.parametrize("exc, code, prefix", [
        (RuntimeError, 3, "internal error: "),
        (StabilizationError, 2, "error: "),
    ])
    def test_runtime_error_exit_codes(self, capsys, monkeypatch, exc, code,
                                      prefix):
        def broken(weights):
            raise exc("non-integral factor value 2.5")

        monkeypatch.setattr(ternary, "decide_cofinite", broken)
        got, out, err = run(capsys, "complement", "--word", "t",
                            "--weights", "1,1,2")
        assert got == code
        assert out == ""
        assert err == prefix + "non-integral factor value 2.5\n"

    def test_pf_not_supported(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["complement", "--word", "pf", "--weights", "2,3"])
        assert exc.value.code == 2


class TestTables:
    def test_table2_matches(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert len(doc["rows"]) == 13
        assert doc["diffs"] == []

    def test_table3_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--which", "3"])
        assert exc.value.code == 2

    def test_table1_reports_known_mismatch(self, capsys):
        code, out, err = run(capsys, "tables", "--which", "1", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert len(doc["rows"]) == 23
        assert doc["diffs"] == [{
            "pair": [3, 1],
            "computed": [224, []],
            "reference": [244, []],
        }]
        matches = [r for r in doc["rows"] if r["matches_reference"]]
        assert len(matches) == 22


class TestVerifyCommand:
    def test_quick_phi_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "phi", "--quick",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        bound_row = next(r for r in doc["rows"]
                         if r["check"].startswith("reference bound column"))
        assert "reference erratum 244" in bound_row["details"]

    def test_quick_pf_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pf", "--quick",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["total"] == 13
        assert doc["summary"]["failed"] == 0

    def test_quick_ternary_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "ternary", "--quick",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["total"] >= 15


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("prefix", "--word", "pf", "--n", "64", "--format", "json"),
        ("complexity", "--word", "t", "--n-min", "1", "--n-max", "8",
         "--format", "csv"),
        ("tables", "--which", "2", "--format", "markdown"),
        ("complement", "--word", "t", "--weights", "1,1,2", "--format", "json"),
    ])
    def test_reruns_byte_identical(self, capsys, argv):
        code1 = main(list(argv))
        first = capsys.readouterr().out
        code2 = main(list(argv))
        second = capsys.readouterr().out
        assert code1 == code2
        assert first == second

    def test_timestamps_flag_adds_field(self, capsys):
        _, out, _ = run(capsys, "prefix", "--word", "pf", "--n", "4",
                        "--format", "json", "--timestamps")
        assert "timestamp" in json.loads(out)

