"""Command-line behavior: formats, exit codes, determinism."""

import hashlib
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


# sha256 of stdout, pinned to the output the value-mask complement gave;
# the run chains that replaced it must print the same bytes.
PINNED_STDOUT = {
    (("tables", "--which", "1"), 1): {
        "text": "520d0f8ca3be6d5556ee20d3b5cbb0b1e650d07846393a71f0230dce05aea0cd",
        "json": "d0cc7c1351be38f2b4e81c9545daf6316423687bb78876d663deddb7c510f48e",
        "csv": "27f28c8ebd00a5e8118f18a209401087e5a921660ceeff4a066fbbac51864e43",
        "markdown": "33526523e5e0dca78eeac724b2effca897cf198694b6f0fa2ed5a025198fdee8",
    },
    (("complement", "--word", "phi", "--weights", "2,5"), 0): {
        "text": "105cb368758c899fecd5567a4a7eef0b01fcf9e525a237e982eeefff02a017e9",
        "json": "b628908d68f95062697bea9257e0e10da22be7e388940c61bbc87605571e5951",
        "csv": "ea0e29a52dd857e8ef7c1a21eb8d1891cbdce7fe24d3a07d1f986d5fcb5c06ae",
        "markdown": "89e110687e4ee2e41abc0cec38db97e0dfd7acfe269e88c8f071e4f85e5a4d4b",
    },
    (("complement", "--word", "phi", "--weights", "5,6"), 0): {
        "text": "ba06808b411c5b4b55415db8674e95fef21b2e1f955828114912bb4375d6de9a",
        "json": "e698f12426e5dee2593c97bc8460c336c2a1bee89f7952eee8292455fbbd4d2a",
        "csv": "3e3a70b7316fed12d88420a91a3fe409493b3d629d5b9b062710594ef67e5fb5",
        "markdown": "22e7feffc0a07e7bfc849606e558e46ab7965dfdf08ed82efe09774995029926",
    },
    (("complement", "--word", "phi", "--weights", "7,8"), 0): {
        "text": "e58478f4d84bc9fe8aedad8ab6497b27387c7deb162f3c4e29cd2e5233821a87",
        "json": "3353ede6752f1666c2009a513a517657243db4f8e6f187460933e2dd183f14f7",
        "csv": "5a760005933745892493baf3a3570665da0b4c8bd28faf018c4ba6c220b692f7",
        "markdown": "1aee4455c95038191b59cd5e5c1246e572d1cbe67d3fd4006e371ef3d264109e",
    },
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv, code, fmt", [
        (argv, code, fmt) for (argv, code), digests in PINNED_STDOUT.items()
        for fmt in digests])
    def test_stdout_sha256(self, capsys, argv, code, fmt):
        got, out, _ = run(capsys, *argv, "--format", fmt)
        assert got == code
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == PINNED_STDOUT[argv, code][fmt]


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

