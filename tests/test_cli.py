"""CLI dispatch, JSON schema round trips, exit codes, determinism."""

import json
from importlib import resources

import jsonschema
import pytest

from braidrep.cli import (
    MAX_N,
    MAX_SWEEP_N,
    build_parser,
    config_from_args,
    main,
    run,
)
from braidrep.braid import MAX_WORD_LENGTH
from braidrep.cyclo import MAX_D


def _schema():
    with resources.files("braidrep").joinpath("schema.json").open() as fh:
        return json.load(fh)


SCHEMA = _schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    return run(config)


def check_doc(text):
    doc = json.loads(text)
    VALIDATOR.validate(doc)
    return doc


class TestCommands:
    def test_verify(self):
        code, text = run_cli(["verify", "--n", "3", "--word", "A 1 3"])
        assert code == 0
        doc = check_doc(text)
        assert doc["invariance"] is True

    def test_matrix(self):
        code, text = run_cli(["matrix", "--n", "2", "--word", "s1 s1",
                              "--basis", "reduced"])
        assert code == 0
        doc = check_doc(text)
        assert doc["perm"] == [1, 2, 3]
        assert doc["polynomial_entries"] is True
        assert doc["matrix"][0][0] == "X1*X2"

    def test_form(self):
        code, text = run_cli(["form", "--n", "2"])
        doc = check_doc(text)
        assert code == 0
        assert doc["determinant_matches_closed_form"] is True

    def test_specialize_degenerate(self):
        code, text = run_cli(["specialize", "--d", "3", "--k", "1,1,1"])
        doc = check_doc(text)
        assert code == 0
        assert doc["degenerate"] is True
        assert doc["determinant"] == "0 (mod Phi_3)"

    def test_spectral_report(self):
        code, text = run_cli(["spectral", "--d", "3", "--k", "1,1,2"])
        doc = check_doc(text)
        assert code == 0
        assert doc["degenerate"] is False
        assert doc["span_dim"] == 4
        assert doc["blocks"] is None

    def test_spectral_with_blocks(self):
        code, text = run_cli(["spectral", "--d", "2", "--k", "1,1,1,1,1,1"])
        doc = check_doc(text)
        assert code == 0
        assert doc["blocks"] == {"I": [1, 2], "J": [3, 4]}
        assert doc["unipotent_found"] is True

    def test_dm_worked_example(self):
        code, text = run_cli(["dm", "--d", "18", "--k", "1,1,1,1", "--f", "7"])
        doc = check_doc(text)
        assert code == 0
        assert doc["mu"] == ["7/18"] * 4
        assert doc["mu_inf"] == "4/9"
        values = {p["pair"]: p["value"] for p in doc["pairs"]}
        assert values["1,2"] == "9/2"
        assert values["1,inf"] == "6"

    def test_classify_arithmetic(self):
        code, text = run_cli(["classify", "--d", "3",
                              "--k", "1,1,1,1,1,1,1"])
        doc = check_doc(text)
        assert code == 0
        assert doc["verdict"] == "ARITHMETIC_BY_MAIN_THEOREM"

    def test_classify_witness(self):
        code, text = run_cli(["classify", "--d", "18", "--k", "1,1,1,1"])
        doc = check_doc(text)
        assert doc["verdict"] == "NONARITHMETIC_KNOWN_WITNESS"

    def test_signature(self):
        code, text = run_cli(["signature", "--d", "18", "--k", "1,1,1,1",
                              "--f", "7"])
        doc = check_doc(text)
        assert code == 0
        assert doc["signatures"] == [{"f": 7, "p": 2, "q": 1}]

    def test_signature_all_embeddings(self):
        code, text = run_cli(["signature", "--d", "5", "--k", "1,2,3"])
        doc = check_doc(text)
        assert code == 0
        assert [s["f"] for s in doc["signatures"]] == [1, 2, 3, 4]

    def test_decompose(self):
        code, text = run_cli(["decompose", "--d", "18", "--k", "1,1,1,1"])
        doc = check_doc(text)
        assert code == 0
        assert doc["genus"] == 25
        assert doc["genus_match"] is True


class TestSweep:
    def test_small_sweep_rows_validate(self):
        code, text = run_cli(["sweep", "--d", "3", "--n", "2"])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows
        row_validator = jsonschema.Draft202012Validator(
            {"$ref": "#/$defs/sweep_row", "$defs": SCHEMA["$defs"]})
        for row in rows:
            row_validator.validate(row)
            assert row["genus_match"] and row["reducibility_match"]

    def test_d4_n4_all_rows_consistent(self):
        code, text = run_cli(["sweep", "--d", "4", "--n", "4"])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 124
        assert all(r["genus_match"] for r in rows)
        assert all(r["reducibility_match"] for r in rows)

    def test_degenerate_case_present_d6(self):
        code, text = run_cli(["sweep", "--d", "6", "--n", "3"])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        hit = [r for r in rows
               if r["spec"] == {"n": 3, "d": 6, "k": [1, 5, 5, 1]}]
        assert len(hit) == 1
        assert hit[0]["degenerate"] is True

    def test_empty_range(self):
        code, text = run_cli(["sweep", "--d", "1", "--n", "0"])
        assert code == 0
        assert text == ""

    def test_cap(self):
        code, text = run_cli(["sweep", "--d", "9", "--n", "2", "--cap", "6"])
        assert code == 2

    def test_sorted_deterministic(self):
        _, a = run_cli(["sweep", "--d", "3", "--n", "2", "--seed", "0"])
        _, b = run_cli(["sweep", "--d", "3", "--n", "2", "--seed", "0"])
        assert a == b


class TestExitCodes:
    def test_validation_error_is_2(self):
        code, text = run_cli(["dm", "--d", "18", "--k", "1,1,1,1", "--f", "6"])
        assert code == 2
        doc = json.loads(text)
        assert doc["kind"] == "validation"
        assert "coprime" in doc["error"]

    def test_missing_argument_is_2(self):
        code, text = run_cli(["verify", "--n", "3"])
        assert code == 2
        assert "--word" in json.loads(text)["error"]

    def test_bad_weights_is_2(self):
        code, text = run_cli(["specialize", "--d", "4", "--k", "1,2,1"])
        assert code == 2

    def test_main_writes_stdout(self, capsys):
        rc = main(["verify", "--n", "2", "--word", "A 1 2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["invariance"] is True

    def test_main_error_to_stderr(self, capsys):
        rc = main(["dm", "--d", "4", "--k", "1,1", "--f", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert json.loads(err)["kind"] == "validation"

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        rc = main(["form", "--n", "1", "--out", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["command"] == "form"

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        rc = main(["form", "--n", "1", "--out", str(target)])
        assert rc == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert "--out" in doc["error"]
        assert not target.exists()

    def test_invariant_failure_is_3(self, monkeypatch):
        # an internal identity failure must exit 3 with a reproducer attached
        from braidrep import cli
        from braidrep.errors import InvariantError

        def broken(config):
            raise InvariantError("forced failure",
                                 reproducer={"op": "form", "n": 2})

        monkeypatch.setattr(cli, "_cmd_form", broken)
        code, text = run_cli(["form", "--n", "2"])
        assert code == 3
        doc = check_doc(text)
        assert doc["kind"] == "invariant"
        assert doc["reproducer"]["op"] == "form"


class TestBudgets:
    """Every input budget ends in exit 2 with a JSON validation body, before
    any work proportional to the input is done."""

    def _rejected(self, argv, capsys, budget):
        assert main(argv) == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert budget in doc["error"]

    # the cheap over-budget input comes first in each test, so that without
    # the budgets a test fails fast instead of running away

    def test_large_d(self, capsys):
        self._rejected(["classify", "--d", str(MAX_D + 1), "--k", "1,1"],
                       capsys, "MAX_D")
        # builds a d x phi(d) table of powers without the budget
        self._rejected(["spectral", "--d", "1000003", "--k", "1,2"],
                       capsys, "MAX_D")
        # rejected before any row is computed, not at the first d > MAX_D
        self._rejected(["sweep", "--d", str(MAX_D + 1),
                        "--cap", str(MAX_D + 1), "--n", "1"], capsys, "MAX_D")
        code, _ = run_cli(["decompose", "--d", str(MAX_D), "--k", "1,1"])
        assert code == 0

    def test_large_n(self, capsys):
        self._rejected(["spectral", "--d", "3",
                        "--k", ",".join(["1"] * (MAX_N + 2))], capsys, "MAX_N")
        self._rejected(["form", "--n", str(MAX_N + 1)], capsys, "MAX_N")
        code, _ = run_cli(["decompose", "--d", "3",
                           "--k", ",".join(["1"] * (MAX_N + 1))])
        assert code == 0

    def test_long_word(self, capsys):
        self._rejected(["matrix", "--n", "2",
                        "--word", f"s1^{MAX_WORD_LENGTH + 1}"],
                       capsys, "budget")
        # a power is rejected before its letters are built
        self._rejected(["verify", "--n", "2", "--word", "s1^-1000000000000"],
                       capsys, "budget")
        self._rejected(["verify", "--n", "2",
                        "--word", " ".join(["A 1 3"] * MAX_WORD_LENGTH)],
                       capsys, "budget")
        code, _ = run_cli(["matrix", "--n", "2",
                           "--word", f"s1^{MAX_WORD_LENGTH}"])
        assert code == 0

    def test_large_sweep_n(self, capsys):
        self._rejected(["sweep", "--d", "2", "--n", str(MAX_SWEEP_N + 1)],
                       capsys, "MAX_SWEEP_N")
        self._rejected(["sweep", "--d", "2", "--n", "30"], capsys,
                       "MAX_SWEEP_N")
        code, text = run_cli(["sweep", "--d", "2", "--n", str(MAX_SWEEP_N)])
        assert code == 0
        assert len(text.splitlines()) == MAX_SWEEP_N


class TestConfigFile:
    def test_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d=18\nk=1,1,1,1\nf=7\n")
        code, text = run_cli(["dm", "--config", str(cfg)])
        assert code == 0
        assert json.loads(text)["mu_inf"] == "4/9"

    def test_flags_win(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d=18\nk=1,1,1,1\nf=7\n")
        code, text = run_cli(["dm", "--config", str(cfg), "--f", "5"])
        assert code == 0
        assert json.loads(text)["f"] == 5

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(Exception):
            run_cli(["dm", "--config", str(cfg)])

    def test_non_integer_value_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("cap=abc\n")
        rc = main(["sweep", "--d", "2", "--n", "1", "--config", str(cfg)])
        assert rc == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert "cap" in doc["error"]

    @pytest.mark.parametrize("content", [None, b"d=\xff\n"],
                             ids=["missing", "not_utf8"])
    def test_unreadable_file_is_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "job.cfg"
        if content is not None:
            cfg.write_bytes(content)
        rc = main(["form", "--n", "1", "--config", str(cfg)])
        assert rc == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert "--config" in doc["error"]


class TestDeterminism:
    BATTERY = [
        ["form", "--n", "3"],
        ["dm", "--d", "18", "--k", "1,1,1,1", "--f", "7"],
        ["classify", "--d", "5", "--k", "1,2,3,4,1"],
        ["signature", "--d", "18", "--k", "1,1,1,1"],
        ["spectral", "--d", "3", "--k", "1,1,1", "--seed", "0"],
        ["decompose", "--d", "4", "--k", "1,1,3"],
        ["sweep", "--d", "3", "--n", "2", "--seed", "0"],
    ]

    def test_byte_identical_reruns(self):
        first = [run_cli(argv) for argv in self.BATTERY]
        second = [run_cli(argv) for argv in self.BATTERY]
        assert first == second
        for code, _ in first:
            assert code == 0
