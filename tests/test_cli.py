"""CLI dispatch, JSON schema round trips, exit codes, determinism, budgets,
fuzzing.

The stdout digests live in oracles.DETERMINISM_TABLE; acceptance criterion
C12 (tests/test_acceptance.py) checks all of them, cold and warm."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braidrep import braid, cli, cyclo, laurent
from braidrep.cli import (
    COMMANDS,
    MAX_CONFIG_BYTES,
    MAX_N,
    MAX_SWEEP_ROWS,
    build_parser,
    config_from_args,
    main,
    run,
    sweep_jobs,
)
from braidrep.braid import MAX_WORD_LENGTH
from braidrep.cyclo import MAX_D, units
from braidrep.errors import ValidationError
from oracles import DETERMINISM_TABLE, start_cold


def _schema():
    with resources.files("braidrep").joinpath("schema.json").open() as fh:
        return json.load(fh)


SCHEMA = _schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
SWEEP_ROW_VALIDATOR = jsonschema.Draft202012Validator(
    {"$ref": "#/$defs/sweep_row", "$defs": SCHEMA["$defs"]})


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

    @pytest.mark.parametrize("flags", [[], ["--f", "1"], ["--f", "0"]],
                             ids=["every_f", "good_f", "bad_f"])
    def test_signature_degenerate_is_2(self, flags):
        # the one validator is hermitian.signature's, before f is checked
        code, text = run_cli(["signature", "--d", "3", "--k", "1,1,1"] + flags)
        assert code == 2
        assert check_doc(text) == {
            "error": "form is degenerate at d=3, k=(1, 1, 1): no signatures",
            "kind": "validation"}

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

    def test_sorted_deterministic(self):
        _, a = run_cli(["sweep", "--d", "3", "--n", "2"])
        _, b = run_cli(["sweep", "--d", "3", "--n", "2"])
        assert a == b

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--n", "2"], "--d"),
        (["sweep", "--d", "3"], "--n"),
        (["sweep"], "--d"),
    ], ids=["no_d", "no_n", "neither"])
    def test_missing_bound_is_2(self, argv, flag):
        # an explicit empty range prints nothing (test_empty_range); a
        # missing bound is an error, as for every other command
        code, text = run_cli(argv)
        assert code == 2
        doc = check_doc(text)
        assert doc["kind"] == "validation"
        assert f"requires {flag}" in doc["error"]


class TestExitCodes:
    def test_validation_error_is_2(self):
        code, text = run_cli(["dm", "--d", "18", "--k", "1,1,1,1", "--f", "6"])
        assert code == 2
        doc = json.loads(text)
        assert doc["kind"] == "validation"
        assert "coprime" in doc["error"]

    @pytest.mark.parametrize("command", ["dm", "signature"])
    @pytest.mark.parametrize("f", [0, -1, 5, 7])
    def test_embedding_outside_units_is_2(self, command, f):
        # f in {0, -1, d, d + 2} at d = 5: only 1 <= f <= d - 1 coprime to d
        # names an embedding, so every other value is rejected, not reduced
        code, text = run_cli([command, "--d", "5", "--k", "1,2,3", "--f", str(f)])
        assert code == 2, text
        doc = check_doc(text)
        assert doc["kind"] == "validation"
        assert f"f={f} must lie in 1..4" in doc["error"]

    def test_missing_argument_is_2(self):
        code, text = run_cli(["verify", "--n", "3"])
        assert code == 2
        assert "--word" in json.loads(text)["error"]

    def test_bad_weights_is_2(self):
        code, text = run_cli(["specialize", "--d", "4", "--k", "1,2,1"])
        assert code == 2

    @pytest.mark.parametrize("k", ["1,,1,1", "1,1,1,", ",1,1,1", ""])
    def test_empty_weight_is_2(self, capsys, k):
        assert main(["spectral", "--d", "3", "--k", k]) == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert "--k expects comma-separated integers" in doc["error"]

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

    @pytest.mark.parametrize("argv, text", [
        (["matrix", "--n", "abc"], "--n"),
        (["bogus"], "bogus"),
        ([], "command"),
        (["matrix", "--n", "2", "--word", "s1", "--basis", "foo"], "--basis"),
    ], ids=["non_integer_n", "unknown_command", "no_arguments", "bad_basis"])
    def test_argument_error_is_2(self, capsys, argv, text):
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = check_doc(captured.err)
        assert doc["kind"] == "validation"
        assert text in doc["error"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--help"])
        assert exc.value.code == 0
        assert "usage: braidrep matrix" in capsys.readouterr().out

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


class TestNoGcdOnCliPaths:
    """No command reaches the multivariate gcd: words and the form are
    built fraction-free, and only ``form``, whose output is the symbolic
    form, builds a RationalFunction."""

    CALLS = {
        "matrix": ["--n", "3", "--word", "s1^-1 A 1 3 s2", "--basis", "unreduced"],
        "verify": ["--n", "3", "--word", "A 1 3 s2^-2 A 2 4"],
        "form": ["--n", str(MAX_N)],
        "specialize": ["--d", "12", "--k", "1,5,7,11,1,5,7,11,1"],
        "spectral": ["--d", "3", "--k", "1,1,1,2,2"],
        "decompose": ["--d", "6", "--k", "1,1,5,5"],
        "dm": ["--d", "18", "--k", "1,1,1,1", "--f", "7"],
        "classify": ["--d", "6", "--k", "1,1,1,1"],
        "signature": ["--d", "5", "--k", "1,2,3"],
        "sweep": ["--d", "3", "--n", "2"],
    }

    def test_every_command_without_poly_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("laurent.poly_gcd called")

        monkeypatch.setattr(laurent, "poly_gcd", refuse)
        start_cold()
        assert set(self.CALLS) == set(COMMANDS)
        for command, flags in self.CALLS.items():
            code, text = run_cli([command] + flags)
            assert code == 0, (command, text)

    def test_only_form_builds_rational_functions(self, monkeypatch):
        rf = laurent.RationalFunction
        real_init, real_raw = rf.__init__, rf._raw.__func__
        built = []

        def guard():
            built.append(command)
            if command != "form":
                raise AssertionError(f"{command} built a RationalFunction")

        def init(self, *args):
            guard()
            real_init(self, *args)

        def raw(cls, *args):
            guard()
            return real_raw(cls, *args)

        monkeypatch.setattr(rf, "__init__", init)
        monkeypatch.setattr(rf, "_raw", classmethod(raw))
        for command, flags in self.CALLS.items():
            start_cold()
            code, text = run_cli([command] + flags)
            assert code == 0, (command, text)
        assert set(built) == {"form"}


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
        self._rejected(["sweep", "--d", str(MAX_D + 1), "--n", "1"],
                       capsys, "MAX_D")
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
        # a sweep's n is held to MAX_N by the validator every command uses;
        # the first is also over the row budget, so it fails fast without it
        for argv in (["sweep", "--d", "3", "--n", "30"],
                     ["sweep", "--d", "4", "--n", str(MAX_N + 1)],
                     ["sweep", "--d", "2", "--n", "30"]):
            start = time.perf_counter()
            self._rejected(argv, capsys, "MAX_N")
            assert time.perf_counter() - start < 1.0, argv
        code, text = run_cli(["sweep", "--d", "2", "--n", str(MAX_N)])
        assert code == 0
        assert len(text.splitlines()) == MAX_N

    def test_sweep_rows(self, capsys):
        # 1 239 805 rows, then far more: each is refused at the count
        for argv in (["sweep", "--d", "11", "--n", "5"],
                     ["sweep", "--d", "128", "--n", "1"],
                     ["sweep", "--d", str(MAX_D), "--n", str(MAX_N)]):
            start = time.perf_counter()
            self._rejected(argv, capsys, "MAX_SWEEP_ROWS")
            assert time.perf_counter() - start < 1.0, argv
        # d is checked before any order is counted, and n before the rows
        self._rejected(["sweep", "--d", "1000003", "--n", "1"], capsys,
                       "MAX_D")
        assert main(["sweep", "--d", "11", "--n", str(MAX_N + 1)]) == 2
        error = check_doc(capsys.readouterr().err)["error"]
        assert "MAX_N" in error and "MAX_SWEEP_ROWS" not in error

    def test_config_file_size(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        line = b"n=1\n"
        cfg.write_bytes(line + b"#" * (MAX_CONFIG_BYTES - len(line)))
        assert main(["form", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1
        cfg.write_bytes(line + b"#" * (MAX_CONFIG_BYTES + 1 - len(line)))
        self._rejected(["form", "--config", str(cfg)], capsys,
                       "MAX_CONFIG_BYTES")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"),
                        reason="no /dev/zero")
    def test_endless_config_file(self, capsys):
        # without the budget this reads until memory runs out
        self._rejected(["form", "--n", "2", "--config", "/dev/zero"], capsys,
                       "MAX_CONFIG_BYTES")

    def test_sweep_job_count(self):
        def rows(d_max, n_max):
            return sum(1 for _ in sweep_jobs(d_max, n_max))

        # the largest sweep of the former default --cap 6, and the golden one
        assert rows(6, 5) == 5833
        assert rows(4, 3) == 59
        assert 5833 <= MAX_SWEEP_ROWS
        # a sweep lists phi(d)^(n+1) jobs per (d, n)
        for d in range(0, 8):
            for n in range(0, 4 if d > 4 else MAX_N + 1):
                assert rows(d, n) == sum(len(units(e)) ** (m + 1)
                                         for e in range(2, d + 1)
                                         for m in range(1, n + 1))
        # from n = 6 on, the sweeps the row budget admits stop at d = 4
        assert rows(4, MAX_N) == 2048
        assert rows(5, 6) > MAX_SWEEP_ROWS
        code, text = run_cli(["sweep", "--d", "4", "--n", "3"])
        assert code == 0 and len(text.splitlines()) == 59

    def test_sweep_row_budget_is_exact(self, monkeypatch, capsys):
        # sweep --d 4 --n 3 has 59 rows: a budget of 58 refuses it, 59 runs it
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 58)
        self._rejected(["sweep", "--d", "4", "--n", "3"], capsys,
                       "MAX_SWEEP_ROWS=58")
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 59)
        code, text = run_cli(["sweep", "--d", "4", "--n", "3"])
        assert code == 0 and len(text.splitlines()) == 59


class TestUnreadFlags:
    """A command accepts only the flags it reads, on the command line and
    in a --config file."""

    @pytest.mark.parametrize("argv, flag", [
        (["classify", "--d", "18", "--k", "1,1,1,1", "--f", "7"], "--f"),
        (["form", "--n", "3", "--word", "s1"], "--word"),
        (["sweep", "--d", "3", "--n", "1", "--k", "1,1"], "--k"),
        (["verify", "--n", "2", "--word", "s1^2", "--basis", "reduced"],
         "--basis"),
        (["spectral", "--d", "3", "--k", "1,1,1", "--seed", "0"], "--seed"),
    ], ids=["classify_f", "form_word", "sweep_k", "verify_basis",
            "spectral_seed"])
    def test_flag_is_2(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = check_doc(captured.err)
        assert doc["kind"] == "validation"
        assert flag in doc["error"]
        # without the unread flag the call runs
        assert main(argv[:-2]) == 0

    def test_config_key_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("f=7\n")
        assert main(["classify", "--d", "18", "--k", "1,1,1,1",
                     "--config", str(cfg)]) == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert "not read by 'classify': f" in doc["error"]

    def test_accepted_pairs(self, capsys):
        # every command reads its own flags plus --out and --config
        pairs = {(name, flag) for name in COMMANDS
                 for flag in _help_flags(name, capsys)}
        assert len(pairs) == 48
        assert pairs == {(name, f"--{flag}") for name, flags in COMMANDS.items()
                         for flag in flags + ("out", "config")}


def _help_flags(command, capsys) -> set:
    """The long options that `braidrep <command> --help` lists, but --help."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return set(re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.M))


def _readme_table(header: str) -> list:
    """The body rows of the README table under `header`, as cell lists."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestReadmeTables:
    """The README's budget and flag tables say what the code does."""

    def test_budgets(self):
        modules = {"cli": cli, "cyclo": cyclo, "braid": braid}
        seen = {}
        for _, limit, checked_in in _readme_table(
                "| budget | limit | checked in |"):
            module, name = re.search(r"`(\w+)\.(MAX_\w+)`",
                                     checked_in).groups()
            seen[name] = int(limit)
            assert getattr(modules[module], name) == int(limit), name
        assert set(seen) == {"MAX_D", "MAX_N", "MAX_WORD_LENGTH",
                             "MAX_SWEEP_ROWS", "MAX_CONFIG_BYTES"}

    def test_flags(self, capsys):
        reads = {}
        for commands, flags in _readme_table("| command | flags it reads |"):
            names = re.findall(r"`([a-z]+)`", commands) or ["every command"]
            for name in names:
                reads[name] = set(re.findall(r"`(--[a-z]+)`", flags))
        common = reads.pop("every command")
        assert common == {"--out", "--config"}
        assert set(reads) == set(COMMANDS)
        for name, flags in reads.items():
            assert _help_flags(name, capsys) == flags | common, name


class TestConfigFile:
    def test_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d=18\nk=1,1,1,1\nf=7\n")
        code, text = run_cli(["dm", "--config", str(cfg)])
        assert code == 0
        assert json.loads(text)["mu_inf"] == "4/9"

    def test_byte_order_mark(self, tmp_path, capsys):
        # a UTF-8 byte-order mark is not part of the first key
        body = b"d=18\nk=1,1,1,1\nf=7\n"
        outputs = []
        for content in (body, b"\xef\xbb\xbf" + body):
            cfg = tmp_path / "job.cfg"
            cfg.write_bytes(content)
            assert main(["dm", "--config", str(cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_flags_win(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("d=18\nk=1,1,1,1\nf=7\n")
        code, text = run_cli(["dm", "--config", str(cfg), "--f", "5"])
        assert code == 0
        assert json.loads(text)["f"] == 5

    def test_flag_at_its_default_wins(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("basis=unreduced\n")
        code, text = run_cli(["matrix", "--n", "1", "--word", "s1",
                              "--basis", "reduced", "--config", str(cfg)])
        assert code == 0
        doc = check_doc(text)
        assert doc["basis"] == "reduced"
        assert len(doc["matrix"]) == 1  # the reduced basis has n rows

    def test_sweep_flag_wins(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("n=5\n")
        code, text = run_cli(["sweep", "--d", "3", "--n", "1",
                              "--config", str(cfg)])
        assert code == 0
        assert len(text.splitlines()) == 1 + 4  # d = 2 and d = 3 at n = 1

    def test_file_sweep_value_applies_without_the_flag(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("n=1\n")
        code, text = run_cli(["sweep", "--d", "3", "--config", str(cfg)])
        assert code == 0
        assert len(text.splitlines()) == 1 + 4
        # and the file's value is held to the sweep's row budget
        cfg.write_text("n=5\n")
        code, text = run_cli(["sweep", "--d", "11", "--config", str(cfg)])
        assert code == 2
        assert "MAX_SWEEP_ROWS" in json.loads(text)["error"]

    @pytest.mark.parametrize("argv, content, text", [
        (["matrix", "--n", "1", "--word", "s1"], "basis=foo\n",
         "invalid choice"),
        (["dm", "--d", "18", "--k", "1,1,1,1"], "f=x\n", "invalid int"),
    ], ids=["bad_basis", "bad_int"])
    def test_file_values_pass_the_flag_checks(self, tmp_path, capsys,
                                              argv, content, text):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(content)
        rc = main(argv + ["--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = check_doc(captured.err)
        assert doc["kind"] == "validation"
        assert text in doc["error"] and "--config" in doc["error"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(ValidationError, match="not read by 'dm': bogus"):
            run_cli(["dm", "--config", str(cfg)])

    def test_non_integer_value_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("n=abc\n")
        rc = main(["sweep", "--d", "2", "--config", str(cfg)])
        assert rc == 2
        doc = check_doc(capsys.readouterr().err)
        assert doc["kind"] == "validation"
        assert "--n" in doc["error"]

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
        ["spectral", "--d", "3", "--k", "1,1,1"],
        ["decompose", "--d", "4", "--k", "1,1,3"],
        ["sweep", "--d", "3", "--n", "2"],
    ]

    def test_byte_identical_reruns(self):
        first = [run_cli(argv) for argv in self.BATTERY]
        second = [run_cli(argv) for argv in self.BATTERY]
        assert first == second
        for code, _ in first:
            assert code == 0


class TestGoldenDigests:
    """The sha256 of what main writes to stdout, for ten commands of
    oracles.DETERMINISM_TABLE, against the digest the table pins."""

    GOLDEN = [
        "spectral --d 2 --k 1,1,1,1,1,1",
        "spectral --d 3 --k 1,1,1,1,1,1,1",
        "spectral --d 128 --k 1,3,5,7,9,11,13,15,17",
        "specialize --d 12 --k 1,5,7,11",
        "form --n 4",
        "matrix --n 3 --word 'T 1 4' --basis unreduced",
        "classify --d 5 --k 1,2,3,4,1",
        "signature --d 18 --k 1,1,1,1",
        "decompose --d 12 --k 1,5,7,11",
        "sweep --d 4 --n 3",
    ]

    @pytest.mark.parametrize("command", GOLDEN, ids=GOLDEN)
    def test_stdout_digest(self, command, capsys):
        assert main(shlex.split(command)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            dict(DETERMINISM_TABLE)[command]


# -- fuzzing --------------------------------------------------------------------

# values beyond a budget or malformed, drawn for any flag one time in four
HOSTILE = {
    "n": ["-1", "0", "x", "2.5", "", str(MAX_N + 1), "1000000"],
    "d": ["-1", "0", "1", "x", "", str(MAX_D + 1), "1000003"],
    "k": ["", ",", "1,,2", "a,b", "1;2", "1, 2", "0,1", "-1,2",
          "1,1,1,1,1,1,1,1,1,1"],
    "f": ["-5", "0", "x", ""],
    "word": ["s0", "s9", "A 4 2", "A", "T 1", "x", "s", "s1^", "^2",
             "s1^31", "s1^10^3", "-s1"],
    "basis": ["foo", ""],
    "out": ["DIR", "MISSING/out.json"],
}
# each token has at most 4 letters on up to 6 strands
WORD_TOKENS = ["s1", "s2^-1", "s3^2", "s5", "A 1 2", "A 2 4", "T 1 3",
               "T 2 3", "s1^-2"]
SPEC_COMMANDS = ("specialize", "spectral", "decompose", "dm", "classify",
                 "signature")


@st.composite
def _fuzz_call(draw):
    """(argv, config lines): a command, its flags with plausible values
    (sweep: n <= 3, d <= 4; others: n <= 5, words <= 8 letters, at most 6
    weights), each flag hostile one time in four, an unknown command now
    and then, and optionally some flags moved into a --config file."""
    command = draw(st.sampled_from(tuple(COMMANDS) + ("bogus",)))
    sweep = command == "sweep"
    d = draw(st.sampled_from([2, 3, 4] if sweep else
                             [2, 3, 4, 5, 6, 7, 12, 18, MAX_D]))
    strands = draw(st.integers(2, 4 if sweep else 6))
    plausible = {
        "n": st.integers(0 if sweep else 1, strands - 1).map(str),
        "d": st.just(str(d)),
        "k": st.lists(st.integers(1, d - 1), min_size=strands,
                      max_size=strands).map(lambda ks: ",".join(map(str, ks))),
        "f": st.integers(1, d).map(str),
        "word": st.lists(st.sampled_from(WORD_TOKENS), min_size=0,
                         max_size=2).map(" ".join),
        "basis": st.sampled_from(["reduced", "unreduced"]),
        "out": st.just("OUT"),
    }

    # sampled_from leans to its first element, so plausible comes first
    def value(key):
        if draw(st.sampled_from([False, False, False, True])):
            return draw(st.sampled_from(HOSTILE[key]))
        return draw(plausible[key])

    if command in SPEC_COMMANDS:
        wanted = ["d", "k", "f"]
    elif sweep:
        wanted = ["d", "n"]
    else:
        wanted = ["n", "word", "basis"]
    keys = [key for key in wanted
            if draw(st.sampled_from([True] * 7 + [False]))]
    keys += draw(st.lists(st.sampled_from(sorted(HOSTILE)), max_size=2))
    flags = [(key, value(key)) for key in dict.fromkeys(keys)]
    config = None
    if draw(st.booleans()):
        moved = draw(st.integers(0, len(flags)))
        config = [f"{key}={val}" for key, val in flags[:moved]]
        config += draw(st.lists(st.sampled_from(
            ["# comment", "", "no equals sign", "bogus=1"]), max_size=1))
        flags = flags[moved:]
    argv = [command]
    for key, val in flags:
        argv += [f"--{key}", val]
    return argv, config


class TestFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(call=_fuzz_call())
    def test_any_argv_ends_in_json(self, call, tmp_path_factory):
        """Every argv exits 0, 2 or 3 with a schema-valid body: stdout (or
        the --out file) on success, stderr otherwise."""
        argv, config = call
        tmp = tmp_path_factory.mktemp("fuzz")
        paths = {"OUT": str(tmp / "out.json"), "DIR": str(tmp),
                 "MISSING/out.json": str(tmp / "missing" / "out.json")}
        if config is not None:
            lines = []
            for line in config:
                key, eq, val = line.partition("=")
                lines.append(key + eq + paths.get(val, val) + "\n")
            cfg = tmp / "job.cfg"
            cfg.write_text("".join(lines))
            argv = argv + ["--config", str(cfg)]
        argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), argv
        if code != 0:
            assert out.getvalue() == ""
            assert check_doc(err.getvalue())["kind"] in (
                "validation", "invariant")
            return
        assert err.getvalue() == ""
        body = out.getvalue()
        if os.path.exists(paths["OUT"]):
            assert body == ""
            with open(paths["OUT"]) as fh:
                body = fh.read()
        if argv[0] == "sweep":
            for line in body.splitlines():
                SWEEP_ROW_VALIDATOR.validate(json.loads(line))
        else:
            assert check_doc(body)["command"] == argv[0]
