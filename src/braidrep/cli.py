"""Command-line front end: every operation as a subcommand with JSON output.

Exit codes: 0 success, 2 precondition/validation failure (argument errors
included), 3 internal mathematical invariant failure (a bug; the JSON error
carries a minimal reproducer).  Output is deterministic: keys are sorted and
sweep rows are emitted in sorted job order.  ``--seed`` is accepted but
reserved; no command reads it.

Usage sketch:
    braidrep verify --n 3 --word "A 1 3"
    braidrep dm --d 18 --k 1,1,1,1 --f 7
    braidrep sweep --d 4 --n 4
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass
from math import gcd as _int_gcd

from . import hermitian, spectral, topology
from .braid import parse_word
from .cyclo import MAX_D
from .errors import InvariantError, ValidationError
from .gassner import evaluate_word
from .topology import CoverSpec

COMMANDS = ("matrix", "verify", "form", "specialize", "spectral",
            "decompose", "dm", "classify", "signature", "sweep")

# Input budgets, checked as the input is read (d and the word length are
# budgeted in cyclo.MAX_D and braid.MAX_WORD_LENGTH).  Symbolic matrices grow
# fast with the strand count; a sweep has phi(d)^(n+1) rows per (d, n).
MAX_N = 8              # n = strands - 1 for every command but sweep
MAX_SWEEP_N = 5        # the largest n a sweep may request


@dataclass
class JobConfig:
    command: str
    n: int | None = None
    d: int | None = None
    k: tuple | None = None
    f: int | None = None
    word: str | None = None
    basis: str = "reduced"
    seed: int = 0
    out: str | None = None
    cap: int = 6


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _dump_line(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _require(config: JobConfig, names):
    for name in names:
        if getattr(config, name) is None:
            raise ValidationError(
                f"'{config.command}' requires --{name}")


def _check_n(n: int):
    if n > MAX_N:
        raise ValidationError(f"n={n} exceeds the budget MAX_N={MAX_N}")


def _strands(config: JobConfig) -> int:
    _require(config, ("n",))
    if config.n < 1:
        raise ValidationError("--n must be >= 1")
    _check_n(config.n)
    return config.n + 1


def _cover_spec(config: JobConfig) -> CoverSpec:
    _require(config, ("d", "k"))
    _check_n(len(config.k) - 1)
    spec = CoverSpec.from_dk(config.d, config.k)
    if config.n is not None and config.n != spec.n:
        raise ValidationError(
            f"--n {config.n} contradicts --k of length {len(config.k)}")
    return spec


def _matrix_strings(matrix) -> list:
    return [[str(x) for x in row] for row in matrix]


def _cmd_matrix(config: JobConfig) -> dict:
    strands = _strands(config)
    _require(config, ("word",))
    if config.basis not in ("reduced", "unreduced"):
        raise ValidationError("--basis must be 'reduced' or 'unreduced'")
    w = parse_word(strands, config.word)
    tm = evaluate_word(w, config.basis)
    return {
        "command": "matrix",
        "n": config.n,
        "word": config.word,
        "basis": config.basis,
        "perm": list(tm.perm.one_line()),
        "matrix": _matrix_strings(tm.matrix),
        "polynomial_entries": all(x.is_polynomial()
                                  for row in tm.matrix for x in row),
    }


def _cmd_verify(config: JobConfig) -> dict:
    strands = _strands(config)
    _require(config, ("word",))
    w = parse_word(strands, config.word)
    return {
        "command": "verify",
        "n": config.n,
        "word": config.word,
        "invariance": hermitian.verify_invariance(w),
    }


def _cmd_form(config: JobConfig) -> dict:
    strands = _strands(config)
    h = hermitian.form_matrix(strands)
    det = hermitian.form_determinant(strands)  # raises on closed-form mismatch
    return {
        "command": "form",
        "n": config.n,
        "matrix": _matrix_strings(h),
        "determinant": str(det),
        "determinant_matches_closed_form": True,
    }


def _cmd_specialize(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    from . import linalg

    h = hermitian.specialize_form(spec.d, spec.k)
    det = linalg.determinant(h)
    return {
        "command": "specialize",
        "spec": spec.to_json(),
        "matrix": _matrix_strings(h),
        "determinant": str(det),
        "degenerate": hermitian.is_degenerate(spec.d, spec.k),
    }


def _cmd_spectral(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    rep = spectral.specialize_rep(spec.d, spec.k)
    span_dim, irreducible = spectral.burnside_irreducibility(rep)
    blocks = None
    if spec.n >= 2 * spec.d:
        (a, b), (c, e) = spectral.pigeonhole_blocks(spec.d, spec.k)
        blocks = {"I": [a, b], "J": [c, e]}
    unipotent_found = None
    for p in range(3, spec.n + 2):
        if sum(spec.k[:p]) % spec.d == 0:
            spectral.unipotent_commutator(spec.d, spec.k[:p])  # raises on bug
            unipotent_found = True
            break
    return {
        "command": "spectral",
        "spec": spec.to_json(),
        "degenerate": rep.is_degenerate(),
        "span_dim": span_dim,
        "irreducible": irreducible,
        "central_scalar": str(rep.central_scalar()),
        "unipotent_found": unipotent_found,
        "blocks": blocks,
    }


def _cmd_decompose(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    rep = topology.homology_decomposition(spec)
    g_rh = topology.genus_riemann_hurwitz(spec)
    doc = rep.to_json()
    doc["command"] = "decompose"
    doc["kernel_ranks"] = topology.kernel_ranks(spec)
    doc["genus_riemann_hurwitz"] = g_rh
    doc["genus_match"] = rep.genus == g_rh
    return doc


def _cmd_dm(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    _require(config, ("f",))
    doc = topology.dm_report(spec, config.f).to_json()
    doc["command"] = "dm"
    doc["regime_bound"] = topology.dm_regime_bound(spec, config.f)
    return doc


def _cmd_classify(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    doc = topology.classify(spec).to_json()
    doc["command"] = "classify"
    return doc


def _cmd_signature(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    if hermitian.is_degenerate(spec.d, spec.k):
        raise ValidationError(
            f"form is degenerate at d={spec.d}, k={spec.k}: no signatures")
    if config.f is not None:
        p, q = hermitian.signature(spec.d, spec.k, config.f)
        sigs = [{"f": config.f, "p": p, "q": q}]
    else:
        sigs = hermitian.signature_report(spec.d, spec.k)
    return {
        "command": "signature",
        "spec": spec.to_json(),
        "signatures": sigs,
        "rank_proxy": min((min(s["p"], s["q"]) for s in sigs), default=0),
    }


def sweep_jobs(d_max: int, n_max: int):
    """Deterministic enumeration of (d, n, k) jobs, sorted."""
    for d in range(2, d_max + 1):
        units = [u for u in range(1, d) if _int_gcd(u, d) == 1]
        for n in range(1, n_max + 1):
            for k in itertools.product(units, repeat=n + 1):
                yield d, n, k


def sweep_row(d: int, n: int, k: tuple) -> dict:
    spec = CoverSpec(n, d, k)
    dec = topology.homology_decomposition(spec)
    g_rh = topology.genus_riemann_hurwitz(spec)
    agreement = spectral.degeneracy_agreement(d, k)
    return {
        "spec": spec.to_json(),
        "genus": dec.genus,
        "genus_rh": g_rh,
        "genus_match": dec.genus == g_rh,
        "degenerate": agreement["degenerate"],
        "span_dim": agreement["span_dim"],
        "fixed_space_dim": agreement["fixed_space_dim"],
        "reducibility_match": agreement["agree"],
    }


def _cmd_sweep(config: JobConfig, sink) -> None:
    d_max = config.d if config.d is not None else 0
    n_max = config.n if config.n is not None else 0
    if d_max > config.cap:
        raise ValidationError(
            f"sweep cap exceeded: --d {d_max} > --cap {config.cap}")
    if d_max > MAX_D:
        raise ValidationError(
            f"sweep d={d_max} exceeds the budget MAX_D={MAX_D}")
    if n_max > MAX_SWEEP_N:
        raise ValidationError(
            f"sweep n={n_max} exceeds the budget MAX_SWEEP_N={MAX_SWEEP_N}")
    for d, n, k in sweep_jobs(d_max, n_max):
        sink.write(_dump_line(sweep_row(d, n, k)))


def run(config: JobConfig):
    """Dispatch a job; returns (exit_code, output_text)."""
    import io

    try:
        if config.command == "sweep":
            buf = io.StringIO()
            _cmd_sweep(config, buf)
            return 0, buf.getvalue()
        handler = {
            "matrix": _cmd_matrix,
            "verify": _cmd_verify,
            "form": _cmd_form,
            "specialize": _cmd_specialize,
            "spectral": _cmd_spectral,
            "decompose": _cmd_decompose,
            "dm": _cmd_dm,
            "classify": _cmd_classify,
            "signature": _cmd_signature,
        }.get(config.command)
        if handler is None:
            raise ValidationError(f"unknown command '{config.command}'")
        return 0, _dump(handler(config))
    except ValidationError as exc:
        return 2, _dump({"error": str(exc), "kind": "validation"})
    except InvariantError as exc:
        return 3, _dump({"error": str(exc), "kind": "invariant",
                         "reproducer": exc.reproducer})


def _parse_k(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise ValidationError(f"--k expects comma-separated integers, got '{text}'")


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read --config '{path}': {exc.strerror}")
    except UnicodeDecodeError:
        raise ValidationError(f"--config '{path}' is not UTF-8 text")
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': '{line}'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValidationError, so that
    they end in exit 2 with a JSON body like every other bad input.  The
    subcommand parsers inherit the class."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidrep",
        description="Exact braid-group representation calculator with JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=None,
                       help="n (strands - 1); for sweep: the maximal n")
        p.add_argument("--d", type=int, default=None,
                       help="cyclotomic order / cover degree; for sweep: the maximal d")
        p.add_argument("--k", type=str, default=None,
                       help="comma-separated weights k_1,...,k_{n+1}")
        p.add_argument("--f", type=int, default=None,
                       help="embedding exponent, coprime to d")
        p.add_argument("--word", type=str, default=None,
                       help="braid word: tokens s<i>, s<i>^<p>, 'A r s', 'T a b'")
        p.add_argument("--basis", type=str, default="reduced",
                       choices=("reduced", "unreduced"))
        p.add_argument("--seed", type=int, default=0,
                       help="reserved: accepted, read by no command")
        p.add_argument("--out", type=str, default=None,
                       help="write output to this path instead of stdout")
        p.add_argument("--cap", type=int, default=6,
                       help="largest d a sweep may request")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file; explicit flags win over the file")
    return parser


_CONFIG_KEYS = ("n", "d", "k", "f", "word", "basis", "seed", "out", "cap")


def config_from_args(args: argparse.Namespace) -> JobConfig:
    values = {key: getattr(args, key) for key in _CONFIG_KEYS}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise ValidationError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        defaults = {"basis": "reduced", "seed": 0, "cap": 6}
        for key, raw in file_values.items():
            # flags win: only fill in values the command line left at default
            if values.get(key) not in (None, defaults.get(key)):
                continue
            if key in ("n", "d", "f", "seed", "cap"):
                try:
                    values[key] = int(raw)
                except ValueError:
                    raise ValidationError(
                        f"config key '{key}' expects an integer, got '{raw}'")
            else:
                values[key] = raw
    if isinstance(values.get("k"), str):
        values["k"] = _parse_k(values["k"])
    return JobConfig(command=args.command, **values)


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
    except ValidationError as exc:
        sys.stderr.write(_dump({"error": str(exc), "kind": "validation"}))
        return 2
    code, text = run(config)
    if code == 0 and config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(_dump({
                "error": f"cannot write --out '{config.out}': {exc.strerror}",
                "kind": "validation"}))
            return 2
    elif code == 0:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
