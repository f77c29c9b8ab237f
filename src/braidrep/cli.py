"""Command-line front end: every operation as a subcommand with JSON output.

``COMMANDS`` names each subcommand (handler ``_cmd_<name>``) and the flags
it reads, besides ``--out`` and ``--config``; the subparsers, ``run`` and the
``--config`` keys are built from it, so any other flag or key is an argument
error.

Exit codes: 0 success, 2 precondition/validation failure (argument errors
included), 3 internal mathematical invariant failure (a bug; the JSON error
carries a minimal reproducer).  Output is deterministic: keys are sorted and
sweep rows are emitted in sorted job order.  Every handler but ``sweep``
returns one dict, and ``run`` adds its ``command`` key.  A sweep is held to
``MAX_N`` like every other command, and has at most ``MAX_SWEEP_ROWS`` rows.

Usage sketch:
    braidrep verify --n 3 --word "A 1 3"
    braidrep dm --d 18 --k 1,1,1,1 --f 7
    braidrep sweep --d 4 --n 4
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from dataclasses import dataclass

from . import hermitian, linalg, spectral, topology
from .braid import parse_word
from .cyclo import MAX_D, units
from .errors import InvariantError, ValidationError
from .gassner import evaluate_word
from .topology import CoverSpec

# command -> the flags it reads; the handler is _cmd_<command>
_SPEC = ("d", "k", "n")
COMMANDS = {
    "matrix": ("n", "word", "basis"),
    "verify": ("n", "word"),
    "form": ("n",),
    "specialize": _SPEC,
    "spectral": _SPEC,
    "decompose": _SPEC,
    "dm": ("d", "k", "f", "n"),
    "classify": _SPEC,
    "signature": ("d", "k", "f", "n"),
    "sweep": ("d", "n"),
}
COMMON_FLAGS = ("out", "config")

# Input budgets, checked as the input is read (d and the word length are
# budgeted in cyclo.MAX_D and braid.MAX_WORD_LENGTH).  Symbolic matrices grow
# fast with the strand count; a sweep has phi(d)^(n+1) rows per (d, n).
MAX_N = 8              # n = strands - 1, and a sweep's largest n
MAX_SWEEP_ROWS = 6000  # checked after MAX_D and MAX_N; a sweep lists at
                       # most MAX_SWEEP_ROWS + 1 jobs before it is refused
MAX_CONFIG_BYTES = 65536  # a --config file; read no further than this


@dataclass
class JobConfig:
    command: str
    n: int | None = None
    d: int | None = None
    k: tuple | None = None
    f: int | None = None
    word: str | None = None
    basis: str = "reduced"
    out: str | None = None


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
    w = parse_word(strands, config.word)
    tm = evaluate_word(w, config.basis)
    return {
        "n": config.n,
        "word": config.word,
        "basis": config.basis,
        "perm": list(tm.perm.one_line()),
        "matrix": _matrix_strings(tm.matrix),
        "polynomial_entries": True,  # evaluate_word builds Laurent entries
    }


def _cmd_verify(config: JobConfig) -> dict:
    strands = _strands(config)
    _require(config, ("word",))
    w = parse_word(strands, config.word)
    return {
        "n": config.n,
        "word": config.word,
        "invariance": hermitian.verify_invariance(w),
    }


def _cmd_form(config: JobConfig) -> dict:
    strands = _strands(config)
    h = hermitian.form_matrix(strands)
    det = hermitian.form_determinant(strands)  # raises on closed-form mismatch
    return {
        "n": config.n,
        "matrix": _matrix_strings(h),
        "determinant": str(det),
        "determinant_matches_closed_form": True,
    }


def _cmd_specialize(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    h = hermitian.specialize_form(spec.d, spec.k)
    det = linalg.determinant(h)
    return {
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
    doc["kernel_ranks"] = topology.kernel_ranks(spec)
    doc["genus_riemann_hurwitz"] = g_rh
    doc["genus_match"] = rep.genus == g_rh
    return doc


def _cmd_dm(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    _require(config, ("f",))
    doc = topology.dm_report(spec, config.f).to_json()
    doc["regime_bound"] = topology.dm_regime_bound(spec, config.f)
    return doc


def _cmd_classify(config: JobConfig) -> dict:
    return topology.classify(_cover_spec(config)).to_json()


def _cmd_signature(config: JobConfig) -> dict:
    spec = _cover_spec(config)
    if config.f is not None:
        p, q = hermitian.signature(spec.d, spec.k, config.f)
        sigs = [{"f": config.f, "p": p, "q": q}]
    else:
        sigs = hermitian.signature_report(spec.d, spec.k)
    return {
        "spec": spec.to_json(),
        "signatures": sigs,
        "rank_proxy": min((min(s["p"], s["q"]) for s in sigs), default=0),
    }


def sweep_jobs(d_max: int, n_max: int):
    """Deterministic enumeration of (d, n, k) jobs, sorted."""
    for d in range(2, d_max + 1):
        for n in range(1, n_max + 1):
            for k in itertools.product(units(d), repeat=n + 1):
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


def _cmd_sweep(config: JobConfig) -> str:
    _require(config, ("d", "n"))
    d_max, n_max = config.d, config.n
    if d_max > MAX_D:
        raise ValidationError(
            f"sweep d={d_max} exceeds the budget MAX_D={MAX_D}")
    _check_n(n_max)
    jobs = list(itertools.islice(sweep_jobs(d_max, n_max), MAX_SWEEP_ROWS + 1))
    if len(jobs) > MAX_SWEEP_ROWS:
        raise ValidationError(
            f"sweep --d {d_max} --n {n_max} has more rows than the budget "
            f"MAX_SWEEP_ROWS={MAX_SWEEP_ROWS}")
    return "".join(_dump_line(sweep_row(*job)) for job in jobs)


def run(config: JobConfig):
    """Dispatch a job; returns (exit_code, output_text)."""
    try:
        if config.command not in COMMANDS:
            raise ValidationError(f"unknown command '{config.command}'")
        result = globals()[f"_cmd_{config.command}"](config)
        # a sweep prints JSON lines, every other command one document
        if config.command == "sweep":
            return 0, result
        return 0, _dump({**result, "command": config.command})
    except ValidationError as exc:
        return 2, _dump({"error": str(exc), "kind": "validation"})
    except InvariantError as exc:
        return 3, _dump({"error": str(exc), "kind": "invariant",
                         "reproducer": exc.reproducer})


def _parse_k(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"--k expects comma-separated integers, got '{text}'")


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ValidationError(f"cannot read --config '{path}': {exc.strerror}")
    if len(data) > MAX_CONFIG_BYTES:
        raise ValidationError(
            f"--config '{path}' exceeds the budget "
            f"MAX_CONFIG_BYTES={MAX_CONFIG_BYTES}")
    try:
        # the lines of a text-mode read: \r\n and \r end a line as \n does
        lines = io.TextIOWrapper(io.BytesIO(data),
                                 encoding="utf-8-sig").readlines()
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


# each flag's parser arguments; every flag defaults to None, so that
# JobConfig is the one place defaults live
_FLAGS = {
    "n": dict(type=int, help="n (strands - 1); for sweep: the maximal n"),
    "d": dict(type=int,
              help="cyclotomic order / cover degree; for sweep: the maximal d"),
    "k": dict(help="comma-separated weights k_1,...,k_{n+1}"),
    "f": dict(type=int, help="embedding exponent: 1 <= f <= d-1, coprime to d"),
    "word": dict(help="braid word: tokens s<i>, s<i>^<p>, 'A r s', 'T a b'"),
    "basis": dict(choices=("reduced", "unreduced")),
    "out": dict(help="write output to this path instead of stdout"),
    "config": dict(help="key=value file; explicit flags win over the file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidrep",
        description="Exact braid-group representation calculator with JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in _FLAGS.items():
            if flag in flags + COMMON_FLAGS:
                p.add_argument(f"--{flag}", default=None, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    # every flag but --config itself may also come from the file
    keys = COMMANDS[args.command] + ("out",)
    values = {key: getattr(args, key) for key in keys}
    if args.config:
        file_values = _read_config_file(args.config)
        unread = set(file_values) - set(keys)
        if unread:
            raise ValidationError(
                f"--config '{args.config}': keys not read by "
                f"'{args.command}': {', '.join(sorted(unread))}")
        # the file's values pass the parser's own type and choice checks
        try:
            parsed = build_parser().parse_args(
                [args.command] + [f"--{key}={raw}"
                                  for key, raw in file_values.items()])
        except ValidationError as exc:
            raise ValidationError(f"--config '{args.config}': {exc}")
        for key in file_values:
            # flags win: the file fills in only the flags that were not given
            if values[key] is None:
                values[key] = getattr(parsed, key)
    if isinstance(values.get("k"), str):
        values["k"] = _parse_k(values["k"])
    # a value still None is left to JobConfig, the one place defaults live
    return JobConfig(command=args.command,
                     **{key: v for key, v in values.items() if v is not None})


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
