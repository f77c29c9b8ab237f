"""Seeded inputs, operations and output oracles of the three workloads.

Every workload is a stream of *blocks*.  A block has the same composition on
every seed (one op per cell of a fixed grid, or one pass over a fixed
population); the seed picks the concrete weights and orders inside the cells.
The measuring loop only stops at block boundaries, so two runs with
different seeds do the same mix of work and their throughput differs only by
the inputs' values, not by how many expensive cells they happened to draw.
The warm-ups that ``setup_s`` times have a fixed composition too: the seed
picks only their weights.

Generation is pure Python and never imports ``braidrep``; the ops import it
lazily, and call every library function through its module attribute so the
tracing wrappers in ``tracing.py`` see each call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

MIN_OPS = 100  # so the 90th percentile has at least ten samples beyond it

SWEEP_D = (3, 4, 5, 7, 8, 9, 10, 12)
SWEEP_N = (2, 3, 4, 5)
UNIPOTENT_D = (3, 4, 5, 6)
UNIPOTENT_P = (3, 4, 5)
WORD_STRANDS = (4, 5, 6)
# (strands, d) of the form queries: three per block, so the 90th percentile of
# op latency falls among the 6-strand words, not on the sparse edge between
# words and forms, where it moves with every change of host speed
FORM_CELLS = ((5, 5), (6, 8), (7, 12))
SWEEP_WARMUP_D = 7


def units(d: int) -> tuple:
    return tuple(u for u in range(1, d) if gcd(u, d) == 1)


def _sum_residues(d: int, length: int) -> set:
    """The residues mod d of sum(k) over weight tuples of this length."""
    reach = {0}
    for _ in range(length):
        reach = {(r + u) % d for r in reach for u in units(d)}
    return reach


def degenerate_feasible(d: int, length: int) -> bool:
    return 0 in _sum_residues(d, length)


def nondegenerate_feasible(d: int, length: int) -> bool:
    return bool(_sum_residues(d, length) - {0})


def sample_k(rng: random.Random, d: int, length: int, degenerate: bool) -> tuple:
    """A uniform weight tuple with (d | sum) == degenerate, by rejection."""
    us = units(d)
    for _ in range(100000):
        k = tuple(rng.choice(us) for _ in range(length))
        if (sum(k) % d == 0) == degenerate:
            return k
    raise ValueError(f"no weight tuple for d={d}, length={length}, "
                     f"degenerate={degenerate}")


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _lib():
    from braidrep import artin, braid, cli, gassner, hermitian, linalg, spectral, topology
    return artin, braid, cli, gassner, hermitian, linalg, spectral, topology


# -- sweep ---------------------------------------------------------------------

class Sweep:
    """One op is one ``cli.sweep_row(d, n, k)``; a block is one op per
    (d, n, degenerate) cell that has a weight tuple."""

    name = "sweep"
    cells = tuple((d, n, deg) for d in SWEEP_D for n in SWEEP_N
                  for deg in (False, True)
                  if (degenerate_feasible if deg else nondegenerate_feasible)(d, n + 1))

    def blocks(self, rng: random.Random):
        while True:
            yield _shuffled(rng, [("sweep", d, n, sample_k(rng, d, n + 1, deg))
                                  for d, n, deg in self.cells])

    def warmups(self, rng: random.Random) -> list:
        # the symbolic generator caches are per strand count
        return [("sweep", SWEEP_WARMUP_D, n, sample_k(rng, SWEEP_WARMUP_D, n + 1, n % 2 == 0))
                for n in SWEEP_N]

    def run(self, op):
        _, d, n, k = op
        return _lib()[2].sweep_row(d, n, k)

    def check(self, op, row) -> str | None:
        _, d, n, k = op
        degenerate = sum(k) % d == 0
        want_span = n * n - n + 1 if degenerate else n * n
        if not row["genus_match"]:
            return f"genus mismatch {row['genus']} vs {row['genus_rh']}"
        if not row["reducibility_match"]:
            return "degeneracy predicates disagree"
        if row["degenerate"] != degenerate:
            return f"degenerate={row['degenerate']}, expected {degenerate}"
        if row["fixed_space_dim"] != int(degenerate):
            return f"fixed_space_dim={row['fixed_space_dim']}, expected {int(degenerate)}"
        if row["span_dim"] != want_span:
            return f"span_dim={row['span_dim']}, expected {want_span}"
        return None


# -- unipotent -----------------------------------------------------------------

class Unipotent:
    """One op is a degenerate block: the commutator on p = len(k) strands,
    then the flag check with the extra weight e and a seeded word seed.
    A block is one op per (d, p, e) cell with a degenerate k of length p."""

    name = "unipotent"
    cells = tuple((d, p, e) for d in UNIPOTENT_D for p in UNIPOTENT_P
                  if degenerate_feasible(d, p) for e in units(d))

    def blocks(self, rng: random.Random):
        while True:
            yield _shuffled(rng, [("unipotent", d, sample_k(rng, d, p, True), e,
                                   rng.randrange(2 ** 31)) for d, p, e in self.cells])

    def warmups(self, rng: random.Random) -> list:
        # the cheapest d of each p, with a fixed extra weight and word seed
        out = []
        for p in UNIPOTENT_P:
            d = min(d for d, pp, _ in self.cells if pp == p)
            out.append(("unipotent", d, sample_k(rng, d, p, True), 1, 0))
        return out

    def run(self, op):
        _, d, k, e, seed = op
        spectral = _lib()[6]
        u = spectral.unipotent_commutator(d, k)
        return len(u), spectral.flag_unipotency_check(d, k + (e,), seed)

    def check(self, op, result) -> str | None:
        _, d, k, _, _ = op
        dim, flag = result
        if dim != len(k) - 1:
            return f"commutator has size {dim}, expected {len(k) - 1}"
        if flag is not True:
            return f"flag check returned {flag!r}"
        return None


# -- symbolic ------------------------------------------------------------------

def word_population() -> list:
    """Every single-factor pure word of the three shapes on 4-6 strands."""
    out = []
    for m in WORD_STRANDS:
        out += [(m, f"A {r} {s}") for r in range(1, m) for s in range(r + 1, m + 1)]
        out += [(m, f"T {a} {b} T {a} {b}")
                for a in range(1, m) for b in range(a + 2, m + 1)]
        out += [(m, f"s{i}^{e}") for i in range(1, m) for e in (2, -2)]
    return out


class Symbolic:
    """A block is one pass over the word population in a seeded order, with
    one form query per (strands, d) cell spread evenly through it.  A form
    query takes a seeded non-degenerate k."""

    name = "symbolic"

    def _form(self, rng, strands, d):
        return ("form", strands, d, sample_k(rng, d, strands, False))

    def blocks(self, rng: random.Random):
        words = word_population()
        while True:
            ops = [("word",) + w for w in _shuffled(rng, words)]
            forms = _shuffled(rng, [self._form(rng, m, d) for m, d in FORM_CELLS])
            step = len(ops) / len(forms)
            for i, f in reversed(list(enumerate(forms))):
                ops.insert(round((i + 1) * step), f)
            yield ops

    def warmups(self, rng: random.Random) -> list:
        out = [("word", m, f"A 1 {m}") for m in WORD_STRANDS]
        return out + [self._form(rng, m, d) for m, d in FORM_CELLS]

    def run(self, op):
        artin, braid, _, gassner, hermitian, linalg, _, topology = _lib()
        if op[0] == "word":
            _, strands, text = op
            w = braid.parse_word(strands, text)
            gassner.evaluate_word(w, "reduced")
            unreduced = gassner.assert_polynomial_entries(
                gassner.evaluate_word(w, "unreduced"), text)
            matches = unreduced == artin.derive_unreduced_matrix(w)
            return matches, hermitian.verify_invariance(w)
        _, strands, d, k = op
        h = hermitian.specialize_form(d, k)
        return (hermitian.form_determinant(strands), h, linalg.determinant(h),
                hermitian.signature_report(d, k),
                topology.classify(topology.CoverSpec.from_dk(d, k)))

    def check(self, op, result) -> str | None:
        if op[0] == "word":
            matches, invariant = result
            if not matches:
                return "evaluated unreduced matrix differs from the Artin derivation"
            if invariant is not True:
                return "form invariance failed"
            return None
        from braidrep import cyclo, laurent, linalg
        _, strands, d, k = op
        det, h, det_h_got, signatures, classification = result
        one = laurent.LaurentPoly.one(strands)
        den = one
        for i in range(1, strands + 1):
            den = den * (one - laurent.LaurentPoly.variable(strands, i))
        closed = laurent.RationalFunction(
            one - laurent.LaurentPoly.monomial(strands, (1,) * strands), den)
        if det != closed:
            return f"determinant {det} differs from the closed form {closed}"
        n = strands - 1
        if len(h) != n or any(h[j][i].conjugate() != -h[i][j]
                              for i in range(n) for j in range(n)):
            return "specialized form is not skew-hermitian"
        # det h at X_i = omega^k_i, from the closed form in cyclotomic numbers
        unit = cyclo.CycloNum.one(d)
        prod, denom = unit, unit
        for ki in k:
            t = cyclo.CycloNum.omega_power(d, ki)
            prod, denom = prod * t, denom * (unit - t)
        det_h = (unit - prod) * denom.inverse()
        if det_h_got != det_h or linalg.determinant(h) != det_h:
            return "specialized determinant differs from the closed form"
        return (_signature_error(d, n, det_h, signatures)
                or _classification_error(d, k, classification))


def _signature_error(d: int, n: int, det_h, signatures: list) -> str | None:
    """At each embedding f: p + q = n, (-1)^q is the sign of det(-i h) there,
    and the conjugate embedding d - f swaps p and q."""
    got = {s["f"]: (s["p"], s["q"]) for s in signatures}
    if sorted(got) != list(units(d)):
        return f"signatures at f = {sorted(got)}, expected {list(units(d))}"
    for f, (p, q) in got.items():
        if p + q != n:
            return f"signature ({p}, {q}) at f={f} does not add up to {n}"
        if got[d - f] != (q, p):
            return f"signature at f={d - f} is {got[d - f]}, expected {(q, p)}"
        sign = ((-1j) ** n * det_h.embed(f)).real
        if (sign < 0) != (q % 2 == 1):
            return f"signature ({p}, {q}) at f={f}, but det(-i h) = {sign:+.3g}"
    return None


def _classification_error(d: int, k: tuple, c) -> str | None:
    """The verdict follows n >= 2d; an inconclusive one carries the weight
    report of every divisor e >= 2 of d at every unit f mod e."""
    arithmetic = len(k) - 1 >= 2 * d
    if (c.verdict == "ARITHMETIC_BY_MAIN_THEOREM") != arithmetic:
        return f"verdict {c.verdict} with n={len(k) - 1}, d={d}"
    if arithmetic:
        return None
    if c.verdict == "NONARITHMETIC_KNOWN_WITNESS":
        return None if c.evidence["witness"]["d"] == d else "witness of another d"
    if c.verdict != "INCONCLUSIVE":
        return f"unknown verdict {c.verdict}"
    reports = c.evidence["dm_reports"]
    want = {str(e): list(units(e)) for e in range(2, d + 1) if d % e == 0}
    if sorted(reports) != sorted(want):
        return f"weight reports for e = {sorted(reports)}, expected {sorted(want)}"
    for e, fs in want.items():
        if [r["f"] for r in reports[e]] != fs:
            return f"weight reports for e={e} at f = {[r['f'] for r in reports[e]]}"
        for r in reports[e]:
            mu = [Fraction(ki * r["f"] % int(e), int(e)) for ki in k]
            if r["mu"] != [str(m) for m in mu] or r["mu_inf"] != str(2 - sum(mu)):
                return f"weights at e={e}, f={r['f']} differ from {mu}"
    return None


WORKLOADS = {w.name: w for w in (Sweep(), Unipotent(), Symbolic())}
