"""Homology bookkeeping for cyclic covers of the line.

A cover spec (n, d, k) describes the curve y^d = prod (x - a_i)^{k_i} with
n+1 distinct branch points and weights coprime to d.  Everything here is
integer / rational bookkeeping:

- rank identities for the homology of the punctured cover,
- the divisor-by-divisor dimension decomposition of the closed-cover
  homology into specialized reduced representations,
- an independent Riemann-Hurwitz genus oracle from the ramification data
  (total ramification over each finite branch point since gcd(k_i, d) = 1,
  and r = gcd(sum k, d) points over infinity),
- exact-rational Deligne-Mostow style condition reports, and
- a classification verdict that never infers non-arithmeticity: only the
  curated witness table may produce that verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd as _int_gcd

from .cyclo import check_embedding, check_spec_weights, specialize_poly, units
from .errors import InvariantError, ValidationError
from .laurent import LaurentPoly


@dataclass(frozen=True)
class CoverSpec:
    """Branch data of a cyclic cover: n+1 points, order d, weights k."""

    n: int
    d: int
    k: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(self.k))
        if self.n < 1:
            raise ValidationError("need n >= 1 (at least two branch points)")
        if len(self.k) != self.n + 1:
            raise ValidationError(
                f"weight tuple has length {len(self.k)}, expected n+1 = {self.n + 1}")
        check_spec_weights(self.d, self.k)

    @classmethod
    def from_dk(cls, d: int, k) -> CoverSpec:
        k = tuple(k)
        return cls(len(k) - 1, d, k)

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "k": list(self.k)}


def totient(m: int) -> int:
    return len(units(m))


def kernel_ranks(spec: CoverSpec) -> dict:
    """Ranks of the punctured-cover homology: the free rank 1 + nd splits as
    (n+1) invariants plus n(d-1) non-invariants."""
    n, d = spec.n, spec.d
    free_rank = 1 + n * d
    invariant_dim = n + 1
    ni_dim = n * (d - 1)
    if free_rank != invariant_dim + ni_dim:
        raise InvariantError(
            f"rank identity failed: 1+{n}*{d} != {n + 1} + {n}*({d}-1)",
            reproducer={"op": "kernel_ranks", "spec": spec.to_json()})
    return {"free_rank": free_rank, "invariant_dim": invariant_dim,
            "ni_dim": ni_dim}


def _delta_at_level(spec: CoverSpec, e: int) -> int:
    """1 when the level-e product of the t_i is trivial, else 0.

    Computed two independent ways (divisibility of sum(k), and exact
    specialization of the monomial X_1...X_{n+1} at level e); a mismatch is
    a bug.
    """
    by_sum = 1 if sum(spec.k) % e == 0 else 0
    m = spec.n + 1
    mono = LaurentPoly.monomial(m, (1,) * m)
    ke = tuple(ki % e for ki in spec.k)
    value = specialize_poly(mono, e, ke)
    by_spec = 1 if value.is_one() else 0
    if by_sum != by_spec:
        raise InvariantError(
            f"divisor predicate mismatch at level e={e}",
            reproducer={"op": "_delta_at_level", "spec": spec.to_json(), "e": e})
    return by_sum


@dataclass(frozen=True)
class DecompositionReport:
    """Dimensions of the divisor-by-divisor homology decomposition."""

    spec: CoverSpec
    per_divisor: dict
    open_ni_dim: int
    closed_dim: int
    genus: int

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "per_divisor": {str(e): dict(v) for e, v in
                            sorted(self.per_divisor.items())},
            "open_ni_dim": self.open_ni_dim,
            "closed_dim": self.closed_dim,
            "genus": self.genus,
        }


def homology_decomposition(spec: CoverSpec) -> DecompositionReport:
    """Per divisor e >= 2 of d: the level-e block has dimension n over the
    e-th cyclotomic field (n - delta_e after killing the invariant line);
    rational dimensions scale by phi(e).  The closed-cover total is twice
    the genus."""
    n, d = spec.n, spec.d
    per = {}
    open_ni = 0
    closed = 0
    for e in range(2, d + 1):
        if d % e:
            continue
        delta = _delta_at_level(spec, e)
        phi = totient(e)
        per[e] = {
            "gassner_dim": n,
            "delta": delta,
            "reduced_bar_dim": n - delta,
            "q_dim": phi * (n - delta),
        }
        open_ni += phi * n
        closed += phi * (n - delta)
    expected_ni = n * (d - 1)
    if open_ni != expected_ni:
        raise InvariantError(
            f"non-invariant dimension mismatch: {open_ni} != {expected_ni}",
            reproducer={"op": "homology_decomposition", "spec": spec.to_json()})
    if closed % 2:
        raise InvariantError(
            f"closed-cover dimension {closed} is odd",
            reproducer={"op": "homology_decomposition", "spec": spec.to_json()})
    return DecompositionReport(spec=spec, per_divisor=per,
                               open_ni_dim=open_ni, closed_dim=closed,
                               genus=closed // 2)


def genus_riemann_hurwitz(spec: CoverSpec) -> int:
    """Independent genus oracle from the ramification data.

    Degree d cover of the sphere: one totally ramified point over each of
    the n+1 finite branch points (gcd(k_i, d) = 1), and r = gcd(sum k, d)
    points over infinity, each of index d/r:
        2 - 2g = 2d - (n+1)(d-1) - (d - r).
    """
    n, d = spec.n, spec.d
    r = _int_gcd(sum(spec.k), d)
    euler = 2 * d - (n + 1) * (d - 1) - (d - r)
    if (2 - euler) % 2:
        raise InvariantError(
            f"odd Euler defect for {spec}",
            reproducer={"op": "genus_riemann_hurwitz", "spec": spec.to_json()})
    g = (2 - euler) // 2
    if g < 0:
        raise InvariantError(
            f"negative genus {g} for {spec}",
            reproducer={"op": "genus_riemann_hurwitz", "spec": spec.to_json()})
    return g


# -- Deligne-Mostow style condition reports -----------------------------------

@dataclass(frozen=True)
class DMReport:
    """Exact-rational weight report at one embedding exponent f."""

    spec: CoverSpec
    f: int
    mu: tuple            # fractional parts {k_i f / d}
    mu_inf: Fraction     # 2 - sum(mu)
    cond_sum_lt1: bool   # mu_i + mu_j < 1 for all pairs including infinity
    cond_mu_inf_pos: bool
    pair_conditions: tuple  # per-pair records (see dm_report)
    all_integrality: bool

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "f": self.f,
            "mu": [str(m) for m in self.mu],
            "mu_inf": str(self.mu_inf),
            "cond_sum_lt1": self.cond_sum_lt1,
            "cond_mu_inf_pos": self.cond_mu_inf_pos,
            "pairs": [dict(p) for p in self.pair_conditions],
            "all_integrality": self.all_integrality,
        }


def _is_half_integer(x: Fraction) -> bool:
    return (2 * x).denominator == 1


def dm_report(spec: CoverSpec, f: int) -> DMReport:
    """All weights mu_i = {k_i f / d}, mu_inf, and the pair conditions.

    Pairs run over the n+1 finite labels and 'inf'; a pair with equal
    weights must make 1/(1 - mu_i - mu_j) a half integer, every other pair
    (including the infinity pairs) an integer.
    """
    check_embedding(spec.d, f)
    d = spec.d
    mu = tuple(Fraction((ki * f) % d, d) for ki in spec.k)
    mu_inf = 2 - sum(mu)
    labels = [str(i + 1) for i in range(len(mu))] + ["inf"]
    values = list(mu) + [mu_inf]
    weights = list(spec.k) + [None]  # None: infinity never equals a finite weight
    pairs = []
    sum_lt1 = True
    all_int = True
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            s = values[i] + values[j]
            lt1 = s < 1
            sum_lt1 = sum_lt1 and lt1
            rec = {
                "pair": f"{labels[i]},{labels[j]}",
                "mu_sum": str(s),
                "sum_lt1": lt1,
            }
            same = weights[i] is not None and weights[i] == weights[j]
            rec["required"] = "half_integer" if same else "integer"
            if s == 1:
                rec["value"] = None
                rec["satisfied"] = False
            else:
                v = 1 / (1 - s)
                rec["value"] = str(v)
                ok = _is_half_integer(v) if same else v.denominator == 1
                rec["satisfied"] = bool(ok)
            all_int = all_int and rec["satisfied"]
            pairs.append(rec)
    return DMReport(
        spec=spec, f=f, mu=mu, mu_inf=mu_inf,
        cond_sum_lt1=sum_lt1, cond_mu_inf_pos=mu_inf > 0,
        pair_conditions=tuple(pairs), all_integrality=all_int)


def dm_regime_bound(spec: CoverSpec, f: int) -> bool:
    """True iff mu_inf > 0 at exponent f; in that case n <= 2d - 1 is forced
    (each fractional part is >= 1/d), and that bound is asserted."""
    check_embedding(spec.d, f)
    d = spec.d
    mu_inf = 2 - sum(Fraction((ki * f) % d, d) for ki in spec.k)
    if mu_inf <= 0:
        return False
    if spec.n > 2 * d - 1:
        raise InvariantError(
            f"mu_inf > 0 with n={spec.n} > 2d-1={2 * d - 1}",
            reproducer={"op": "dm_regime_bound", "spec": spec.to_json(), "f": f})
    return True


# -- classification ------------------------------------------------------------

ARITHMETIC_BY_MAIN_THEOREM = "ARITHMETIC_BY_MAIN_THEOREM"
NONARITHMETIC_KNOWN_WITNESS = "NONARITHMETIC_KNOWN_WITNESS"
INCONCLUSIVE = "INCONCLUSIVE"


@cache
def witness_table() -> dict:
    with resources.files("braidrep").joinpath("witnesses.json").open() as fh:
        return json.load(fh)


def match_witness(d: int, k) -> dict | None:
    """Look (d, k) up in the curated witness table: an entry of order d
    whose weights equal k up to order."""
    k = sorted(k)
    for entry in witness_table()["witnesses"]:
        if entry["d"] == d and sorted(entry["k"]) == k:
            return entry
    return None


@dataclass(frozen=True)
class Classification:
    spec: CoverSpec
    verdict: str
    evidence: dict

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "verdict": self.verdict,
                "evidence": self.evidence}


def classify(spec: CoverSpec) -> Classification:
    """ARITHMETIC_BY_MAIN_THEOREM iff n >= 2d (the CoverSpec invariants
    already grant the weight hypotheses); NONARITHMETIC_KNOWN_WITNESS only on
    a curated table hit; everything else INCONCLUSIVE with the per-divisor
    rational reports attached as evidence."""
    arithmetic = spec.n >= 2 * spec.d
    witness = match_witness(spec.d, spec.k)
    if arithmetic and witness is not None:
        raise InvariantError(
            "witness table contains an entry in the arithmetic regime",
            reproducer={"op": "classify", "spec": spec.to_json()})
    if arithmetic:
        return Classification(
            spec=spec, verdict=ARITHMETIC_BY_MAIN_THEOREM,
            evidence={"n": spec.n, "required": 2 * spec.d})
    if witness is not None:
        return Classification(
            spec=spec, verdict=NONARITHMETIC_KNOWN_WITNESS,
            evidence={"witness": witness})
    reports: dict = {}
    for e in range(2, spec.d + 1):
        if spec.d % e:
            continue
        spec_e = CoverSpec(spec.n, e, tuple(ki % e for ki in spec.k))
        reports[str(e)] = [dm_report(spec_e, f).to_json()
                           for f in units(e)]
    return Classification(spec=spec, verdict=INCONCLUSIVE,
                          evidence={"dm_reports": reports})
