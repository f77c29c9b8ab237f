"""Cover homology bookkeeping, genus oracle, rational condition reports."""

import random
from fractions import Fraction
from math import gcd

import pytest

from braidrep.errors import ValidationError
from braidrep.topology import (
    ARITHMETIC_BY_MAIN_THEOREM,
    INCONCLUSIVE,
    NONARITHMETIC_KNOWN_WITNESS,
    CoverSpec,
    classify,
    dm_regime_bound,
    dm_report,
    genus_riemann_hurwitz,
    homology_decomposition,
    kernel_ranks,
    match_witness,
)


def coprime_units(d):
    return [u for u in range(1, d) if gcd(u, d) == 1]


class TestCoverSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CoverSpec(2, 4, (1, 2, 1))  # 2 not coprime to 4
        with pytest.raises(ValidationError):
            CoverSpec(2, 3, (1, 1))  # length mismatch
        with pytest.raises(ValidationError):
            CoverSpec(1, 1, (1, 1))  # d too small
        with pytest.raises(ValidationError):
            CoverSpec(1, 3, (1, 3))  # out of range

    def test_from_dk(self):
        s = CoverSpec.from_dk(3, (1, 2, 1))
        assert s.n == 2


class TestKernelRanks:
    def test_examples(self):
        assert kernel_ranks(CoverSpec(3, 2, (1, 1, 1, 1))) == \
            {"free_rank": 7, "invariant_dim": 4, "ni_dim": 3}
        assert kernel_ranks(CoverSpec(2, 3, (1, 1, 1))) == \
            {"free_rank": 7, "invariant_dim": 3, "ni_dim": 4}
        assert kernel_ranks(CoverSpec(1, 2, (1, 1))) == \
            {"free_rank": 3, "invariant_dim": 2, "ni_dim": 1}

    def test_identity_full_range(self):
        for d in range(2, 21):
            for n in range(1, 21):
                assert 1 + n * d == (n + 1) + n * (d - 1)
                k = tuple(1 for _ in range(n + 1))
                kernel_ranks(CoverSpec(n, d, k))  # raises on mismatch


class TestDecomposition:
    def test_d2_elliptic(self):
        rep = homology_decomposition(CoverSpec(3, 2, (1, 1, 1, 1)))
        assert rep.per_divisor[2]["q_dim"] == 2
        assert rep.genus == 1

    def test_d4_example(self):
        rep = homology_decomposition(CoverSpec(2, 4, (1, 1, 1)))
        assert rep.per_divisor[2]["q_dim"] == 2
        assert rep.per_divisor[2]["delta"] == 0
        assert rep.per_divisor[4]["q_dim"] == 4
        assert rep.genus == 3

    def test_d3_example(self):
        rep = homology_decomposition(CoverSpec(2, 3, (1, 1, 1)))
        assert rep.per_divisor[3]["delta"] == 1
        assert rep.per_divisor[3]["q_dim"] == 2
        assert rep.genus == 1

    def test_open_ni_dim_matches_kernel_ranks(self):
        rng = random.Random(0)
        for _ in range(50):
            d = rng.randint(2, 10)
            n = rng.randint(1, 8)
            k = tuple(rng.choice(coprime_units(d)) for _ in range(n + 1))
            spec = CoverSpec(n, d, k)
            rep = homology_decomposition(spec)
            assert rep.open_ni_dim == kernel_ranks(spec)["ni_dim"]


class TestRiemannHurwitz:
    def test_classical_double_cover(self):
        assert genus_riemann_hurwitz(CoverSpec(3, 2, (1, 1, 1, 1))) == 1

    def test_order3(self):
        assert genus_riemann_hurwitz(CoverSpec(2, 3, (1, 1, 1))) == 1

    def test_order18(self):
        assert genus_riemann_hurwitz(CoverSpec(3, 18, (1, 1, 1, 1))) == 25

    def test_agreement_with_decomposition(self):
        rng = random.Random(1)
        for _ in range(500):
            d = rng.randint(2, 10)
            n = rng.randint(1, 12)
            k = tuple(rng.choice(coprime_units(d)) for _ in range(n + 1))
            spec = CoverSpec(n, d, k)
            assert homology_decomposition(spec).genus == \
                genus_riemann_hurwitz(spec), spec


class TestDMReport:
    def test_order18_worked_example(self):
        spec = CoverSpec(3, 18, (1, 1, 1, 1))
        rep = dm_report(spec, 7)
        assert rep.mu == (Fraction(7, 18),) * 4
        assert rep.mu_inf == Fraction(8, 18)
        by_pair = {p["pair"]: p for p in rep.pair_conditions}
        # finite pairs share the weight: half-integer 9/2
        assert by_pair["1,2"]["value"] == "9/2"
        assert by_pair["1,2"]["required"] == "half_integer"
        assert by_pair["1,2"]["satisfied"]
        # pairs with infinity: integer 6
        assert by_pair["1,inf"]["value"] == "6"
        assert by_pair["1,inf"]["required"] == "integer"
        assert by_pair["1,inf"]["satisfied"]
        assert rep.cond_sum_lt1 and rep.cond_mu_inf_pos and rep.all_integrality

    def test_non_coprime_f(self):
        with pytest.raises(ValidationError):
            dm_report(CoverSpec(1, 4, (1, 1)), 2)


class TestRegimeBound:
    def test_order18(self):
        assert dm_regime_bound(CoverSpec(3, 18, (1, 1, 1, 1)), 7)

    def test_negative_mu_inf(self):
        spec = CoverSpec(6, 3, (1,) * 7)
        assert not dm_regime_bound(spec, 1)

    def test_d2(self):
        assert dm_regime_bound(CoverSpec(2, 2, (1, 1, 1)), 1)

    def test_exhaustive_small(self):
        # whenever mu_inf > 0 for some valid f, n <= 2d-1; checked by running
        # the guard (it raises on violation) over everything small
        for d in range(2, 9):
            units = coprime_units(d)
            for n in range(1, 2 * d + 3):
                rng = random.Random(d * 100 + n)
                for _ in range(20):
                    k = tuple(rng.choice(units) for _ in range(n + 1))
                    spec = CoverSpec(n, d, k)
                    for f in units:
                        dm_regime_bound(spec, f)


class TestClassify:
    def test_arithmetic_regime(self):
        spec = CoverSpec(6, 3, (1,) * 7)
        res = classify(spec)
        assert res.verdict == ARITHMETIC_BY_MAIN_THEOREM

    def test_known_witness(self):
        spec = CoverSpec(3, 18, (1, 1, 1, 1))
        res = classify(spec)
        assert res.verdict == NONARITHMETIC_KNOWN_WITNESS
        assert res.evidence["witness"]["d"] == 18

    def test_inconclusive_with_reports(self):
        spec = CoverSpec(4, 5, (1, 2, 3, 4, 1))
        res = classify(spec)
        assert res.verdict == INCONCLUSIVE
        assert "5" in res.evidence["dm_reports"]
        assert len(res.evidence["dm_reports"]["5"]) == 4

    def test_verdicts_disjoint_on_table(self):
        # every witness entry is a valid cover spec strictly below the
        # n >= 2d regime
        from braidrep.topology import witness_table

        for entry in witness_table()["witnesses"]:
            assert "k" in entry, entry["id"]
            spec = CoverSpec.from_dk(entry["d"], entry["k"])
            assert spec.n < 2 * spec.d

    def test_lookup_matches_order_and_weights(self):
        # a hit needs the entry's order d; the order-36 lift of the order-18
        # witness would need weights 18, so it is no valid spec
        assert match_witness(36, (1, 1, 1, 1)) is None
        assert match_witness(18, (1, 1, 1, 1)) is not None
        with pytest.raises(ValidationError):
            CoverSpec.from_dk(36, (18, 18, 1, 1, 1, 1))
