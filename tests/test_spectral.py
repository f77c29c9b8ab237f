"""Specialized representations, pigeonhole blocks, unipotents, span closure."""

import itertools
import random
from math import gcd

import pytest

from braidrep import linalg, spectral
from braidrep.braid import BraidWord, full_twist, pure_generator
from braidrep.cyclo import CycloNum, specialize_poly
from braidrep.errors import InvariantError, ValidationError
from braidrep.gassner import evaluate_word
from braidrep.hermitian import is_degenerate, specialize_form
from braidrep.spectral import (
    burnside_irreducibility,
    degeneracy_agreement,
    fixed_vector_space_dim,
    flag_unipotency_check,
    pigeonhole_blocks,
    specialize_rep,
    unipotent_commutator,
)
from oracles import (
    all_unit_subintervals,
    burau_matches_gassner_at_ones,
    c07_corpus,
    c07_pass,
    central_scalar_matches,
    commutator_in_w_basis,
    generator_matrices,
    in_flag_group,
    in_w_basis,
    w_basis,
)


def coprime_units(d):
    return [u for u in range(1, d) if gcd(u, d) == 1]


class TestSpecializeRep:
    def test_s1_squared_entries(self):
        # n=2, d=3, k=(1,1,1): eps_1 -> w^2 eps_1, eps_2 -> (1-w) eps_1 + eps_2
        rep = specialize_rep(3, (1, 1, 1))
        m = rep.matrix(1, 2)
        w = CycloNum.omega_power(3, 1)
        one = CycloNum.one(3)
        assert m[0][0] == w * w
        assert m[0][1] == one - w
        assert m[1][1] == one
        assert m[1][0].is_zero()

    def test_central_scalar_specialized(self):
        # n=2, d=3, k=(1,1,2): Delta^2 = w*w*w^2 = w * identity
        assert central_scalar_matches(3, (1, 1, 2))
        rep = specialize_rep(3, (1, 1, 2))
        assert rep.central_scalar() == CycloNum.omega_power(3, 1)

    def test_word_matrix_is_the_product_of_generators(self):
        # an independent route: multiply the specialized generator matrices
        # and their inverses along a random word of pure generators
        rng = random.Random(5)
        for _ in range(6):
            d = rng.choice([3, 4, 5, 6])
            strands = rng.randint(3, 5)
            k = tuple(rng.choice(coprime_units(d)) for _ in range(strands))
            rep = specialize_rep(d, k)
            word = BraidWord(strands)
            expected = linalg.identity(rep.dim, CycloNum.one(d),
                                       CycloNum.zero(d))
            for _ in range(3):
                r = rng.randint(1, strands - 1)
                s = rng.randint(r + 1, strands)
                g = pure_generator(r, s, strands)
                if rng.random() < 0.5:
                    word, m = word * g.inverse(), rep.matrix_inverse(r, s)
                else:
                    word, m = word * g, rep.matrix(r, s)
                expected = linalg.mat_mul(expected, m)
            assert linalg.mat_eq(rep.word_matrix(word), expected), (d, k)
            assert rep.word_matrix(word) is rep.word_matrix(word)
            assert word in spectral._symbolic_pure

    def test_word_matrix_rejects_a_permuting_word(self):
        rep = specialize_rep(3, (1, 1, 1))
        with pytest.raises(ValidationError, match="pure"):
            rep.word_matrix(full_twist(1, 3, 3))

    def test_two_strand_degenerate_scalar(self):
        # n=1, d=2, k=(1,1): s_1^2 acts by t1 t2 = 1
        rep = specialize_rep(2, (1, 1))
        assert rep.matrix(1, 2)[0][0].is_one()

    def test_unitarity_every_generator(self):
        rng = random.Random(0)
        for _ in range(8):
            d = rng.choice([2, 3, 4, 5, 6])
            strands = rng.randint(2, 5)
            k = tuple(rng.choice(coprime_units(d)) for _ in range(strands))
            rep = specialize_rep(d, k)
            h = specialize_form(d, k)
            for key, m in generator_matrices(rep).items():
                mh = tuple(tuple(x.conjugate() for x in col) for col in zip(*m))
                assert linalg.mat_eq(linalg.mat_mul(mh, linalg.mat_mul(h, m)), h)

    def test_pure_braid_relations_spot_check(self):
        # disjoint pure generators commute; same for a nested pair
        rep = specialize_rep(5, (1, 2, 3, 4))
        a12, a34 = rep.matrix(1, 2), rep.matrix(3, 4)
        assert linalg.mat_eq(linalg.mat_mul(a12, a34), linalg.mat_mul(a34, a12))
        rep6 = specialize_rep(3, (1, 1, 2, 2, 1))
        a14, a23 = rep6.matrix(1, 4), rep6.matrix(2, 3)
        assert linalg.mat_eq(linalg.mat_mul(a14, a23), linalg.mat_mul(a23, a14))

    def test_coprimality_enforced(self):
        with pytest.raises(ValidationError):
            specialize_rep(4, (1, 2, 1))

    def test_reflection_rows_match_the_closed_form(self):
        # every reflection of every spec with d <= 6, n <= 4
        checked = 0
        for d in range(2, 7):
            for strands in range(2, 6):
                for k in itertools.product(coprime_units(d), repeat=strands):
                    rep = specialize_rep(d, k)
                    assert rep.reflection_rows() == _reflection_formula(d, k)
                    checked += strands - 1
        assert checked == 5606

    def test_reflection_row_support_checked(self, monkeypatch):
        # A_23 with a nonzero entry outside row 1 is not 1 + e_1 r^T
        d, k = 3, (1, 1, 2, 2)
        rep = specialize_rep(d, k)
        a = rep.matrix(2, 3)
        row = (a[0][0] + CycloNum.one(d),) + a[0][1:]
        _inject(rep, 2, 3, (row,) + a[1:])
        with pytest.raises(InvariantError, match="outside row 1") as ei:
            rep.reflection_rows()
        assert ei.value.reproducer == {"op": "reflection_rows", "d": d,
                                       "k": list(k), "i": 2}


def _inject(rep, r, s, m):
    """Put m in rep's word cache as the matrix of A_rs, so that every reader
    of A_rs (``matrix``, ``oracles.generator_matrices``, ``reflection_rows``,
    the fixed space, the flag check) sees m."""
    rep._words[pure_generator(r, s, rep.strands)] = m
    assert rep.matrix(r, s) is m and generator_matrices(rep)[(r, s)] is m


def _reflection_formula(d, k):
    """Reference for SpecializedRep.reflection_rows: row i - 1 of s_i^2 - 1
    holds t_i (1 - t_{i+1}), t_i t_{i+1} - 1 and 1 - t_i in columns i - 2,
    i - 1 and i (those inside the matrix), zero coefficients left out."""
    t = [CycloNum.omega_power(d, ki) for ki in k]
    one = CycloNum.one(d)
    n = len(k) - 1
    rows = []
    for idx in range(n):
        ti, ti1 = t[idx], t[idx + 1]
        entries = []
        if idx - 1 >= 0:
            entries.append((idx - 1, ti * (one - ti1)))
        entries.append((idx, ti * ti1 - one))
        if idx + 1 < n:
            entries.append((idx + 1, one - ti))
        rows.append((idx, [(col, c) for col, c in entries if not c.is_zero()]))
    return rows


class TestPigeonhole:
    def test_all_ones_d3(self):
        blocks = pigeonhole_blocks(3, (1,) * 7)
        assert blocks == ((1, 3), (4, 6))

    def test_all_ones_d2(self):
        blocks = pigeonhole_blocks(2, (1,) * 5)
        assert blocks == ((1, 2), (3, 4))

    def test_mixed_weights(self):
        k = (1, 2, 2, 2, 1, 1, 2)
        blocks = pigeonhole_blocks(3, k)
        (a, b), (c, e) = blocks
        assert 1 <= a <= b <= 3 and 4 <= c <= e <= 6
        assert sum(k[a - 1:b]) % 3 == 0
        assert sum(k[c - 1:e]) % 3 == 0
        assert (a, b) in all_unit_subintervals(3, k, 1, 3)
        assert (c, e) in all_unit_subintervals(3, k, 4, 6)

    def test_precondition(self):
        with pytest.raises(ValidationError):
            pigeonhole_blocks(3, (1, 1, 1, 1))

    def test_randomized_against_oracle(self):
        rng = random.Random(1)
        for _ in range(100):
            d = rng.randint(2, 6)
            n = rng.randint(2 * d, 2 * d + 3)
            k = tuple(rng.choice(coprime_units(d)) for _ in range(n + 1))
            (a, b), (c, e) = pigeonhole_blocks(d, k)
            assert 1 <= a <= b <= d
            assert d + 1 <= c <= e <= 2 * d
            assert (a, b) in all_unit_subintervals(d, k, 1, d)
            assert (c, e) in all_unit_subintervals(d, k, d + 1, 2 * d)


class TestUnipotentCommutator:
    def test_p3_d3(self):
        u = unipotent_commutator(3, (1, 1, 1))
        one = CycloNum.one(3)
        zero = CycloNum.zero(3)
        ident = linalg.identity(2, one, zero)
        assert not linalg.mat_eq(u, ident)
        diff = linalg.mat_sub(u, ident)
        sq = linalg.mat_mul(diff, diff)
        assert all(x.is_zero() for row in sq for x in row)

    def test_p3_d3_off_diagonal_entry(self):
        # in the basis (w, eps_2): entry [0][1] = t1^-1 t2^-1 (1 - c^-1)
        # with c = t2 t3 = w^2, i.e. w(1 - w)
        b = commutator_in_w_basis(3, (1, 1, 1))
        w = CycloNum.omega_power(3, 1)
        one = CycloNum.one(3)
        assert b[0][0].is_one()
        assert b[1][1].is_one()
        assert b[1][0].is_zero()
        assert b[0][1] == w * (one - w)

    def test_p4_d2(self):
        u = unipotent_commutator(2, (1, 1, 1, 1))
        one = CycloNum.one(2)
        zero = CycloNum.zero(2)
        ident = linalg.identity(3, one, zero)
        assert not linalg.mat_eq(u, ident)
        diff = linalg.mat_sub(u, ident)
        assert all(x.is_zero() for row in linalg.mat_mul(diff, diff) for x in row)

    def test_precondition_sum(self):
        with pytest.raises(ValidationError):
            unipotent_commutator(3, (1, 1, 2))

    def test_precondition_p(self):
        with pytest.raises(ValidationError):
            unipotent_commutator(2, (1, 1))


class TestFlagUnipotency:
    def test_p3_d3(self):
        assert flag_unipotency_check(3, (1, 1, 1, 1))

    def test_p4_d4(self):
        assert flag_unipotency_check(4, (1, 1, 1, 1, 1))

    def test_precondition(self):
        with pytest.raises(ValidationError):
            flag_unipotency_check(3, (1, 1, 2, 1))

    def test_deterministic_in_seed(self):
        assert flag_unipotency_check(3, (1, 1, 1, 2), seed=7) == \
            flag_unipotency_check(3, (1, 1, 1, 2), seed=7)

    def test_generator_moving_w_fails(self, monkeypatch):
        # replace A_23 by (1 + E_{n,1}) A_23: the image of w picks up
        # w_1 eps_n with w_1 = 1 - t_1 != 0, so the w-line is not kept.  With
        # p = 4, A_23 is not the sub-twist Delta'^2 (at p = 3 both are the
        # word s_2^2), so the commutator is untouched and only the generator
        # check can see the change
        d, k = 4, (1, 1, 1, 1, 1)
        assert flag_unipotency_check(d, k)
        real = spectral.specialize_rep

        def broken(d, k):
            rep = real(d, k)
            n = rep.dim
            one, zero = CycloNum.one(d), CycloNum.zero(d)
            shear = tuple(tuple(one if a == b or (a, b) == (n - 1, 0) else zero
                                for b in range(n)) for a in range(n))
            _inject(rep, 2, 3, linalg.mat_mul(shear, rep.matrix(2, 3)))
            return rep

        monkeypatch.setattr(spectral, "specialize_rep", broken)
        assert flag_unipotency_check(d, k) is False

    def test_commutator_outside_radical_fails(self, monkeypatch):
        # u' = c S c^-1 u with S = 1 + E_23 in the basis (w, eps_2, ...):
        # u' still stabilizes the flag, but its middle block is not 1
        d, k = 2, (1, 1, 1, 1, 1)
        assert flag_unipotency_check(d, k)
        real = spectral._commutator

        def sheared(rep, p):
            n = rep.dim
            one, zero = CycloNum.one(d), CycloNum.zero(d)
            c = w_basis(rep.invariant_coords())
            s = tuple(tuple(one if a == b or (a, b) == (1, 2) else zero
                            for b in range(n)) for a in range(n))
            shear = linalg.mat_mul(c, linalg.mat_mul(s, linalg.mat_inverse(c)))
            return linalg.mat_mul(shear, real(rep, p))

        monkeypatch.setattr(spectral, "_commutator", sheared)
        assert flag_unipotency_check(d, k) is False


class TestFlagGroup:
    """spectral._in_flag_group, read from the entries of m, against the
    dense reference c^-1 m c of oracles.in_flag_group."""

    def test_matches_dense_reference(self):
        checked = 0
        seen = set()
        for d, _, extensions in c07_corpus(4):
            for k in extensions:
                p = len(k) - 1
                rep = specialize_rep(d, k)
                w = rep.invariant_coords()
                mats = [spectral._commutator(rep, p)]
                mats += list(generator_matrices(rep).values())
                for m in mats:
                    for unipotent in (False, True):
                        got = spectral._in_flag_group(m, w, unipotent)
                        assert got == in_flag_group(m, w, unipotent), \
                            (d, k, unipotent)
                        seen.add((unipotent, got))
                checked += 1
        assert checked == 53
        # both answers occur in both modes
        assert seen == {(False, False), (False, True),
                        (True, False), (True, True)}

    # each condition of the predicate, with the one cell of c^-1 u c whose
    # perturbation breaks that condition only, and the mode that reads it
    @pytest.mark.parametrize("condition", ["w_line", "row_n", "fixes_w",
                                           "middle_block", "corner_n"])
    @pytest.mark.parametrize("d, k", [(3, (1, 1, 1, 1)), (4, (1, 1, 1, 1, 1)),
                                      (5, (1, 2, 3, 4, 2)),
                                      (5, (1, 1, 1, 1, 1, 1))])
    def test_perturbation_is_rejected(self, condition, d, k):
        rep = specialize_rep(d, k)
        w = rep.invariant_coords()
        u = spectral._commutator(rep, len(k) - 1)
        n = len(u)
        assert spectral._in_flag_group(u, w, True)
        i, j, unipotent = {
            "w_line": (1, 0, False),             # m w in span(w)
            "row_n": (n - 1, 1, False),          # row n off the middle block
            "fixes_w": (0, 0, True),             # m w = w
            "middle_block": (1, 1, True),        # identity middle block
            "corner_n": (n - 1, n - 1, True),    # entry (n, n) is 1
        }[condition]
        b = [list(row) for row in in_w_basis(u, w)]
        b[i][j] = b[i][j] + CycloNum.one(d)
        c = w_basis(w)
        m = linalg.mat_mul(c, linalg.mat_mul(tuple(map(tuple, b)),
                                             linalg.mat_inverse(c)))
        assert not in_flag_group(m, w, unipotent)
        assert not spectral._in_flag_group(m, w, unipotent)
        if unipotent:
            # a U(F) condition only: m is still in P(F)
            assert in_flag_group(m, w, False)
            assert spectral._in_flag_group(m, w, False)

    def test_flag_check_takes_no_inverse(self):
        # the one C07 pass, shared with test_c07_unipotent_structure, runs
        # flag_unipotency_check with CycloNum.inverse made to raise
        _, checked, failed = c07_pass()
        assert failed == ()
        assert checked == 1137


class TestSymbolicInverses:
    def test_symbolic_inverses(self):
        # A_rs A_rs^-1 = 1 and Delta'^2 (Delta'^2)^-1 = 1, both inverses
        # specialized from the inverse words
        rng = random.Random(4)
        for d in range(2, 7):
            units = coprime_units(d)
            for strands in range(3, 7):
                for _ in range(2):
                    k = tuple(rng.choice(units) for _ in range(strands))
                    rep = specialize_rep(d, k)
                    ident = linalg.identity(rep.dim, CycloNum.one(d),
                                            CycloNum.zero(d))
                    for r, s in generator_matrices(rep):
                        prod = linalg.mat_mul(rep.matrix(r, s),
                                              rep.matrix_inverse(r, s))
                        assert linalg.mat_eq(prod, ident), (d, k, r, s)
                    for p in range(3, strands + 1):
                        m2, m2inv = spectral._subtwist2(rep, p)
                        assert linalg.mat_eq(linalg.mat_mul(m2, m2inv),
                                             ident), (d, k, p)


def _dense_commutator(rep, p):
    """Reference for spectral._commutator: the triple product A_12 m2
    (A_12^-1 m2^-1) of dense matrix products, m2 = Delta'^2 on strands
    2..p."""
    m2, m2inv = spectral._subtwist2(rep, p)
    return linalg.mat_mul(
        linalg.mat_mul(rep.matrix(1, 2), m2),
        linalg.mat_mul(rep.matrix_inverse(1, 2), m2inv))


def _seeded_degenerate_reps(seed):
    """(d, k, p) with d = 2..9, p = 3..5 and d | k_1 + ... + k_p: six draws
    per feasible (d, p) cell, each once as is and once with an extra
    strand."""
    rng = random.Random(seed)
    for d in range(2, 10):
        units = coprime_units(d)
        for p in (3, 4, 5):
            ks = [k for k in itertools.product(units, repeat=p)
                  if sum(k) % d == 0]
            if not ks:
                continue  # p odd with d even: every weight is odd
            for _ in range(6):
                k = rng.choice(ks)
                yield d, k, p
                yield d, k + (rng.choice(units),), p


class TestRankOneCommutator:
    def test_matches_dense_on_c07_extensions(self):
        checked = 0
        for d, k, extensions in c07_corpus(4):
            p = len(k)
            for kk in extensions:
                for rep in (specialize_rep(d, k), specialize_rep(d, kk)):
                    assert spectral._commutator(rep, p) == \
                        _dense_commutator(rep, p), (d, rep.k)
                    checked += 1
        assert checked == 2 * 53

    def test_matches_dense_on_seeded_reps(self):
        cells = set()
        checked = 0
        for d, k, p in _seeded_degenerate_reps(905):
            rep = specialize_rep(d, k)
            assert spectral._commutator(rep, p) == _dense_commutator(rep, p), \
                (d, k, p)
            cells.add((d, p, len(k) - p))
            checked += 1
        # p = 3 and 5 have no degenerate weights for even d
        assert len(cells) == 2 * (4 * 3 + 4 * 1)
        assert checked == 6 * len(cells)

    def test_matrix_products(self, monkeypatch):
        # the flag check runs none; unipotent_commutator runs one, its own
        # (u - 1)^2 = 0 check
        counts = {"mat_mul": 0, "mat_inverse": 0}
        for name in counts:
            real = getattr(linalg, name)

            def counted(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(linalg, name, counted)
        spectral._symbolic_pure.clear()  # evaluating the words runs none
        assert flag_unipotency_check(5, (1, 2, 3, 4, 2))
        assert counts == {"mat_mul": 0, "mat_inverse": 0}
        unipotent_commutator(5, (1, 2, 3, 4))
        assert counts == {"mat_mul": 1, "mat_inverse": 0}

    def test_row_support_checked(self, monkeypatch):
        # A_12 with a nonzero entry outside row 0 is not 1 + e_0 r^T
        d, k = 3, (1, 1, 2, 2)
        real = spectral.specialize_rep

        def broken(d, k):
            rep = real(d, k)
            a = rep.matrix(1, 2)
            row = (a[1][0] + CycloNum.one(d),) + a[1][1:]
            _inject(rep, 1, 2, (a[0], row) + a[2:])
            return rep

        monkeypatch.setattr(spectral, "specialize_rep", broken)
        with pytest.raises(InvariantError, match="outside row 0") as ei:
            unipotent_commutator(d, k)
        repro = ei.value.reproducer
        assert repro == {"op": "commutator", "d": d, "k": list(k), "p": 4}
        with pytest.raises(InvariantError, match="outside row 0"):
            spectral._commutator(spectral.specialize_rep(repro["d"], repro["k"]),
                                 repro["p"])


class TestFlagUnipotencyOracle:
    def test_random_conjugates_block_unipotent(self):
        # seeded random pure words in A_rs (2 <= r < s <= p) and their
        # inverses; the commutator comes from the symbolic full twist
        rng = random.Random(11)
        twists = {}
        checked = 0
        for d in (2, 3, 4):
            units = coprime_units(d)
            for p in (3, 4):
                if p not in twists:
                    word = full_twist(2, p, p + 1) ** 2
                    twists[p] = evaluate_word(word, "reduced").matrix
                for k in itertools.product(units, repeat=p):
                    if sum(k) % d:
                        continue
                    kk = k + (rng.choice(units),)
                    rep = specialize_rep(d, kk)
                    m2 = tuple(tuple(specialize_poly(x, d, kk) for x in row)
                               for row in twists[p])
                    m1 = rep.matrix(1, 2)
                    u = linalg.mat_mul(
                        linalg.mat_mul(m1, m2),
                        linalg.mat_mul(linalg.mat_inverse(m1),
                                       linalg.mat_inverse(m2)))
                    w = rep.invariant_coords()
                    assert in_flag_group(u, w, True), (d, kk)
                    assert not in_flag_group(m1, w, True), (d, kk)
                    gens = [(r, s) for r in range(2, p)
                            for s in range(r + 1, p + 1)]
                    for _ in range(3):
                        g = None
                        for _ in range(rng.randint(1, 4)):
                            key = rng.choice(gens)
                            x = (rep.matrix(*key) if rng.random() < 0.5
                                 else rep.matrix_inverse(*key))
                            g = x if g is None else linalg.mat_mul(g, x)
                        conj = linalg.mat_mul(
                            g, linalg.mat_mul(u, linalg.mat_inverse(g)))
                        assert in_flag_group(conj, w, True), (d, kk)
                        checked += 1
                    assert flag_unipotency_check(d, kk)
        assert checked == 3 * 17


class TestLazySpecialization:
    """A rep specializes only the words its caller reads; every reader of
    all generators still sees every A_rs."""

    @staticmethod
    def _captured(monkeypatch):
        reps = []
        real = spectral.specialize_rep

        def capture(d, k):
            reps.append(real(d, k))
            return reps[-1]

        monkeypatch.setattr(spectral, "specialize_rep", capture)
        return reps

    def test_flag_check_reads_a12_the_subtwist_and_the_inner_generators(
            self, monkeypatch):
        reps = self._captured(monkeypatch)
        for d, k in [(3, (1, 1, 1, 2)), (4, (1, 1, 1, 1, 3)),
                     (5, (1, 2, 3, 4, 2)), (6, (1, 5, 1, 5, 5)),
                     (3, (1, 1, 1, 1, 2, 1))]:
            reps.clear()
            assert flag_unipotency_check(d, k)
            (rep,) = reps
            strands = len(k)
            p = strands - 1
            a12 = pure_generator(1, 2, strands)
            delta2 = full_twist(2, p, strands) ** 2
            inner = {pure_generator(r, s, strands)
                     for r in range(2, p) for s in range(r + 1, p + 1)}
            assert set(rep._words) == \
                {a12, a12.inverse(), delta2, delta2.inverse()} | inner, (d, k)

    def test_commutator_reads_a12_and_the_subtwist(self, monkeypatch):
        reps = self._captured(monkeypatch)
        d, k = 5, (1, 2, 3, 4)
        unipotent_commutator(d, k)
        (rep,) = reps
        a12 = pure_generator(1, 2, 4)
        delta2 = full_twist(2, 4, 4) ** 2
        assert set(rep._words) == {a12, a12.inverse(), delta2, delta2.inverse()}

    def test_span_closure_reads_the_reflections(self):
        for d, k in [(3, (1, 1, 2)), (3, (1, 1, 1)), (5, (1, 2, 3, 4, 2))]:
            rep = specialize_rep(d, k)
            assert not rep._words
            burnside_irreducibility(rep)
            assert set(rep._words) == {pure_generator(i, i + 1, rep.strands)
                                       for i in range(1, rep.strands)}, (d, k)

    def test_fixed_space_reads_the_reflections_unless_degenerate(self):
        # the reflections have full rank off the degenerate case, so the
        # kernel solve stops before any other generator is specialized
        for d, k in [(3, (1, 1, 2)), (5, (1, 2, 3, 4, 2)), (7, (1, 1, 1, 1, 1)),
                     (12, (1, 5, 7, 11, 1, 5))]:
            rep = specialize_rep(d, k)
            assert not rep.is_degenerate()
            assert fixed_vector_space_dim(rep) == 0
            assert set(rep._words) == {pure_generator(i, i + 1, rep.strands)
                                       for i in range(1, rep.strands)}, (d, k)
        for d, k in [(3, (1, 1, 1)), (2, (1, 1, 1, 1)), (5, (1, 2, 3, 4, 1, 4)),
                     (8, (1, 3, 5, 7, 1, 7))]:
            rep = specialize_rep(d, k)
            assert rep.is_degenerate()
            assert fixed_vector_space_dim(rep) == 1
            strands = rep.strands
            assert set(rep._words) == {
                pure_generator(r, s, strands)
                for r in range(1, strands)
                for s in range(r + 1, strands + 1)}, (d, k)

    def test_generator_matrices_builds_every_generator(self):
        rep = specialize_rep(3, (1, 1, 2, 2, 1))
        rep.matrix(2, 4)
        gens = generator_matrices(rep)
        assert list(gens) == [(r, s) for r in range(1, 5)
                              for s in range(r + 1, 6)]
        assert len(rep._words) == 10
        for (r, s), m in gens.items():
            assert m is rep.word_matrix(pure_generator(r, s, 5))


class TestBurnside:
    def test_irreducible_case(self):
        rep = specialize_rep(3, (1, 1, 2))
        span_dim, irreducible = burnside_irreducibility(rep)
        assert span_dim == 4 and irreducible

    def test_degenerate_case(self):
        rep = specialize_rep(3, (1, 1, 1))
        span_dim, irreducible = burnside_irreducibility(rep)
        assert span_dim < 4 and not irreducible

    def test_one_dimensional(self):
        for d, k in [(2, (1, 1)), (3, (1, 2)), (5, (2, 3))]:
            rep = specialize_rep(d, k)
            span_dim, irreducible = burnside_irreducibility(rep)
            assert span_dim == 1 and irreducible

    def test_dense_generator_path_agrees(self):
        for d, k in [(3, (1, 1, 2)), (3, (1, 1, 1)), (4, (1, 1, 1, 1)),
                     (5, (1, 2, 3, 4)), (2, (1, 1, 1, 1))]:
            rep = specialize_rep(d, k)
            span_dim, irreducible = burnside_irreducibility(rep)
            dense_dim = _dense_span(rep, _reflections(rep))
            assert span_dim == dense_dim
            assert irreducible == (dense_dim == rep.dim ** 2)

    def test_all_pure_generators_do_not_change_verdict(self):
        # closing over every A_{rs} may grow the degenerate span but never
        # flips the full / deficient dichotomy
        for d, k in [(3, (1, 1, 2)), (3, (1, 1, 1)), (2, (1, 1, 1, 1))]:
            rep = specialize_rep(d, k)
            dim_refl, irr_refl = burnside_irreducibility(rep)
            dim_all = _dense_span(rep, list(generator_matrices(rep).values()))
            assert irr_refl == (dim_all == rep.dim ** 2)
            assert (dim_all == dim_refl == rep.dim ** 2) or \
                (dim_refl <= dim_all < rep.dim ** 2)

    def test_closed_form_span_dim(self):
        """span_dim = n rank(N) + (1 if rank(N) < n else 0), where row a of
        the n x n matrix N is the one nonzero row of s_{a+1}^2 - 1.

        With weights coprime to d, no t_i is 1, so every off-diagonal entry
        t_i (1 - t_{i+1}) and 1 - t_i of N is nonzero.  A product of factors
        s_j^2 - 1 maps row N[a] to a multiple of N[j] that is nonzero along
        the path a, a +- 1, ..., j; so {N[a] b : b in the algebra} is the
        row space R of N for every a.  The algebra is therefore span(I) plus
        all matrices with every row in R.  It has dimension n rank(N), plus
        1 unless R is everything (then I is already inside).
        """
        seen = set()
        for d in (2, 3, 4):
            units = coprime_units(d)
            for strands in (2, 3, 4):
                for k in itertools.product(units, repeat=strands):
                    rep = specialize_rep(d, k)
                    n = rep.dim
                    one = CycloNum.one(d)
                    rows = []
                    for a, m in enumerate(_reflections(rep)):
                        diff = linalg.mat_sub(m, linalg.identity(
                            n, one, CycloNum.zero(d)))
                        assert all(x.is_zero() for b, row in enumerate(diff)
                                   if b != a for x in row), (d, k)
                        rows.append(diff[a])
                    rank = n - len(linalg.kernel_basis(rows, one))
                    expected = n * rank + (1 if rank < n else 0)
                    span_dim, irreducible = burnside_irreducibility(rep)
                    assert span_dim == expected, (d, k)
                    assert irreducible == (span_dim == n * n)
                    if n >= 2:
                        pinned = n * (n - 1) + 1 if rep.is_degenerate() else n * n
                        assert span_dim == pinned, (d, k)
                    seen.add((n, span_dim))
        assert seen == {(1, 1), (2, 4), (2, 3), (3, 9), (3, 7)}

    def test_closed_form_span_dim_where_pruning_skips(self):
        """The closed form of ``test_closed_form_span_dim`` on 5-9 strands,
        where a changed row is read by at most 3 of the n reflections, so
        the closure skips most candidates.  Half the specs are degenerate."""
        rng = random.Random(17)
        seen = set()
        for d in (5, 7, 8, 12):
            units = coprime_units(d)
            for strands in range(5, 10):
                for degenerate in (False, True, False, True):
                    k = [rng.choice(units) for _ in range(strands)]
                    last = -sum(k[:-1]) % d
                    if degenerate and last in units:
                        k[-1] = last
                    elif not degenerate and k[-1] == last:
                        k[-1] = rng.choice([u for u in units if u != last])
                    rep = specialize_rep(d, tuple(k))
                    n = rep.dim
                    one = CycloNum.one(d)
                    ident = linalg.identity(n, one, CycloNum.zero(d))
                    rows = [linalg.mat_sub(m, ident)[a]
                            for a, m in enumerate(_reflections(rep))]
                    rank = n - len(linalg.kernel_basis(rows, one))
                    span_dim, irreducible = burnside_irreducibility(rep)
                    assert span_dim == n * rank + (1 if rank < n else 0), \
                        (d, k)
                    assert irreducible == (span_dim == n * n)
                    assert irreducible != rep.is_degenerate(), (d, k)
                    seen.add((n, rep.is_degenerate()))
        assert seen == {(n, deg) for n in range(4, 9) for deg in (False, True)}


def _reflections(rep):
    """The matrices of s_i^2 = A_{i,i+1} in generator order."""
    return [rep.matrix(i, i + 1) for i in range(1, rep.strands)]


def _dense_span(rep, mats):
    """Reference closure: the dimension of the algebra generated by mats,
    with the identity and every left product flattened to a length-n^2
    vector and reduced in one echelon form."""
    n = rep.dim
    pivots = {}

    def insert(m):
        vec = [x for row in m for x in row]
        for j, x in enumerate(vec):
            if x.is_zero():
                continue
            row = pivots.get(j)
            if row is None:
                inv = x.inverse()
                pivots[j] = [v * inv for v in vec]
                return True
            for t in range(j, n * n):
                vec[t] = vec[t] - x * row[t]
        return False

    ident = linalg.identity(n, CycloNum.one(rep.d), CycloNum.zero(rep.d))
    insert(ident)
    worklist = [ident]
    while worklist:
        b = worklist.pop()
        for g in mats:
            prod = linalg.mat_mul(g, b)
            if insert(prod):
                worklist.append(prod)
    return len(pivots)


class TestFixedVectors:
    def test_degenerate_has_fixed_vector(self):
        rep = specialize_rep(3, (1, 1, 1))
        assert fixed_vector_space_dim(rep) == 1

    def test_nondegenerate_has_none(self):
        rep = specialize_rep(3, (1, 1, 2))
        assert fixed_vector_space_dim(rep) == 0

    def test_invariant_coords_are_fixed(self):
        for d, k in [(3, (1, 1, 1)), (2, (1, 1, 1, 1)), (6, (1, 5, 5, 1))]:
            rep = specialize_rep(d, k)
            assert rep.is_degenerate()
            w = rep.invariant_coords()
            assert any(not x.is_zero() for x in w)
            for m in generator_matrices(rep).values():
                assert linalg.mat_vec(m, w) == w


class TestAgreement:
    def test_triple_agreement_small_exhaustive(self):
        for d in (2, 3, 4):
            units = coprime_units(d)
            for strands in (2, 3, 4):
                def tuples(i):
                    if i == 0:
                        yield ()
                        return
                    for rest in tuples(i - 1):
                        for u in units:
                            yield rest + (u,)
                for k in tuples(strands):
                    report = degeneracy_agreement(d, k)
                    assert report["agree"], report


class TestBurauConsistency:
    def test_all_weights_one(self):
        for strands, d in [(3, 3), (4, 4), (4, 5), (5, 3)]:
            assert burau_matches_gassner_at_ones(strands, d)
