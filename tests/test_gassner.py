"""Crossed-homomorphism matrices: relations, oracle equivalence, scalars."""

import random

import pytest

from braidrep import gassner, linalg
from braidrep.artin import derive_unreduced_matrix
from braidrep.braid import (
    BraidWord,
    Permutation,
    full_twist,
    parse_word,
    pure_generator,
)
from braidrep.cli import MAX_N
from braidrep.gassner import TwistedMap, assert_polynomial_entries, evaluate_word
from braidrep.laurent import LaurentPoly, RationalFunction
from oracles import (
    basis_change_e_to_eps,
    burau_specialize,
    closed_form_pure_matrix,
    invariant_vectors,
    lift,
    oracle_equivalence,
    random_pure_word,
    reduced_block_of_unreduced,
    scalar_matrix_check,
)


def RF(m, i):
    return RationalFunction.variable(m, i)


def X(m, i):
    return LaurentPoly.variable(m, i)


def _lifted(tm):
    """A TwistedMap over LaurentPoly as one over RationalFunction."""
    return TwistedMap(tm.nvars, tm.perm, lift(tm.matrix))


def _identity(strands, dim):
    one = RationalFunction.constant(strands, 1)
    zero = RationalFunction.constant(strands, 0)
    return TwistedMap(strands, Permutation.identity(strands),
                      linalg.identity(dim, one, zero))


def _permute(perm, matrix):
    """sigma(M): perm applied entrywise to the variables."""
    if perm.is_identity():
        return matrix
    return tuple(tuple(x.permute_vars(perm.images) for x in row)
                 for row in matrix)


def _reduced_generator_matrix(strands, i):
    n = strands - 1
    m = strands
    one = RationalFunction.constant(m, 1)
    zero = RationalFunction.constant(m, 0)
    Xi = RationalFunction.variable(m, i)
    rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
    idx = i - 1
    rows[idx][idx] = -Xi
    if idx - 1 >= 0:
        rows[idx][idx - 1] = Xi
    if idx + 1 < n:
        rows[idx][idx + 1] = one
    return TwistedMap(m, Permutation.transposition(m, i),
                      tuple(tuple(r) for r in rows))


def _unreduced_generator_matrix(strands, i):
    m = strands
    one = RationalFunction.constant(m, 1)
    zero = RationalFunction.constant(m, 0)
    Xi = RationalFunction.variable(m, i)
    Xi1 = RationalFunction.variable(m, i + 1)
    rows = [[one if a == b else zero for b in range(m)] for a in range(m)]
    idx = i - 1
    rows[idx][idx] = one - Xi1
    rows[idx][idx + 1] = one
    rows[idx + 1][idx] = Xi
    rows[idx + 1][idx + 1] = zero
    return TwistedMap(m, Permutation.transposition(m, i),
                      tuple(tuple(r) for r in rows))


def _dense_letter(strands, letter, basis):
    """The full matrix of s_i or s_i^-1 over the fraction field; the inverse
    is rho(g^-1) = (sigma_g^-1, sigma_g^-1(M_g^-1)) with M_g^-1 eliminated."""
    build = (_reduced_generator_matrix if basis == "reduced"
             else _unreduced_generator_matrix)
    g = build(strands, abs(letter))
    if letter > 0:
        return g
    perm = g.perm.inverse()
    return TwistedMap(strands, perm,
                      _permute(perm, linalg.mat_inverse(g.matrix)))


def _dense_evaluate(w, basis):
    """Reference: the dense twisted fold over full generator matrices,
    acc <- (sigma_acc sigma_g, M_acc * sigma_acc(M_g)) with n^3 products."""
    dim = w.strands - 1 if basis == "reduced" else w.strands
    acc = _identity(w.strands, dim)
    for letter in w.letters:
        g = _dense_letter(w.strands, letter, basis)
        acc = TwistedMap(w.strands, acc.perm * g.perm,
                         linalg.mat_mul(acc.matrix, _permute(acc.perm, g.matrix)))
    return acc


class TestDenseReference:
    """evaluate_word (single-row updates in the Laurent ring) against the
    dense fold: the same permutation and the identical matrix."""

    @staticmethod
    def _same(w, basis):
        got, ref = _lifted(evaluate_word(w, basis)), _dense_evaluate(w, basis)
        assert got.perm == ref.perm, (w, basis)
        assert got.matrix == ref.matrix, (w, basis)
        return got.is_linear()

    @pytest.mark.parametrize("basis", ["reduced", "unreduced"])
    def test_single_factor_pure_words(self, basis):
        for m in range(3, 7):
            texts = [f"A {r} {s}" for r in range(1, m) for s in range(r + 1, m + 1)]
            texts += [f"T {a} {b} T {a} {b}"
                      for a in range(1, m) for b in range(a + 2, m + 1)]
            texts += [f"s{i}^{e}" for i in range(1, m) for e in (2, -2)]
            for text in texts:
                self._same(parse_word(m, text), basis)

    @pytest.mark.parametrize("basis", ["reduced", "unreduced"])
    def test_random_words_not_pure(self, basis):
        rng = random.Random(5)
        permuting = 0
        for _ in range(40):
            strands = rng.randint(2, 6)
            letters = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                       for _ in range(rng.randint(1, 10))]
            permuting += not self._same(BraidWord(strands, letters), basis)
        assert permuting >= 20

    @pytest.mark.parametrize("basis", ["reduced", "unreduced"])
    def test_letter_rows(self, basis):
        # the closed-form rows of every +-s_i, against the full matrix with
        # the inverse eliminated over the fraction field and the variables
        # permuted
        for strands in range(2, MAX_N + 2):
            for i in range(1, strands):
                for letter in (i, -i):
                    perm, rows = gassner._generator(strands, letter, basis)
                    ref = _dense_letter(strands, letter, basis)
                    assert perm == ref.perm, (strands, letter, basis)
                    dim = ref.dim
                    mat = [[RationalFunction.constant(strands, int(a == b))
                            for b in range(dim)] for a in range(dim)]
                    for a, row in rows:
                        mat[a] = [RationalFunction.constant(strands, 0)] * dim
                        for b, x in row:
                            assert not x.is_zero(), (strands, letter, basis)
                            mat[a][b] = RationalFunction.from_poly(x)
                    assert tuple(map(tuple, mat)) == ref.matrix, \
                        (strands, letter, basis)


class TestReducedGenerator:
    def test_eigencolumn(self):
        # n=3 (4 strands), i=1: eps_1 -> -X1 eps_1
        g = evaluate_word(BraidWord(4, (1,)), "reduced")
        assert g.matrix[0][0] == -X(4, 1)
        assert g.matrix[1][0].is_zero()
        assert g.matrix[2][0].is_zero()

    def test_right_neighbor_column(self):
        # i=2: image of eps_3 is eps_2 + eps_3
        g = evaluate_word(BraidWord(4, (2,)), "reduced")
        assert g.matrix[1][2] == LaurentPoly.one(4)
        assert g.matrix[2][2] == LaurentPoly.one(4)
        assert g.matrix[0][2].is_zero()

    def test_distant_column_fixed(self):
        # i=1: eps_3 fixed
        g = evaluate_word(BraidWord(4, (1,)), "reduced")
        col = [g.matrix[j][2] for j in range(3)]
        assert col[0].is_zero() and col[1].is_zero() and col[2] == LaurentPoly.one(4)

    def test_s1_squared_block(self):
        # s_1^2 on 3 strands: eps_1 -> X1 X2 eps_1, eps_2 -> (1-X1) eps_1 + eps_2
        m = evaluate_word(BraidWord(3, (1, 1)), "reduced")
        assert m.is_linear()
        x1, x2 = X(3, 1), X(3, 2)
        assert m.matrix[0][0] == x1 * x2
        one = LaurentPoly.one(3)
        assert m.matrix[0][1] == one - x1
        assert m.matrix[1][1] == one
        assert m.matrix[1][0].is_zero()

    def test_si_squared_three_columns(self):
        # the displayed 3x3 block on eps_{i-1}, eps_i, eps_{i+1}
        strands, i = 5, 3
        m = evaluate_word(BraidWord(strands, (i, i)), "reduced")
        xi, xi1 = X(strands, i), X(strands, i + 1)
        one = LaurentPoly.one(strands)
        idx = i - 1
        assert m.matrix[idx][idx - 1] == xi * (one - xi1)
        assert m.matrix[idx][idx] == xi * xi1
        assert m.matrix[idx][idx + 1] == one - xi
        for j in range(strands - 1):
            expected_diag = xi * xi1 if j == idx else LaurentPoly.one(strands)
            assert m.matrix[j][j] == expected_diag


class TestBraidRelations:
    @pytest.mark.parametrize("basis", ["reduced", "unreduced"])
    def test_relations_all_small_groups(self, basis):
        for strands in range(3, 7):
            for i in range(1, strands - 1):
                u = evaluate_word(BraidWord(strands, (i, i + 1, i)), basis)
                v = evaluate_word(BraidWord(strands, (i + 1, i, i + 1)), basis)
                assert u == v, (strands, i, basis)
            for i in range(1, strands):
                for j in range(i + 2, strands):
                    u = evaluate_word(BraidWord(strands, (i, j)), basis)
                    v = evaluate_word(BraidWord(strands, (j, i)), basis)
                    assert u == v, (strands, i, j, basis)

    @pytest.mark.parametrize("basis", ["reduced", "unreduced"])
    def test_inverses_cancel(self, basis):
        rng = random.Random(0)
        for _ in range(30):
            strands = rng.randint(2, 5)
            letters = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                       for _ in range(rng.randint(1, 6))]
            w = BraidWord(strands, letters)
            m = evaluate_word(w * w.inverse(), basis)
            assert _lifted(m) == _identity(strands, m.dim)


class TestOracleEquivalence:
    def test_all_pure_generators_up_to_5_strands(self):
        for strands in range(2, 6):
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    assert oracle_equivalence(r, s, strands), (r, s, strands)

    def test_a13_unreduced_matches_derivation(self):
        w = pure_generator(1, 3, 3)
        ev = assert_polynomial_entries(evaluate_word(w, "unreduced"), "A13")
        assert ev == derive_unreduced_matrix(w)

    def test_closed_form_spot(self):
        m = closed_form_pure_matrix(1, 2, 2)
        X1 = LaurentPoly.variable(2, 1)
        X2 = LaurentPoly.variable(2, 2)
        one = LaurentPoly.one(2)
        assert m[0][0] == one - X1 + X1 * X2
        assert m[1][0] == X1 * (one - X1)


class TestPureWordStructure:
    def test_trivial_perm_and_polynomial_entries(self):
        rng = random.Random(1)
        for basis in ("reduced", "unreduced"):
            for _ in range(25):
                strands = rng.randint(2, 5)
                w = random_pure_word(strands, rng, max_factors=3)
                m = evaluate_word(w, basis)
                assert m.is_linear()
                assert_polynomial_entries(m, f"pure word on {basis}")

    def test_determinant_is_unit(self):
        rng = random.Random(2)
        for _ in range(15):
            strands = rng.randint(2, 4)
            w = random_pure_word(strands, rng, max_factors=3)
            m = evaluate_word(w, "reduced")
            det = linalg.determinant(lift(m.matrix))
            assert det.is_polynomial() or det.num.is_unit()
            assert det.num.is_unit() and det.den.is_unit()


class TestInvariantVectors:
    def test_unreduced_coordinates(self):
        v, w = invariant_vectors(3)
        X1, X2 = RF(3, 1), RF(3, 2)
        one = RationalFunction.constant(3, 1)
        assert v == (one, X1, X1 * X2)
        assert w == (one - X1, one - X1 * X2)

    def test_v_fixed_by_pure_generators(self):
        for strands in (2, 3, 4):
            v, _ = invariant_vectors(strands)
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    m = evaluate_word(pure_generator(r, s, strands), "unreduced")
                    assert linalg.mat_vec(lift(m.matrix), v) == v

    def test_v_fixed_by_random_pure_words(self):
        rng = random.Random(3)
        for _ in range(15):
            strands = rng.randint(2, 4)
            v, _ = invariant_vectors(strands)
            w = random_pure_word(strands, rng, max_factors=3)
            m = evaluate_word(w, "unreduced")
            assert linalg.mat_vec(lift(m.matrix), v) == v


class TestBasisChange:
    def test_n1_block(self):
        block, _ = reduced_block_of_unreduced(pure_generator(1, 2, 2))
        assert block[0][0] == RF(2, 1) * RF(2, 2)

    def test_block_matches_reduced_for_pure_generators(self):
        for strands in (2, 3, 4):
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    w = pure_generator(r, s, strands)
                    block, conj = reduced_block_of_unreduced(w)
                    red = evaluate_word(w, "reduced")
                    assert linalg.mat_eq(block, lift(red.matrix))
                    # rows below the block vanish in the first n columns
                    n = strands - 1
                    for b in range(n):
                        assert conj[n][b].is_zero()

    def test_e1_in_new_coordinates(self):
        # n=1: e1 = (1-X1)(eps_1 + v_2) and e2 = (1-X2) v_2
        p = basis_change_e_to_eps(2)
        pinv = linalg.mat_inverse(p)
        one = RationalFunction.constant(2, 1)
        zero = RationalFunction.constant(2, 0)
        x1, x2 = RF(2, 1), RF(2, 2)
        e1 = linalg.mat_vec(pinv, (one, zero))
        assert e1 == (one - x1, one - x1)
        e2 = linalg.mat_vec(pinv, (zero, one))
        assert e2 == (zero, one - x2)

    def test_image_of_invariant_vector(self):
        # P^-1 v has coordinates (1-pi_1, ..., 1-pi_{n+1})
        for strands in (2, 3, 4):
            v, _ = invariant_vectors(strands)
            p = basis_change_e_to_eps(strands)
            coords = linalg.mat_vec(linalg.mat_inverse(p), v)
            one = RationalFunction.constant(strands, 1)
            pi = one
            for i in range(strands):
                pi = pi * RF(strands, i + 1)
                assert coords[i] == one - pi


class TestCentralScalars:
    def test_delta_squared_scalar(self):
        for strands in range(2, 6):
            m = evaluate_word(full_twist(1, strands, strands) ** 2, "reduced")
            assert m.is_linear()
            scalar = LaurentPoly.one(strands)
            for i in range(1, strands + 1):
                scalar = scalar * X(strands, i)
            assert scalar_matrix_check(m.matrix, scalar)

    def test_sub_twist_scalar_block(self):
        # full_twist(a,b)^2 acts on eps_a..eps_{b-1} as X_a...X_b and fixes
        # eps_j away from the boundary columns a-1 and b
        for strands, a, b in [(4, 2, 4), (5, 2, 4), (5, 1, 3), (5, 3, 5), (6, 2, 5)]:
            w = full_twist(a, b, strands) ** 2
            m = evaluate_word(w, "reduced")
            assert m.is_linear()
            scalar = LaurentPoly.one(strands)
            for i in range(a, b + 1):
                scalar = scalar * X(strands, i)
            n = strands - 1
            inside = set(range(a - 1, b - 1))  # 0-based eps indices a..b-1
            for col in range(n):
                eps_index = col + 1
                if col in inside:
                    for row in range(n):
                        want_scalar = scalar if row == col else None
                        if row == col:
                            assert m.matrix[row][col] == scalar
                        else:
                            assert m.matrix[row][col].is_zero()
                elif eps_index < a - 1 or eps_index > b:
                    for row in range(n):
                        if row == col:
                            assert m.matrix[row][col] == LaurentPoly.one(strands)
                        else:
                            assert m.matrix[row][col].is_zero()


class TestBurau:
    def test_s1_squared(self):
        m = evaluate_word(BraidWord(3, (1, 1)), "reduced")
        b = burau_specialize(m)
        q = LaurentPoly.variable(1, 1)
        assert b[0][0] == q * q
        one = LaurentPoly.one(1)
        assert b[0][1] == one - q
        assert b[1][0].is_zero()
        assert b[1][1] == one

    def test_braid_relation_survives(self):
        u = burau_specialize(evaluate_word(BraidWord(3, (1,)), "reduced"))
        v = burau_specialize(evaluate_word(BraidWord(3, (2,)), "reduced"))
        lhs = linalg.mat_mul(u, linalg.mat_mul(v, u))
        rhs = linalg.mat_mul(v, linalg.mat_mul(u, v))
        assert linalg.mat_eq(lhs, rhs)

    def test_delta2_squared_scalar_q_cubed(self):
        m = evaluate_word(full_twist(1, 3, 3) ** 2, "reduced")
        b = burau_specialize(m)
        q = LaurentPoly.variable(1, 1)
        assert scalar_matrix_check(b, q ** 3)
