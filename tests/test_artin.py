"""The free-group action and the semidirect-product oracle."""

import random

import pytest

from braidrep.artin import (
    FreeWord,
    SemidirectElement,
    artin_apply,
    derive_unreduced_matrix,
    semidirect_eval,
)
from braidrep.braid import BraidWord, permutation_image, pure_generator
from braidrep.errors import ValidationError
from braidrep.laurent import LaurentPoly
from oracles import artin_product_invariance, random_pure_word


def x(m, i):
    return FreeWord.generator(m, i)


def random_braid_word(rng, strands, max_len=8):
    return BraidWord(strands,
                     [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                      for _ in range(rng.randint(0, max_len))])


class TestArtinAction:
    def test_generator_rules(self):
        s1 = BraidWord(3, (1,))
        assert artin_apply(s1, x(3, 1)) == x(3, 1) * x(3, 2) * x(3, 1).inverse()
        assert artin_apply(s1, x(3, 2)) == x(3, 1)
        assert artin_apply(s1, x(3, 3)) == x(3, 3)

    def test_inverse_rules(self):
        s1i = BraidWord(3, (-1,))
        assert artin_apply(s1i, x(3, 1)) == x(3, 2)
        assert artin_apply(s1i, x(3, 2)) == \
            x(3, 2).inverse() * x(3, 1) * x(3, 2)
        # s_i^-1 undoes s_i
        s1 = BraidWord(3, (1,))
        for i in (1, 2, 3):
            assert artin_apply(s1 * s1i, x(3, i)) == x(3, i)

    def test_pure_generator_images(self):
        # A_{r,s}: x_s -> x_r x_s x_r^-1, x_r -> (x_r x_s) x_r (x_r x_s)^-1,
        # in-between indices -> conjugate by the commutator [x_r, x_s]
        for strands, r, s in [(3, 1, 3), (4, 2, 4), (5, 1, 4), (5, 2, 5)]:
            a = pure_generator(r, s, strands)
            xr, xs = x(strands, r), x(strands, s)
            assert artin_apply(a, xs) == xr * xs * xr.inverse()
            conj = xr * xs
            assert artin_apply(a, xr) == conj * xr * conj.inverse()
            comm = xr * xs * xr.inverse() * xs.inverse()
            for i in range(r + 1, s):
                xi = x(strands, i)
                assert artin_apply(a, xi) == comm * xi * comm.inverse()
            for i in list(range(1, r)) + list(range(s + 1, strands + 1)):
                assert artin_apply(a, x(strands, i)) == x(strands, i)

    def test_braid_relations_on_generators(self):
        for strands in range(3, 7):
            for i in range(1, strands - 1):
                u = BraidWord(strands, (i, i + 1, i))
                v = BraidWord(strands, (i + 1, i, i + 1))
                for j in range(1, strands + 1):
                    assert artin_apply(u, x(strands, j)) == \
                        artin_apply(v, x(strands, j))
            for i in range(1, strands):
                for j in range(i + 2, strands):
                    u = BraidWord(strands, (i, j))
                    v = BraidWord(strands, (j, i))
                    for g in range(1, strands + 1):
                        assert artin_apply(u, x(strands, g)) == \
                            artin_apply(v, x(strands, g))

    def test_generator_goes_to_conjugate(self):
        rng = random.Random(0)
        for _ in range(150):
            strands = rng.randint(2, 5)
            w = random_braid_word(rng, strands)
            sigma = permutation_image(w)
            for i in range(1, strands + 1):
                img = artin_apply(w, x(strands, i))
                # img must be c * x_{sigma(i)} * c^-1 for some c
                target = sigma(i)
                letters = img.letters
                assert letters, "image cannot be empty"
                # peel matching conjugating prefix/suffix
                k = 0
                while k < (len(letters) - 1) // 2 and letters[k] == -letters[-1 - k]:
                    k += 1
                core = letters[k:len(letters) - k]
                assert core == (target,)

    def test_homomorphism_in_u(self):
        rng = random.Random(1)
        for _ in range(100):
            strands = rng.randint(2, 5)
            w = random_braid_word(rng, strands)
            u = FreeWord(strands, [rng.choice([1, -1]) * rng.randint(1, strands)
                                   for _ in range(rng.randint(0, 6))])
            v = FreeWord(strands, [rng.choice([1, -1]) * rng.randint(1, strands)
                                   for _ in range(rng.randint(0, 6))])
            assert artin_apply(w, u * v) == artin_apply(w, u) * artin_apply(w, v)

    def test_strand_mismatch(self):
        with pytest.raises(ValidationError):
            artin_apply(BraidWord(3, (1,)), x(4, 1))


class TestProductInvariance:
    def test_single_letters(self):
        assert artin_product_invariance(BraidWord(3, (1,)))
        assert artin_product_invariance(BraidWord(3, (2, -1)))

    def test_random_words(self):
        rng = random.Random(2)
        for _ in range(500):
            strands = rng.randint(2, 6)
            w = random_braid_word(rng, strands, max_len=12)
            assert artin_product_invariance(w)


class TestSemidirect:
    def test_product_formula(self):
        # x1 x2 -> (e1 + X1 e2, X1 X2)
        m = 3
        se = semidirect_eval(x(m, 1) * x(m, 2))
        assert se.monomial == (1, 1, 0)
        assert se.vector[0] == LaurentPoly.one(m)
        assert se.vector[1] == LaurentPoly.variable(m, 1)
        assert se.vector[2].is_zero()

    def test_commutator_formula(self):
        # [x_r, x_s] -> ((1-X_s) e_r - (1-X_r) e_s, 1)
        m = 4
        for r, s in [(1, 2), (1, 3), (2, 4)]:
            xr, xs = x(m, r), x(m, s)
            se = semidirect_eval(xr * xs * xr.inverse() * xs.inverse())
            assert se.monomial == (0,) * m
            Xr = LaurentPoly.variable(m, r)
            Xs = LaurentPoly.variable(m, s)
            one = LaurentPoly.one(m)
            for j in range(m):
                if j == r - 1:
                    assert se.vector[j] == one - Xs
                elif j == s - 1:
                    assert se.vector[j] == -(one - Xr)
                else:
                    assert se.vector[j].is_zero()

    def test_inverse_formula(self):
        # x1^-1 -> (-X1^-1 e1, X1^-1)
        m = 2
        se = semidirect_eval(x(m, 1).inverse())
        assert se.monomial == (-1, 0)
        assert se.vector[0] == LaurentPoly.monomial(m, (-1, 0), -1)
        assert se.vector[1].is_zero()

    def test_homomorphism(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(2, 4)
            u = FreeWord(m, [rng.choice([1, -1]) * rng.randint(1, m)
                             for _ in range(rng.randint(0, 6))])
            v = FreeWord(m, [rng.choice([1, -1]) * rng.randint(1, m)
                             for _ in range(rng.randint(0, 6))])
            assert semidirect_eval(u * v) == semidirect_eval(u) * semidirect_eval(v)
            assert (semidirect_eval(u) * semidirect_eval(u).inverse()
                    == SemidirectElement.identity(m))


class TestDeriveUnreducedMatrix:
    def test_a12_in_b2(self):
        m = derive_unreduced_matrix(pure_generator(1, 2, 2))
        one = LaurentPoly.one(2)
        X1 = LaurentPoly.variable(2, 1)
        X2 = LaurentPoly.variable(2, 2)
        # column 1: (1 - X1 + X1 X2) e1 + X1 (1 - X1) e2
        assert m[0][0] == one - X1 + X1 * X2
        assert m[1][0] == X1 * (one - X1)
        # column 2: (1 - X2) e1 + X1 e2
        assert m[0][1] == one - X2
        assert m[1][1] == X1

    def test_a13_in_b3_column2(self):
        m = derive_unreduced_matrix(pure_generator(1, 3, 3))
        one = LaurentPoly.one(3)
        X1 = LaurentPoly.variable(3, 1)
        X2 = LaurentPoly.variable(3, 2)
        X3 = LaurentPoly.variable(3, 3)
        # column 2 = e2 + (1-X2)((1-X3) e1 - (1-X1) e3)
        assert m[0][1] == (one - X2) * (one - X3)
        assert m[1][1] == one
        assert m[2][1] == -(one - X2) * (one - X1)

    def test_invariant_vector_fixed(self):
        # v = sum X1...X_{i-1} e_i is fixed by every A_{rs}
        rng = random.Random(4)
        for strands in (2, 3, 4):
            v = []
            for i in range(strands):
                e = tuple(1 if j < i else 0 for j in range(strands))
                v.append(LaurentPoly.monomial(strands, e, 1))
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    m = derive_unreduced_matrix(pure_generator(r, s, strands))
                    mv = [sum((m[a][b] * v[b] for b in range(strands)),
                              LaurentPoly.zero(strands))
                          for a in range(strands)]
                    assert mv == v

    def test_rejects_non_pure(self):
        with pytest.raises(ValidationError):
            derive_unreduced_matrix(BraidWord(3, (1,)))

    def test_random_pure_words_monomial_assertion(self):
        rng = random.Random(5)
        for _ in range(30):
            strands = rng.randint(2, 4)
            w = random_pure_word(strands, rng, max_factors=3)
            m = derive_unreduced_matrix(w)
            assert len(m) == strands
