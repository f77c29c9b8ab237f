"""Laurent polynomial and rational function arithmetic."""

import operator
import random
import re

import pytest

from braidrep.laurent import LaurentPoly, RationalFunction, poly_gcd
from oracles import collapse


def X(nvars, i):
    return LaurentPoly.variable(nvars, i)


def Xr(nvars, i):
    return RationalFunction.variable(nvars, i)


def Cr(nvars, c):
    return RationalFunction.constant(nvars, c)


def one(nvars):
    return LaurentPoly.one(nvars)


class TestLaurentBasics:
    def test_unit_cancellation(self):
        # X1 * X1^-1 = 1
        a = LaurentPoly.variable(2, 1)
        b = LaurentPoly.variable(2, 1, -1)
        assert a * b == one(2)

    def test_difference_of_squares(self):
        x, o = X(1, 1), one(1)
        assert (o - x) * (o + x) == o - x * x

    def test_determinant_numerator_identity(self):
        # (1-X1X2)(1-X2X3) - X2(1-X1)(1-X3) == (1-X2)(1-X1X2X3),
        # verified by expanding both sides term by term.
        x1, x2, x3 = (X(3, i) for i in (1, 2, 3))
        o = one(3)
        lhs = (o - x1 * x2) * (o - x2 * x3) - x2 * (o - x1) * (o - x3)
        rhs = (o - x2) * (o - x1 * x2 * x3)
        assert lhs == rhs
        # term-by-term oracle: expand with an independent dict accumulation
        expected = {}
        for e, c in lhs.terms.items():
            expected[e] = c
        assert expected == rhs.terms

    def test_mismatched_nvars_raises(self):
        with pytest.raises(ValueError):
            X(2, 1) + X(3, 1)

    def test_canonical_no_zero_terms(self):
        p = X(2, 1) - X(2, 1)
        assert p.terms == {}
        assert p.is_zero()

    def test_str_forms(self):
        # terms in ascending lexicographic order of the exponent vectors
        x1, x2 = X(2, 1), X(2, 2)
        assert str(one(2) - x2) == "1 - X2"
        assert str(one(2) - x1 * x2) == "1 - X1*X2"
        assert str(x1 * x1 - LaurentPoly.constant(2, 2) * x2) == "-2*X2 + X1^2"
        assert str(LaurentPoly.variable(2, 1, -1)) == "X1^-1"
        assert str(LaurentPoly.zero(2)) == "0"


def random_poly(rng, nvars, max_terms=3, max_exp=2, max_coeff=4):
    p = LaurentPoly.zero(nvars)
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars))
        c = rng.randint(-max_coeff, max_coeff)
        p = p + LaurentPoly.monomial(nvars, e, c)
    return p


class TestOperandRule:
    """+, - and * take only a LaurentPoly with the same variable count, and
    a RationalFunction's +, -, * and / take only a RationalFunction."""

    def test_int_operand_raises_type_error(self):
        x = X(2, 1)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, 1)
            with pytest.raises(TypeError):
                op(1, x)

    def test_int_operand_compares_unequal(self):
        assert (one(2) == 1) is False
        assert (one(2) != 1) is True
        assert (LaurentPoly.zero(2) == 0) is False
        assert (1 == one(2)) is False

    def test_type_error_names_the_operator(self):
        # - refuses a foreign operand itself, before it negates it; a
        # fraction takes neither an int nor a polynomial, on either side
        x, r = X(2, 1), Xr(2, 1)
        for op, sign in ((operator.add, "+"), (operator.sub, "-"),
                         (operator.mul, "*"), (operator.truediv, "/")):
            for a, b in ((x, 2), (2, x), (r, 2), (2, r), (r, x), (x, r)):
                with pytest.raises(TypeError, match=re.escape(
                        f"operand type(s) for {sign}: ")):
                    op(a, b)

    def test_nvars_mismatch_raises_value_error(self):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError,
                               match="variable-count mismatch: 2 vs 3"):
                op(X(2, 1), X(3, 1))


class TestRingAxioms:
    def test_ring_axioms_randomized(self):
        rng = random.Random(0)
        for _ in range(1000):
            nvars = rng.randint(1, 3)
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            c = random_poly(rng, nvars)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_direct_sub_is_add_of_negation(self):
        # the same terms in the same order, with no zero coefficient;
        # (a + b) - b cancels b's terms and b - b cancels all of them
        rng = random.Random(7)
        for _ in range(1000):
            nvars = rng.randint(1, 3)
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            for x, y in ((a, b), (a + b, b), (b, b)):
                got, ref = x - y, x + (-y)
                assert list(got.terms.items()) == list(ref.terms.items())
                assert all(got.terms.values())

    def test_involution_is_ring_automorphism(self):
        rng = random.Random(1)
        for _ in range(1000):
            nvars = rng.randint(1, 3)
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            assert a.involute().involute() == a
            assert (a + b).involute() == a.involute() + b.involute()
            assert (a * b).involute() == a.involute() * b.involute()

    def test_involute_examples(self):
        assert X(2, 1).involute() == LaurentPoly.variable(2, 1, -1)
        x2 = X(2, 2)
        assert (one(2) - x2).involute() == one(2) - LaurentPoly.variable(2, 2, -1)

    def test_involution_fixed_membership(self):
        x1 = X(1, 1)
        x1i = LaurentPoly.variable(1, 1, -1)
        assert (x1 + x1i).involute() == x1 + x1i
        assert LaurentPoly.constant(1, 5).involute() == LaurentPoly.constant(1, 5)
        assert x1.involute() != x1


class TestGcd:
    def test_gcd_simple(self):
        # gcd is pinned to positive leading coefficient, so 1-X1 comes out X1-1
        x1, x2 = X(2, 1), X(2, 2)
        o = one(2)
        a = (o - x1) * (o - x2)
        b = (o - x1) * (o + x2)
        g = poly_gcd(a, b)
        assert g == x1 - o

    def test_gcd_with_units(self):
        x1, o = X(1, 1), one(1)
        a = LaurentPoly.variable(1, 1, -3) * (o - x1)
        b = (o - x1) * (o - x1)
        g = poly_gcd(a, b)
        assert g == x1 - o

    def test_gcd_sign_normalized(self):
        x1, o = X(1, 1), one(1)
        g = poly_gcd(-(o - x1), (x1 - o) * (o + x1))
        assert g.leading()[1] > 0
        assert g in ((x1 - o), (o - x1) * LaurentPoly.constant(1, -1))

    def test_gcd_randomized(self):
        rng = random.Random(2)
        for _ in range(200):
            nvars = rng.randint(1, 3)
            a = random_poly(rng, nvars, max_terms=2)
            b = random_poly(rng, nvars, max_terms=2)
            g = random_poly(rng, nvars, max_terms=2)
            if g.is_zero():
                continue
            gg = poly_gcd(a * g, b * g)
            # g divides the gcd: the quotient must be exact
            if not (a * g).is_zero() or not (b * g).is_zero():
                q = RationalFunction(gg, g)
                assert q.is_polynomial()


class TestRationalFunction:
    def test_reduction(self):
        x1, o = Xr(2, 1), Cr(2, 1)
        r = (o - x1 * x1) / (o - x1)
        assert r == o + x1

    def test_equality_is_closed(self):
        # a fraction equals only a fraction, from either side
        r = RationalFunction.constant(2, 1)
        assert (r == one(2)) is False
        assert (one(2) == r) is False
        assert (r == 1) is False
        assert (1 == r) is False
        assert r == RationalFunction.from_poly(one(2))

    def test_sum_and_product_are_canonical(self):
        # + and * reduce through the constructor: the result is num/den
        # with no common factor and a normalized denominator, and it equals
        # the unreduced fraction by cross-multiplication
        rng = random.Random(5)
        count = 0
        while count < 300:
            nvars = rng.randint(1, 2)
            pa, pb, da, db = (random_poly(rng, nvars, max_terms=3, max_exp=2)
                              for _ in range(4))
            if da.is_zero() or db.is_zero():
                continue
            count += 1
            a, b = RationalFunction(pa, da), RationalFunction(pb, db)
            for got, num, den in (
                    (a + b, a.num * b.den + b.num * a.den, a.den * b.den),
                    (a * b, a.num * b.num, a.den * b.den)):
                assert got.num * den == num * got.den
                assert got.den.min_exponents() == (0,) * nvars
                assert got.den.leading()[1] > 0
                assert poly_gcd(got.num, got.den).is_one()

    def test_involution_example(self):
        # (1-X1X2)/((1-X1)(1-X2)) goes to its own negative
        x1, x2, o = Xr(2, 1), Xr(2, 2), Cr(2, 1)
        h = (o - x1 * x2) / ((o - x1) * (o - x2))
        assert h.involute() == -h

    def test_canonical_equality(self):
        x1, o = Xr(1, 1), Cr(1, 1)
        a = (x1 - o) / (x1 * x1 - x1)
        b = o / x1
        assert a == b
        assert hash(a) == hash(b)

    def test_denominator_normalization(self):
        x1, o = Xr(1, 1), Cr(1, 1)
        r = o / (-(o - x1))
        assert r.den.leading()[1] > 0
        assert r.den.min_exponents() == (0,)

    def test_field_axioms_randomized(self):
        rng = random.Random(3)
        count = 0
        while count < 300:
            nvars = rng.randint(1, 2)
            pa, pb, pc = (random_poly(rng, nvars, max_terms=2, max_exp=1)
                          for _ in range(3))
            da, db = (random_poly(rng, nvars, max_terms=2, max_exp=1)
                      for _ in range(2))
            if da.is_zero() or db.is_zero():
                continue
            count += 1
            a = RationalFunction(pa, da)
            b = RationalFunction(pb, db)
            c = RationalFunction.from_poly(pc)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert (a / b) * b == a

    def test_involute_is_involution_on_fractions(self):
        rng = random.Random(4)
        count = 0
        while count < 200:
            nvars = rng.randint(1, 2)
            pa = random_poly(rng, nvars, max_terms=2)
            da = random_poly(rng, nvars, max_terms=2)
            if da.is_zero():
                continue
            count += 1
            a = RationalFunction(pa, da)
            assert a.involute().involute() == a

    def test_collapse_to_single_var(self):
        x1, x2, o = Xr(2, 1), Xr(2, 2), Cr(2, 1)
        r = (o - x1 * x2) / (o - x2)
        q = collapse(r)
        t, o1 = Xr(1, 1), Cr(1, 1)
        assert q == (o1 - t * t) / (o1 - t)
        assert q == o1 + t

    def test_str_canonical(self):
        x1, x2, o = Xr(2, 1), Xr(2, 2), Cr(2, 1)
        h = Cr(2, -1) / (o - x2)
        assert str(h) == "(1)/(-1 + X2)"
        # the rendering is canonical: equal values give identical bytes
        assert str(h) == str(o / (x2 - o))
        assert str(x1 / x1) == "1"
