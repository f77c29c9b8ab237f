"""Cyclotomic number arithmetic, specialization, and numeric embeddings."""

import cmath
import itertools
import operator
import random
import re
from math import gcd
from fractions import Fraction

import pytest

from braidrep.braid import pure_generator
from braidrep.cyclo import (
    MAX_D,
    CycloNum,
    _context,
    cyclotomic_polynomial,
    dot,
    specialize_matrix,
    specialize_poly,
    units,
)
from braidrep.errors import ValidationError
from braidrep.laurent import LaurentPoly, RationalFunction
from braidrep.spectral import _symbolic_matrix


def rational(d: int, q: Fraction) -> CycloNum:
    """The rational number q as an element of Q(omega_d)."""
    deg = len(cyclotomic_polynomial(d)) - 1
    return CycloNum(d, (q.numerator,) + (0,) * (deg - 1), q.denominator)


class TestCyclotomicPolynomials:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        phis = {5: 4, 7: 6, 8: 4, 9: 6, 18: 6, 24: 8}
        for d, phi in phis.items():
            assert len(cyclotomic_polynomial(d)) - 1 == phi

    def test_product_over_divisors(self):
        # x^d - 1 = prod_{e | d} Phi_e, for every order up to MAX_D
        for d in range(1, MAX_D + 1):
            prod = [1]
            for e in range(1, d + 1):
                if d % e == 0:
                    phi = cyclotomic_polynomial(e)
                    out = [0] * (len(prod) + len(phi) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                    prod = out
            assert prod == [-1] + [0] * (d - 1) + [1], d


class TestCycloArithmetic:
    def test_omega_cubed_is_one(self):
        w = CycloNum.omega_power(3, 1)
        assert w ** 3 == CycloNum.one(3)
        assert CycloNum.one(3) + w + w * w == CycloNum.zero(3)

    def test_inverse(self):
        rng = random.Random(0)
        # large phi(d) (8, 32, 48, 64) gets a few samples each
        cases = [(d, 20) for d in (2, 3, 4, 5, 7, 8, 12, 18)]
        cases += [(30, 5), (64, 3), (105, 2), (128, 2)]
        for d, samples in cases:
            deg = len(cyclotomic_polynomial(d)) - 1
            for _ in range(samples):
                a = CycloNum(d, tuple(rng.randint(-3, 3) for _ in range(deg)),
                             rng.randint(1, 5))
                if a.is_zero():
                    continue
                assert a * a.inverse() == CycloNum.one(d)
            for q in (Fraction(1), Fraction(-1), Fraction(7, 2),
                      Fraction(-3, 4)):
                a = rational(d, q)
                assert a.inverse() == rational(d, 1 / q)
                assert a * a.inverse() == CycloNum.one(d)

    def test_inverse_matches_plain_norm_product(self):
        # the tower-built cofactor against prod_{f != 1} sigma_f(A), one
        # twist per unit, at every d <= 12 and at large phi(d)
        rng = random.Random(3)
        orders = list(range(1, 13)) + [16, 30, 64, 105, 128]
        for d in orders:
            deg = len(cyclotomic_polynomial(d)) - 1
            samples = 4 if deg <= 12 else 2
            for _ in range(samples):
                den = rng.randint(1, 5)
                num = tuple(rng.randint(-3, 3) for _ in range(deg))
                if not any(num):
                    num = (1,) + num[1:]
                a = CycloNum(d, num, den)
                whole = CycloNum(d, a.num)
                cofactor = CycloNum.one(d)
                for f in range(2, d):
                    if gcd(f, d) == 1:
                        cofactor = cofactor * whole.galois(f)
                norm = whole * cofactor
                assert not any(norm.num[1:]), d
                plain = cofactor * rational(d, Fraction(a.den, norm.num[0]))
                assert a.inverse() == plain, (d, a)

    def test_units_are_the_coprime_residues(self):
        assert units(1) == (0,)
        assert units(2) == (1,)
        assert units(12) == (1, 5, 7, 11)
        for d in range(1, 129):
            assert len(units(d)) == len(cyclotomic_polynomial(d)) - 1, d
            assert units(d) == tuple(f % d for f in range(1, d + 1)
                                     if gcd(f, d) == 1), d

    def test_reduce_rows_are_powers_of_omega(self):
        # row j is x^(deg + j) mod Phi_d, built here by repeated
        # multiplication by x
        for d in list(range(3, 31)) + [64, 105, 128]:
            ctx = _context(d)
            deg = ctx.deg
            top = [-c for c in ctx.phi_poly[:deg]]
            cur = list(top)
            for j in range(deg - 1):
                assert tuple(cur) == ctx.reduce_rows[j], (d, j)
                carry = cur[-1]
                cur = [0] + cur[:-1]
                cur = [a + carry * b for a, b in zip(cur, top)]

    def test_unit_tower_covers_each_unit_once(self):
        for d in list(range(1, 13)) + [16, 30, 64, 105, 128]:
            tower = _context(d).unit_tower
            products = {1 % d}
            for g, m in tower:
                assert m >= 2
                products = {pow(g, i, d) * h % d
                            for i in range(m) for h in products}
            units = {f % d for f in range(1, d + 1) if gcd(f, d) == 1}
            assert products == units, d
            size = 1
            for _, m in tower:
                size *= m
            assert size == len(units), d

    def test_conjugation_is_involution(self):
        rng = random.Random(1)
        for d in (3, 5, 8, 12, 18):
            deg = len(cyclotomic_polynomial(d)) - 1
            for _ in range(30):
                a = CycloNum(d, tuple(rng.randint(-3, 3) for _ in range(deg)))
                assert a.conjugate().conjugate() == a

    def test_conjugate_matches_numeric(self):
        a = CycloNum.omega_power(18, 5) + rational(18, Fraction(2))
        za = a.embed(1)
        zc = a.conjugate().embed(1)
        assert abs(za.conjugate() - zc) < 1e-12

    def test_rational_inverse_fast_path(self):
        a = rational(12, Fraction(-3, 4))
        assert a.inverse() == rational(12, Fraction(-4, 3))

    def test_ring_axioms_spot_checked(self):
        rng = random.Random(5)
        for d in (2, 3, 5, 8, 12, 18):
            deg = len(cyclotomic_polynomial(d)) - 1
            for _ in range(60):
                a, b, c = (CycloNum(d, tuple(rng.randint(-3, 3)
                                             for _ in range(deg)),
                                    rng.randint(1, 4)) for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a
                assert a * b == b * a


class TestOperandRule:
    """+, - and * take only a CycloNum of the same order; / is not defined."""

    @pytest.mark.parametrize("other", [2, Fraction(1, 2)])
    def test_foreign_operand_raises_type_error(self, other):
        w = CycloNum.omega_power(5, 1)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            with pytest.raises(TypeError):
                op(w, other)
            with pytest.raises(TypeError):
                op(other, w)

    def test_no_division(self):
        w = CycloNum.omega_power(5, 1)
        with pytest.raises(TypeError):
            w / w

    def test_foreign_operand_compares_unequal(self):
        assert (CycloNum.one(5) == 1) is False
        assert (CycloNum.one(5) != 1) is True
        assert (CycloNum.zero(5) == 0) is False
        assert (CycloNum.one(5) == Fraction(1)) is False
        assert (1 == CycloNum.one(5)) is False

    def test_type_error_names_the_operator(self):
        # - refuses a foreign operand itself, before it negates it
        w = CycloNum.omega_power(5, 1)
        for op, sign in ((operator.add, "+"), (operator.sub, "-"),
                         (operator.mul, "*")):
            for a, b in ((w, 2), (2, w)):
                with pytest.raises(TypeError, match=re.escape(
                        f"operand type(s) for {sign}: ")):
                    op(a, b)

    def test_order_mismatch_raises_value_error(self):
        a, b = CycloNum.one(5), CycloNum.one(3)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError,
                               match="cyclotomic order mismatch: 5 vs 3"):
                op(a, b)


def _operand(rng: random.Random, d: int) -> CycloNum:
    """A seeded element of Q(omega_d): zero in about one case in six, and a
    denominator other than 1 in about half of the rest."""
    deg = len(cyclotomic_polynomial(d)) - 1
    if rng.random() < 1 / 6:
        return CycloNum.zero(d)
    den = 1 if rng.random() < 0.5 else rng.randint(2, 6)
    return CycloNum(d, tuple(rng.randint(-4, 4) for _ in range(deg)), den)


def _structure(x: CycloNum) -> tuple:
    return x.d, x.num, x.den


class TestMultiplyAccumulate:
    """cyclo.dot and the direct - give the operators' canonical form exactly:
    reduction modulo Phi_d is linear, and both normalize at the end."""

    ORDERS = tuple(range(2, 13)) + (16, 128)

    @pytest.mark.parametrize("d", ORDERS)
    def test_dot_is_the_sum_of_products(self, d):
        rng = random.Random(d)
        for length in (1, 2, 3, 4):
            for _ in range(12 if d < 100 else 2):
                xs = [_operand(rng, d) for _ in range(length)]
                ys = [_operand(rng, d) for _ in range(length)]
                ref = CycloNum.zero(d)
                for x, y in zip(xs, ys):
                    ref = ref + x * y
                got = dot(d, xs, ys)
                assert _structure(got) == _structure(ref), (xs, ys)

    @pytest.mark.parametrize("d", ORDERS)
    def test_direct_sub_is_add_of_negation(self, d):
        rng = random.Random(100 + d)
        for _ in range(40 if d < 100 else 6):
            a, b = _operand(rng, d), _operand(rng, d)
            assert _structure(a - b) == _structure(a + (-b)), (a, b)

    def test_mixed_denominators(self):
        # the terms' denominators 2*3, 4*1 and 5*3 have lcm 60; a term over 4
        # and one over 6 cancel to an integer
        d = 7
        x = [rational(d, Fraction(1, 2)), CycloNum.omega_power(d, 2),
             rational(d, Fraction(-2, 5))]
        y = [rational(d, Fraction(1, 3)) * CycloNum.omega_power(d, 1),
             rational(d, Fraction(3, 4)), rational(d, Fraction(1, 3))]
        got = dot(d, x, y)
        assert _structure(got) == _structure(x[0] * y[0] + x[1] * y[1]
                                             + x[2] * y[2])
        assert got.den == 60
        half, sixth = rational(d, Fraction(1, 4)), rational(d, Fraction(1, 6))
        three = rational(d, Fraction(3))
        got = dot(d, [half, sixth], [three, rational(d, Fraction(3, 2))])
        assert _structure(got) == _structure(rational(d, Fraction(1)))

    def test_single_term_and_zero_operands(self):
        for d in (2, 5, 12):
            w = CycloNum.omega_power(d, 1) * rational(d, Fraction(2, 3))
            zero = CycloNum.zero(d)
            assert _structure(dot(d, [w], [w])) == _structure(w * w)
            assert _structure(dot(d, [zero], [w])) == _structure(zero)
            assert _structure(dot(d, [w, zero], [zero, w])) == \
                _structure(zero)
            assert _structure(dot(d, [zero, w], [w, w])) == _structure(w * w)

    def test_empty_sum_is_zero(self):
        for d in self.ORDERS:
            assert _structure(dot(d, [], [])) == _structure(CycloNum.zero(d))

    def test_order_mismatch_raises_value_error(self):
        five, seven = CycloNum.one(5), CycloNum.one(7)
        for xs, ys in (([five], [seven]), ([seven], [five]),
                       ([seven], [seven]), ([five, five], [five, seven])):
            with pytest.raises(ValueError, match="cyclotomic order mismatch"):
                dot(5, xs, ys)

    def test_length_mismatch_raises_value_error(self):
        five = CycloNum.one(5)
        for xs, ys in (([five], []), ([five], [five, five])):
            with pytest.raises(ValueError):
                dot(5, xs, ys)


class TestEmbedding:
    def test_omega3(self):
        w = CycloNum.omega_power(3, 1)
        z = w.embed(1)
        assert abs(z - complex(-0.5, 0.8660254037844386)) < 1e-12

    def test_root_sum(self):
        w = CycloNum.omega_power(3, 1)
        z = (w + w * w).embed(1)
        assert abs(z - (-1)) < 1e-12

    def test_galois_twist_commutes_with_powering(self):
        a = CycloNum.omega_power(18, 7)
        w = CycloNum.omega_power(18, 1)
        assert abs(a.embed(1) - w.embed(7)) < 1e-12

    def test_non_coprime_embedding_rejected(self):
        w = CycloNum.omega_power(6, 1)
        with pytest.raises(ValidationError):
            w.embed(2)

    def test_arithmetic_matches_complex_arithmetic(self):
        rng = random.Random(2)
        for d in range(1, 25):
            deg = len(cyclotomic_polynomial(d)) - 1
            fs = [f for f in range(1, d + 1) if gcd(f, d) == 1]
            for _ in range(25):
                a = CycloNum(d, tuple(rng.randint(-4, 4) for _ in range(deg)),
                             rng.randint(1, 3))
                b = CycloNum(d, tuple(rng.randint(-4, 4) for _ in range(deg)),
                             rng.randint(1, 3))
                f = rng.choice(fs)
                za, zb = a.embed(f), b.embed(f)
                assert abs((a + b).embed(f) - (za + zb)) < 1e-10
                assert abs((a * b).embed(f) - (za * zb)) < 1e-10
                assert abs((a - b).embed(f) - (za - zb)) < 1e-10


class TestSpecialization:
    def test_generator_image(self):
        x1 = LaurentPoly.variable(2, 1)
        assert specialize_poly(x1, 3, (1, 1)) == CycloNum.omega_power(3, 1)

    def test_phi3_vanishes(self):
        x1 = LaurentPoly.variable(2, 1)
        p = LaurentPoly.one(2) + x1 + x1 * x1
        assert specialize_poly(p, 3, (1, 1)).is_zero()

    def test_fraction_value(self):
        # the form on 2 strands at omega_3: (1 - w^2)/(1 - w)^2 = (1 + 2w)/3
        from braidrep.hermitian import specialize_form

        ((v,),) = specialize_form(3, (1, 1))
        assert v == CycloNum(3, (1, 2), 3)
        w = cmath.exp(2j * cmath.pi / 3)
        assert abs(v.embed(1) - (1 - w * w) / (1 - w) ** 2) < 1e-12

    def test_fraction_refused(self):
        one = RationalFunction.constant(2, 1)
        r = one / (one - RationalFunction.variable(2, 1))
        with pytest.raises(TypeError, match="RationalFunction"):
            specialize_poly(r, 3, (1, 1))
        with pytest.raises(TypeError, match="RationalFunction"):
            specialize_matrix(((r,),), 3, (1, 1))

    def test_matrix_entry_by_entry(self):
        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        one = LaurentPoly.one(2)
        mat = ((x1, one - x1),
               (LaurentPoly.monomial(2, (1, -1), 3) - x2, x1 * x1))
        out = specialize_matrix(mat, 3, (1, 2))
        assert out == tuple(tuple(specialize_poly(x, 3, (1, 2)) for x in row)
                            for row in mat)
        assert out[0][0] == CycloNum.omega_power(3, 1)

    def test_matrix_checks_weights_once(self, monkeypatch):
        from braidrep import cyclo

        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        one = LaurentPoly.one(2)
        mat = ((x1, one - x1, x1), (one - x2 * x2, x1 * x1, x2))
        calls = []
        real = cyclo.check_weights
        monkeypatch.setattr(cyclo, "check_weights",
                            lambda d, k: calls.append(k) or real(d, k))
        specialize_matrix(mat, 3, (1, 2))
        assert calls == [(1, 2)]

    def test_matrix_errors_match_entry_errors(self):
        # a weight not coprime to d, and a weight tuple of the wrong length
        x1 = LaurentPoly.variable(2, 1)
        for mat, d, k in [(((x1,),), 4, (2, 1)), (((x1, x1),), 3, (1, 1, 1))]:
            with pytest.raises(ValidationError) as entry:
                specialize_poly(mat[0][-1], d, k)
            with pytest.raises(ValidationError) as whole:
                specialize_matrix(mat, d, k)
            assert str(whole.value) == str(entry.value)

    def test_non_coprime_weight_rejected(self):
        x1 = LaurentPoly.variable(2, 1)
        with pytest.raises(ValidationError):
            specialize_poly(x1, 4, (2, 1))

    def test_is_ring_homomorphism(self):
        rng = random.Random(3)
        from test_laurent import random_poly

        for _ in range(300):
            d = rng.choice([2, 3, 4, 5, 6, 8])
            nvars = rng.randint(1, 3)
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            k = tuple(rng.choice(units) for _ in range(nvars))
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            sa = specialize_poly(a, d, k)
            sb = specialize_poly(b, d, k)
            assert specialize_poly(a * b, d, k) == sa * sb
            assert specialize_poly(a + b, d, k) == sa + sb

    def test_involution_commutes_with_conjugation(self):
        # specializing the involuted polynomial = conjugating the value
        rng = random.Random(4)
        from test_laurent import random_poly

        for _ in range(100):
            d = rng.choice([3, 4, 5, 12])
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            k = tuple(rng.choice(units) for _ in range(2))
            a = random_poly(rng, 2)
            assert (specialize_poly(a.involute(), d, k)
                    == specialize_poly(a, d, k).conjugate())

    def test_zero_shortcut_matches_fold(self):
        # zero returns before the fold; it is the most common entry of the
        # symbolic A_rs, 220 of the 375 on 6 strands.  Its value is the one
        # the fold gives, and the one a nonzero polynomial that vanishes at
        # the root, Phi_d(X1), specializes to
        six = [x for r in range(1, 6) for s in range(r + 1, 7)
               for row in _symbolic_matrix(pure_generator(r, s, 6))
               for x in row]
        assert len(six) == 375
        assert sum(x.is_zero() for x in six) == 220
        for d in range(2, 13):
            phi = LaurentPoly(1, dict(((j,), c) for j, c in
                                      enumerate(cyclotomic_polynomial(d))))
            for strands in (1, 3):
                zero = LaurentPoly.zero(strands)
                for k in itertools.product(units(d), repeat=strands):
                    value = specialize_poly(zero, d, k)
                    assert value == _residue_specialization(zero, d, k)
                    assert value == specialize_poly(phi, d, k[:1]) \
                        == CycloNum.zero(d)

    def test_str_form(self):
        v = CycloNum(3, (2, 1), 3)
        assert str(v) == "2/3 + 1/3*w (mod Phi_3)"
        assert str(CycloNum.zero(5)) == "0 (mod Phi_5)"


def _residue_specialization(a, d, k):
    """Reference for the specialization of a LaurentPoly, the fold written
    out with no shortcut: the coefficients summed by residue of e.k mod d,
    then one row of the table of powers of omega per residue."""
    ctx = _context(d)
    residues = [0] * d
    for e, c in a.terms.items():
        residues[sum(x * ki for x, ki in zip(e, k)) % d] += c
    out = [0] * ctx.deg
    for m, c in enumerate(residues):
        if c:
            for i, x in enumerate(ctx.omega_pows[m]):
                out[i] += c * x
    return CycloNum(d, tuple(out))
