"""Cyclotomic number arithmetic, specialization, and numeric embeddings."""

import cmath
import random
from math import gcd
from fractions import Fraction

import pytest

from braidrep.cyclo import (
    CycloNum,
    cyclotomic_polynomial,
    embed_numeric,
    specialize_poly,
)
from braidrep.errors import ValidationError
from braidrep.laurent import LaurentPoly, RationalFunction


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


class TestCycloArithmetic:
    def test_omega_cubed_is_one(self):
        w = CycloNum.omega_power(3, 1)
        assert w ** 3 == CycloNum.one(3)
        assert 1 + w + w * w == CycloNum.zero(3)

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
                a = CycloNum.from_fraction(d, q)
                assert a.inverse() == CycloNum.from_fraction(d, 1 / q)
                assert a * a.inverse() == CycloNum.one(d)

    def test_conjugation_is_involution(self):
        rng = random.Random(1)
        for d in (3, 5, 8, 12, 18):
            deg = len(cyclotomic_polynomial(d)) - 1
            for _ in range(30):
                a = CycloNum(d, tuple(rng.randint(-3, 3) for _ in range(deg)))
                assert a.conjugate().conjugate() == a

    def test_conjugate_matches_numeric(self):
        a = CycloNum.omega_power(18, 5) + CycloNum.from_int(18, 2)
        za = a.embed(1)
        zc = a.conjugate().embed(1)
        assert abs(za.conjugate() - zc) < 1e-12

    def test_rational_inverse_fast_path(self):
        a = CycloNum.from_fraction(12, Fraction(-3, 4))
        assert a.inverse() == CycloNum.from_fraction(12, Fraction(-4, 3))

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


class TestEmbedding:
    def test_omega3(self):
        w = CycloNum.omega_power(3, 1)
        z = embed_numeric(w, 1)
        assert abs(z - complex(-0.5, 0.8660254037844386)) < 1e-12

    def test_root_sum(self):
        w = CycloNum.omega_power(3, 1)
        z = embed_numeric(w + w * w, 1)
        assert abs(z - (-1)) < 1e-12

    def test_galois_twist_commutes_with_powering(self):
        a = CycloNum.omega_power(18, 7)
        w = CycloNum.omega_power(18, 1)
        assert abs(embed_numeric(a, 1) - embed_numeric(w, 7)) < 1e-12

    def test_non_coprime_embedding_rejected(self):
        w = CycloNum.omega_power(6, 1)
        with pytest.raises(ValidationError):
            embed_numeric(w, 2)

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
        p = 1 + x1 + x1 * x1
        assert specialize_poly(p, 3, (1, 1)).is_zero()

    def test_fraction_value(self):
        # 1/(1-X1) at omega_3 equals (2+w)/3
        x1 = RationalFunction.variable(2, 1)
        r = 1 / (1 - x1)
        v = specialize_poly(r, 3, (1, 1))
        assert v == CycloNum(3, (2, 1), 3)
        z = v.embed(1)
        ref = 1 / (1 - cmath.exp(2j * cmath.pi / 3))
        assert abs(z - ref) < 1e-12

    def test_vanishing_denominator_reported(self):
        x1 = RationalFunction.variable(2, 1)
        r = 1 / (1 + x1 + x1 * x1)
        with pytest.raises(ValidationError) as ei:
            specialize_poly(r, 3, (1, 1))
        assert "vanishes" in str(ei.value)

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

    def test_str_form(self):
        v = CycloNum(3, (2, 1), 3)
        assert str(v) == "2/3 + 1/3*w (mod Phi_3)"
        assert str(CycloNum.zero(5)) == "0 (mod Phi_5)"
