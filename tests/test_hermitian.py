"""The skew-hermitian form: structure, invariance, determinant, signatures."""

import itertools
import os
import random
import subprocess
import sys
from math import gcd

import pytest

import braidrep
from braidrep import hermitian, linalg
from braidrep.braid import BraidWord, full_twist, pure_generator
from braidrep.cyclo import MAX_D, CycloNum, specialize_poly, units
from braidrep.errors import InvariantError, ValidationError
from braidrep.hermitian import (
    conjugate_transpose,
    form_determinant,
    form_matrix,
    is_degenerate,
    signature,
    signature_report,
    specialize_form,
    verify_invariance,
)
from braidrep.cli import MAX_N
from braidrep.laurent import LaurentPoly, RationalFunction
from oracles import form_matrix_by_division, random_pure_word, specialize_fraction


def RF(m, i):
    return RationalFunction.variable(m, i)


def _factor_product(js, strands):
    """prod (1 - X_{j+1}) over the 0-based positions js, a LaurentPoly."""
    one = LaurentPoly.one(strands)
    out = one
    for j in js:
        out = out * (one - LaurentPoly.variable(strands, j + 1))
    return out


def _eigen_signatures(d, k, fs):
    """Reference: (p, q) at each embedding f by counting the signs of the
    eigenvalues of -i h(f), the specialized form embedded in C."""
    import numpy as np

    h = specialize_form(d, k)
    out = []
    for f in fs:
        emb = np.array([[x.embed(f) for x in row] for row in h], dtype=complex)
        herm = -1j * emb
        eigs = np.linalg.eigvalsh((herm + herm.conj().T) / 2.0)
        assert float(min(abs(eigs))) > 1e-6, (d, k, f)
        out.append((int((eigs > 0).sum()), int((eigs < 0).sum())))
    return out


class TestFormMatrix:
    def test_n1(self):
        h = form_matrix(2)
        x1, x2, one = RF(2, 1), RF(2, 2), RationalFunction.constant(2, 1)
        assert h[0][0] == (one - x1 * x2) / ((one - x1) * (one - x2))

    def test_n2_superdiagonal(self):
        h = form_matrix(3)
        x2, one = RF(3, 2), RationalFunction.constant(3, 1)
        assert h[0][1] == -one / (one - x2)
        assert h[1][0] == -x2 / (one - x2)

    def test_tridiagonal(self):
        for strands in range(3, 10):
            h = form_matrix(strands)
            n = strands - 1
            for i in range(n):
                for j in range(n):
                    if abs(i - j) >= 2:
                        assert h[i][j].is_zero()

    def test_skew_hermitian(self):
        for strands in range(2, 8):
            h = form_matrix(strands)
            assert conjugate_transpose(h) == tuple(
                tuple(-x for x in row) for row in h)

    def test_matches_division_reference(self):
        # every entry of h, and of D h with D = prod (1 - X_i), against h
        # built by RationalFunction division and gcd reduction, on every
        # strand count the CLI accepts
        for strands in range(2, MAX_N + 2):
            ref = form_matrix_by_division(strands)
            h = form_matrix(strands)
            cleared = hermitian._cleared_form(strands)
            d = _factor_product(range(strands), strands)
            n = strands - 1
            for a in range(n):
                for b in range(n):
                    x = ref[a][b]
                    assert h[a][b] == x, (strands, a, b)
                    assert str(h[a][b]) == str(x), (strands, a, b)
                    # D h = D x.num / x.den, cross-multiplied in the Laurent ring
                    assert cleared[a][b] * x.den == d * x.num, (strands, a, b)


class TestInvariance:
    def test_pure_generators(self):
        for strands in range(2, 6):
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    assert verify_invariance(pure_generator(r, s, strands))

    def test_delta_squared(self):
        assert verify_invariance(full_twist(1, 4, 4) ** 2)

    def test_random_pure_words(self):
        rng = random.Random(0)
        for _ in range(200):
            strands = rng.randint(2, 6)
            w = random_pure_word(strands, rng, max_factors=3)
            assert verify_invariance(w)

    def test_non_pure_rejected(self):
        with pytest.raises(ValidationError):
            verify_invariance(BraidWord(3, (1,)))


class TestDeterminant:
    def test_closed_form_small(self):
        # the function itself asserts the closed form; spot-check n=1, n=2
        d1 = form_determinant(2)
        x1, x2, one = RF(2, 1), RF(2, 2), RationalFunction.constant(2, 1)
        assert d1 == (one - x1 * x2) / ((one - x1) * (one - x2))
        d2 = form_determinant(3)
        y = [RF(3, i) for i in (1, 2, 3)]
        one = RationalFunction.constant(3, 1)
        assert d2 == (one - y[0] * y[1] * y[2]) / \
            ((one - y[0]) * (one - y[1]) * (one - y[2]))

    def test_up_to_n6(self):
        for strands in range(2, 8):
            form_determinant(strands)  # raises on mismatch

    @staticmethod
    def _corrupt(monkeypatch, a, b, change):
        """Make the closed-form table of h carry (num, den) = change(num, den,
        strands) at entry [a][b]; den names factors f_{j+1} = 1 - X_{j+1}."""
        real = hermitian._form_table

        def corrupted(strands):
            return tuple(
                (r, c) + (change(num, den, strands) if (r, c) == (a, b)
                          else (num, den))
                for r, c, num, den in real(strands))

        monkeypatch.setattr(hermitian, "_form_table", corrupted)
        form_determinant.cache_clear()  # so the corrupted table is read

    @pytest.mark.parametrize("a,b", [(0, 0), (2, 2), (2, 1), (1, 2)])
    def test_wrong_numerator_raises(self, monkeypatch, a, b):
        self._corrupt(monkeypatch, a, b,
                      lambda num, den, m: (num + _factor_product(den, m), den))
        with pytest.raises(InvariantError):
            form_determinant(5)

    @pytest.mark.parametrize("a,b", [(0, 0), (2, 2), (2, 1), (1, 2)])
    def test_wrong_denominator_raises(self, monkeypatch, a, b):
        # one more factor f_j, with j the first one the entry lacks
        self._corrupt(monkeypatch, a, b, lambda num, den, m: (
            num, den + (min(set(range(m)) - set(den)),)))
        with pytest.raises(InvariantError, match="does not have denominator"):
            form_determinant(5)


class TestSpecializedForm:
    def test_d3_n1(self):
        h = specialize_form(3, (1, 1))
        w = CycloNum.omega_power(3, 1)
        one = CycloNum.one(3)
        expected = (one - w * w) * ((one - w) * (one - w)).inverse()
        assert h[0][0] == expected

    def test_degenerate_determinant_vanishes(self):
        h = specialize_form(3, (1, 1, 1))
        det = linalg.determinant(h)
        assert det.is_zero()
        assert is_degenerate(3, (1, 1, 1))

    def test_nondegenerate_determinant(self):
        h = specialize_form(3, (1, 1, 2))
        det = linalg.determinant(h)
        assert not det.is_zero()
        assert not is_degenerate(3, (1, 1, 2))

    def test_d18_example_not_degenerate(self):
        assert not is_degenerate(18, (1, 1, 1, 1))

    def test_specialization_matches_symbolic_determinant(self):
        rng = random.Random(1)
        for _ in range(25):
            d = rng.choice([2, 3, 4, 5, 6])
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            strands = rng.randint(2, 5)
            k = tuple(rng.choice(units) for _ in range(strands))
            h = specialize_form(d, k)
            det = linalg.determinant(h)
            sym = form_determinant(strands)
            if sum(k) % d == 0:
                assert det.is_zero()
            else:
                assert det == specialize_fraction(sym, d, k)

    def test_matches_specialized_division_reference(self):
        # entry by entry against h built by RationalFunction division, its
        # numerator and denominator specialized separately: every unit tuple
        # on 2-4 strands, then seeded specs on 5-9 strands up to d = MAX_D
        specs = [(d, k) for d in (3, 4, 5, 7, 8, 12) for strands in (2, 3, 4)
                 for k in itertools.product(units(d), repeat=strands)]
        rng = random.Random(18)
        specs += [(d, tuple(rng.choice(units(d)) for _ in range(strands)))
                  for strands in range(5, 10) for d in (9, 10, 16, MAX_D)]
        refs = {strands: form_matrix_by_division(strands)
                for strands in range(2, 10)}
        for d, k in specs:
            ref = refs[len(k)]
            h = specialize_form(d, k)
            for a, row in enumerate(ref):
                for b, x in enumerate(row):
                    assert h[a][b] == specialize_fraction(x, d, k), (d, k, a, b)

    def test_unitarity_of_specialized_generators(self):
        # M^H h(t) M = h(t) for every pure generator after specialization
        from braidrep.gassner import assert_polynomial_entries, evaluate_word

        rng = random.Random(2)
        for _ in range(10):
            d = rng.choice([2, 3, 4, 5])
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            strands = rng.randint(2, 4)
            k = tuple(rng.choice(units) for _ in range(strands))
            h = specialize_form(d, k)
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    sym = assert_polynomial_entries(
                        evaluate_word(pure_generator(r, s, strands), "reduced"),
                        "unitarity")
                    m = tuple(tuple(specialize_poly(x, d, k) for x in row)
                              for row in sym)
                    mh = tuple(tuple(x.conjugate() for x in col)
                               for col in zip(*m))
                    lhs = linalg.mat_mul(mh, linalg.mat_mul(h, m))
                    assert linalg.mat_eq(lhs, h)


class TestSignature:
    def test_paper_example_u21(self):
        assert signature(18, (1, 1, 1, 1), 7) == (2, 1)

    def test_d3_n1(self):
        assert signature(3, (1, 1), 1) == (1, 0)

    def test_conjugate_embedding_swaps(self):
        rng = random.Random(3)
        cases = 0
        while cases < 20:
            d = rng.choice([3, 4, 5, 7, 8, 12, 18])
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            strands = rng.randint(2, 5)
            k = tuple(rng.choice(units) for _ in range(strands))
            if sum(k) % d == 0:
                continue
            f = rng.choice(units)
            cases += 1
            p, q = signature(d, k, f)
            assert (q, p) == signature(d, k, d - f)
            assert p + q == strands - 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError, match="no signatures"):
            signature(3, (1, 1, 1), 1)
        # a degenerate form has no signature at any f, so f is not read
        with pytest.raises(ValidationError, match="no signatures"):
            signature(3, (1, 1, 1), 0)

    def test_non_coprime_f_rejected(self):
        with pytest.raises(ValidationError):
            signature(4, (1, 1), 2)

    def test_report_covers_all_embeddings(self):
        rep = signature_report(18, (1, 1, 1, 1))
        fs = [row["f"] for row in rep]
        assert fs == [1, 5, 7, 11, 13, 17]
        by_f = {row["f"]: (row["p"], row["q"]) for row in rep}
        assert by_f[7] == (2, 1)
        assert by_f[11] == (1, 2)

    def test_matches_eigenvalue_count_exhaustive(self):
        # every non-degenerate sorted weight tuple with d <= 8 on 2-5
        # strands, at every unit f: the closed form against the eigenvalues
        cases = 0
        for d in range(2, 9):
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            for strands in range(2, 6):
                for k in itertools.combinations_with_replacement(units, strands):
                    if sum(k) % d == 0:
                        continue
                    want = _eigen_signatures(d, k, units)
                    assert [signature(d, k, f) for f in units] == want, (d, k)
                    cases += len(units)
        assert cases == 3250

    def test_signature_report_never_loads_numpy(self):
        # the library computes signatures exactly; numpy belongs to the tests
        src = os.path.dirname(os.path.dirname(braidrep.__file__))
        code = ("import sys, braidrep, braidrep.cli\n"
                "braidrep.hermitian.signature_report(18, (1, 1, 1, 1))\n"
                "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestIsotropyOfInvariantVector:
    def test_w_orthogonal_in_degenerate_case(self):
        # with pi_{n+1} = 1: h(w, eps_j) = 0 for all j and h(w, w) = 0
        for d, k in [(3, (1, 1, 1)), (2, (1, 1, 1, 1)), (4, (1, 1, 1, 3)),
                     (5, (1, 2, 3, 4)), (6, (1, 5, 5, 1))]:
            if sum(k) % d != 0:
                continue
            h = specialize_form(d, k)
            n = len(k) - 1
            # w coordinates: 1 - t_1...t_i
            w = []
            prod = CycloNum.one(d)
            for i in range(n):
                prod = prod * CycloNum.omega_power(d, k[i])
                w.append(CycloNum.one(d) - prod)
            hw = [sum((h[j][i] * w[i] for i in range(n)), CycloNum.zero(d))
                  for j in range(n)]
            # h(w, eps_j) = conj(w)^T h column j... check via h w = 0 and
            # w^H h w = 0: for a tridiagonal skew form both follow from
            hw_vec = linalg.mat_vec(h, tuple(w))
            assert all(x.is_zero() for x in hw_vec)
            pairing = sum((w[j].conjugate() * hw_vec[j] for j in range(n)),
                          CycloNum.zero(d))
            assert pairing.is_zero()
