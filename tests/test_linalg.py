"""Exact linear algebra: determinant, inverse and kernel against references
that do not eliminate (the Leibniz sum, products with the identity, minors)."""

import itertools
import random

import pytest

from braidrep import linalg
from braidrep.cyclo import CycloNum, cyclotomic_polynomial
from braidrep.errors import InvariantError
from braidrep.laurent import RationalFunction


def _leibniz(a):
    """det a as the signed sum over permutations."""
    n = len(a)
    total = a[0][0] - a[0][0]
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = a[0][perm[0]]
        for i in range(1, n):
            term = term * a[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def _cyclo_entry(rng, d):
    # a third of the entries are zero, so leading entries vanish and the
    # echelon has to take its pivots out of order
    if rng.random() < 0.35:
        return CycloNum.zero(d)
    deg = len(cyclotomic_polynomial(d)) - 1
    return CycloNum(d, tuple(rng.randint(-2, 2) for _ in range(deg)),
                    rng.randint(1, 3))


def _rational_entry(rng, nvars=2):
    if rng.random() < 0.3:
        return RationalFunction.constant(nvars, 0)
    x = RationalFunction.variable(nvars, 1)
    y = RationalFunction.variable(nvars, 2, -1)
    num = rng.randint(-2, 2) + rng.randint(-1, 1) * x + rng.randint(-1, 1) * y
    if rng.random() < 0.4:
        den = RationalFunction.constant(nvars, 1) - x * rng.choice((1, -1))
        return num / den
    return num


def _random_matrix(rng, rows, cols, entry):
    return tuple(tuple(entry(rng) for _ in range(cols)) for _ in range(rows))


def _make_singular(rng, a):
    """Replace one row by a combination of two others (or by zero when the
    matrix has a single row)."""
    n = len(a)
    rows = [list(r) for r in a]
    target = rng.randrange(n)
    if n == 1:
        rows[0] = [x - x for x in rows[0]]
    else:
        i, j = rng.sample([r for r in range(n) if r != target] * 2, 2)
        c1, c2 = rng.randint(-2, 2), rng.randint(1, 2)
        rows[target] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


def _anti_diagonal(n, d):
    """Nonzero on the anti-diagonal only: the pivot columns come in reverse
    row order, so the determinant carries the sign (-1)^(n(n-1)/2)."""
    zero = CycloNum.zero(d)
    return tuple(tuple(CycloNum.omega_power(d, i + 1) + 1 if j == n - 1 - i
                       else zero for j in range(n)) for i in range(n))


CYCLO_ORDERS = (3, 5, 8, 12)


def _cyclo_matrices():
    rng = random.Random(20)
    out = []
    for d in CYCLO_ORDERS:
        for n in range(1, 5):
            for _ in range(6):
                out.append(_random_matrix(
                    rng, n, n, lambda r: _cyclo_entry(r, d)))
            out.append(_anti_diagonal(n, d))
    return out


def _rational_matrices():
    rng = random.Random(21)
    return [_random_matrix(rng, n, n, _rational_entry)
            for n in (1, 2, 3) for _ in range(6)]


def _identity_like(a):
    one = a[0][0] ** 0
    return linalg.identity(len(a), one, one - one)


def _nonsingular(mats):
    return [a for a in mats if not _leibniz(a).is_zero()]


class TestDeterminant:
    def test_cyclo_matches_leibniz(self):
        mats = _cyclo_matrices()
        assert any(a[0][0].is_zero() and not _leibniz(a).is_zero()
                   for a in mats)
        for a in mats:
            assert linalg.determinant(a) == _leibniz(a)

    def test_rational_matches_leibniz(self):
        for a in _rational_matrices():
            assert linalg.determinant(a) == _leibniz(a)

    def test_singular_is_zero(self):
        rng = random.Random(22)
        mats = _cyclo_matrices() + _rational_matrices()
        for a in mats:
            s = _make_singular(rng, a)
            assert _leibniz(s).is_zero()
            assert linalg.determinant(s).is_zero()


class TestInverse:
    @pytest.mark.parametrize("family", ["cyclo", "rational"])
    def test_product_is_identity(self, family):
        mats = _cyclo_matrices() if family == "cyclo" else _rational_matrices()
        mats = _nonsingular(mats)
        assert len(mats) >= 10
        for a in mats:
            inv = linalg.mat_inverse(a)
            ident = _identity_like(a)
            assert linalg.mat_eq(linalg.mat_mul(a, inv), ident)
            assert linalg.mat_eq(linalg.mat_mul(inv, a), ident)

    def test_singular_raises(self):
        rng = random.Random(23)
        for a in _cyclo_matrices() + _rational_matrices():
            with pytest.raises(InvariantError):
                linalg.mat_inverse(_make_singular(rng, a))


def _rank_r_rows(rng, d, nrows, ncols, rank):
    """nrows rows of rank exactly ``rank``: C @ B with B holding an identity
    block in ``rank`` shuffled columns and C holding an identity block in
    ``rank`` shuffled rows; the stack also gets a zero row."""
    one, zero = CycloNum.one(d), CycloNum.zero(d)
    cols = rng.sample(range(ncols), rank)
    b = []
    for i in range(rank):
        row = [_cyclo_entry(rng, d) for _ in range(ncols)]
        for t, c in enumerate(cols):
            row[c] = one if t == i else zero
        b.append(row)
    c = [[one if t == i else zero for t in range(rank)] for i in range(rank)]
    c += [[_cyclo_entry(rng, d) for _ in range(rank)]
          for _ in range(nrows - rank)]
    rng.shuffle(c)
    rows = [tuple(sum((ci[t] * b[t][j] for t in range(rank)), zero)
                  for j in range(ncols)) for ci in c]
    rows.insert(rng.randrange(len(rows) + 1), (zero,) * ncols)
    return rows


def _independent(vectors):
    """Some k x k minor of the k vectors has a nonzero Leibniz determinant."""
    if not vectors:
        return True
    k = len(vectors)
    return any(not _leibniz(tuple(tuple(v[c] for c in cols)
                                  for v in vectors)).is_zero()
               for cols in itertools.combinations(range(len(vectors[0])), k))


class TestKernel:
    def test_annihilated_and_complete(self):
        rng = random.Random(24)
        for d in CYCLO_ORDERS:
            for ncols in range(1, 6):
                for rank in range(ncols + 1):
                    for nrows in (rank, rank + 2):
                        if nrows == 0:
                            continue
                        rows = _rank_r_rows(rng, d, nrows, ncols, rank)
                        basis = linalg.kernel_basis(rows, CycloNum.one(d))
                        assert len(basis) == ncols - rank
                        for v in basis:
                            assert all(x.is_zero()
                                       for x in linalg.mat_vec(rows, v))
                        assert _independent(basis)

    def test_rational_rows(self):
        rng = random.Random(25)
        one = RationalFunction.constant(2, 1)
        for _ in range(6):
            b = _random_matrix(rng, 2, 4, _rational_entry)
            rows = list(b) + [tuple(x + y for x, y in zip(*b))]
            rank = 2 if _independent(list(b)) else None
            basis = linalg.kernel_basis(rows, one)
            for v in basis:
                assert all(x.is_zero() for x in linalg.mat_vec(rows, v))
            assert _independent(basis)
            if rank is not None:
                assert len(basis) == 4 - rank

    def test_empty_and_full_rank(self):
        one = CycloNum.one(5)
        ident = list(linalg.identity(3, one, one - one))
        assert linalg.kernel_basis([], one) == []
        assert linalg.kernel_basis(ident, one) == []
        # a tall stack stops at full rank
        assert linalg.kernel_basis(ident * 2, one) == []
