"""Small exact linear algebra over rings and fields.

Matrices are immutable tuples of row tuples.  The products and comparisons
(``mat_mul``, ``mat_vec``, ``mat_sub``, ``mat_eq``) use only the ring
operations, and run over ``CycloNum`` and over ``LaurentPoly``
(``hermitian.verify_invariance``).  Elimination needs a field and runs over
``CycloNum``: besides the ring operations it uses ``is_zero``, ``is_one``,
``inverse`` and ``x ** 0`` (the field's one).  Every elimination runs
through one ``Echelon``, a row echelon form built one row at a time with
rows scaled to one at their pivots: the span closure of ``spectral``,
``kernel_basis``, ``determinant`` and ``mat_inverse``.  Sizes here are tiny
(matrices are at most 9 x 9), so no pivot-size heuristics are used.
"""

from __future__ import annotations

from .errors import InvariantError


def identity(n: int, one, zero) -> tuple:
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def mat_mul(a: tuple, b: tuple) -> tuple:
    n, m = len(a), len(b[0])
    inner = len(b)
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            acc = ai[0] * b[0][j]
            for t in range(1, inner):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a: tuple, v: tuple) -> tuple:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for t in range(1, len(v)):
            acc = acc + row[t] * v[t]
        out.append(acc)
    return tuple(out)


def mat_sub(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_eq(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


class Echelon:
    """Row echelon form over a field, built one row at a time.

    ``rows`` maps each pivot column to a row scaled to one at that column;
    every entry left of the pivot is zero.  Rows are never reduced above
    their pivots while being inserted, so an insert costs one inverse at most.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def reduce(self, vec: list):
        """Reduce vec in place; return its first nonzero column left, or
        None when vec lies in the span of the rows."""
        for j, x in enumerate(vec):
            if x.is_zero():
                continue
            row = self.rows.get(j)
            if row is None:
                return j
            for t in range(j, len(vec)):
                rv = row[t]
                if not rv.is_zero():
                    vec[t] = vec[t] - x * rv
        return None

    def insert(self, vec: list):
        """Reduce vec in place and, if it is independent, add it scaled to one
        at its pivot.  Returns (pivot column, leading entry before scaling),
        or None when vec lies in the span."""
        j = self.reduce(vec)
        if j is None:
            return None
        lead = vec[j]
        if not lead.is_one():
            inv = lead.inverse()
            vec = vec[:j] + [x * inv for x in vec[j:]]
        self.rows[j] = vec
        return j, lead

    def back_substitute(self):
        """Clear the entries above every pivot (reduced echelon form)."""
        pivots = sorted(self.rows)
        for i, p in enumerate(pivots):
            row = self.rows[p]
            for q in pivots[:i]:
                other = self.rows[q]
                c = other[p]
                if not c.is_zero():
                    self.rows[q] = [x if y.is_zero() else x - c * y
                                    for x, y in zip(other, row)]


def mat_inverse(a: tuple) -> tuple:
    """Inverse by the reduced echelon form of [a | 1]; raises InvariantError
    on a singular matrix."""
    n = len(a)
    zero = a[0][0] - a[0][0]
    one = a[0][0] ** 0
    ech = Echelon()
    for i, row in enumerate(a):
        pivot = ech.insert(list(row) + [one if j == i else zero
                                        for j in range(n)])
        if pivot[0] >= n:
            raise InvariantError("matrix is singular")
    ech.back_substitute()
    return tuple(tuple(ech.rows[i][n:]) for i in range(n))


def determinant(a: tuple):
    """Exact determinant: the signed product of the leading entries of an
    echelon form of the rows of a (entries form a field).

    Row i reduces to a leading entry l_i at a distinct pivot column p_i, with
    zeros left of it; reducing only subtracts multiples of earlier rows, so
    det a = sign(i -> p_i) * prod l_i, and 0 when a row is dependent.
    """
    ech = Echelon()
    pivots = []
    det = None
    for row in a:
        pivot = ech.insert(list(row))
        if pivot is None:
            return a[0][0] - a[0][0]
        pivots.append(pivot[0])
        det = pivot[1] if det is None else det * pivot[1]
    inversions = sum(1 for i, p in enumerate(pivots) for q in pivots[i + 1:]
                     if p > q)
    return -det if inversions % 2 else det


def kernel_basis(rows, one) -> list:
    """Basis of the right kernel of a stacked row list, exactly.

    ``rows`` is any iterable of equal-length rows; they are inserted into one
    echelon form and read no further once it reaches full rank (the kernel
    is then trivial).  Otherwise the form is back-substituted to reduced
    form, and each free column f gives the kernel vector with 1 at f, 0 at
    the other free columns and -row_c[f] at each pivot column c.  ``one`` is
    the field's multiplicative identity (needed to build the free
    coordinates).  Returns a list of tuples; empty when the kernel is trivial
    or there are no rows.
    """
    ncols = 0
    ech = Echelon()
    for r in rows:
        ncols = len(r)
        ech.insert(list(r))
        if len(ech.rows) == ncols:
            return []
    ech.back_substitute()
    zero = one - one
    basis = []
    for f in range(ncols):
        if f in ech.rows:
            continue
        v = [zero] * ncols
        v[f] = one
        for c, row in ech.rows.items():
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis
