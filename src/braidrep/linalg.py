"""Small exact linear algebra over field-like elements.

Matrices are immutable tuples of row tuples.  Entries are ``CycloNum`` or
``RationalFunction`` field elements; besides the ring operations only
``is_zero``, ``is_one`` and ``inverse`` are used.  Sizes here are tiny (the
representations are at most 7-dimensional), so the classical algorithms are
used without pivot-size heuristics.
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


def mat_inverse(a: tuple) -> tuple:
    """Gauss-Jordan inverse; raises InvariantError on a singular matrix."""
    n = len(a)
    work = [list(row) for row in a]
    one = None
    for row in a:
        for x in row:
            if not x.is_zero():
                one = x * x.inverse()
                break
        if one is not None:
            break
    if one is None:
        raise InvariantError("matrix is singular")
    zero = one - one
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not work[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise InvariantError("matrix is singular")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        p = work[col][col]
        if not p.is_one():
            pinv = p.inverse()
            for j in range(n):
                work[col][j] = work[col][j] * pinv
                inv[col][j] = inv[col][j] * pinv
        for r in range(n):
            if r == col:
                continue
            c = work[r][col]
            if c.is_zero():
                continue
            for j in range(n):
                work[r][j] = work[r][j] - c * work[col][j]
                inv[r][j] = inv[r][j] - c * inv[col][j]
    return tuple(tuple(row) for row in inv)


def determinant(a: tuple):
    """Exact determinant by elimination with division (entries form a field)."""
    n = len(a)
    work = [list(row) for row in a]
    sign = 1
    det = None
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not work[r][col].is_zero():
                piv = r
                break
        if piv is None:
            z = a[0][0] - a[0][0]
            return z
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        p = work[col][col]
        det = p if det is None else det * p
        for r in range(col + 1, n):
            c = work[r][col]
            if c.is_zero():
                continue
            factor = c * p.inverse()
            for j in range(col, n):
                work[r][j] = work[r][j] - factor * work[col][j]
    if sign < 0:
        det = -det
    return det


def kernel_basis(rows: list, one) -> list:
    """Basis of the right kernel of a stacked row list, exactly.

    Forward elimination is fraction-free (cross-multiplication only); the
    kernel vectors are then read off the echelon form.  ``one`` is the field's
    multiplicative identity (needed to build the free coordinates).  Returns a
    list of tuples; empty when the kernel is trivial.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots: list = []  # (row index, col index)
    rank_row = 0
    for col in range(ncols):
        piv = None
        for r in range(rank_row, len(work)):
            if not work[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        if piv != rank_row:
            work[rank_row], work[piv] = work[piv], work[rank_row]
        p = work[rank_row][col]
        for r in range(rank_row + 1, len(work)):
            c = work[r][col]
            if c.is_zero():
                continue
            for j in range(col, ncols):
                work[r][j] = p * work[r][j] - c * work[rank_row][j]
        pivots.append((rank_row, col))
        rank_row += 1
        if rank_row == len(work):
            break
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if not free_cols:
        return []
    zero = one - one
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        # back-substitute pivot coordinates (pivots in increasing col order)
        for r, c in reversed(pivots):
            acc = zero
            for j in range(c + 1, ncols):
                if not v[j].is_zero():
                    acc = acc + work[r][j] * v[j]
            v[c] = -acc * work[r][c].inverse()
        basis.append(tuple(v))
    return basis
