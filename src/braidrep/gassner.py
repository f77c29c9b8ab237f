"""The reduced and unreduced crossed-homomorphism matrices of the braid group.

A braid word maps to a pair (permutation of the variables, matrix over the
fraction field), composed by the twisted rule

    rho(g h) = (sigma_g sigma_h,  M_g * sigma_g(M_h)),

where sigma_g acts entrywise on the variables.  On the pure braid group the
permutation is trivial and the map is an honest linear representation.  The
matrix entries of every word lie in the Laurent ring (denominator 1): each
generator's determinant -X_i is a unit, so its inverse has Laurent entries
too.  Words are evaluated in LaurentPoly arithmetic, and the Laurent entries
are asserted where it matters.

Bases:
  unreduced  (n+1)x(n+1) on e_1 .. e_{n+1}:
      s_i: e_i -> (1-X_{i+1}) e_i + X_i e_{i+1},   e_{i+1} -> e_i
  reduced    n x n on eps_1 .. eps_n:
      s_i: eps_{i-1} -> eps_{i-1} + X_i eps_i,
           eps_i     -> -X_i eps_i,
           eps_{i+1} -> eps_i + eps_{i+1}

Matrix columns hold images: entry [j][i] is the coefficient of basis vector j
in the image of basis vector i.
"""

from __future__ import annotations

from .artin import derive_unreduced_matrix
from .braid import BraidWord, Permutation, full_twist, pure_generator
from .errors import InvariantError, ValidationError
from .laurent import LaurentPoly, RationalFunction
from . import linalg


class TwistedMap:
    """A (permutation, matrix) value of the crossed homomorphism."""

    __slots__ = ("nvars", "perm", "matrix")

    def __init__(self, nvars: int, perm: Permutation, matrix: tuple):
        self.nvars = nvars
        self.perm = perm
        self.matrix = matrix

    @classmethod
    def identity(cls, nvars: int, dim: int) -> TwistedMap:
        one = RationalFunction.constant(nvars, 1)
        zero = RationalFunction.constant(nvars, 0)
        return cls(nvars, Permutation.identity(nvars),
                   linalg.identity(dim, one, zero))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def inverse(self) -> TwistedMap:
        inv_perm = self.perm.inverse()
        inv_matrix = apply_perm_to_matrix(inv_perm, linalg.mat_inverse(self.matrix))
        return TwistedMap(self.nvars, inv_perm, inv_matrix)

    def is_linear(self) -> bool:
        return self.perm.is_identity()

    def __eq__(self, other):
        return (isinstance(other, TwistedMap)
                and self.nvars == other.nvars
                and self.perm == other.perm
                and linalg.mat_eq(self.matrix, other.matrix))

    def __repr__(self):
        return (f"TwistedMap(nvars={self.nvars}, perm={self.perm.one_line()}, "
                f"dim={self.dim})")


def apply_perm_to_matrix(perm: Permutation, matrix: tuple) -> tuple:
    if perm.is_identity():
        return matrix
    images = perm.images
    return tuple(tuple(x.permute_vars(images) for x in row) for row in matrix)


_generator_cache: dict = {}


def _generator(strands: int, letter: int, basis: str) -> tuple:
    """(permutation, nontrivial rows) of one letter, built once and cached.

    s_i differs from the identity in one row (reduced) or two rows
    (unreduced), and so does its inverse: the determinant -X_i is a unit, so
    the inverse has Laurent entries and the same row support.  A row is
    (a, ((b, entry), ...)) with the zero entries left out.
    """
    key = (strands, letter, basis)
    g = _generator_cache.get(key)
    if g is None:
        i = abs(letter)
        tm = (_reduced_generator_matrix(strands, i) if basis == "reduced"
              else _unreduced_generator_matrix(strands, i))
        if letter < 0:
            tm = tm.inverse()
        mat = assert_polynomial_entries(tm, f"generator {letter} ({basis})")
        one, zero = LaurentPoly.one(strands), LaurentPoly.zero(strands)
        rows = tuple(
            (a, tuple((b, x) for b, x in enumerate(row) if not x.is_zero()))
            for a, row in enumerate(mat)
            if row != tuple(one if b == a else zero for b in range(len(row))))
        g = _generator_cache[key] = (tm.perm, rows)
    return g


def _reduced_generator_matrix(strands: int, i: int) -> TwistedMap:
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


def _unreduced_generator_matrix(strands: int, i: int) -> TwistedMap:
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


def reduced_generator(i: int, strands: int) -> TwistedMap:
    """The crossed-homomorphism value of s_i on the eps-basis (n x n)."""
    if not 1 <= i <= strands - 1:
        raise ValidationError(f"generator index {i} out of range 1..{strands - 1}")
    return evaluate_word(BraidWord(strands, (i,)), "reduced")


def evaluate_word(w: BraidWord, basis: str = "reduced") -> TwistedMap:
    """The product of the letter images in reading order, one row at a time.

    Letters compose left to right through rho(gh) = rho(g) . rho(h); since the
    word acts rightmost-letter-first, this is exactly the product of the
    letter images in reading order.  Each step is
    acc <- (sigma_acc sigma_g, M_acc * sigma_acc(M_g)), and M_g is the
    identity outside its nontrivial rows R.  So column b of the product is
    column b of M_acc (only if b is not in R) plus, for each r in R, column r
    of M_acc times sigma_acc(M_g[r][b]): only the columns that the rows of R
    reach change, and sigma_acc is applied to those few entries alone.  All
    entries stay Laurent polynomials; they become RationalFunction once, at
    the end.
    """
    if basis not in ("reduced", "unreduced"):
        raise ValidationError(f"unknown basis '{basis}'")
    m = w.strands
    dim = m - 1 if basis == "reduced" else m
    one, zero = LaurentPoly.one(m), LaurentPoly.zero(m)
    cols = [[one if a == b else zero for a in range(dim)] for b in range(dim)]
    perm = Permutation.identity(m)
    for letter in w.letters:
        gperm, rows = _generator(m, letter, basis)
        images = None if perm.is_identity() else perm.images
        support = {r for r, _ in rows}
        changed = {}
        for r, row in rows:
            src = cols[r]
            for b, x in row:
                if images is not None:
                    x = x.permute_vars(images)
                term = src if x.is_one() else [y * x if y.terms else y for y in src]
                col = changed.get(b)
                if col is None and b not in support:
                    col = cols[b]
                changed[b] = term if col is None else [u + t for u, t in zip(col, term)]
        for b, col in changed.items():
            cols[b] = col
        perm = perm * gperm
    return TwistedMap(m, perm, tuple(
        tuple(RationalFunction.from_poly(cols[b][a]) for b in range(dim))
        for a in range(dim)))


def assert_polynomial_entries(m: TwistedMap, context: str) -> tuple:
    """Check every entry has denominator 1 and return the LaurentPoly matrix.

    Pure words must land in the Laurent ring on either basis; a fraction here
    means the composition conventions are broken.
    """
    out = []
    for row in m.matrix:
        orow = []
        for x in row:
            if not x.is_polynomial():
                raise InvariantError(
                    f"non-polynomial entry {x} in {context}",
                    reproducer={"op": context})
            orow.append(x.num)
        out.append(tuple(orow))
    return tuple(out)


def closed_form_pure_matrix(r: int, s: int, strands: int) -> tuple:
    """The classical unreduced matrix of A_{rs} (LaurentPoly entries).

    Columns: e_i fixed for i < r or i > s;
      e_r -> (1-X_r+X_rX_s) e_r + X_r(1-X_r) e_s;
      e_s -> (1-X_s) e_r + X_r e_s;
      e_i -> e_i + (1-X_i)((1-X_s) e_r - (1-X_r) e_s)  for r < i < s.
    """
    if not 1 <= r < s <= strands:
        raise ValidationError(f"need 1 <= r < s <= {strands}")
    m = strands
    one = LaurentPoly.one(m)
    zero = LaurentPoly.zero(m)
    Xr = LaurentPoly.variable(m, r)
    Xs = LaurentPoly.variable(m, s)
    rows = [[one if a == b else zero for b in range(m)] for a in range(m)]
    ri, si = r - 1, s - 1
    rows[ri][ri] = one - Xr + Xr * Xs
    rows[si][ri] = Xr * (one - Xr)
    rows[ri][si] = one - Xs
    rows[si][si] = Xr
    for i in range(r + 1, s):
        Xi = LaurentPoly.variable(m, i)
        rows[ri][i - 1] = (one - Xi) * (one - Xs)
        rows[si][i - 1] = -(one - Xi) * (one - Xr)
    return tuple(tuple(row) for row in rows)


def oracle_equivalence(r: int, s: int, strands: int) -> bool:
    """Three routes to the unreduced A_{rs} matrix must coincide exactly:
    the braid-word evaluation, the Artin/semidirect derivation, and the
    classical closed form."""
    word = pure_generator(r, s, strands)
    evaluated = assert_polynomial_entries(
        evaluate_word(word, "unreduced"), f"A_{r}{s} unreduced")
    derived = derive_unreduced_matrix(word)
    closed = closed_form_pure_matrix(r, s, strands)
    return evaluated == derived and derived == closed


def invariant_vectors(strands: int):
    """(unreduced v, formal reduced w) as coordinate tuples.

    v = sum X_1...X_{i-1} e_i is fixed by every pure word.  The reduced tuple
    has coordinates (1 - pi_i) with pi_i = X_1...X_i; it is an honest
    invariant only after a specialization that kills 1 - pi_{n+1}.
    """
    m = strands
    v = []
    w = []
    for i in range(m):
        prefix = LaurentPoly.monomial(m, tuple(1 if j < i else 0 for j in range(m)))
        v.append(RationalFunction.from_poly(prefix))
    one = LaurentPoly.one(m)
    for i in range(1, m):
        pi = LaurentPoly.monomial(m, tuple(1 if j < i else 0 for j in range(m)))
        w.append(RationalFunction.from_poly(one - pi))
    return tuple(v), tuple(w)


def basis_change_e_to_eps(strands: int) -> tuple:
    """Columns express (eps_1, ..., eps_n, v_{n+1}) in the e-basis.

    eps_i = e_i/(1-X_i) - e_{i+1}/(1-X_{i+1}) and v_{n+1} = e_{n+1}/(1-X_{n+1});
    conjugating an unreduced pure matrix by this puts the reduced matrix in
    the top-left n x n block.
    """
    m = strands
    zero = RationalFunction.constant(m, 0)
    cols = []
    inv = [1 / (1 - RationalFunction.variable(m, i)) for i in range(1, m + 1)]
    for i in range(1, m):
        col = [zero] * m
        col[i - 1] = inv[i - 1]
        col[i] = -inv[i]
        cols.append(col)
    last = [zero] * m
    last[m - 1] = inv[m - 1]
    cols.append(last)
    return tuple(tuple(cols[j][a] for j in range(m)) for a in range(m))


def reduced_block_of_unreduced(w: BraidWord) -> tuple:
    """Conjugate the unreduced matrix of a pure word into the eps basis and
    return (top-left n x n block, full conjugated matrix)."""
    m = evaluate_word(w, "unreduced")
    if not m.is_linear():
        raise ValidationError("basis-change comparison needs a pure word")
    p = basis_change_e_to_eps(w.strands)
    conj = linalg.mat_mul(linalg.mat_inverse(p), linalg.mat_mul(m.matrix, p))
    n = w.strands - 1
    block = tuple(tuple(conj[a][b] for b in range(n)) for a in range(n))
    return block, conj


def burau_specialize(m: TwistedMap) -> tuple:
    """Substitute X_i -> q for every i, landing in one-variable fractions.

    All variables collapse, so the permutation part acts trivially afterwards
    and the result is an honest matrix (of the full braid group on the
    reduced basis).
    """
    return tuple(tuple(x.collapse_to_single_var() for x in row)
                 for row in m.matrix)


def delta_squared(strands: int) -> BraidWord:
    """The central full twist of the whole braid group."""
    return full_twist(1, strands, strands) ** 2


def scalar_matrix_check(matrix: tuple, scalar) -> bool:
    """Whether a square matrix equals scalar * identity exactly."""
    for a, row in enumerate(matrix):
        for b, x in enumerate(row):
            if a == b:
                if x != scalar:
                    return False
            elif not x.is_zero():
                return False
    return True
