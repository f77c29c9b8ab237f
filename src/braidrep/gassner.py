"""The reduced and unreduced crossed-homomorphism matrices of the braid group.

A braid word maps to a pair (permutation of the variables, matrix over the
Laurent ring Z[X_1^+-1, ..., X_m^+-1]), composed by the twisted rule

    rho(g h) = (sigma_g sigma_h,  M_g * sigma_g(M_h)),

where sigma_g acts entrywise on the variables.  On the pure braid group the
permutation is trivial and the map is an honest linear representation.  The
matrix entries of every word are Laurent polynomials: each generator's
determinant -X_i is a unit, so its inverse has Laurent entries too.  Words
are evaluated in LaurentPoly arithmetic and returned as LaurentPoly
matrices.

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

from .braid import BraidWord, Permutation
from .errors import InvariantError, ValidationError
from .laurent import LaurentPoly
from . import linalg


class TwistedMap:
    """A (permutation, matrix) value of the crossed homomorphism."""

    __slots__ = ("nvars", "perm", "matrix")

    def __init__(self, nvars: int, perm: Permutation, matrix: tuple):
        self.nvars = nvars
        self.perm = perm
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return len(self.matrix)

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


_generator_cache: dict = {}


def _generator(strands: int, letter: int, basis: str) -> tuple:
    """(permutation, nontrivial rows) of one letter, built once and cached.

    s_i differs from the identity in one row (reduced) or two rows
    (unreduced), and so does its inverse: the determinant -X_i is a unit, so
    the inverse has Laurent entries and the same row support.  A row is
    (a, ((b, entry), ...)) with the zero entries left out and a = i - 1.
    The rows of s_i are those of the module docstring; those of s_i^-1 are
    sigma(M^-1), sigma swapping X_i and X_{i+1}:
      reduced    row a: 1 at a-1, -X_{i+1}^-1 at a, X_{i+1}^-1 at a+1
                 (clipped to 0..n-1);
      unreduced  row a: X_{i+1}^-1 at a+1;
                 row a+1: 1 at a, X_{i+1}^-1 (X_i - 1) at a+1.
    """
    key = (strands, letter, basis)
    g = _generator_cache.get(key)
    if g is None:
        i = abs(letter)
        a = i - 1
        one = LaurentPoly.one(strands)
        xi = LaurentPoly.variable(strands, i)
        if letter > 0:
            x = LaurentPoly.variable(strands, i + 1)
            reduced = ((a - 1, xi), (a, -xi), (a + 1, one))
            unreduced = ((a, ((a, one - x), (a + 1, one))),
                         (a + 1, ((a, xi),)))
        else:
            x = LaurentPoly.variable(strands, i + 1, -1)
            reduced = ((a - 1, one), (a, -x), (a + 1, x))
            unreduced = ((a, ((a + 1, x),)),
                         (a + 1, ((a, one), (a + 1, -x + x * xi))))
        if basis == "reduced":
            n = strands - 1
            rows = ((a, tuple((b, y) for b, y in reduced if 0 <= b < n)),)
        else:
            rows = unreduced
        g = _generator_cache[key] = (Permutation.transposition(strands, i),
                                     rows)
    return g


def evaluate_word(w: BraidWord, basis: str = "reduced") -> TwistedMap:
    """The product of the letter images in reading order, one row at a time.

    Letters compose left to right through rho(gh) = rho(g) . rho(h); since the
    word acts rightmost-letter-first, this is exactly the product of the
    letter images in reading order.  Each step is
    acc <- (sigma_acc sigma_g, M_acc * sigma_acc(M_g)), and M_g is the
    identity outside its nontrivial rows R.  So column b of the product is
    column b of M_acc (only if b is not in R) plus, for each r in R, column r
    of M_acc times sigma_acc(M_g[r][b]): only the columns that the rows of R
    reach change, and sigma_acc is applied to those few entries alone.  The
    result is the LaurentPoly matrix itself: no entry ever has a denominator.
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
        tuple(cols[b][a] for b in range(dim)) for a in range(dim)))


def assert_polynomial_entries(m: TwistedMap, context: str) -> tuple:
    """Check every entry is a LaurentPoly and return the matrix.

    ``evaluate_word`` only builds Laurent entries, so the library no longer
    calls this; it is kept for the benchmark's symbolic workload, which
    calls it on every unreduced word matrix.
    """
    if not all(isinstance(x, LaurentPoly) for row in m.matrix for x in row):
        raise InvariantError(f"non-Laurent entry in {context}",
                             reproducer={"op": context})
    return m.matrix
