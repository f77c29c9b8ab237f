"""Independence oracles: second routes to what the library computes, and
the pinned stdout digests of the CLI.

The tests compare the library against these; the library never calls them.
The module name has no ``test_`` prefix, so pytest does not collect it.
"""

import functools
import itertools
from unittest import mock

from braidrep import gassner, hermitian, linalg, spectral
from braidrep.artin import FreeWord, artin_apply, derive_unreduced_matrix
from braidrep.braid import BraidWord, full_twist, pure_generator
from braidrep.cyclo import CycloNum, specialize_poly, units
from braidrep.gassner import evaluate_word
from braidrep.laurent import LaurentPoly, RationalFunction


# -- braid words ----------------------------------------------------------------

def random_pure_word(strands: int, rng, max_factors: int = 4) -> BraidWord:
    """A random pure word: a product of pure-braid generators and inverses.

    Pure by construction, so no permutation check is needed.  Lengths are kept
    small because symbolic matrix entries grow with word length.
    """
    w = BraidWord(strands)
    for _ in range(rng.randint(1, max_factors)):
        r = rng.randint(1, strands - 1)
        s = rng.randint(r + 1, strands)
        g = pure_generator(r, s, strands)
        if rng.random() < 0.5:
            g = g.inverse()
        w = w * g
    return w


def artin_product_invariance(w: BraidWord) -> bool:
    """Whether w fixes the product word x_1 x_2 ... x_{n+1} (it always should)."""
    m = w.strands
    u = FreeWord(m, tuple(range(1, m + 1)))
    return artin_apply(w, u) == u


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


def lift(matrix: tuple) -> tuple:
    """A LaurentPoly matrix as a RationalFunction one, for the tests that
    need field arithmetic (inverses, determinants, fraction-valued vectors)."""
    return tuple(tuple(RationalFunction.from_poly(x) for x in row)
                 for row in matrix)


# -- Gassner matrices -----------------------------------------------------------

def closed_form_pure_matrix(r: int, s: int, strands: int) -> tuple:
    """The classical unreduced matrix of A_{rs} (LaurentPoly entries).

    Columns: e_i fixed for i < r or i > s;
      e_r -> (1-X_r+X_rX_s) e_r + X_r(1-X_r) e_s;
      e_s -> (1-X_s) e_r + X_r e_s;
      e_i -> e_i + (1-X_i)((1-X_s) e_r - (1-X_r) e_s)  for r < i < s.
    """
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
    evaluated = evaluate_word(word, "unreduced").matrix
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
    one = LaurentPoly.one(m)

    def prefix(i):
        return LaurentPoly.monomial(m, tuple(1 if j < i else 0 for j in range(m)))

    v = tuple(RationalFunction.from_poly(prefix(i)) for i in range(m))
    w = tuple(RationalFunction.from_poly(one - prefix(i)) for i in range(1, m))
    return v, w


def basis_change_e_to_eps(strands: int) -> tuple:
    """Columns express (eps_1, ..., eps_n, v_{n+1}) in the e-basis.

    eps_i = e_i/(1-X_i) - e_{i+1}/(1-X_{i+1}) and v_{n+1} = e_{n+1}/(1-X_{n+1});
    conjugating an unreduced pure matrix by this puts the reduced matrix in
    the top-left n x n block.
    """
    m = strands
    one = RationalFunction.constant(m, 1)
    zero = RationalFunction.constant(m, 0)
    cols = []
    inv = [one / (one - RationalFunction.variable(m, i))
           for i in range(1, m + 1)]
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
    assert m.is_linear(), "basis-change comparison needs a pure word"
    p = basis_change_e_to_eps(w.strands)
    conj = linalg.mat_mul(linalg.mat_inverse(p), linalg.mat_mul(lift(m.matrix), p))
    n = w.strands - 1
    block = tuple(tuple(conj[a][b] for b in range(n)) for a in range(n))
    return block, conj


# -- the form ------------------------------------------------------------------

def form_matrix_by_division(strands: int) -> tuple:
    """h built entry by entry with RationalFunction division, each entry
    reduced by the gcd: the reference for ``hermitian.form_matrix``, which
    reads the reduced fractions from its closed-form table."""
    m = strands
    n = m - 1
    one = RationalFunction.constant(m, 1)
    zero = RationalFunction.constant(m, 0)
    X = [RationalFunction.variable(m, i) for i in range(1, m + 1)]
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        xi, xi1 = X[i], X[i + 1]
        rows[i][i] = (one - xi * xi1) / ((one - xi) * (one - xi1))
        if i + 1 < n:
            rows[i][i + 1] = -one / (one - X[i + 1])
            rows[i + 1][i] = -X[i + 1] / (one - X[i + 1])
    return tuple(tuple(r) for r in rows)


# -- the one-variable (Burau) picture -------------------------------------------

def collapse_poly(p: LaurentPoly) -> LaurentPoly:
    """Substitute every variable by the single variable q of a 1-var ring;
    the image exponent is the total degree."""
    terms: dict = {}
    for e, c in p.terms.items():
        t = (sum(e),)
        terms[t] = terms.get(t, 0) + c
    return LaurentPoly(1, terms)


def collapse(x: RationalFunction) -> RationalFunction:
    """``collapse_poly`` on the numerator and the denominator."""
    den = collapse_poly(x.den)
    if den.is_zero():
        raise ZeroDivisionError(
            "denominator vanishes under the all-variables-equal substitution")
    return RationalFunction(collapse_poly(x.num), den)


def burau_specialize(m) -> tuple:
    """Substitute X_i -> q for every i, landing in one-variable Laurent
    polynomials.

    All variables collapse, so the permutation part acts trivially afterwards
    and the result is an honest matrix (of the full braid group on the
    reduced basis).
    """
    return tuple(tuple(collapse_poly(x) for x in row) for row in m.matrix)


# -- specializations ------------------------------------------------------------

def specialize_fraction(x: RationalFunction, d: int, k: tuple):
    """x at Xi -> omega_d^{k_i}: numerator and denominator specialized
    separately, then divided; the denominator must not vanish there."""
    den = specialize_poly(x.den, d, k)
    assert not den.is_zero(), f"denominator {x.den} vanishes at d={d}, k={k}"
    return specialize_poly(x.num, d, k) * den.inverse()


def all_unit_subintervals(d: int, k: tuple, lo: int, hi: int) -> list:
    """Brute force: every consecutive [a, b] inside [lo, hi] with
    t_a ... t_b = 1."""
    out = []
    for a in range(lo, hi + 1):
        acc = 0
        for b in range(a, hi + 1):
            acc = (acc + k[b - 1]) % d
            if acc == 0:
                out.append((a, b))
    return out


def generator_matrices(rep) -> dict:
    """(r, s) -> A_rs for every pure generator of rep, in (r, s) order;
    specializes the ones not yet read."""
    return {(r, s): rep.matrix(r, s)
            for r in range(1, rep.strands)
            for s in range(r + 1, rep.strands + 1)}


def central_scalar_matches(d: int, k: tuple) -> bool:
    """rho(Delta^2) specialized equals (t_1...t_{n+1}) * identity."""
    rep = spectral.specialize_rep(d, k)
    delta2 = full_twist(1, rep.strands, rep.strands) ** 2
    return scalar_matrix_check(rep.word_matrix(delta2), rep.central_scalar())


def burau_matches_gassner_at_ones(strands: int, d: int) -> bool:
    """With every weight 1, the specialized matrices equal the one-variable
    matrices evaluated at omega_d, generator by generator."""
    rep = spectral.specialize_rep(d, (1,) * strands)
    for (r, s), mat in generator_matrices(rep).items():
        bur = burau_specialize(
            evaluate_word(pure_generator(r, s, strands), "reduced"))
        for a in range(rep.dim):
            for b in range(rep.dim):
                if specialize_poly(bur[a][b], d, (1,)) != mat[a][b]:
                    return False
    return True


# -- the flag of the degenerate case ---------------------------------------------

def w_basis(w: tuple) -> tuple:
    """The matrix c with columns (w, eps_2, ..., eps_n)."""
    n = len(w)
    one, zero = CycloNum.one(w[0].d), CycloNum.zero(w[0].d)
    return tuple(tuple(w[a] if j == 0 else (one if a == j else zero)
                       for j in range(n)) for a in range(n))


def in_w_basis(m: tuple, w: tuple) -> tuple:
    """c^-1 m c with the dense basis matrix c = w_basis(w) and its
    eliminated inverse: the dense reference for the flag predicate."""
    c = w_basis(w)
    return linalg.mat_mul(linalg.mat_inverse(c), linalg.mat_mul(m, c))


def in_flag_group(m: tuple, w: tuple, unipotent: bool) -> bool:
    """Whether c^-1 m c is block upper triangular for the index blocks {0},
    {1..n-2}, {n-1} (m in P(F)); with ``unipotent``, whether its diagonal
    blocks are also identities (m in U(F))."""
    n = len(m)
    one, zero = CycloNum.one(w[0].d), CycloNum.zero(w[0].d)
    b = in_w_basis(m, w)
    cells = [(i, 0) for i in range(1, n)] + [(n - 1, j) for j in range(1, n - 1)]
    if unipotent:
        cells += [(0, 0), (n - 1, n - 1)] + [(i, j) for i in range(1, n - 1)
                                             for j in range(1, n - 1)]
    return all(b[i][j] == (one if i == j else zero) for i, j in cells)


def commutator_in_w_basis(d: int, k: tuple) -> tuple:
    """The commutator written in the basis (w, eps_2, ..., eps_{p-1})."""
    u = spectral.unipotent_commutator(d, k)
    return in_w_basis(u, spectral.specialize_rep(d, k).invariant_coords())


def c07_corpus(max_d: int = 6):
    """The C07 corpus: every degenerate block (d, k) with d <= max_d, p =
    len(k) in 3..5 and d | sum(k), with its extensions k + (e,), one per
    unit e mod d.  Yields (d, k, extensions); at max_d = 6 that is 301
    blocks and 1137 extensions, at max_d = 4 it is 53 extensions."""
    for d in range(2, max_d + 1):
        for p in (3, 4, 5):
            for k in itertools.product(units(d), repeat=p):
                if sum(k) % d == 0:
                    yield d, k, tuple(k + (e,) for e in units(d))


@functools.cache
def c07_pass() -> tuple:
    """One run over the C07 corpus with CycloNum.inverse made to raise:
    unipotent_commutator on every block (it raises unless u != 1 and
    (u - 1)^2 = 0) and flag_unipotency_check on every extension.  Returns
    (blocks, extensions, the extensions whose flag check failed).  Cached,
    so the corpus runs once however many tests read it."""
    def refuse(self):
        raise AssertionError("CycloNum.inverse called")

    blocks = extensions = 0
    failed = []
    with mock.patch.object(CycloNum, "inverse", refuse):
        for d, k, ks in c07_corpus():
            spectral.unipotent_commutator(d, k)
            blocks += 1
            for kk in ks:
                if not spectral.flag_unipotency_check(d, kk, seed=0):
                    failed.append((d, kk))
                extensions += 1
    return blocks, extensions, tuple(failed)


# -- caches ---------------------------------------------------------------------

def start_cold():
    """Empty every symbolic cache, so that the next command computes from
    scratch and no cached value hides a call."""
    hermitian._cleared_form.cache_clear()
    hermitian.form_determinant.cache_clear()
    gassner._generator_cache.clear()
    spectral._symbolic_pure.clear()


# -- pinned output --------------------------------------------------------------

# Every command whose stdout is pinned, with the sha256 of that stdout.  A
# digest may only change together with a documented change of the output.
DETERMINISM_TABLE = [
    ("form --n 3",
     "03fde1b50ff4c64bb856a690775057eb855fb5540a8905fff0218cb0ad407745"),
    ("form --n 4",
     "c191cf1a31c0ecb6f618ea0b2e54918446531d99f6a2215ed45791151d7212fb"),
    ("matrix --n 3 --word 'A 1 4' --basis unreduced",
     "41d2e7d26c1710153d1c62cb708da61aa8981ebb09c33bfb8cfdb8f93a2693cc"),
    ("matrix --n 3 --word 'T 1 4' --basis unreduced",
     "dff051dcc8aae579dfaf9bcb547003d2973501b92f278f945ed8f2fd98454e0e"),
    ("verify --n 3 --word 'T 1 4 T 1 4'",
     "e9f00756f31900962372f401992dc9295216de029600ccc5edda8685f6ed53d6"),
    ("specialize --d 5 --k 1,2,3",
     "38ab324ab4091031ca740370bcf90d3b3dde4e4bdec509d88a697e0055ea9883"),
    ("specialize --d 12 --k 1,5,7,11",
     "6cb90e6b6f7336c1d49df226ad9f17e619a2eccd933d6a4b871a7a3d5fd67a5a"),
    ("spectral --d 2 --k 1,1,1,1,1,1",
     "faeca57d1b6fc5b5a714b3f221bf9c0ac04099811cfaf6340c2f0cb057e4c7b8"),
    ("spectral --d 3 --k 1,1,1",
     "8b32d908ffa0c6aac7bf78fd4e9c85e52c21aaf3eec2fd11e29e8f66c29ca76f"),
    ("spectral --d 3 --k 1,1,1,1,1,1,1",
     "8bb178dc33673ffc606c765c06a1b8b561b7158843bf21258146e63fb33760e2"),
    ("spectral --d 128 --k 1,3,5,7,9,11,13,15,17",
     "ebcdf86317ed4c47fe6127dbfcccfbb8672b3a5fcbeabb5339353ebc608b1528"),
    ("decompose --d 4 --k 1,1,3",
     "68f4dac9ec36dd75c9b136633780f70efd1d52a43f38deb0501ab0a255e54591"),
    ("decompose --d 12 --k 1,5,7,11",
     "efaf06c1baca86d4081bc0dea4ffad8a39c92fd1dd8ebbf031f085420d8b7f40"),
    ("decompose --d 18 --k 1,1,1,1",
     "86035a4d46d00581a2f8117b804a6c2ce483346da020155fc02771dbcbf4f661"),
    ("dm --d 18 --k 1,1,1,1 --f 7",
     "2ea35fe2a5b8adb7df2d11b1e357b837e46207b136d3ff80b4fb1d71e0ed28c4"),
    ("classify --d 5 --k 1,2,3,4,1",
     "be93fd74060440603646dfe9b8ed4ad30f449b4512fcf75220be8dd4f54968c8"),
    ("classify --d 18 --k 1,1,1,1",
     "a20ce944dcc5fee8770317f6e4c2148144514aa3ea9a685e27be3f033518e96b"),
    ("signature --d 18 --k 1,1,1,1",
     "7eee0351543e65de3c102cb32a2cead181319164c8ab125c080f063fb8079390"),
    ("sweep --d 3 --n 2",
     "1f05f3727f1d7ac0c744aa634509ecb9950d1a8bb9eb5a465be728b0b2984817"),
    ("sweep --d 4 --n 3",
     "bf924fdfe3a22c4e7e6338a4310b680d5187d489a688b19bba66f6af38378899"),
]
