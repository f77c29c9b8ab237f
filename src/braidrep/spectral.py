"""Root-of-unity specializations and the degenerate-case structure.

The symbolic reduced matrix of a pure word is cached by the word (it does
not depend on the weights), and ``SpecializedRep.word_matrix`` specializes
it once per representation, on first use, by the residue fold of
``cyclo.specialize_matrix``, and only for the words the caller reads (the
flag check reads A_12, the sub-twist and the generators on strands 2..p;
the span closure reads the reflections s_i^2, and so does the fixed space
unless the spec is degenerate).  The heavy predicate here is the
span-closure irreducibility test (Burnside: the reflections s_i^2 generate
M_n exactly when the representation is irreducible).  s_i^2 - 1 is nonzero
in one row only, so the closure works in row blocks: n independent
``linalg.Echelon`` forms of length-n rows, one per matrix row.  A matrix it
explores differs from its parent in one row, and only the at most 3
reflections that read that row can offer a new candidate, so only those are
tried.  Each entry of a candidate r_i^T b is one ``cyclo.dot`` of at most 3
terms, reduced modulo Phi_d once.  An inserted row costs one ``CycloNum``
inverse (the Galois norm, integer arithmetic only).  The identity is never
reduced; it adds one dimension unless every block holds its own unit
vector.  The fixed space reads the rows of A - 1 lazily, the reflections
first, and stops at full rank, so off the degenerate case it specializes no
generator beyond the reflections.  In the degenerate case the unipotent
commutator u = [A, Delta'^2], A = A_12 = s_1^2, is built once per call as
the rank-one update u = A + v y^T of A (A - 1 and A^-1 - 1 live in row 0),
and its flag unipotency is proved from the pure generators rather than
sampled over conjugates.  No elimination and no matrix product runs on that
path: inverse matrices (A_rs^-1, the inverse sub-twist) are the matrices of
the inverse words, whose entries are Laurent.  The basis (w, eps_2, ...,
eps_n) of the flag differs from the standard one in one vector, so
membership in the flag stabilizer and its unipotent radical is read from
the entries of the matrix and of m w, cross-multiplied by w_1 = 1 - t_1: no
change of basis and no ``CycloNum`` inverse.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

from . import linalg
from .braid import BraidWord, full_twist, pure_generator
from .cyclo import CycloNum, check_spec_weights, dot, specialize_matrix
from .errors import InvariantError, ValidationError
from .gassner import evaluate_word


# -- the symbolic cache (a matrix depends on the word only) -------------------

_symbolic_pure: dict = {}


def _symbolic_matrix(word: BraidWord) -> tuple:
    """The reduced LaurentPoly matrix of a pure word, evaluated once."""
    cached = _symbolic_pure.get(word)
    if cached is None:
        tm = evaluate_word(word, "reduced")
        if not tm.is_linear():
            raise ValidationError(
                f"'{word}' permutes the strands; only pure words have a "
                "specialized matrix")
        cached = _symbolic_pure[word] = tm.matrix
    return cached


class SpecializedRep:
    """Reduced pure-word matrices at X_i -> omega_d^{k_i}.  Every pure word,
    the generators A_rs included, is specialized on first use by
    ``word_matrix`` and kept in its one word-keyed cache."""

    __slots__ = ("strands", "d", "k", "_words")

    def __init__(self, d: int, k: tuple):
        self.strands = len(k)
        self.d = d
        self.k = tuple(k)
        self._words = {}

    @property
    def dim(self) -> int:
        return self.strands - 1

    def word_matrix(self, word: BraidWord) -> tuple:
        """The specialized matrix of a pure word, from the symbolic cache;
        entries are Laurent, so inverse words need no elimination."""
        mat = self._words.get(word)
        if mat is None:
            mat = specialize_matrix(_symbolic_matrix(word), self.d, self.k)
            self._words[word] = mat
        return mat

    def matrix(self, r: int, s: int) -> tuple:
        return self.word_matrix(pure_generator(r, s, self.strands))

    def matrix_inverse(self, r: int, s: int) -> tuple:
        return self.word_matrix(pure_generator(r, s, self.strands).inverse())

    def reflection_rows(self) -> list:
        """Per reflection i: the one nonzero row of s_i^2 - 1, as
        (idx, [(col, coeff)]) with idx = i - 1 and zero coefficients left
        out.  It is read from A_{i,i+1} = s_i^2, whose other rows must be
        identity rows."""
        rows = []
        for i in range(1, self.strands):
            row = _row_support(
                self.matrix(i, i + 1), i - 1,
                {"op": "reflection_rows", "d": self.d, "k": list(self.k),
                 "i": i})
            rows.append((i - 1, [(col, c) for col, c in enumerate(row)
                                 if not c.is_zero()]))
        return rows

    def central_scalar(self) -> CycloNum:
        """t_1 ... t_{n+1}."""
        return CycloNum.omega_power(self.d, sum(self.k))

    def is_degenerate(self) -> bool:
        return sum(self.k) % self.d == 0

    def invariant_coords(self) -> tuple:
        """(1 - t_1...t_i) for i = 1..n: the candidate fixed vector."""
        one = CycloNum.one(self.d)
        return tuple(one - CycloNum.omega_power(self.d, m)
                     for m in accumulate(self.k[:self.dim]))


def specialize_rep(d: int, k: tuple) -> SpecializedRep:
    k = tuple(k)
    check_spec_weights(d, k)
    return SpecializedRep(d, k)


# -- pigeonhole blocks --------------------------------------------------------

def pigeonhole_blocks(d: int, k: tuple):
    """Two disjoint consecutive index intervals with unit t-products.

    Scans prefix sums of the weights mod d inside the windows {1..d} and
    {d+1..2d}; a repeated residue yields an interval whose t-product is 1.
    Requires n >= 2d so both windows exist.  Returns ((a, b), (c, e)) as
    inclusive 1-based intervals.
    """
    k = tuple(k)
    check_spec_weights(d, k)
    n = len(k) - 1
    if n < 2 * d:
        raise ValidationError(
            f"pigeonhole needs n >= 2d (got n={n}, d={d}); below that an "
            "interval with unit product need not exist")
    first = _scan_window(d, k, 0)
    second = _scan_window(d, k, d)
    return first, second


def _scan_window(d: int, k: tuple, offset: int):
    seen = {0: offset}
    acc = 0
    for j in range(offset + 1, offset + d + 1):
        acc = (acc + k[j - 1]) % d
        if acc in seen:
            return (seen[acc] + 1, j)
        seen[acc] = j
    raise InvariantError(
        f"pigeonhole failed on window starting at {offset + 1}; "
        "impossible for d+1 prefix residues",
        reproducer={"op": "pigeonhole_blocks", "d": d, "k": list(k)})


# -- unipotent elements -------------------------------------------------------

def _assert_subtwist_scalar(m2: tuple, rep: SpecializedRep, p: int):
    """Delta'^2 must act on eps_2..eps_{p-1} by the scalar t_2...t_p."""
    c = CycloNum.omega_power(rep.d, sum(rep.k[1:p]))
    n = len(m2)
    inside = range(1, min(p - 1, n))
    for a in inside:
        for b in inside:
            x = m2[a][b]
            ok = (x == c) if a == b else x.is_zero()
            if not ok:
                raise InvariantError(
                    "full twist on strands 2..p is not scalar "
                    f"{c} on the inner block (entry [{a}][{b}] = {x})",
                    reproducer={"op": "subtwist_scalar", "d": rep.d,
                                "k": list(rep.k), "p": p})
    return c


def _subtwist2(rep: SpecializedRep, p: int) -> tuple:
    """(m2, m2^-1): Delta'^2 and its inverse on rep, Delta' the half twist
    on strands 2..p."""
    delta2 = full_twist(2, p, rep.strands) ** 2
    return rep.word_matrix(delta2), rep.word_matrix(delta2.inverse())


def _row_support(m: tuple, idx: int, reproducer: dict) -> tuple:
    """r with m = 1 + e_idx r^T: the one row of m - 1 that may be nonzero.
    Raises InvariantError, carrying the caller's reproducer, unless every
    other row of m is an identity row."""
    for a, row in enumerate(m):
        for b, x in enumerate(row):
            if a != idx and not (x.is_one() if a == b else x.is_zero()):
                raise InvariantError(
                    f"matrix differs from the identity outside row {idx} "
                    f"(entry [{a}][{b}] = {x})",
                    reproducer=reproducer)
    row = m[idx]
    one = CycloNum.one(row[idx].d)
    return row[:idx] + (row[idx] - one,) + row[idx + 1:]


def _commutator(rep: SpecializedRep, p: int) -> tuple:
    """u = [s_1^2, Delta'^2] = A m2 A^-1 m2^-1 on rep, with A = A_12 = s_1^2,
    m2 = Delta'^2 and Delta' the half twist on strands 2..p (p <=
    rep.strands).

    s_1^2 - 1 lives in row 0, so A - 1 = e_0 r^T and A^-1 - 1 = e_0 s^T.  With
    c = m2 e_0, v = A c = c + (r^T c) e_0 and y^T = s^T m2^-1, u = A (1 + c
    y^T) = A + v y^T: about n^2 + 3n products and no matrix product.  A^-1
    and m2^-1 are specialized from the symbolic matrices of the inverse
    words, so no elimination runs.
    """
    m2, m2inv = _subtwist2(rep, p)
    _assert_subtwist_scalar(m2, rep, p)
    a = rep.matrix(1, 2)
    reproducer = {"op": "commutator", "d": rep.d, "k": list(rep.k), "p": p}
    r = _row_support(a, 0, reproducer)
    s = _row_support(rep.matrix_inverse(1, 2), 0, reproducer)
    zero = CycloNum.zero(rep.d)
    c = [row[0] for row in m2]
    rc = zero
    for rb, cb in zip(r, c):
        if not rb.is_zero():
            rc = rc + rb * cb
    v = [c[0] + rc] + c[1:]
    y = [zero] * len(a)
    for sb, row in zip(s, m2inv):
        if not sb.is_zero():
            y = [yj + sb * x for yj, x in zip(y, row)]
    return tuple(row if vi.is_zero() else
                 tuple(x + vi * yj for x, yj in zip(row, y))
                 for row, vi in zip(a, v))


def _check_degenerate_block(d: int, k: tuple, p: int):
    """Validate a degenerate block: p >= 3 strands whose weights k_1..k_p
    sum to 0 mod d."""
    if p < 3:
        raise ValidationError(f"need p >= 3 strands for the commutator, got p={p}")
    check_spec_weights(d, k)
    if sum(k[:p]) % d != 0:
        raise ValidationError(
            f"need d | sum of the first {p} weights (degenerate block), "
            f"got {sum(k[:p])} mod {d}")


def unipotent_commutator(d: int, k: tuple) -> tuple:
    """u = [s_1^2, Delta'^2] on the p-strand specialization, p = len(k).

    Preconditions: p >= 3, weights coprime to d, and d | sum(k) so the
    representation is degenerate.  The result is checked to be a nontrivial
    unipotent: u != 1 and (u - 1)^2 = 0 exactly; failures of those checks are
    bugs, not bad input.  The dense checks do not use the rank-one form of u,
    so they check its construction.
    """
    k = tuple(k)
    p = len(k)
    _check_degenerate_block(d, k, p)
    u = _commutator(specialize_rep(d, k), p)
    ident = linalg.identity(p - 1, CycloNum.one(d), CycloNum.zero(d))
    if linalg.mat_eq(u, ident):
        raise InvariantError(
            "commutator is the identity; no unipotent produced",
            reproducer={"op": "unipotent_commutator", "d": d, "k": list(k)})
    diff = linalg.mat_sub(u, ident)
    if not all(x.is_zero() for row in linalg.mat_mul(diff, diff) for x in row):
        raise InvariantError(
            "(u - 1)^2 != 0: commutator is not 2-step unipotent",
            reproducer={"op": "unipotent_commutator", "d": d, "k": list(k)})
    return u


def _in_flag_group(m: tuple, w: tuple, unipotent: bool) -> bool:
    """Whether m lies in the stabilizer P(F) of the flag  span(w) <
    span(w, eps_2..eps_{n-1}) < everything; with ``unipotent``, whether it
    lies in its unipotent radical U(F).

    These are block conditions on c^-1 m c, c = (w, eps_2, ..., eps_n), for
    the index blocks {1}, {2..n-1}, {n} (1-based): upper triangular for
    P(F), with identity diagonal blocks for U(F).  c differs from the
    identity in column 1 only, so column 1 of c^-1 m c is c^-1 (m w), and
    for i, j >= 2 entry [i][j] of w_1 c^-1 m c is w_1 m[i][j] - m[1][j] w_i,
    where w_1 = 1 - t_1 != 0.  So m is in P(F) iff w_1 (m w)_i = (m w)_1 w_i
    for i >= 2 and w_1 m[n][j] = m[1][j] w_n for 2 <= j <= n-1, and in U(F)
    iff also m w = w (which implies the first condition) and w_1 m[i][j] -
    m[1][j] w_i = delta_ij w_1 on the middle block and at (n, n).  No basis
    is changed and no inverse taken.
    """
    n = len(m)
    w1 = w[0]
    mw = linalg.mat_vec(m, w)
    if unipotent:
        if mw != w:
            return False
    elif any(w1 * mw[i] != mw[0] * w[i] for i in range(1, n)):
        return False
    last = n - 1
    cells = [(last, j) for j in range(1, last)]
    if unipotent:
        cells += [(i, j) for i in range(1, last) for j in range(1, last)]
        cells.append((last, last))
    zero = CycloNum.zero(w1.d)
    return all(w1 * m[i][j] - m[0][j] * w[i] == (w1 if i == j else zero)
               for i, j in cells)


def flag_unipotency_check(d: int, k: tuple, seed: int = 0) -> bool:
    """Unipotency of the commutator and all its conjugates on the standard
    flag.

    Works with p+1 strands, p = len(k) - 1, where the first p weights sum to
    0 mod d; the flag F is  span(w)  inside  span(w, eps_2..eps_{p-1})
    inside everything.  The claim is that g u g^-1 lies in the unipotent
    radical U(F) (it fixes w, stabilizes the middle space and acts as the
    identity on the successive quotients) for every g in the pure braid
    group of strands 2..p.  U(F) is the kernel of the action of the flag
    stabilizer P(F) on the quotients, hence normal in P(F); so it suffices
    that u is in U(F) and that each generator A_rs, 2 <= r < s <= p, is in
    P(F).  Both are checked exactly, which proves the claim for every
    conjugate.

    The check is deterministic; ``seed`` is accepted for compatibility and
    not read.
    """
    k = tuple(k)
    p = len(k) - 1
    _check_degenerate_block(d, k, p)
    rep = specialize_rep(d, k)
    w = rep.invariant_coords()
    if not _in_flag_group(_commutator(rep, p), w, True):
        return False
    return all(_in_flag_group(rep.matrix(r, s), w, False)
               for r in range(2, p) for s in range(r + 1, p + 1))


# -- irreducibility by span closure ------------------------------------------

def burnside_irreducibility(rep: SpecializedRep):
    """(span_dim, irreducible): dimension over Q(omega_d) of the algebra
    generated by the complex reflections s_i^2, and whether it is all of M_n.

    By Burnside's theorem the reflections generate M_n exactly when the
    representation is irreducible.  The algebra is closed from the identity
    under left products, in row blocks: s_i^2 - 1 = e_idx r_i^T is nonzero in
    matrix row idx = i - 1 only, so the candidate s_i^2 b - b = e_idx
    delta_i(b), with delta_i(b) = r_i^T b, lives in that one row, and one
    ``linalg.Echelon`` of length-n rows is kept per matrix row a (the space
    V_a).
    The identity is never reduced.  The span S = span(I) + V_0 + ... +
    V_{n-1} contains I, and s_i^2 b - b lies in V for every explored b, so S
    is closed under left products and is the algebra.  I lies in V exactly
    when every V_a holds its unit vector e_a; so span_dim = sum_a dim V_a,
    plus 1 otherwise.

    Only the reflections that read the changed row are tried.  A child b =
    b' + e_idx delta has delta_j(b) = delta_j(b') + r_j[idx] delta, so when
    r_j[idx] = 0 its candidate is its parent's.  By induction from the
    identity, where every reflection is tried, every candidate of the parent
    lies in its block by the time the child is explored (a parent tries its
    candidates before any child is popped), so skipping them changes no
    block.  r_j has support in columns j - 2..j, so an explored matrix other
    than the identity offers at most 3 candidates instead of n.
    """
    n = rep.dim
    d = rep.d
    one = CycloNum.one(d)
    zero = CycloNum.zero(d)
    nsq = n * n
    blocks = [linalg.Echelon() for _ in range(n)]
    rank = 0
    # per reflection: its row idx, and the columns and values of the nonzero
    # entries of r_i
    reflections = [(idx, tuple(col for col, _ in entries),
                    tuple(c for _, c in entries))
                   for idx, entries in rep.reflection_rows()]
    # readers[c]: the reflections whose row r_j has a nonzero entry in column
    # c, i.e. whose candidate changes when matrix row c does
    readers = [[] for _ in range(n)]
    for refl in reflections:
        for col in refl[1]:
            readers[col].append(refl)
    # each entry is a matrix and the reflections to try on it: all of them
    # for the identity, the readers of the row it changed otherwise
    worklist = deque([(linalg.identity(n, one, zero), reflections)])
    # every insert adds an echelon row, so at most n^2 + 1 matrices are ever
    # explored; the cap only guards against an implementation bug
    produced = 0
    cap = 2 * (nsq + 1) * len(reflections)
    while worklist and rank < nsq:
        b, tries = worklist.popleft()
        for idx, cols, coeffs in tries:
            produced += 1
            if produced > cap:
                raise InvariantError(
                    "span closure failed to stabilize",
                    reproducer={"op": "burnside", "d": d, "k": list(rep.k)})
            # delta_i(b) = r_i^T b: one dot product per column of b
            delta = [dot(d, coeffs, column)
                     for column in zip(*(b[col] for col in cols))]
            if blocks[idx].insert(list(delta)) is None:
                continue
            rank += 1
            row = tuple(x + y for x, y in zip(b[idx], delta))
            worklist.append((b[:idx] + (row,) + b[idx + 1:], readers[idx]))
    units = all(blocks[a].reduce([one if t == a else zero for t in range(n)])
                is None for a in range(n))
    span_dim = rank if units else rank + 1
    return span_dim, span_dim == nsq


def _generator_rows(rep: SpecializedRep):
    """The rows of A - 1 for every pure generator A, produced lazily: the
    reflections A_{i,i+1} first, then the other A_rs in (r, s) order.  Each
    generator is specialized only when its first row is asked for."""
    one = CycloNum.one(rep.d)
    strands = rep.strands
    pairs = [(i, i + 1) for i in range(1, strands)]
    pairs += [(r, s) for r in range(1, strands)
              for s in range(r + 2, strands + 1)]
    for r, s in pairs:
        for a, row in enumerate(rep.matrix(r, s)):
            yield row[:a] + (row[a] - one,) + row[a + 1:]


def fixed_vector_space_dim(rep: SpecializedRep) -> int:
    """dim of the simultaneous fixed space of all pure-generator matrices:
    the kernel of the rows of every A_rs - 1.

    The reflections come first, and ``linalg.kernel_basis`` stops at full
    rank.  Their nonzero rows are the rows r_i of ``reflection_rows``, and
    these have rank n exactly when the spec is non-degenerate: a vector fixed
    by every reflection is fixed by the algebra they generate, which is M_n
    when the rep is irreducible, as it is off the degenerate case (the
    paper's dichotomy), while a degenerate rep fixes ``invariant_coords``.
    So a non-degenerate rep specializes no generator beyond the n
    reflections, and a degenerate one reads every A_rs.
    """
    return len(linalg.kernel_basis(_generator_rows(rep), CycloNum.one(rep.d)))


def degeneracy_agreement(d: int, k: tuple) -> dict:
    """The three degeneracy predicates side by side (they agree for n >= 2).

    At n = 1 the span-closure leg is excluded from the agreement claim: a
    one-dimensional representation is irreducible no matter what, so
    span_dim = 1 = n^2 even in the degenerate case.
    """
    rep = specialize_rep(d, k)
    degenerate = rep.is_degenerate()
    span_dim, irreducible = burnside_irreducibility(rep)
    fixed_dim = fixed_vector_space_dim(rep)
    n = rep.dim
    agree = (degenerate == (fixed_dim > 0))
    if n >= 2:
        agree = agree and (degenerate == (not irreducible))
    return {
        "d": d,
        "k": list(k),
        "n": n,
        "degenerate": degenerate,
        "span_dim": span_dim,
        "irreducible": irreducible,
        "fixed_space_dim": fixed_dim,
        "agree": agree,
    }
