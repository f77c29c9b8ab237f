"""Root-of-unity specializations and the degenerate-case structure.

The symbolic reduced matrices of the pure generators are cached per strand
count (they do not depend on the weights), so specializing a representation
is one cheap monomial-evaluation pass.  The heavy predicate here is the
span-closure irreducibility test (Burnside: the reflections s_i^2 generate
M_n exactly when the representation is irreducible).  s_i^2 - 1 is nonzero
in one row only, so the closure works in row blocks: n independent
``linalg.Echelon`` forms of length-n rows, one per matrix row.  An inserted
row costs one ``CycloNum`` inverse (the Galois norm, integer arithmetic
only).  The identity is never reduced;
it adds one dimension unless every block holds its own unit vector.  In the
degenerate case the unipotent commutator is built once per call, and its
flag unipotency is proved from the pure generators rather than sampled over
conjugates.
"""

from __future__ import annotations

from collections import deque

from . import linalg
from .braid import full_twist, pure_generator
from .cyclo import CycloNum, check_spec_weights, specialize_poly
from .errors import InvariantError, ValidationError
from .gassner import (
    assert_polynomial_entries,
    delta_squared,
    evaluate_word,
    scalar_matrix_check,
)


# -- symbolic caches (depend on the strand count only) -----------------------

_symbolic_pure: dict = {}
_symbolic_words: dict = {}


def _symbolic_pure_matrices(strands: int) -> dict:
    """(r, s) -> reduced LaurentPoly matrix of A_{rs}."""
    cached = _symbolic_pure.get(strands)
    if cached is None:
        cached = {}
        for r in range(1, strands):
            for s in range(r + 1, strands + 1):
                word = pure_generator(r, s, strands)
                cached[(r, s)] = assert_polynomial_entries(
                    evaluate_word(word, "reduced"), f"A_{r}{s} reduced")
        _symbolic_pure[strands] = cached
    return cached


def _symbolic_word_matrix(key, word) -> tuple:
    cached = _symbolic_words.get(key)
    if cached is None:
        cached = assert_polynomial_entries(
            evaluate_word(word, "reduced"), str(key))
        _symbolic_words[key] = cached
    return cached


def specialize_matrix(mat: tuple, d: int, k: tuple) -> tuple:
    return tuple(tuple(specialize_poly(x, d, k) for x in row) for row in mat)


class SpecializedRep:
    """All reduced pure-generator matrices at X_i -> omega_d^{k_i}."""

    __slots__ = ("strands", "d", "k", "t", "generator_matrices",
                 "_inverses", "_reflection_rows")

    def __init__(self, strands: int, d: int, k: tuple, generator_matrices: dict):
        self.strands = strands
        self.d = d
        self.k = tuple(k)
        self.t = tuple(CycloNum.omega_power(d, ki) for ki in k)
        self.generator_matrices = generator_matrices
        self._inverses = {}
        self._reflection_rows = None

    @property
    def dim(self) -> int:
        return self.strands - 1

    def matrix(self, r: int, s: int) -> tuple:
        return self.generator_matrices[(r, s)]

    def matrix_inverse(self, r: int, s: int) -> tuple:
        inv = self._inverses.get((r, s))
        if inv is None:
            inv = linalg.mat_inverse(self.generator_matrices[(r, s)])
            self._inverses[(r, s)] = inv
        return inv

    def reflection_rows(self) -> list:
        """Per reflection i: the one nonzero row of s_i^2 - 1, as
        (idx, [(col, coeff)]) with idx = i - 1 and zero coefficients left
        out."""
        if self._reflection_rows is None:
            rows = []
            n = self.dim
            one = CycloNum.one(self.d)
            for i in range(1, self.strands):
                ti = self.t[i - 1]
                ti1 = self.t[i]
                idx = i - 1
                entries = []
                if idx - 1 >= 0:
                    entries.append((idx - 1, ti * (one - ti1)))
                entries.append((idx, ti * ti1 - one))
                if idx + 1 < n:
                    entries.append((idx + 1, one - ti))
                rows.append((idx, [(col, c) for col, c in entries
                                   if not c.is_zero()]))
            self._reflection_rows = rows
        return self._reflection_rows

    def central_scalar(self) -> CycloNum:
        prod = CycloNum.one(self.d)
        for ti in self.t:
            prod = prod * ti
        return prod

    def is_degenerate(self) -> bool:
        return sum(self.k) % self.d == 0

    def invariant_coords(self) -> tuple:
        """(1 - t_1...t_i) for i = 1..n: the candidate fixed vector."""
        one = CycloNum.one(self.d)
        out = []
        prod = one
        for i in range(self.dim):
            prod = prod * self.t[i]
            out.append(one - prod)
        return tuple(out)


def specialize_rep(d: int, k: tuple) -> SpecializedRep:
    k = tuple(k)
    check_spec_weights(d, k)
    strands = len(k)
    sym = _symbolic_pure_matrices(strands)
    mats = {key: specialize_matrix(m, d, k) for key, m in sym.items()}
    return SpecializedRep(strands, d, k, mats)


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


def all_unit_subintervals(d: int, k: tuple, lo: int, hi: int) -> list:
    """Brute-force oracle: every consecutive [a, b] inside [lo, hi] with
    t_a ... t_b = 1."""
    out = []
    for a in range(lo, hi + 1):
        acc = 0
        for b in range(a, hi + 1):
            acc = (acc + k[b - 1]) % d
            if acc == 0:
                out.append((a, b))
    return out


# -- unipotent elements -------------------------------------------------------

def _assert_subtwist_scalar(m2: tuple, rep: SpecializedRep, p: int):
    """Delta'^2 must act on eps_2..eps_{p-1} by the scalar t_2...t_p."""
    c = CycloNum.one(rep.d)
    for i in range(1, p):
        c = c * rep.t[i]
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


def _commutator(rep: SpecializedRep, p: int) -> tuple:
    """u = [s_1^2, Delta'^2] on rep, with Delta' the full twist on strands
    2..p (p <= rep.strands)."""
    delta2 = full_twist(2, p, rep.strands) ** 2
    m2 = specialize_matrix(
        _symbolic_word_matrix(("subtwist2", rep.strands, p), delta2),
        rep.d, rep.k)
    _assert_subtwist_scalar(m2, rep, p)
    m1 = rep.matrix(1, 2)
    return linalg.mat_mul(
        linalg.mat_mul(m1, m2),
        linalg.mat_mul(rep.matrix_inverse(1, 2), linalg.mat_inverse(m2)))


def _adapted_basis(rep: SpecializedRep) -> tuple:
    """(c, c^-1), where the columns of c are (w, eps_2, ..., eps_n) and
    w = rep.invariant_coords(); c is invertible since w_1 = 1 - t_1 != 0."""
    n = rep.dim
    one = CycloNum.one(rep.d)
    zero = CycloNum.zero(rep.d)
    w = rep.invariant_coords()
    c = tuple(tuple(w[a] if j == 0 else (one if a == j else zero)
                    for j in range(n)) for a in range(n))
    return c, linalg.mat_inverse(c)


def _in_basis(m: tuple, basis: tuple) -> tuple:
    c, cinv = basis
    return linalg.mat_mul(cinv, linalg.mat_mul(m, c))


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


def _checked_commutator(d: int, k: tuple) -> tuple:
    """(rep, u) for unipotent_commutator; raises InvariantError unless u is
    a nontrivial 2-step unipotent."""
    k = tuple(k)
    p = len(k)
    _check_degenerate_block(d, k, p)
    rep = specialize_rep(d, k)
    u = _commutator(rep, p)
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
    return rep, u


def unipotent_commutator(d: int, k: tuple) -> tuple:
    """u = [s_1^2, Delta'^2] on the p-strand specialization, p = len(k).

    Preconditions: p >= 3, weights coprime to d, and d | sum(k) so the
    representation is degenerate.  The result is checked to be a nontrivial
    unipotent: u != 1 and (u - 1)^2 = 0 exactly; failures of those checks are
    bugs, not bad input.
    """
    return _checked_commutator(d, k)[1]


def commutator_in_w_basis(d: int, k: tuple) -> tuple:
    """The commutator written in the basis (w, eps_2, ..., eps_{p-1})."""
    rep, u = _checked_commutator(d, k)
    return _in_basis(u, _adapted_basis(rep))


def _in_flag_stabilizer(b: tuple, unipotent: bool) -> bool:
    """Whether b, written in the adapted basis, lies in the stabilizer P(F)
    of the flag  span(w) < span(w, eps_2..eps_{n-1}) < everything, i.e. is
    block upper triangular for the index blocks {0}, {1..n-2}, {n-1}; with
    ``unipotent``, whether it lies in U(F), i.e. also has identity diagonal
    blocks."""
    last = len(b) - 1

    def block(i: int) -> int:
        return 0 if i == 0 else (2 if i == last else 1)

    for i, row in enumerate(b):
        for j, x in enumerate(row):
            if block(i) > block(j) or (unipotent and block(i) == block(j)):
                if not (x.is_one() if i == j else x.is_zero()):
                    return False
    return True


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
    basis = _adapted_basis(rep)
    if not _in_flag_stabilizer(_in_basis(_commutator(rep, p), basis), True):
        return False
    return all(_in_flag_stabilizer(_in_basis(rep.matrix(r, s), basis), False)
               for r in range(2, p) for s in range(r + 1, p + 1))


# -- irreducibility by span closure ------------------------------------------

def burnside_irreducibility(rep: SpecializedRep):
    """(span_dim, irreducible): dimension over Q(omega_d) of the algebra
    generated by the complex reflections s_i^2, and whether it is all of M_n.

    By Burnside's theorem the reflections generate M_n exactly when the
    representation is irreducible.  The algebra is closed from the identity
    under left products, in row blocks: s_i^2 - 1 is nonzero in matrix row
    i - 1 only, so a candidate s_i^2 b - b lives in that one row, and one
    ``linalg.Echelon`` of length-n rows is kept per matrix row a (the space
    V_a).
    The identity is never reduced.  The span S = span(I) + V_0 + ... +
    V_{n-1} contains I, and s_i^2 b - b lies in V for every explored b, so S
    is closed under left products and is the algebra.  I lies in V exactly
    when every V_a holds its unit vector e_a; so span_dim = sum_a dim V_a,
    plus 1 otherwise.
    """
    n = rep.dim
    d = rep.d
    one = CycloNum.one(d)
    zero = CycloNum.zero(d)
    nsq = n * n
    blocks = [linalg.Echelon() for _ in range(n)]
    rank = 0
    reflections = rep.reflection_rows()
    worklist = deque([linalg.identity(n, one, zero)])
    # every insert adds an echelon row, so at most n^2 + 1 matrices are ever
    # explored; the cap only guards against an implementation bug
    produced = 0
    cap = 2 * (nsq + 1) * len(reflections)
    while worklist and rank < nsq:
        b = worklist.popleft()
        for idx, entries in reflections:
            produced += 1
            if produced > cap:
                raise InvariantError(
                    "span closure failed to stabilize",
                    reproducer={"op": "burnside", "d": d, "k": list(rep.k)})
            delta = [zero] * n
            for col, coeff in entries:
                for t, x in enumerate(b[col]):
                    if not x.is_zero():
                        delta[t] = delta[t] + coeff * x
            if blocks[idx].insert(list(delta)) is None:
                continue
            rank += 1
            row = tuple(x + y for x, y in zip(b[idx], delta))
            worklist.append(b[:idx] + (row,) + b[idx + 1:])
    units = all(blocks[a].reduce([one if t == a else zero for t in range(n)])
                is None for a in range(n))
    span_dim = rank if units else rank + 1
    return span_dim, span_dim == nsq


def fixed_vector_space_dim(rep: SpecializedRep) -> int:
    """dim of the simultaneous fixed space of all pure-generator matrices."""
    n = rep.dim
    one = CycloNum.one(rep.d)
    zero = CycloNum.zero(rep.d)
    rows = []
    for key in sorted(rep.generator_matrices):
        m = rep.generator_matrices[key]
        for a in range(n):
            row = list(m[a])
            row[a] = row[a] - one
            if any(not x.is_zero() for x in row):
                rows.append(tuple(row))
    if not rows:
        return n
    return len(linalg.kernel_basis(rows, one))


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


def central_scalar_matches(d: int, k: tuple) -> bool:
    """rho(Delta^2) specialized equals (t_1...t_{n+1}) * identity."""
    k = tuple(k)
    check_spec_weights(d, k)
    strands = len(k)
    word = delta_squared(strands)
    mat = specialize_matrix(
        _symbolic_word_matrix(("delta2", strands), word), d, k)
    rep_scalar = CycloNum.one(d)
    for ki in k:
        rep_scalar = rep_scalar * CycloNum.omega_power(d, ki)
    return scalar_matrix_check(mat, rep_scalar)


def burau_matches_gassner_at_ones(strands: int, d: int) -> bool:
    """With every weight 1, the specialized matrices equal the one-variable
    matrices evaluated at omega_d, generator by generator."""
    from .gassner import burau_specialize

    k = (1,) * strands
    rep = specialize_rep(d, k)
    for (r, s), mat in rep.generator_matrices.items():
        sym = evaluate_word(pure_generator(r, s, strands), "reduced")
        bur = burau_specialize(sym)
        for a in range(rep.dim):
            for b in range(rep.dim):
                val = specialize_poly(bur[a][b], d, (1,))
                if val != mat[a][b]:
                    return False
    return True
