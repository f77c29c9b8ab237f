"""The invariant tridiagonal skew-hermitian form on the reduced basis.

On eps_1 .. eps_n the form is

    h[i][i]   = (1 - X_i X_{i+1}) / ((1 - X_i)(1 - X_{i+1}))
    h[i][i+1] = -1 / (1 - X_{i+1})
    h[i+1][i] = -X_{i+1} / (1 - X_{i+1})

and zero at distance >= 2.  It is skew-hermitian for the involution
Xi -> Xi^-1 (conjugate-transpose equals minus itself) and is preserved by
every pure word: M^H h M = h exactly.  The determinant is
(1 - X_1...X_{n+1}) / prod (1 - X_i), so the specialization at roots of unity
t_i = omega_d^{k_i} degenerates exactly when d divides sum(k).

Invariance is checked with denominators cleared: D = prod (1 - X_i) is a
scalar fixed by pure words, so M^H (D h) M = D h is an equivalent statement
in pure Laurent-polynomial arithmetic, which keeps the 200-random-word checks
cheap.
"""

from __future__ import annotations

from math import gcd as _int_gcd

from . import linalg
from .braid import BraidWord
from .cyclo import check_spec_weights, specialize_poly
from .errors import InvariantError, ValidationError
from .gassner import assert_polynomial_entries, evaluate_word
from .laurent import LaurentPoly, RationalFunction


def form_matrix(strands: int) -> tuple:
    """The n x n tridiagonal skew-hermitian form, n = strands - 1."""
    if strands < 2:
        raise ValidationError("need at least 2 strands")
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


def _cleared_form(strands: int) -> tuple:
    """D * h with D = prod (1 - X_i): a Laurent-polynomial matrix."""
    m = strands
    n = m - 1
    one = LaurentPoly.one(m)
    zero = LaurentPoly.zero(m)
    X = [LaurentPoly.variable(m, i) for i in range(1, m + 1)]
    factors = [one - x for x in X]

    def d_except(skip):
        p = one
        for j, f in enumerate(factors):
            if j not in skip:
                p = p * f
        return p

    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = (one - X[i] * X[i + 1]) * d_except({i, i + 1})
        if i + 1 < n:
            rows[i][i + 1] = -d_except({i + 1})
            rows[i + 1][i] = -X[i + 1] * d_except({i + 1})
    return tuple(tuple(r) for r in rows)


def conjugate_transpose(matrix: tuple) -> tuple:
    """involute(transpose(M)) for matrices over LaurentPoly or RationalFunction."""
    return tuple(tuple(x.involute() for x in col) for col in zip(*matrix))


def is_skew_hermitian(matrix: tuple) -> bool:
    ct = conjugate_transpose(matrix)
    for row_ct, row in zip(ct, matrix):
        for a, b in zip(row_ct, row):
            if a != -b:
                return False
    return True


def verify_invariance(w: BraidWord) -> bool:
    """Exact check that the reduced image of a pure word preserves the form."""
    tm = evaluate_word(w, "reduced")
    if not tm.is_linear():
        raise ValidationError(
            "form invariance is only defined for pure words; "
            f"'{w}' permutes the strands")
    mat = assert_polynomial_entries(tm, f"verify_invariance({w})")
    h = _cleared_form(w.strands)
    mh = conjugate_transpose(mat)
    lhs = linalg.mat_mul(mh, linalg.mat_mul(h, mat))
    return linalg.mat_eq(lhs, h)


def form_determinant(strands: int) -> RationalFunction:
    """det h, computed by the tridiagonal recursion and checked against
    (1 - X_1...X_{n+1}) / prod (1 - X_i)."""
    m = strands
    n = m - 1
    h = form_matrix(strands)
    one = RationalFunction.constant(m, 1)
    # leading principal minors: D_j = h[j][j] D_{j-1} - sub*super * D_{j-2}
    prev2, prev1 = one, h[0][0]
    for j in range(1, n):
        off = h[j][j - 1] * h[j - 1][j]
        cur = h[j][j] * prev1 - off * prev2
        prev2, prev1 = prev1, cur
    det = prev1
    num = LaurentPoly.one(m) - LaurentPoly.monomial(m, (1,) * m)
    den = LaurentPoly.one(m)
    for i in range(1, m + 1):
        den = den * (LaurentPoly.one(m) - LaurentPoly.variable(m, i))
    closed = RationalFunction(num, den)
    if det != closed:
        raise InvariantError(
            f"form determinant mismatch at {strands} strands: {det} vs {closed}",
            reproducer={"op": "form_determinant", "strands": strands})
    return det


def specialize_form(d: int, k: tuple) -> tuple:
    """The form with X_i -> omega_d^{k_i}; entries are exact cyclotomics.

    Denominators never vanish because every t_i is a nontrivial root of
    unity (1 <= k_i <= d-1 coprime to d).
    """
    k = tuple(k)
    check_spec_weights(d, k)
    h = form_matrix(len(k))
    return tuple(tuple(specialize_poly(x, d, k) for x in row) for row in h)


def is_degenerate(d: int, k: tuple) -> bool:
    """Whether the specialized form is degenerate: d divides sum(k).

    Equivalent to t_1...t_{n+1} = 1, the condition under which the
    specialized reduced representation acquires an invariant vector.
    """
    k = tuple(k)
    check_spec_weights(d, k)
    return sum(k) % d == 0


_ZERO_EIGENVALUE_TOL = 1e-6


def signature(d: int, k: tuple, f: int) -> tuple:
    """Sign counts (p, q) of the hermitianized form at the embedding f.

    The skew-hermitian matrix is multiplied by -i (the pinned imaginary
    unit; the opposite choice swaps p and q) and the eigenvalues of the
    resulting hermitian matrix are counted by sign.  Degeneracy is decided
    exactly beforehand, so an eigenvalue within 1e-6 of zero can only mean a
    conditioning problem and is an error, never a sign.
    """
    k = tuple(k)
    check_spec_weights(d, k)
    if _int_gcd(f, d) != 1:
        raise ValidationError(f"embedding index {f} not coprime to {d}")
    if (sum(k) * f) % d == 0:
        raise ValidationError(
            f"form is degenerate at d={d}, k={k}: signature undefined")
    import numpy as _np  # only here, so that importing braidrep stays light

    h = specialize_form(d, k)
    n = len(h)
    emb = _np.array([[x.embed(f) for x in row] for row in h], dtype=complex)
    herm = -1j * emb
    herm = (herm + herm.conj().T) / 2.0
    eigs = _np.linalg.eigvalsh(herm)
    if float(min(abs(eigs))) <= _ZERO_EIGENVALUE_TOL:
        raise InvariantError(
            f"eigenvalue {min(abs(eigs)):.3e} too close to zero at "
            f"d={d}, k={k}, f={f}",
            reproducer={"op": "signature", "d": d, "k": list(k), "f": f})
    p = int((eigs > 0).sum())
    q = int((eigs < 0).sum())
    if p + q != n:
        raise InvariantError(
            f"signature counts {p}+{q} != {n} at d={d}, k={k}, f={f}",
            reproducer={"op": "signature", "d": d, "k": list(k), "f": f})
    return p, q


def signature_report(d: int, k: tuple) -> list:
    """[{f, p, q}] over all 1 <= f < d with gcd(f, d) = 1 (skipping none).

    Raises if the form is degenerate (then no embedding has a signature).
    """
    out = []
    for f in range(1, d):
        if _int_gcd(f, d) == 1:
            p, q = signature(d, k, f)
            out.append({"f": f, "p": p, "q": q})
    return out
