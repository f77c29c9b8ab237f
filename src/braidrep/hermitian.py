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

The invariance check, the determinant recursion and the signatures use
exact integer arithmetic, with no fractions and no floating point:

- invariance is checked with denominators cleared: D = prod (1 - X_i) is a
  scalar fixed by pure words, and with M' the image of the inverse word,
  M' M = I and (D h) M = M'^H (D h) together say M^H (D h) M = D h;
- the determinant runs the tridiagonal recursion on E_j = P_j D_j, the
  leading minors times their denominators, one exact division per step;
- signatures at roots of unity come from the weights by a closed form; the
  tests check it against an eigenvalue count.
"""

from __future__ import annotations

from functools import cache
from math import gcd as _int_gcd

from . import linalg
from .braid import BraidWord
from .cyclo import check_spec_weights, specialize_matrix, units
from .errors import InvariantError, ValidationError
from .gassner import assert_polynomial_entries, evaluate_word
from .laurent import LaurentPoly, RationalFunction, _div_exact


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


@cache
def _cleared_form(strands: int) -> tuple:
    """D * h with D = prod (1 - X_i): a Laurent-polynomial matrix, built once
    per strand count."""
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


def verify_invariance(w: BraidWord) -> bool:
    """Exact check that the reduced image of a pure word preserves the form.

    With M the image of w and M' that of w^-1, M' M = I together with
    (D h) M = M'^H (D h) is equivalent to M^H (D h) M = D h: the first makes
    M' = M^-1, and (M' M)^H (D h) = D h.  M' M multiplies two Laurent
    matrices of the word's size, and D h is tridiagonal, so no product has
    the much larger entries of D h M that the direct check multiplies by M^H.
    """
    tm = evaluate_word(w, "reduced")
    if not tm.is_linear():
        raise ValidationError(
            "form invariance is only defined for pure words; "
            f"'{w}' permutes the strands")
    mat = assert_polynomial_entries(tm, f"verify_invariance({w})")
    inv = assert_polynomial_entries(evaluate_word(w.inverse(), "reduced"),
                                    f"verify_invariance({w}) inverse")
    one, zero = LaurentPoly.one(w.strands), LaurentPoly.zero(w.strands)
    if not linalg.mat_eq(linalg.mat_mul(inv, mat),
                         linalg.identity(len(mat), one, zero)):
        return False
    h = _cleared_form(w.strands)
    return linalg.mat_eq(linalg.mat_mul(h, mat),
                         linalg.mat_mul(conjugate_transpose(inv), h))


def _numerator(x: RationalFunction, den: LaurentPoly, strands: int) -> LaurentPoly:
    """The polynomial N with x = N / den, where den must be x's denominator
    up to sign."""
    if x.den == den:
        return x.num
    if x.den == -den:
        return -x.num
    raise InvariantError(
        f"form entry {x} at {strands} strands does not have denominator {den}",
        reproducer={"op": "form_determinant", "strands": strands})


def form_determinant(strands: int) -> RationalFunction:
    """det h, by the tridiagonal recursion without fractions, checked
    against (1 - X_1...X_{n+1}) / prod (1 - X_i).

    With f_i = 1 - X_i, D_j the leading principal minor of size j + 1 and
    P_j = f_1...f_{j+2}, the polynomials E_j = P_j D_j satisfy

        f_{j+1} E_j = a_j E_{j-1} - b_j f_{j+2} E_{j-2}

    (E_{-1} = f_1, E_{-2} = 0), where h[j][j] = a_j / (f_{j+1} f_{j+2}) and
    h[j][j-1] h[j-1][j] = b_j / f_{j+1}^2; a_j and b_j are read from the
    entries of ``form_matrix`` and their denominators are checked.  Each
    step is one exact division.  The closed form needs no gcd:
    1 - X_1...X_m has degree 1 in X_1 and content 1, so it is irreducible,
    and it is prime to every f_i.
    """
    m = strands
    n = m - 1
    h = form_matrix(strands)
    one = LaurentPoly.one(m)
    f = [one - LaurentPoly.variable(m, i) for i in range(1, m + 1)]  # f[i] = f_{i+1}
    reproducer = {"op": "form_determinant", "strands": strands}
    prev2, prev1 = LaurentPoly.zero(m), f[0]
    for j in range(n):
        rhs = _numerator(h[j][j], f[j] * f[j + 1], m) * prev1
        if j:
            b = (_numerator(h[j][j - 1], f[j], m)
                 * _numerator(h[j - 1][j], f[j], m))
            rhs = rhs - b * f[j + 1] * prev2
        try:
            cur = _div_exact(rhs, f[j])
        except ArithmeticError:
            raise InvariantError(
                f"form determinant recursion at {strands} strands: "
                f"{rhs} is not divisible by {f[j]}", reproducer=reproducer) from None
        prev2, prev1 = prev1, cur
    num = one - LaurentPoly.monomial(m, (1,) * m)
    den = one
    for fi in f:
        den = den * fi
    if prev1 != num:
        raise InvariantError(
            f"form determinant mismatch at {strands} strands: "
            f"{RationalFunction(prev1, den)} vs {RationalFunction._raw(num, den)}",
            reproducer=reproducer)
    return RationalFunction._raw(num, den)


def specialize_form(d: int, k: tuple) -> tuple:
    """The form with X_i -> omega_d^{k_i}; entries are exact cyclotomics.

    Denominators never vanish because every t_i is a nontrivial root of
    unity (1 <= k_i <= d-1 coprime to d).
    """
    k = tuple(k)
    check_spec_weights(d, k)
    return specialize_matrix(form_matrix(len(k)), d, k)


def is_degenerate(d: int, k: tuple) -> bool:
    """Whether the specialized form is degenerate: d divides sum(k).

    Equivalent to t_1...t_{n+1} = 1, the condition under which the
    specialized reduced representation acquires an invariant vector.
    """
    k = tuple(k)
    check_spec_weights(d, k)
    return sum(k) % d == 0


def signature(d: int, k: tuple, f: int) -> tuple:
    """Sign counts (p, q) of the hermitianized form at the embedding f.

    The hermitian form is -i times the skew-hermitian one (the pinned
    imaginary unit; the opposite choice swaps p and q).  Its signature
    follows from the weights alone (Deligne-Mostow; McMullen, "Braid groups
    and Hodge theory"): with n = len(k) - 1 and
    S = (sum_i (f k_i mod d) + (-f sum k mod d)) / d, (p, q) = (n + 1 - S, S - 1).
    The tests check this against the eigenvalues of the specialized form.
    """
    k = tuple(k)
    check_spec_weights(d, k)
    if _int_gcd(f, d) != 1:
        raise ValidationError(f"embedding index {f} not coprime to {d}")
    if (sum(k) * f) % d == 0:
        raise ValidationError(
            f"form is degenerate at d={d}, k={k}: signature undefined")
    total = sum(f * ki % d for ki in k) + (-f * sum(k)) % d
    s, rem = divmod(total, d)
    p, q = len(k) - s, s - 1
    if rem or p < 0 or q < 0:
        raise InvariantError(
            f"weight sum {total} gives no signature at d={d}, k={k}, f={f}",
            reproducer={"op": "signature", "d": d, "k": list(k), "f": f})
    return p, q


def signature_report(d: int, k: tuple) -> list:
    """[{f, p, q}] over all 1 <= f < d with gcd(f, d) = 1 (skipping none).

    Raises if the form is degenerate (then no embedding has a signature).
    """
    out = []
    for f in units(d):
        p, q = signature(d, k, f)
        out.append({"f": f, "p": p, "q": q})
    return out
