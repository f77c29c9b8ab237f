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

These entries are written once, in ``_form_table``, as numerators over
products of the factors f_i = 1 - X_i, each numerator prime to its factors.
``form_matrix``, the cleared form D h, the determinant recursion and the
specialized form are all read from that table, so no polynomial gcd runs.
Only the symbolic outputs, ``form_matrix`` and ``form_determinant``, are
fractions; the specialized form multiplies each specialized numerator by the
inverses of its specialized factors, so no fraction is specialized.  The
invariance check, the determinant recursion and the signatures use exact
integer arithmetic, with no fractions and no floating point:

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
from math import prod

from . import linalg
from .braid import BraidWord
from .cyclo import (CycloNum, check_embedding, check_spec_weights,
                    specialize_matrix, units)
from .errors import InvariantError, ValidationError
from .gassner import evaluate_word
from .laurent import LaurentPoly, RationalFunction, _div_exact


def _factors(strands: int) -> list:
    """[f_1, ..., f_m] with f_i = 1 - X_i; list position i - 1 holds f_i."""
    one = LaurentPoly.one(strands)
    return [one - LaurentPoly.variable(strands, i) for i in range(1, strands + 1)]


def _form_table(strands: int) -> tuple:
    """The entries of h (module docstring), written once: each nonzero
    h[a][b] (0-based) as (a, b, num, den), h[a][b] = num / prod_{j in den}
    f[j] with f = ``_factors(strands)``.  No num shares a factor with its
    den (1 - X_i X_{i+1} is irreducible and no f_j divides it), so every
    fraction is already reduced."""
    if strands < 2:
        raise ValidationError("need at least 2 strands")
    one = LaurentPoly.one(strands)
    X = [LaurentPoly.variable(strands, i) for i in range(1, strands + 1)]
    table = []
    for i in range(strands - 1):
        table.append((i, i, one - X[i] * X[i + 1], (i, i + 1)))
        if i + 2 < strands:
            table.append((i, i + 1, -one, (i + 1,)))
            table.append((i + 1, i, -X[i + 1], (i + 1,)))
    return tuple(table)


def form_matrix(strands: int) -> tuple:
    """The n x n tridiagonal skew-hermitian form, n = strands - 1, read from
    ``_form_table``: reduced fractions, so no gcd runs."""
    n = strands - 1
    f = _factors(strands)
    zero = RationalFunction.constant(strands, 0)
    rows = [[zero] * n for _ in range(n)]
    for a, b, num, den in _form_table(strands):
        rows[a][b] = RationalFunction._raw(
            num, prod((f[j] for j in den), start=LaurentPoly.one(strands)))
    return tuple(tuple(r) for r in rows)


@cache
def _cleared_form(strands: int) -> tuple:
    """D * h with D = prod f_i: each numerator of ``_form_table`` times the
    factors missing from its denominator.  A Laurent-polynomial matrix,
    built once per strand count."""
    n = strands - 1
    f = _factors(strands)
    zero = LaurentPoly.zero(strands)
    rows = [[zero] * n for _ in range(n)]
    for a, b, num, den in _form_table(strands):
        rows[a][b] = prod((fj for j, fj in enumerate(f) if j not in den),
                          start=num)
    return tuple(tuple(r) for r in rows)


def conjugate_transpose(matrix: tuple) -> tuple:
    """involute(transpose(M)) for a matrix over LaurentPoly."""
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
    mat = tm.matrix
    inv = evaluate_word(w.inverse(), "reduced").matrix
    one, zero = LaurentPoly.one(w.strands), LaurentPoly.zero(w.strands)
    if not linalg.mat_eq(linalg.mat_mul(inv, mat),
                         linalg.identity(len(mat), one, zero)):
        return False
    h = _cleared_form(w.strands)
    return linalg.mat_eq(linalg.mat_mul(h, mat),
                         linalg.mat_mul(conjugate_transpose(inv), h))


@cache
def form_determinant(strands: int) -> RationalFunction:
    """det h, by the tridiagonal recursion without fractions, checked
    against (1 - X_1...X_{n+1}) / prod (1 - X_i).  Like the cleared form it
    depends on the strand count alone, so it is computed once per count and
    every caller shares the one value (its denominator has 2^m terms).

    With f_i = 1 - X_i, D_j the leading principal minor of size j + 1 and
    P_j = f_1...f_{j+2}, the polynomials E_j = P_j D_j satisfy

        f_{j+1} E_j = a_j E_{j-1} - b_j f_{j+2} E_{j-2}

    (E_{-1} = f_1, E_{-2} = 0), where h[j][j] = a_j / (f_{j+1} f_{j+2}) and
    h[j][j-1] h[j-1][j] = b_j / f_{j+1}^2; a_j and b_j are the numerators of
    ``_form_table``, whose denominators are checked.  Each step is one exact
    division.  The closed form needs no gcd: 1 - X_1...X_m has degree 1 in
    X_1 and content 1, so it is irreducible, and it is prime to every f_i.
    """
    m = strands
    f = _factors(m)  # f[i] = f_{i+1}
    reproducer = {"op": "form_determinant", "strands": strands}
    nums = {}
    for a, b, num, den in _form_table(m):
        want = (a, a + 1) if a == b else (max(a, b),)
        if den != want:
            raise InvariantError(
                f"form entry h[{a}][{b}] at {strands} strands does not have "
                f"denominator {''.join(f'({f[j]})' for j in want)}",
                reproducer=reproducer)
        nums[a, b] = num
    prev2, prev1 = LaurentPoly.zero(m), f[0]
    for j in range(m - 1):
        rhs = nums[j, j] * prev1
        if j:
            rhs = rhs - nums[j, j - 1] * nums[j - 1, j] * f[j + 1] * prev2
        try:
            cur = _div_exact(rhs, f[j])
        except ArithmeticError:
            raise InvariantError(
                f"form determinant recursion at {strands} strands: "
                f"{rhs} is not divisible by {f[j]}", reproducer=reproducer) from None
        prev2, prev1 = prev1, cur
    num = LaurentPoly.one(m) - LaurentPoly.monomial(m, (1,) * m)
    den = prod(f, start=LaurentPoly.one(m))
    if prev1 != num:
        raise InvariantError(
            f"form determinant mismatch at {strands} strands: numerator "
            f"{prev1} over {den}, expected {num}", reproducer=reproducer)
    return RationalFunction._raw(num, den)


def specialize_form(d: int, k: tuple) -> tuple:
    """The form with X_i -> t_i = omega_d^{k_i}, read from ``_form_table``:
    with c_j = (1 - t_j)^-1, entry [a][b] is num(t) * prod_{j in den} c_j,
    so one inverse is taken per distinct weight and no fraction is built.

    No c_j divides by zero because every t_j is a nontrivial root of unity
    (1 <= k_j <= d-1 coprime to d).
    """
    k = tuple(k)
    check_spec_weights(d, k)
    one = CycloNum.one(d)
    c = {kj: (one - CycloNum.omega_power(d, kj)).inverse() for kj in set(k)}
    table = _form_table(len(k))
    (values,) = specialize_matrix((tuple(num for _, _, num, _ in table),), d, k)
    n = len(k) - 1
    rows = [[CycloNum.zero(d)] * n for _ in range(n)]
    for (a, b, _, den), value in zip(table, values):
        rows[a][b] = prod((c[k[j]] for j in den), start=value)
    return tuple(tuple(r) for r in rows)


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
    A degenerate form (d | sum(k)) has no signature at any embedding, so it
    is refused before f is read.
    """
    k = tuple(k)
    check_spec_weights(d, k)
    if sum(k) % d == 0:
        raise ValidationError(
            f"form is degenerate at d={d}, k={k}: no signatures")
    check_embedding(d, f)
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
