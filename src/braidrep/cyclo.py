"""Exact arithmetic in cyclotomic fields Q(omega_d) = Q[x]/Phi_d(x).

Elements are residues modulo the d-th cyclotomic polynomial in the power
basis 1, w, ..., w^(phi(d)-1), stored as an integer coefficient vector with a
single positive integer denominator (kept coprime to the coefficient
content).  Products of specialization values are the hot path, so the common
denominator-1 case avoids all gcd work.

Arithmetic is closed: ``+``, ``-`` and ``*`` take only a ``CycloNum`` of the
same order (another order raises ``ValueError``).  Any other operand, an
``int`` or ``Fraction`` included, raises a ``TypeError`` that names the
operator, and compares unequal; a constant is written as ``CycloNum.one(d)``
or ``CycloNum(d, num, den)``, and a quotient as ``a * b.inverse()``.

A product is one integer convolution of the coefficient vectors
(``_convolve``) followed by one reduction modulo Phi_d (``_reduce``), which
replaces each w^(deg+j) by its row in a per-order table.  The
multiply-accumulate kernel ``dot(d, xs, ys)`` = sum of x * y uses the same two
routines: it adds the convolutions of all the terms and reduces once, and,
since reduction is linear, it returns exactly the sum of the products.
Terms with a denominator other than 1 are brought to a common one first.
The span closure of ``spectral`` computes its candidates with it.

The inverse is the Galois norm formula a^-1 = prod_{f != 1} sigma_f(a) /
N(a): integer Galois twists and products only, no polynomial Euclid.  The
cofactor prod_{f != 1} sigma_f(a) is built by doubling along a generator
tower of the units mod d (cached per order), in O(log phi(d)) twists and
products.

Specialization of Laurent polynomials (Xi -> omega_d^{k_i}) and numeric
embeddings (w -> e^{2*pi*i*f/d}) live here too.  A Laurent polynomial is
specialized by one fold: its coefficients are summed by residue of e.k mod
d, one row of the table of powers of omega per residue; only zero returns
before the fold.  Only Laurent polynomials are specialized: the one
fraction-valued matrix, the form h, is specialized by
``hermitian.specialize_form`` from its numerators and the inverses of the
values of its factors 1 - X_i.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import InvariantError, ValidationError
from .laurent import LaurentPoly, _div_exact


def cyclotomic_polynomial(d: int) -> tuple:
    """Dense integer coefficients (constant first, monic) of Phi_d."""
    if d < 1:
        raise ValueError("order must be positive")
    return _context(d).phi_poly


class _Context:
    """Per-order tables: Phi_d, reduction rows, all powers of omega, and a
    generator tower of the units mod d."""

    __slots__ = ("d", "deg", "phi_poly", "reduce_rows", "omega_pows",
                 "unit_tower")

    def __init__(self, d: int):
        self.d = d
        poly = _compute_cyclotomic(d)
        self.phi_poly = poly
        deg = len(poly) - 1
        self.deg = deg
        # omega^m for 0 <= m < d
        pows = []
        cur = [0] * deg
        if deg:
            cur[0] = 1
        pows.append(tuple(cur))
        top = tuple(-c for c in poly[:deg])  # x^deg mod Phi_d
        for _ in range(d - 1):
            nxt = [0] * deg
            for i in range(deg - 1):
                nxt[i + 1] += cur[i]
            c = cur[deg - 1] if deg else 0
            if c:
                for i in range(deg):
                    nxt[i] += c * top[i]
            pows.append(tuple(nxt))
            cur = nxt
        self.omega_pows = pows
        # x^(deg+j) mod Phi_d for j = 0 .. deg-2: powers of omega again
        self.reduce_rows = [pows[(deg + j) % d] for j in range(deg - 1)]
        self.unit_tower = _unit_tower(d)


def _unit_tower(d: int) -> tuple:
    """((g_1, m_1), ..., (g_r, m_r)): the units mod d are the products
    g_1^i_1 ... g_r^i_r with 0 <= i_j < m_j, each exactly once; m_j is the
    order of g_j modulo the subgroup generated by g_1..g_{j-1}."""
    subgroup = {1 % d}
    tower = []
    for g in units(d):
        if g in subgroup:
            continue
        m, x = 1, g
        while x not in subgroup:
            x = x * g % d
            m += 1
        subgroup = {pow(g, i, d) * h % d for i in range(m) for h in subgroup}
        tower.append((g, m))
    return tuple(tower)


def units(d: int) -> tuple:
    """The units mod d as residues in 0..d-1, ascending; there are phi(d)
    of them (units(1) = (0,))."""
    return tuple(u for u in range(d) if _int_gcd(u, d) == 1)


def _compute_cyclotomic(d: int) -> tuple:
    # Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e, by exact division of
    # one-variable polynomials
    phi = LaurentPoly(1, {(0,): -1, (d,): 1})
    for e in range(1, d):
        if d % e == 0:
            phi = _div_exact(phi, LaurentPoly(
                1, {(i,): c for i, c in enumerate(_context(e).phi_poly)}))
    return tuple(phi.terms.get((i,), 0) for i in range(phi.degree_in(0) + 1))


_contexts: dict = {}


def _context(d: int) -> _Context:
    ctx = _contexts.get(d)
    if ctx is None:
        ctx = _Context(d)
        _contexts[d] = ctx
    return ctx


class CycloNum:
    """An exact element of Q(omega_d) in the power basis modulo Phi_d."""

    __slots__ = ("d", "num", "den")

    def __init__(self, d: int, num: tuple, den: int = 1):
        ctx = _context(d)
        if len(num) != ctx.deg:
            raise ValueError(f"coefficient vector must have length {ctx.deg}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        self.d = d
        num, den = _normalize(tuple(num), den)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, d: int, num: tuple, den: int) -> CycloNum:
        x = object.__new__(cls)
        x.d = d
        x.num = num
        x.den = den
        return x

    @classmethod
    def zero(cls, d: int) -> CycloNum:
        return cls._raw(d, (0,) * _context(d).deg, 1)

    @classmethod
    def one(cls, d: int) -> CycloNum:
        deg = _context(d).deg
        return cls._raw(d, (1,) + (0,) * (deg - 1), 1)

    @classmethod
    def omega_power(cls, d: int, m: int) -> CycloNum:
        """omega_d^m, reduced modulo Phi_d."""
        ctx = _context(d)
        return cls._raw(d, ctx.omega_pows[m % d], 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.d != other.d:
            raise ValueError(f"cyclotomic order mismatch: {self.d} vs {other.d}")
        if self.den == other.den:
            num = tuple(a + b for a, b in zip(self.num, other.num))
            if self.den == 1:
                return CycloNum._raw(self.d, num, 1)
            return CycloNum._raw(self.d, *_normalize(num, self.den))
        da, db = self.den, other.den
        num = tuple(a * db + b * da for a, b in zip(self.num, other.num))
        return CycloNum._raw(self.d, *_normalize(num, da * db))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum._raw(self.d, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.d != other.d:
            raise ValueError(f"cyclotomic order mismatch: {self.d} vs {other.d}")
        if self.den == other.den:
            num = tuple(a - b for a, b in zip(self.num, other.num))
            if self.den == 1:
                return CycloNum._raw(self.d, num, 1)
            return CycloNum._raw(self.d, *_normalize(num, self.den))
        da, db = self.den, other.den
        num = tuple(a * db - b * da for a, b in zip(self.num, other.num))
        return CycloNum._raw(self.d, *_normalize(num, da * db))

    def __mul__(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.d != other.d:
            raise ValueError(f"cyclotomic order mismatch: {self.d} vs {other.d}")
        ctx = _context(self.d)
        conv = [0] * (2 * ctx.deg - 1)
        _convolve(self.num, other.num, conv)
        num = _reduce(conv, ctx)
        den = self.den * other.den
        if den == 1:
            return CycloNum._raw(self.d, num, 1)
        return CycloNum._raw(self.d, *_normalize(num, den))

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Multiplicative inverse by the Galois norm.

        With A = den * a (integer coefficients) and C = prod_{f != 1}
        sigma_f(A) over the units f mod d, N = A * C is fixed by every
        sigma_f, so it is a rational integer, and a^-1 = den * C / N.

        C is built along the context's unit tower.  With P_H the product of
        sigma_h(A) over a subgroup H, and G = <g> H where g has order m
        modulo H: C_G = C_H * sigma_g(Q_{m-1}) and P_G = P_H *
        sigma_g(Q_{m-1}), with Q_L = prod_{i < L} sigma_{g^i}(P_H) found by
        doubling (Q_2L = Q_L * sigma_{g^L}(Q_L)).  That is O(sum log m_j)
        twists and products instead of phi(d) - 1.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        d = self.d
        a = CycloNum._raw(d, self.num, 1)
        tower = _context(d).unit_tower
        cofactor = None
        p_h = a
        for step, (g, m) in enumerate(tower):
            q, length = p_h, 1
            for bit in bin(m - 1)[3:]:
                q = q * q.galois(pow(g, length, d))
                length *= 2
                if bit == "1":
                    q = p_h * q.galois(g)
                    length += 1
            twisted = q.galois(g)
            cofactor = twisted if cofactor is None else cofactor * twisted
            if step + 1 < len(tower):
                p_h = p_h * twisted
        if cofactor is None:
            cofactor = CycloNum.one(d)
        norm = (a * cofactor).num
        if any(norm[1:]):
            raise InvariantError(
                "Galois norm is not rational",
                reproducer={"op": "cyclo_inverse", "d": d,
                            "num": list(self.num), "den": self.den})
        return CycloNum._raw(d, *_normalize(
            tuple(c * self.den for c in cofactor.num), norm[0]))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.one(self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, CycloNum) and self.d == other.d
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.d, self.num, self.den))

    # -- Galois structure ------------------------------------------------------

    def galois(self, f: int) -> CycloNum:
        """The Galois twist omega -> omega^f; requires gcd(f, d) = 1."""
        if _int_gcd(f, self.d) != 1:
            raise ValidationError(f"exponent {f} not coprime to order {self.d}")
        ctx = _context(self.d)
        deg = ctx.deg
        out = [0] * deg
        for j, c in enumerate(self.num):
            if c:
                row = ctx.omega_pows[(j * f) % self.d]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloNum._raw(self.d, *_normalize(tuple(out), self.den))

    def conjugate(self) -> CycloNum:
        """Complex conjugation omega -> omega^-1."""
        return self.galois(self.d - 1)

    def embed(self, f: int = 1) -> complex:
        """Numeric value at omega -> e^(2*pi*i*f/d); requires gcd(f, d) = 1."""
        if _int_gcd(f, self.d) != 1:
            raise ValidationError(f"embedding index {f} not coprime to {self.d}")
        root = cmath.exp(2j * cmath.pi * f / self.d)
        acc = 0j
        for c in reversed(self.num):
            acc = acc * root + c
        return acc / self.den

    def __str__(self):
        parts = []
        for j, c in enumerate(self.num):
            if not c:
                continue
            q = Fraction(c, self.den)
            body = _coeff_str(abs(q), j)
            if not parts:
                parts.append(body if q > 0 else "-" + body)
            else:
                parts.append((" + " if q > 0 else " - ") + body)
        if not parts:
            parts = ["0"]
        return "".join(parts) + f" (mod Phi_{self.d})"

    def __repr__(self):
        return f"CycloNum('{self}')"


def _coeff_str(q: Fraction, j: int) -> str:
    cs = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if j == 0:
        return cs
    w = "w" if j == 1 else f"w^{j}"
    if q == 1:
        return w
    return f"{cs}*{w}"


def _normalize(num: tuple, den: int):
    if den < 0:
        num = tuple(-a for a in num)
        den = -den
    if den == 1:
        return num, 1
    g = den
    for a in num:
        g = _int_gcd(g, a)
        if g == 1:
            return num, den
    if g > 1:
        num = tuple(a // g for a in num)
        den //= g
    return num, den


def _convolve(a: tuple, b: tuple, conv: list):
    """Add the integer convolution of the coefficient vectors a and b (the
    unreduced product, 2 deg - 1 coefficients) into conv."""
    for i, ai in enumerate(a):
        if ai:
            j = i
            for bj in b:
                if bj:
                    conv[j] += ai * bj
                j += 1


def _reduce(conv: list, ctx: _Context) -> tuple:
    """conv, 2 deg - 1 coefficients, modulo Phi_d: each w^(deg+j) is
    replaced by its row in the reduction table."""
    deg = ctx.deg
    num = conv[:deg]
    j = deg
    for row in ctx.reduce_rows:
        c = conv[j]
        if c:
            i = 0
            for r in row:
                if r:
                    num[i] += c * r
                i += 1
        j += 1
    return tuple(num)


def dot(d: int, xs, ys) -> CycloNum:
    """sum of x * y over the pairs of xs and ys, every term of order d; xs
    and ys must have the same length (else ``ValueError``).

    The integer convolutions of all the terms are summed and reduced modulo
    Phi_d once; reduction is linear, so this equals the sum of the products
    exactly.  A term is scaled to the least common multiple of the
    denominators seen so far, and the sum is normalized once at the end.  An
    empty sum is zero.
    """
    ctx = _context(d)
    conv = [0] * (2 * ctx.deg - 1)
    den = 1
    for x, y in zip(xs, ys, strict=True):
        if x.d != d or y.d != d:
            raise ValueError(
                f"cyclotomic order mismatch: {x.d} and {y.d} vs {d}")
        a = x.num
        term_den = x.den * y.den
        if term_den != den:
            common = den * term_den // _int_gcd(den, term_den)
            if common != den:
                scale = common // den
                conv = [c * scale for c in conv]
                den = common
            if common != term_den:
                scale = common // term_den
                a = tuple(c * scale for c in a)
        _convolve(a, y.num, conv)
    num = _reduce(conv, ctx)
    if den == 1:
        return CycloNum._raw(d, num, 1)
    return CycloNum._raw(d, *_normalize(num, den))


# ---------------------------------------------------------------------------
# specialization at roots of unity
# ---------------------------------------------------------------------------

def check_weights(d: int, k: tuple):
    """Validate a weight tuple against the order d."""
    if d < 1:
        raise ValidationError("order d must be >= 1")
    for ki in k:
        if _int_gcd(ki, d) != 1:
            raise ValidationError(
                f"weight {ki} is not coprime to the order {d}")


# The largest cover order d a spec may have: each order builds a d x phi(d)
# table of powers of omega, and one product costs up to phi(d)^2 operations.
MAX_D = 128


def check_spec_weights(d: int, k: tuple):
    """Validate the weights of a cover spec: 2 <= d <= MAX_D, at least two
    weights, each in 1..d-1 and coprime to d (checked weight by weight)."""
    if d < 2:
        raise ValidationError("cover order d must be >= 2")
    if d > MAX_D:
        raise ValidationError(
            f"cover order d={d} exceeds the budget MAX_D={MAX_D}")
    if len(k) < 2:
        raise ValidationError("need at least 2 weights (n >= 1)")
    for ki in k:
        if not 1 <= ki <= d - 1:
            raise ValidationError(f"weight {ki} outside 1..{d - 1}")
        check_weights(d, (ki,))


def check_embedding(d: int, f: int):
    """Validate an embedding exponent of a cover spec: 1 <= f <= d-1 and
    coprime to d, one representative per embedding omega -> omega^f."""
    if not 1 <= f <= d - 1 or _int_gcd(f, d) != 1:
        raise ValidationError(
            f"embedding exponent f={f} must lie in 1..{d - 1} and be "
            f"coprime to d={d}")


def specialize_poly(a: LaurentPoly, d: int, k: tuple) -> CycloNum:
    """Ring homomorphism Xi -> omega_d^{k_i} from Laurent polynomials into
    Q(omega_d)."""
    check_weights(d, k)
    return _specialize_laurent(a, d, k)


def specialize_matrix(mat: tuple, d: int, k: tuple) -> tuple:
    """``specialize_poly`` entry by entry, with the weights checked once: a
    matrix over Q(omega_d)."""
    check_weights(d, k)
    return tuple(tuple(_specialize_laurent(x, d, k) for x in row)
                 for row in mat)


def _specialize_laurent(a: LaurentPoly, d: int, k: tuple) -> CycloNum:
    """a at X_i -> omega_d^{k_i}, for weights already checked.  The
    coefficients are summed by residue of e.k mod d, and each residue class
    costs one row of the table of powers of omega.  Zero returns at once:
    it is the most common entry of a pure generator, and the fold would
    still scan d residues for it."""
    if not isinstance(a, LaurentPoly):
        raise TypeError(f"cannot specialize {type(a).__name__}")
    if a.nvars != len(k):
        raise ValidationError(
            f"weight tuple length {len(k)} does not match {a.nvars} variables")
    if not a.terms:
        return CycloNum.zero(d)
    residues = [0] * d
    for e, c in a.terms.items():
        m = 0
        for x, ki in zip(e, k):
            m += x * ki
        residues[m % d] += c
    ctx = _context(d)
    deg = ctx.deg
    out = [0] * deg
    for m, c in enumerate(residues):
        if c:
            row = ctx.omega_pows[m]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return CycloNum._raw(d, tuple(out), 1)
