"""Exact arithmetic in cyclotomic fields Q(omega_d) = Q[x]/Phi_d(x).

Elements are residues modulo the d-th cyclotomic polynomial in the power
basis 1, w, ..., w^(phi(d)-1), stored as an integer coefficient vector with a
single positive integer denominator (kept coprime to the coefficient
content).  Products of specialization values are the hot path, so the common
denominator-1 case avoids all gcd work.

Specialization of Laurent polynomials (Xi -> omega_d^{k_i}) and numeric
embeddings (w -> e^{2*pi*i*f/d}) live here too.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import ValidationError
from .laurent import LaurentPoly, RationalFunction


def cyclotomic_polynomial(d: int) -> tuple:
    """Dense integer coefficients (constant first, monic) of Phi_d."""
    if d < 1:
        raise ValueError("order must be positive")
    return _context(d).phi_poly


class _Context:
    """Per-order tables: Phi_d, reduction rows, and all powers of omega."""

    __slots__ = ("d", "deg", "phi_poly", "reduce_rows", "omega_pows")

    def __init__(self, d: int):
        self.d = d
        poly = _compute_cyclotomic(d)
        self.phi_poly = poly
        deg = len(poly) - 1
        self.deg = deg
        # x^(deg+j) mod Phi_d for j = 0 .. deg-2, as integer rows
        rows = []
        if deg:
            rows.append(tuple(-poly[i] for i in range(deg)))  # x^deg
            for _ in range(deg - 2):
                prev = rows[-1]
                row = [0] * deg
                for i in range(deg - 1):
                    row[i + 1] += prev[i]
                c = prev[deg - 1]
                if c:
                    first = rows[0]
                    for i in range(deg):
                        row[i] += c * first[i]
                rows.append(tuple(row))
        self.reduce_rows = rows
        # omega^m for 0 <= m < d
        pows = []
        cur = [0] * deg
        if deg:
            cur[0] = 1
        pows.append(tuple(cur))
        for _ in range(d - 1):
            nxt = [0] * deg
            for i in range(deg - 1):
                nxt[i + 1] += cur[i]
            c = cur[deg - 1] if deg else 0
            if c:
                first = rows[0]
                for i in range(deg):
                    nxt[i] += c * first[i]
            pows.append(tuple(nxt))
            cur = nxt
        self.omega_pows = pows


def _compute_cyclotomic(d: int) -> tuple:
    # Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e, by exact univariate division
    num = [0] * (d + 1)
    num[0] = -1
    num[d] = 1
    for e in range(1, d):
        if d % e == 0:
            num = _poly_divide_exact(num, list(_compute_cyclotomic_cached(e)))
    return tuple(num)


_cyclo_cache: dict = {}


def _compute_cyclotomic_cached(d: int) -> tuple:
    p = _cyclo_cache.get(d)
    if p is None:
        p = _compute_cyclotomic(d)
        _cyclo_cache[d] = p
    return p


def _poly_divide_exact(num: list, den: list) -> list:
    while den and den[-1] == 0:
        den.pop()
    out = [0] * (len(num) - len(den) + 1)
    work = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact cyclotomic division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dc in enumerate(den):
                work[i + j] -= q * dc
    if any(work):
        raise ArithmeticError("inexact cyclotomic division")
    return out


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
    def from_int(cls, d: int, c: int) -> CycloNum:
        deg = _context(d).deg
        return cls._raw(d, (c,) + (0,) * (deg - 1), 1)

    @classmethod
    def from_fraction(cls, d: int, q: Fraction) -> CycloNum:
        deg = _context(d).deg
        return cls._raw(d, (q.numerator,) + (0,) * (deg - 1), q.denominator)

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

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: CycloNum):
        if self.d != other.d:
            raise ValueError(f"cyclotomic order mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        other = _coerce(other, self.d)
        self._check(other)
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
        return self + (-_coerce(other, self.d))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other, self.d)
        self._check(other)
        a, b = self.num, other.num
        deg = len(a)
        if deg == 1:
            num = (a[0] * b[0],)
        else:
            conv = [0] * (2 * deg - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            conv[i + j] += ai * bj
            rows = _context(self.d).reduce_rows
            num = conv[:deg]
            for j in range(2 * deg - 2, deg - 1, -1):
                c = conv[j]
                if c:
                    row = rows[j - deg]
                    for i in range(deg):
                        if row[i]:
                            num[i] += c * row[i]
            num = tuple(num)
        den = self.den * other.den
        if den == 1:
            return CycloNum._raw(self.d, num, 1)
        return CycloNum._raw(self.d, *_normalize(num, den))

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_d."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CycloNum._raw(self.d, *_normalize(
                (self.den * (1 if self.num[0] > 0 else -1),)
                + (0,) * (len(self.num) - 1), abs(self.num[0])))
        phi = [Fraction(c) for c in _context(self.d).phi_poly]
        a = [Fraction(c, self.den) for c in self.num]
        # extended Euclid: find u with a*u = 1 mod phi
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            r1 = _trim(r1)
            if len(r1) == 1:
                break
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
        c = r1[0]
        if c == 0:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        inv = [x / c for x in s1]
        deg = len(self.num)
        inv = (inv + [Fraction(0)] * deg)[:deg]
        den = 1
        for x in inv:
            den = den * x.denominator // _int_gcd(den, x.denominator)
        num = tuple(int(x * den) for x in inv)
        return CycloNum._raw(self.d, *_normalize(num, den))

    def __truediv__(self, other):
        other = _coerce(other, self.d)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other, self.d) * self.inverse()

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
        if isinstance(other, (int, Fraction)):
            other = _coerce(other, self.d)
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
        if self.d == 1:
            return self
        return self.galois(self.d - 1)

    involute = conjugate

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


def _coerce(x, d: int) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, int):
        return CycloNum.from_int(d, x)
    if isinstance(x, Fraction):
        return CycloNum.from_fraction(d, x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycloNum")


def _trim(p: list) -> list:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _frac_divmod(a: list, b: list):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        if c:
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    return q, _trim(a[:len(b) - 1] or [Fraction(0)])


def _frac_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


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


def specialize_poly(a, d: int, k: tuple) -> CycloNum:
    """Ring homomorphism Xi -> omega_d^{k_i} into Q(omega_d).

    Accepts a LaurentPoly or a RationalFunction; for the latter the
    denominator must not vanish at the specialization.
    """
    check_weights(d, k)
    if isinstance(a, RationalFunction):
        den = _specialize_laurent(a.den, d, k)
        if den.is_zero():
            raise ValidationError(
                f"denominator {a.den} vanishes at the specialization "
                f"d={d}, k={tuple(k)}; the offending factor is {a.den}")
        num = _specialize_laurent(a.num, d, k)
        return num * den.inverse()
    if isinstance(a, LaurentPoly):
        return _specialize_laurent(a, d, k)
    raise TypeError(f"cannot specialize {type(a).__name__}")


def _specialize_laurent(a: LaurentPoly, d: int, k: tuple) -> CycloNum:
    if a.nvars != len(k):
        raise ValidationError(
            f"weight tuple length {len(k)} does not match {a.nvars} variables")
    ctx = _context(d)
    residues = [0] * d
    for e, c in a.terms.items():
        m = 0
        for x, ki in zip(e, k):
            m += x * ki
        residues[m % d] += c
    deg = ctx.deg
    out = [0] * deg
    for m, c in enumerate(residues):
        if c:
            row = ctx.omega_pows[m]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return CycloNum._raw(d, *_normalize(tuple(out), 1))


def embed_numeric(a: CycloNum, f: int) -> complex:
    """Numeric embedding of a cyclotomic number at omega -> e^(2*pi*i*f/d)."""
    return a.embed(f)
