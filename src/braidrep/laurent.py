"""Sparse exact arithmetic for integer Laurent polynomials and their fractions.

A Laurent polynomial in ``nvars`` variables X1..Xm is stored as a map from
exponent vectors (int tuples of length ``nvars``, entries may be negative) to
nonzero integer coefficients.  Two equal polynomials always have identical
term maps, so ``==`` and ``hash`` are structural.  Arithmetic is closed:
``+``, ``-`` and ``*`` take only a ``LaurentPoly`` with the same variable
count (another count raises ``ValueError``).  An ``int`` operand raises a
``TypeError`` that names the operator, and compares unequal; a constant is
written as ``LaurentPoly.constant(nvars, c)`` or ``LaurentPoly.one(nvars)``.
The public constructor drops zero coefficients; ``LaurentPoly._raw`` is the
one unchecked constructor, for term maps the arithmetic built itself.

``RationalFunction`` is a reduced fraction num/den of Laurent polynomials.
The canonical form pins the unit ambiguity of the Laurent ring: the
denominator is an ordinary polynomial (minimal exponent 0 in every variable),
not divisible by any variable, with positive leading coefficient under the
lexicographic monomial order; num and den have no common factor.  The
constructor reduces to that form, so ``+`` and ``*`` build the unreduced
num/den and pass it to the constructor.  Its arithmetic is closed the same
way: ``+``, ``-``, ``*`` and ``/`` take only a ``RationalFunction`` (an
``int`` or a ``LaurentPoly`` raises a ``TypeError`` naming the operator),
and any other operand compares unequal.  A constant is written as
``RationalFunction.constant(nvars, c)``, a polynomial as
``RationalFunction.from_poly(p)``.

The multivariate gcd used for reduction is the classical primitive-PRS
(content / primitive part) algorithm over Z, adequate at the small sizes this
package works with.
"""

from __future__ import annotations

from math import gcd as _int_gcd


class LaurentPoly:
    """An exact Laurent polynomial over Z in a fixed number of variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}
        self._hash = None

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> LaurentPoly:
        """Build without filtering; every coefficient of ``terms`` must be
        nonzero, and the dict becomes the new polynomial's own."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> LaurentPoly:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> LaurentPoly:
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> LaurentPoly:
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> LaurentPoly:
        """The monomial Xi^power; ``i`` is 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = power
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: tuple, coeff: int = 1) -> LaurentPoly:
        if len(exps) != nvars:
            raise ValueError("exponent vector length mismatch")
        return cls(nvars, {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        zero = (0,) * self.nvars
        return len(self.terms) == 1 and zero in self.terms

    def is_unit(self) -> bool:
        """Units of the Laurent ring are +-(monomial)."""
        if len(self.terms) != 1:
            return False
        return abs(next(iter(self.terms.values()))) == 1

    # -- ring operations ---------------------------------------------------

    def _check(self, other: LaurentPoly):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._raw(self.nvars, terms)

    def __neg__(self):
        return LaurentPoly._raw(self.nvars,
                                {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return -other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) - c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._raw(self.nvars, terms)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly(self.nvars)
        if len(a) > len(b):
            a, b = b, a
        terms: dict = {}
        if len(a) == 1:
            (ea, ca), = a.items()
            for eb, cb in b.items():
                e = tuple(map(sum, zip(ea, eb)))
                terms[e] = ca * cb
        else:
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = tuple(map(sum, zip(ea, eb)))
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    elif e in terms:
                        del terms[e]
        return LaurentPoly._raw(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial; "
                             "use RationalFunction for inverses")
        result = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- structure ---------------------------------------------------------

    def involute(self) -> LaurentPoly:
        """The involution Xi -> Xi^-1 (negate every exponent)."""
        return LaurentPoly._raw(
            self.nvars, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def permute_vars(self, images: tuple) -> LaurentPoly:
        """Substitute Xi -> X_{images[i-1]}; ``images`` is 0-based on positions.

        images[i] is the 0-based index that variable position i moves to.
        """
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, x in enumerate(e):
                ne[images[i]] = x
            terms[tuple(ne)] = c
        return LaurentPoly._raw(self.nvars, terms)

    def shift(self, exps: tuple) -> LaurentPoly:
        """Multiply by the monomial X^exps."""
        return LaurentPoly._raw(self.nvars, {tuple(map(sum, zip(e, exps))): c
                                             for e, c in self.terms.items()})

    def min_exponents(self) -> tuple:
        if not self.terms:
            return (0,) * self.nvars
        mins = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        return tuple(mins)

    def leading(self) -> tuple:
        """(exponents, coefficient) of the lexicographically greatest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def content_int(self) -> int:
        """Nonnegative gcd of the integer coefficients (0 for the zero poly)."""
        g = 0
        for c in self.terms.values():
            g = _int_gcd(g, c)
            if g == 1:
                return 1
        return g

    def degree_in(self, v: int) -> int:
        """Maximal exponent of variable position v (0-based); -1 if zero poly."""
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    # -- text form ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            body = _term_str(e, c)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, '{self}')"


def _term_str(e: tuple, c: int) -> str:
    vs = []
    for i, x in enumerate(e):
        if x == 1:
            vs.append(f"X{i + 1}")
        elif x != 0:
            vs.append(f"X{i + 1}^{x}")
    a = abs(c)
    if not vs:
        return str(a)
    if a == 1:
        return "*".join(vs)
    return str(a) + "*" + "*".join(vs)


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS over Z)
# ---------------------------------------------------------------------------

def _div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a / b of ordinary polynomials; raises if not exact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    nvars = a.nvars
    if b.is_constant():
        c = next(iter(b.terms.values()))
        terms = {}
        for e, x in a.terms.items():
            q, r = divmod(x, c)
            if r:
                raise ArithmeticError("inexact polynomial division")
            terms[e] = q
        return LaurentPoly._raw(nvars, terms)
    eb, cb = b.leading()
    q = LaurentPoly.zero(nvars)
    r = a
    while not r.is_zero():
        er, cr = r.leading()
        de = tuple(x - y for x, y in zip(er, eb))
        if any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        cq, rem = divmod(cr, cb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        t = LaurentPoly.monomial(nvars, de, cq)
        q = q + t
        r = r - t * b
    return q


def _coeffs_in_var(p: LaurentPoly, v: int) -> dict:
    """Split p by the exponent of variable position v: degree -> coefficient poly."""
    # a term is fixed by its exponent at v and its exponents elsewhere, so
    # no two terms of p share a key
    out: dict = {}
    for e, c in p.terms.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {d: LaurentPoly._raw(p.nvars, terms) for d, terms in out.items()}


def _content_in(p: LaurentPoly, v: int) -> LaurentPoly:
    cont = LaurentPoly.zero(p.nvars)
    for cp in _coeffs_in_var(p, v).values():
        cont = _gcd_ordinary(cont, cp)
        if cont.is_one():
            break
    return cont


def _pseudo_rem(a: LaurentPoly, b: LaurentPoly, v: int) -> LaurentPoly:
    """Pseudo-remainder of a by b with respect to variable position v."""
    db = b.degree_in(v)
    cb = _coeffs_in_var(b, v)[db]
    r = a
    dr = r.degree_in(v)
    while not r.is_zero() and dr >= db:
        cr = _coeffs_in_var(r, v)[dr]
        shift = [0] * a.nvars
        shift[v] = dr - db
        r = cb * r - cr * b.shift(tuple(shift))
        dr = r.degree_in(v)
    return r


def _gcd_ordinary(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of two ordinary (exponents >= 0) polynomials, up to sign."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.is_constant() or b.is_constant():
        g = _int_gcd(a.content_int(), b.content_int())
        return LaurentPoly.constant(a.nvars, g)
    v = -1
    for w in range(a.nvars - 1, -1, -1):
        if a.degree_in(w) > 0 or b.degree_in(w) > 0:
            v = w
            break
    if v < 0:  # both constant, handled above
        g = _int_gcd(a.content_int(), b.content_int())
        return LaurentPoly.constant(a.nvars, g)
    da, db = a.degree_in(v), b.degree_in(v)
    if da == 0:
        return _gcd_ordinary(a, _content_in(b, v))
    if db == 0:
        return _gcd_ordinary(_content_in(a, v), b)
    ca = _content_in(a, v)
    cb = _content_in(b, v)
    pa = _div_exact(a, ca)
    pb = _div_exact(b, cb)
    cg = _gcd_ordinary(ca, cb)
    if da < db:
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, v)
        pa = pb
        if r.is_zero():
            pb = r
        else:
            pb = _div_exact(r, _content_in(r, v))
    return cg * pa


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of two Laurent polynomials, canonically normalized.

    The result is an ordinary polynomial with minimal exponent 0 in every
    variable and positive leading coefficient (monomial units are dropped).
    """
    if a.is_zero() and b.is_zero():
        return LaurentPoly.zero(a.nvars)
    a0 = a.shift(tuple(-x for x in a.min_exponents())) if not a.is_zero() else a
    b0 = b.shift(tuple(-x for x in b.min_exponents())) if not b.is_zero() else b
    g = _gcd_ordinary(a0, b0)
    if g.is_zero():
        return g
    g = g.shift(tuple(-x for x in g.min_exponents()))
    if g.leading()[1] < 0:
        g = -g
    return g


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """A reduced fraction of Laurent polynomials with canonical normal form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("variable-count mismatch in fraction")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
        """Build without gcd reduction; num/den must already be coprime.

        Unit normalization is still applied so the form stays canonical.
        """
        rf = object.__new__(cls)
        num, den = _normalize_units(num, den)
        rf.num = num
        rf.den = den
        rf._hash = None
        return rf

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> RationalFunction:
        return cls._raw(p, LaurentPoly.one(p.nvars))

    @classmethod
    def constant(cls, nvars: int, c: int) -> RationalFunction:
        return cls.from_poly(LaurentPoly.constant(nvars, c))

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> RationalFunction:
        return cls.from_poly(LaurentPoly.variable(nvars, i, power))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> RationalFunction:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction._raw(self.den, self.num)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = RationalFunction.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- structure ----------------------------------------------------------

    def involute(self) -> RationalFunction:
        """Apply Xi -> Xi^-1; a ring automorphism, so no re-reduction needed."""
        return RationalFunction._raw(self.num.involute(), self.den.involute())

    def permute_vars(self, images: tuple) -> RationalFunction:
        return RationalFunction._raw(self.num.permute_vars(images),
                                     self.den.permute_vars(images))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction('{self}')"


def _div_unit_exact(a: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact division where a may be Laurent: strip units, divide, restore."""
    if a.is_zero():
        return a
    shift = a.min_exponents()
    a0 = a.shift(tuple(-x for x in shift))
    q = _div_exact(a0, g)
    return q.shift(shift)


def _normalize_units(num: LaurentPoly, den: LaurentPoly):
    """Pin the monomial/sign unit: den ordinary, min exponents 0, positive lead."""
    if num.is_zero():
        return num, LaurentPoly.one(num.nvars)
    dshift = den.min_exponents()
    if any(dshift):
        neg = tuple(-x for x in dshift)
        den = den.shift(neg)
        num = num.shift(neg)
    if den.leading()[1] < 0:
        den = -den
        num = -num
    return num, den


def _reduce(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero():
        return num, LaurentPoly.one(num.nvars)
    if not den.is_unit():
        g = poly_gcd(num, den)
        if not g.is_one():
            num = _div_unit_exact(num, g)
            den = _div_unit_exact(den, g)
    return _normalize_units(num, den)
