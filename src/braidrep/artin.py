"""The braid action on a free group and its semidirect-product evaluation.

This is the independent, first-principles route to the unreduced matrices:
apply the generator substitution rules to free-group words, push the result
through the embedding x_i -> (e_i, X_i) into R^{n+1} semidirect the monomial
group, and read matrix columns off the vector parts.  The matrix route in
``gassner`` must agree with this one; the agreement is a standing assertion.

Substitution rules for s_i:   x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i,
and for s_i^-1:               x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1},
all other generators fixed.  Words act with the rightmost letter first.
"""

from __future__ import annotations

from .braid import BraidWord, permutation_image
from .errors import InvariantError, ValidationError
from .laurent import LaurentPoly


class FreeWord:
    """A freely reduced word in the free group on x_1 .. x_{n_gens}."""

    __slots__ = ("n_gens", "letters")

    def __init__(self, n_gens: int, letters=()):
        for l in letters:
            if l == 0 or not 1 <= abs(l) <= n_gens:
                raise ValidationError(
                    f"letter {l} out of range for {n_gens} generators")
        self.n_gens = n_gens
        self.letters = _free_reduce(letters)

    @classmethod
    def generator(cls, n_gens: int, i: int) -> FreeWord:
        return cls(n_gens, (i,))

    def __mul__(self, other: FreeWord) -> FreeWord:
        if self.n_gens != other.n_gens:
            raise ValidationError("generator count mismatch")
        return FreeWord(self.n_gens, self.letters + other.letters)

    def inverse(self) -> FreeWord:
        return FreeWord(self.n_gens, tuple(-l for l in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other):
        return (isinstance(other, FreeWord)
                and self.n_gens == other.n_gens
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.n_gens, self.letters))

    def __str__(self):
        if not self.letters:
            return "e"
        return " ".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in self.letters)

    def __repr__(self):
        return f"FreeWord({self.n_gens}, '{self}')"


def _free_reduce(letters) -> tuple:
    out: list = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _substitute(braid_letter: int, letters: tuple) -> tuple:
    i = abs(braid_letter)
    out: list = []
    if braid_letter > 0:
        img_i = (i, i + 1, -i)
        img_i1 = (i,)
    else:
        img_i = (i + 1,)
        img_i1 = (-(i + 1), i, i + 1)
    for l in letters:
        a = abs(l)
        if a == i:
            img = img_i
        elif a == i + 1:
            img = img_i1
        else:
            out.append(l)
            continue
        if l > 0:
            out.extend(img)
        else:
            out.extend(-x for x in reversed(img))
    return _free_reduce(out)


def artin_apply(w: BraidWord, u: FreeWord) -> FreeWord:
    """The braid action of w on the free word u (rightmost letter first)."""
    if w.strands != u.n_gens:
        raise ValidationError(
            f"strand count {w.strands} does not match {u.n_gens} generators")
    letters = u.letters
    for bl in reversed(w.letters):
        letters = _substitute(bl, letters)
    out = FreeWord.__new__(FreeWord)
    out.n_gens = u.n_gens
    out.letters = letters
    return out


class SemidirectElement:
    """An element (v, t) of R^{n+1} semidirect the multiplicative monomials.

    ``vector`` holds n+1 Laurent polynomial coordinates in the e-basis;
    ``monomial`` is the exponent vector of the monomial part t.  The product
    is (v, t)(v', t') = (v + t v', t t'), and (v, t)^-1 = (-t^-1 v, t^-1).
    """

    __slots__ = ("vector", "monomial")

    def __init__(self, vector: tuple, monomial: tuple):
        self.vector = tuple(vector)
        self.monomial = tuple(monomial)

    @classmethod
    def identity(cls, m: int) -> SemidirectElement:
        return cls(tuple(LaurentPoly.zero(m) for _ in range(m)), (0,) * m)

    @classmethod
    def generator(cls, m: int, i: int, inverse: bool = False) -> SemidirectElement:
        e = [0] * m
        e[i - 1] = 1
        vec = [LaurentPoly.zero(m) for _ in range(m)]
        if not inverse:
            vec[i - 1] = LaurentPoly.one(m)
            return cls(tuple(vec), tuple(e))
        inv_mono = tuple(-x for x in e)
        vec[i - 1] = LaurentPoly.monomial(m, inv_mono, -1)
        return cls(tuple(vec), inv_mono)

    def __mul__(self, other: SemidirectElement) -> SemidirectElement:
        t = self.monomial
        vec = tuple(a + b.shift(t) for a, b in zip(self.vector, other.vector))
        mono = tuple(x + y for x, y in zip(t, other.monomial))
        return SemidirectElement(vec, mono)

    def inverse(self) -> SemidirectElement:
        inv = tuple(-x for x in self.monomial)
        vec = tuple(-(a.shift(inv)) for a in self.vector)
        return SemidirectElement(vec, inv)

    def __eq__(self, other):
        return (isinstance(other, SemidirectElement)
                and self.monomial == other.monomial
                and self.vector == other.vector)

    def __repr__(self):
        return f"SemidirectElement({[str(v) for v in self.vector]}, X^{self.monomial})"


def semidirect_eval(u: FreeWord) -> SemidirectElement:
    """The image of u under x_i -> (e_i, X_i)."""
    m = u.n_gens
    acc = SemidirectElement.identity(m)
    for l in u.letters:
        acc = acc * SemidirectElement.generator(m, abs(l), inverse=l < 0)
    return acc


def derive_unreduced_matrix(w: BraidWord) -> tuple:
    """Columns of the unreduced action of a pure word, from the Artin action.

    Column i is the vector part of the semidirect image of w(x_i); the
    monomial part must come out X_i exactly, otherwise the composition
    conventions are broken and we fail loudly.
    """
    if not permutation_image(w).is_identity():
        raise ValidationError("derive_unreduced_matrix needs a pure word")
    m = w.strands
    cols = []
    for i in range(1, m + 1):
        img = artin_apply(w, FreeWord.generator(m, i))
        se = semidirect_eval(img)
        expected = tuple(1 if j == i - 1 else 0 for j in range(m))
        if se.monomial != expected:
            raise InvariantError(
                f"monomial part of column {i} is X^{se.monomial}, expected X_{i}",
                reproducer={"op": "derive_unreduced_matrix",
                            "word": w.to_json(), "strands": m, "column": i})
        cols.append(se.vector)
    # transpose: entry [row][col]
    return tuple(tuple(cols[j][r] for j in range(m)) for r in range(m))
