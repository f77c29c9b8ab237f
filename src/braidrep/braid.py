"""Braid words, permutation images, pure-braid generators, half twists.

A word is a sequence of signed generator indices: +i stands for s_i, -i for
s_i^-1, with 1 <= i <= strands-1.  No rewriting or normal forms happen here;
words are only ever compared through their representation images.

Composition convention (fixed once, used everywhere): a word acts on objects
letter by letter with the *rightmost letter applied first*, so the word
``u v`` acts as u after v.  Under this convention the conjugated words
``Pi^-1 s_r^2 Pi`` with Pi = s_{r+1} ... s_{s-1} reproduce the classical
closed-form matrices of the pure-braid generators; that agreement is asserted
by the test suite rather than assumed.
"""

from __future__ import annotations

from .errors import ValidationError


class Permutation:
    """A bijection of {1..m}, stored 0-based internally."""

    __slots__ = ("images",)

    def __init__(self, images: tuple):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a bijection: {images}")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> Permutation:
        return cls(tuple(range(m)))

    @classmethod
    def transposition(cls, m: int, i: int) -> Permutation:
        """The transposition (i, i+1) in 1-based labels."""
        im = list(range(m))
        im[i - 1], im[i] = im[i], im[i - 1]
        return cls(tuple(im))

    def __mul__(self, other: Permutation) -> Permutation:
        # (p * q)(x) = p(q(x)): q first, then p
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def __call__(self, i: int) -> int:
        """Image of a 1-based label."""
        return self.images[i - 1] + 1

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def one_line(self) -> tuple:
        """The 1-based one-line form (image of 1, image of 2, ...)."""
        return tuple(j + 1 for j in self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.one_line()}"


class BraidWord:
    """A word in the braid generators of B_strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters=()):
        if strands < 2:
            raise ValidationError("a braid group needs at least 2 strands")
        letters = tuple(letters)
        for l in letters:
            if l == 0 or not 1 <= abs(l) <= strands - 1:
                raise ValidationError(
                    f"letter {l} out of range for {strands} strands")
        self.strands = strands
        self.letters = letters

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.strands != other.strands:
            raise ValidationError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, k: int) -> BraidWord:
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.strands, self.letters * k)

    def __eq__(self, other):
        return (isinstance(other, BraidWord)
                and self.strands == other.strands
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __str__(self):
        if not self.letters:
            return "e"
        return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, '{self}')"

    def to_json(self) -> list:
        return list(self.letters)


# The most letters (after expanding powers, A and T) parse_word accepts; 30
# is the full twist Delta^2 on 6 strands.  Symbolic cost grows fast with it.
MAX_WORD_LENGTH = 30


def parse_word(strands: int, text: str) -> BraidWord:
    """Parse a word from tokens.

    Grammar (whitespace separated):
      ``s<i>`` or ``s<i>^<k>``      generator power (k may be negative)
      ``A <r> <s>``                 pure-braid generator A_{rs}
      ``T <a> <b>``                 half twist Delta on the strand interval [a, b]

    A word over MAX_WORD_LENGTH letters is rejected before it is built.
    """
    tokens = text.split()
    letters: list = []

    def make_room(count: int):
        if len(letters) + count > MAX_WORD_LENGTH:
            raise ValidationError(f"word has more than {MAX_WORD_LENGTH} "
                                  "letters (the budget MAX_WORD_LENGTH)")

    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok in ("A", "T"):
            if pos + 2 >= len(tokens):
                raise ValidationError(f"token '{tok}' needs two integer arguments")
            try:
                a, b = int(tokens[pos + 1]), int(tokens[pos + 2])
            except ValueError:
                raise ValidationError(
                    f"token '{tok}' needs two integer arguments") from None
            word = (pure_generator(a, b, strands) if tok == "A"
                    else full_twist(a, b, strands))
            make_room(len(word.letters))
            letters.extend(word.letters)
            pos += 3
            continue
        if not tok.startswith("s"):
            raise ValidationError(f"unrecognized token '{tok}'")
        body = tok[1:]
        if "^" in body:
            istr, kstr = body.split("^", 1)
        else:
            istr, kstr = body, "1"
        try:
            i, k = int(istr), int(kstr)
        except ValueError:
            raise ValidationError(f"unrecognized token '{tok}'") from None
        make_room(abs(k))
        letters.extend([i if k >= 0 else -i] * abs(k))
        pos += 1
    return BraidWord(strands, letters)


def permutation_image(w: BraidWord) -> Permutation:
    """The image of a braid word in the symmetric group (s_i -> (i, i+1))."""
    p = Permutation.identity(w.strands)
    for l in w.letters:
        p = p * Permutation.transposition(w.strands, abs(l))
    return p


def pure_generator(r: int, s: int, strands: int) -> BraidWord:
    """The standard pure-braid generator A_{rs} = Pi^-1 s_r^2 Pi.

    Pi is the connecting word s_{r+1} s_{r+2} ... s_{s-1}; in particular
    A_{r,r+1} = s_r^2.
    """
    if not 1 <= r < s <= strands:
        raise ValidationError(
            f"need 1 <= r < s <= {strands}, got r={r}, s={s}")
    pi = list(range(r + 1, s))  # s_{r+1} .. s_{s-1}
    letters = [-i for i in reversed(pi)] + [r, r] + pi
    return BraidWord(strands, letters)


def full_twist(a: int, b: int, strands: int) -> BraidWord:
    """The half twist on the strand interval [a, b]:
    (s_a ... s_{b-1})(s_a ... s_{b-2}) ... (s_a).

    Its square is central in the braid group of the interval and is pure.
    """
    if not 1 <= a < b <= strands:
        raise ValidationError(
            f"need 1 <= a < b <= {strands}, got a={a}, b={b}")
    letters = []
    for top in range(b - 1, a - 1, -1):
        letters.extend(range(a, top + 1))
    return BraidWord(strands, letters)
