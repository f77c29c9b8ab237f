"""Braid words, permutation images, pure generators, full twists."""

import random

import pytest

from braidrep.braid import (
    MAX_WORD_LENGTH,
    BraidWord,
    Permutation,
    full_twist,
    parse_word,
    permutation_image,
    pure_generator,
)
from braidrep.errors import ValidationError
from oracles import random_pure_word


class TestPermutationImage:
    def test_single_generator(self):
        w = BraidWord(3, (1,))
        assert permutation_image(w).one_line() == (2, 1, 3)

    def test_square_is_identity(self):
        w = BraidWord(3, (1, 1))
        assert permutation_image(w).is_identity()

    def test_braid_relation_image(self):
        a = permutation_image(BraidWord(3, (1, 2, 1)))
        b = permutation_image(BraidWord(3, (2, 1, 2)))
        assert a == b
        assert a.one_line() == (3, 2, 1)

    def test_homomorphism(self):
        rng = random.Random(0)
        for _ in range(200):
            strands = rng.randint(2, 6)
            u = BraidWord(strands, [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                                    for _ in range(rng.randint(0, 6))])
            v = BraidWord(strands, [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                                    for _ in range(rng.randint(0, 6))])
            assert permutation_image(u * v) == \
                permutation_image(u) * permutation_image(v)


class TestPureGenerators:
    def test_adjacent_is_square(self):
        assert pure_generator(1, 2, 3) == BraidWord(3, (1, 1))

    def test_conjugated_form(self):
        assert pure_generator(1, 3, 3) == BraidWord(3, (-2, 1, 1, 2))

    def test_always_pure(self):
        for strands in range(2, 9):
            for r in range(1, strands):
                for s in range(r + 1, strands + 1):
                    assert permutation_image(
                        pure_generator(r, s, strands)).is_identity()

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            pure_generator(2, 2, 3)
        with pytest.raises(ValidationError):
            pure_generator(1, 4, 3)


class TestFullTwist:
    def test_single(self):
        assert full_twist(1, 2, 2) == BraidWord(2, (1,))

    def test_delta2(self):
        assert full_twist(1, 3, 3) == BraidWord(3, (1, 2, 1))

    def test_delta_squared_is_pure(self):
        for strands in range(2, 7):
            for a in range(1, strands):
                for b in range(a + 1, strands + 1):
                    assert permutation_image(
                        full_twist(a, b, strands) ** 2).is_identity()
        assert permutation_image(full_twist(1, 4, 4) ** 2).is_identity()


class TestParsing:
    def test_generator_tokens(self):
        assert parse_word(3, "s1 s2^-1 s1") == BraidWord(3, (1, -2, 1))
        assert parse_word(3, "s1^3") == BraidWord(3, (1, 1, 1))

    def test_pure_generator_token(self):
        assert parse_word(3, "A 1 3") == pure_generator(1, 3, 3)

    def test_full_twist_token(self):
        assert parse_word(4, "T 1 4 T 1 4") == full_twist(1, 4, 4) ** 2

    def test_bad_tokens(self):
        with pytest.raises(ValidationError):
            parse_word(3, "q1")
        with pytest.raises(ValidationError):
            parse_word(3, "A 1")
        with pytest.raises(ValidationError):
            parse_word(3, "s9")

    def test_word_budget(self):
        assert len(parse_word(7, "T 1 6 T 1 6").letters) == MAX_WORD_LENGTH
        with pytest.raises(ValidationError, match="MAX_WORD_LENGTH"):
            parse_word(3, f"s1^{MAX_WORD_LENGTH + 1}")
        # a power is rejected before its letters are built
        with pytest.raises(ValidationError, match="MAX_WORD_LENGTH"):
            parse_word(3, "s2^-1000000000000")

    def test_roundtrip_str(self):
        w = BraidWord(4, (1, -2, 3))
        assert parse_word(4, str(w)) == w


class TestRandomPureWords:
    def test_pure_by_construction(self):
        rng = random.Random(1)
        for _ in range(100):
            strands = rng.randint(2, 6)
            assert permutation_image(
                random_pure_word(strands, rng)).is_identity()


class TestPermutation:
    def test_compose_order(self):
        # (p * q)(x) = p(q(x))
        p = Permutation.transposition(3, 1)
        q = Permutation.transposition(3, 2)
        assert (p * q)(3) == p(q(3)) == 1

    def test_inverse(self):
        rng = random.Random(2)
        for _ in range(50):
            m = rng.randint(1, 7)
            im = list(range(m))
            rng.shuffle(im)
            p = Permutation(tuple(im))
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()
