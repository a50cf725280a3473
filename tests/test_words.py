import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import PSL2Element
from soficlab.words import ProductWord, ReducedWord, evaluate, random_reduced_word

GENS = ("a", "b", "c")


def test_empty_word_is_identity():
    assert ReducedWord().is_identity()
    assert ReducedWord() * ReducedWord() == ReducedWord()


def test_adjacent_inverses_cancel():
    w = ReducedWord((("a", 1), ("a", -1)))
    assert w.is_identity()
    w2 = ReducedWord((("a", 1), ("b", 1), ("b", -1), ("a", -1)))
    assert w2.is_identity()


def test_no_reduction_across_distinct_generators():
    w = ReducedWord((("a", 1), ("b", -1)))
    assert len(w) == 2


def test_inverse_cancels():
    rng = random.Random(0)
    for _ in range(300):
        w = random_reduced_word(rng, GENS, rng.randint(0, 10))
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()


def test_product_reassociates():
    rng = random.Random(1)
    for _ in range(300):
        u = random_reduced_word(rng, GENS, rng.randint(0, 6))
        v = random_reduced_word(rng, GENS, rng.randint(0, 6))
        w = random_reduced_word(rng, GENS, rng.randint(0, 6))
        assert (u * v) * w == u * (v * w)


def test_random_word_has_requested_length():
    rng = random.Random(2)
    for n in range(10):
        assert len(random_reduced_word(rng, GENS, n)) == n


def test_pow():
    w = ReducedWord.gen("a")
    assert (w**3).letters == (("a", 1),) * 3
    assert (w**-2) == (w.inverse()) ** 2
    assert (w**0).is_identity()


def test_invalid_sign_rejected():
    with pytest.raises(ValueError):
        ReducedWord.gen("a", 2)


def test_product_word_componentwise():
    rng = random.Random(3)
    for _ in range(100):
        u = ProductWord(random_reduced_word(rng, GENS, 3),
                        random_reduced_word(rng, ("x", "y"), 3))
        v = ProductWord(random_reduced_word(rng, GENS, 3),
                        random_reduced_word(rng, ("x", "y"), 3))
        uv = u * v
        assert uv.left == u.left * v.left
        assert uv.right == u.right * v.right
        assert (u * u.inverse()).is_identity()


# -- free reduction as a property ----------------------------------------

_letters = st.lists(st.tuples(st.sampled_from(GENS), st.sampled_from((1, -1))),
                    max_size=12)


def _is_reduced(word):
    return all(not (g == h and s == -t)
               for (g, s), (h, t) in zip(word.letters, word.letters[1:]))


@settings(max_examples=300, deadline=None)
@given(u=_letters, v=_letters, w=_letters)
def test_free_reduction_properties(u, v, w):
    u, v, w = ReducedWord(u), ReducedWord(v), ReducedWord(w)
    assert all(map(_is_reduced, (u, v, w, u * v, v * w, u * v * w)))
    assert (u * w.inverse()).is_identity() == (u == w)
    assert (u * u.inverse()).is_identity() and (u.inverse() * u).is_identity()
    assert (u * v) * w == u * (v * w)
    # reducing is idempotent and products reduce their concatenation
    assert ReducedWord(u.letters) == u
    assert u * v == ReducedWord(u.letters + v.letters)


def test_evaluate_folds_images_left_to_right():
    images = {"a": PSL2Element(1, 1, 0, 1, 7), "b": PSL2Element(1, 0, 3, 1, 7)}
    a, b = images["a"], images["b"]
    word = ReducedWord((("a", 1), ("b", -1), ("a", 1)))
    assert evaluate(word, images.__getitem__) == a * b.inverse() * a
    assert evaluate(word, images.__getitem__, start=b) == b * a * b.inverse() * a
    assert evaluate(ReducedWord(), images.__getitem__) is None
    assert evaluate(ReducedWord(), images.__getitem__, start=b) is b
    with pytest.raises(KeyError):
        evaluate(ReducedWord.gen("c"), images.__getitem__)
