"""Freely reduced words in named generators, and pairs of such words.

A letter is a (generator, sign) pair with sign +1 or -1.  Words are kept
reduced at all times: no letter is ever adjacent to its inverse.
"""

from __future__ import annotations


class ReducedWord:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(letters)

    @staticmethod
    def identity() -> "ReducedWord":
        return ReducedWord()

    @staticmethod
    def gen(name: str, sign: int = 1) -> "ReducedWord":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return ReducedWord(((name, sign),))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return ReducedWord(self.letters + other.letters)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "ReducedWord":
        if n < 0:
            return self.inverse() ** (-n)
        out = ReducedWord()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, ReducedWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "e"
        return " ".join(g if s == 1 else f"{g}^-1" for g, s in self.letters)


def evaluate(word: ReducedWord, image, start=None):
    """start times the images of the word's letters, multiplied left to right
    with *; image(name) gives a generator's image, and a negative letter uses
    its inverse().  An empty word with no start gives None.

    This is the one word evaluator: group elements and permutations (where *
    is composition, "after") alike."""
    acc = start
    for g, s in word.letters:
        img = image(g) if s == 1 else image(g).inverse()
        acc = img if acc is None else acc * img
    return acc


def _free_reduce(letters):
    stack = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"invalid sign {s}")
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def random_reduced_word(rng, gen_names, length: int) -> ReducedWord:
    """Uniform-ish random reduced word of exactly the given length (or the
    identity if length is 0); rng is a random.Random."""
    letters = []
    for _ in range(length):
        while True:
            g = rng.choice(gen_names)
            s = rng.choice((1, -1))
            if letters and letters[-1] == (g, -s):
                continue
            letters.append((g, s))
            break
    return ReducedWord(tuple(letters))


class ProductWord:
    """An element of a direct product of two free groups: a pair of words."""

    __slots__ = ("left", "right")

    def __init__(self, left: ReducedWord = None, right: ReducedWord = None):
        self.left = left if left is not None else ReducedWord()
        self.right = right if right is not None else ReducedWord()

    def is_identity(self) -> bool:
        return self.left.is_identity() and self.right.is_identity()

    def __mul__(self, other: "ProductWord") -> "ProductWord":
        return ProductWord(self.left * other.left, self.right * other.right)

    def inverse(self) -> "ProductWord":
        return ProductWord(self.left.inverse(), self.right.inverse())

    def __eq__(self, other):
        return (
            isinstance(other, ProductWord)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"({self.left!r}, {self.right!r})"
