"""Free-group words over named generators.

A word is an immutable, always freely reduced sequence of letters
``(generator_name, exponent)`` with exponent +1 or -1.  Powers such as
``q^-2`` are expanded into repeated letters at construction time; power
compression is purely a printing concern.

Input enters through ``Word(letters)``, ``Word.gen`` and ``Word.from_pairs``,
which check exponents and reduce in full; JSON words are read by
`fpverify.checker.read_word`.  Arithmetic on words relies on the
invariant that every ``Word`` is already reduced: in a product ``u * v``
only the seam between u's tail and v's head can cancel, so ``*``,
``inverse`` and ``conjugated_by`` cancel at the seam (or not at all) and
wrap the result without another pass over its letters.  ``_multiply``
does the same in place on a letter stack for a whole sequence of reduced
letter tuples, and ``_product`` wraps its result; they take letters, not
words, so a caller can feed them the inverse of a word, or a relator,
without wrapping either in a ``Word``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence

# a generator name, as the presentation grammar's tokenizer and the name
# check both read it
_GEN_NAME = r"[A-Za-z][A-Za-z0-9_]*"
GEN_NAME_RE = re.compile(_GEN_NAME + r"\Z")

# Commutator conventions.  DEFAULT expands [u,v] = u v u^-1 v^-1, which is
# the convention forced by the source material's generator eliminations.
# GAP expands [u,v] = u^-1 v^-1 u v and is kept for cross-checking.
CONVENTION_DEFAULT = "default"
CONVENTION_GAP = "gap"
CONVENTIONS = (CONVENTION_DEFAULT, CONVENTION_GAP)

Letter = tuple[str, int]


def check_generator_name(name: str) -> str:
    if type(name) is not str or not GEN_NAME_RE.match(name):
        raise ValueError(f"invalid generator name: {name!r}")
    return name


class Word:
    """A freely reduced word.  The empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        stack: list[Letter] = []
        for gen, exp in letters:
            if exp not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {exp}")
            if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
                stack.pop()
            else:
                stack.append((gen, exp))
        object.__setattr__(self, "letters", tuple(stack))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def gen(name: str, exp: int = 1) -> "Word":
        """The word ``name^exp`` for any integer exp."""
        check_generator_name(name)
        sign = 1 if exp > 0 else -1
        return Word([(name, sign)] * abs(exp))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, int]]) -> "Word":
        """Build from (name, exponent) pairs with arbitrary integer exponents."""
        letters: list[Letter] = []
        for name, exp in pairs:
            check_generator_name(name)
            sign = 1 if exp > 0 else -1
            letters.extend([(name, sign)] * abs(exp))
        return Word(letters)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def generators(self) -> set[str]:
        return {g for g, _ in self.letters}

    def exponent_sum(self, gen: str) -> int:
        return sum(e for g, e in self.letters if g == gen)

    def count(self, gen: str) -> int:
        """Number of occurrences of gen or its inverse."""
        return sum(1 for g, _ in self.letters if g == gen)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        a = self.letters
        b = other.letters
        if not a:
            return other
        if not b:
            return self
        i = len(a)
        j = 0
        n = len(b)
        while i and j < n and a[i - 1][0] == b[j][0] and a[i - 1][1] == -b[j][1]:
            i -= 1
            j += 1
        return _reduced(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return _reduced(tuple([(g, -e) for g, e in reversed(self.letters)]))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if not self.letters:  # even for an n too large to repeat a tuple by
            return self
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def conjugated_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * u.inverse()

    def substitute(self, gen: str, replacement: "Word") -> "Word":
        """Replace every gen^e by replacement^e, then freely reduce."""
        out: list[Letter] = []
        inv = replacement.inverse().letters
        for g, e in self.letters:
            if g == gen:
                out.extend(replacement.letters if e == 1 else inv)
            else:
                out.append((g, e))
        return Word(out)

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return (core, conjugator) with self == conjugator*core*conjugator^-1
        and core cyclically reduced."""
        a = self.letters
        n = len(a)
        k = 0
        while n - 2 * k >= 2 and a[k][0] == a[n - 1 - k][0] \
                and a[k][1] == -a[n - 1 - k][1]:
            k += 1
        return _reduced(a[k:n - k]), _reduced(a[:k])

    # -- printing -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Word({self!s})"

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            g, e = self.letters[i]
            j = i
            while j < len(self.letters) and self.letters[j] == (g, e):
                j += 1
            total = e * (j - i)
            parts.append(g if total == 1 else f"{g}^{total}")
            i = j
        return " ".join(parts)


_new_word = Word.__new__
_set_letters = Word.letters.__set__


def _reduced(letters: tuple[Letter, ...]) -> Word:
    """Wrap a letter tuple already known to be freely reduced with
    exponents +-1; nothing is checked."""
    w = _new_word(Word)
    _set_letters(w, letters)
    return w


def _multiply(stack: list[Letter], seqs: Iterable[Sequence[Letter]]) -> None:
    """Multiply the freely reduced letters on stack, in place, by each of
    the freely reduced sequences seqs in turn: each cancels against the
    stack only at its head, and the rest of it is pushed whole."""
    pop = stack.pop
    for b in seqs:
        j = 0
        n = len(b)
        while stack and j < n and stack[-1][0] == b[j][0] \
                and stack[-1][1] == -b[j][1]:
            pop()
            j += 1
        stack.extend(b[j:] if j else b)


def _product(seqs: Iterable[Sequence[Letter]]) -> Word:
    """Free reduction of the product of freely reduced letter sequences, in
    one stack pass."""
    stack: list[Letter] = []
    _multiply(stack, seqs)
    return _reduced(tuple(stack))


_IDENTITY = Word()


def free_reduce(letters: Iterable[Letter]) -> Word:
    """Freely reduce a raw letter sequence."""
    return Word(letters)


def invert(w: Word) -> Word:
    return w.inverse()


def conjugate(w: Word, u: Word) -> Word:
    """u * w * u^-1."""
    return w.conjugated_by(u)


def commutator(u: Word, v: Word, convention: str = CONVENTION_DEFAULT) -> Word:
    """[u, v] under the chosen expansion convention."""
    if convention == CONVENTION_DEFAULT:
        return u * v * u.inverse() * v.inverse()
    if convention == CONVENTION_GAP:
        return u.inverse() * v.inverse() * u * v
    raise ValueError(f"unknown commutator convention: {convention!r}")


def substitute(w: Word, gen: str, replacement: Word) -> Word:
    return w.substitute(gen, replacement)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    return w.cyclic_reduce()
