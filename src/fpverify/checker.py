"""The witness checker: certificates and derivation chains decided on
integer letters, and the one reader of JSON words.

A certificate claims

    target  ==  prod_i  u_i * r_{k_i}^{s_i} * u_i^-1      (freely reduced),

and a derivation chain is a list of certificates, step k over the
relators plus the targets of steps 0..k-1.  Deciding either takes one
free reduction per certificate, and this module is all of it: it imports
nothing from fpverify but `words`, so a reader who wants to trust a
verdict reads this file and not the engines that found the witness.

Letters are integers.  An `Alphabet` numbers generator names in the order
it meets them: the k-th is the letter 2k and its inverse 2k + 1, so
inverting a letter is ``x ^ 1``.  A word is a list of such letters,
freely reduced.  A `CosetTable` numbers its columns by an `Alphabet` of
its generators, and its proof log reads letters through the same one:
the table, its log and this checker share one letter code, and the
engines import this module, never the reverse.

`read_word` is the one JSON-word walker: it checks each letter as the
JSON schemas do, raising ValueError naming the field, and reduces as it
reads.  `read_certificate` and `read_derivation` read whole witnesses
through it into plain tuples, ``(target, factors)`` with factors
``(conjugator, relator index, sign)``, and ``(target, steps)`` with steps
``(target, factors)``.  `product` is the one certificate product loop,
and `check_certificate` and `check_derivation` decide witnesses with it.
`Certificate.from_json`, `Derivation.from_json` and
`Presentation.from_json` read through the same walker, and
`verify_certificate` and `verify_derivation` encode their words and call
the same loop; a corpus replay decodes frozen witnesses straight into the
tuples and builds no word object for them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from .words import GEN_NAME_RE, Letter, Word, _reduced


class Alphabet:
    """Generator names and their integer letters: the k-th name added is
    the letter 2k, and its inverse 2k + 1."""

    __slots__ = ("codes", "letters", "index")

    def __init__(self, names: Iterable[str] = ()):
        self.codes: dict[str, int] = {}     # name -> its letter
        self.letters: list[Letter] = []     # integer letter -> (name, +-1)
        self.index: dict[Letter, int] = {}  # (name, +-1) -> integer letter
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """The letter of name, a checked generator name not yet added."""
        x = self.codes[name] = len(self.letters)
        pos, neg = (name, 1), (name, -1)
        self.letters += (pos, neg)
        self.index[pos] = x
        self.index[neg] = x + 1
        return x

    def encode(self, letters: Sequence[Letter]) -> list[int]:
        """The integer letters of a word's letters; a name not seen yet is
        added."""
        try:
            return list(map(self.index.__getitem__, letters))
        except KeyError:
            for name, _ in letters:
                if name not in self.codes:
                    self.add(name)
            return list(map(self.index.__getitem__, letters))

    def decode(self, word: Sequence[int]) -> Word:
        """The Word of freely reduced integer letters."""
        return _reduced(tuple(map(self.letters.__getitem__, word)))


# -- reading JSON -----------------------------------------------------------

def _fields(data, what: str, get):
    """get(data) for an itemgetter get; ValueError unless data is a JSON
    object holding every key get reads."""
    if type(data) is not dict:
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    try:
        return get(data)
    except KeyError as e:
        raise ValueError(f"{what} has no {e.args[0]!r} field") from None


def _list(data, what: str) -> list:
    if type(data) is not list:
        raise ValueError(f"{what} must be a list, got {type(data).__name__}")
    return data


def _bad_letter(what: str, pair) -> ValueError:
    return ValueError(f"{what} letter must be [name, 1 or -1], got {pair!r}")


def read_word(pairs, alphabet: Alphabet, what: str = "word") -> list[int]:
    """A JSON word checked and freely reduced in one pass over its letters.

    Each letter must be a 2-element list of a generator name and an
    exponent 1 or -1 (a JSON bool is not an integer).  A name is matched
    against GEN_NAME_RE the first time alphabet meets it, in this call or
    an earlier one, and added to it."""
    if type(pairs) is not list:
        raise ValueError(f"{what} must be a list, got {type(pairs).__name__}")
    codes = alphabet.codes
    stack: list[int] = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise _bad_letter(what, pair)
        name, exp = pair
        if type(exp) is not int or (exp != 1 and exp != -1):
            raise _bad_letter(what, pair)
        try:
            x = codes[name]
        except (KeyError, TypeError):  # unseen, or not even hashable
            if type(name) is not str or not GEN_NAME_RE.match(name):
                raise _bad_letter(what, pair) from None
            x = alphabet.add(name)
        if exp == -1:
            x += 1
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return stack


_CERTIFICATE_FIELDS = itemgetter("target", "factors")
_FACTOR_FIELDS = itemgetter("conjugator", "relator", "sign")
_DERIVATION_FIELDS = itemgetter("target", "steps")


def read_certificate(data, alphabet: Alphabet) -> tuple[list[int], list]:
    """``(target, factors)`` of a JSON certificate, each factor
    ``(conjugator, relator index, sign)``; the JSON types are checked as
    the certificate schema does, and ValueError names the field of a
    malformed document."""
    target, factors = _fields(data, "certificate", _CERTIFICATE_FIELDS)
    target = read_word(target, alphabet, "target")
    out = []
    push = out.append
    for i, f in enumerate(_list(factors, "factors")):
        try:
            conjugator, relator, sign = _fields(f, "factor", _FACTOR_FIELDS)
            if type(relator) is not int or relator < 0:
                raise ValueError(f"relator must be an integer >= 0, "
                                 f"got {relator!r}")
            if type(sign) is not int or (sign != 1 and sign != -1):
                raise ValueError(f"sign must be 1 or -1, got {sign!r}")
            push((read_word(conjugator, alphabet, "conjugator"), relator, sign))
        except ValueError as e:
            raise ValueError(f"factors[{i}]: {e}") from None
    return target, out


def read_derivation(data, alphabet: Alphabet) -> tuple[list[int], list]:
    """``(target, steps)`` of a JSON derivation, each step a
    `read_certificate` pair; ValueError names the field of a malformed
    document."""
    target, steps = _fields(data, "derivation", _DERIVATION_FIELDS)
    target = read_word(target, alphabet, "target")
    out = []
    for i, step in enumerate(_list(steps, "steps")):
        try:
            out.append(read_certificate(step, alphabet))
        except ValueError as e:
            raise ValueError(f"steps[{i}]: {e}") from None
    return target, out


# -- checking ---------------------------------------------------------------

def product(relators: Sequence[Sequence[int]], factors) -> list[int]:
    """The product of the factors ``(u, k, sign)``, each u * r_k^sign *
    u^-1, freely reduced on one stack a letter at a time: the letters of
    u, then of r_k or its inverse, then of u^-1, each cancelling the
    stack's top when it is its inverse.  Each relator is inverted at most
    once per call.

    Raises IndexError naming the factor whose relator index is out of
    range, and ValueError for a sign other than +-1."""
    n = len(relators)
    inverses: dict[int, list[int]] = {}
    stack: list[int] = []
    pop, push = stack.pop, stack.append
    for i, (u, k, sign) in enumerate(factors):
        if not 0 <= k < n:
            raise IndexError(f"factors[{i}]: relator index {k} out of range")
        if sign == 1:
            r = relators[k]
        elif sign == -1:
            r = inverses.get(k)
            if r is None:
                r = inverses[k] = [x ^ 1 for x in reversed(relators[k])]
        else:
            raise ValueError(f"factors[{i}]: factor sign must be +-1, "
                             f"got {sign}")
        for x in u:
            if stack and stack[-1] == x ^ 1:
                pop()
            else:
                push(x)
        for x in r:
            if stack and stack[-1] == x ^ 1:
                pop()
            else:
                push(x)
        for x in reversed(u):  # the letter x ^ 1 of u^-1
            if stack and stack[-1] == x:
                pop()
            else:
                push(x ^ 1)
    return stack


def check_certificate(relators: Sequence[Sequence[int]], target: list[int],
                      factors) -> bool:
    """Whether the factors multiply out to target over relators."""
    return product(relators, factors) == target


def check_derivation(relators: Sequence[Sequence[int]], target: list[int],
                     steps) -> bool:
    """Whether every step ``(target, factors)`` multiplies out to its
    target over relators plus the targets of the steps before it, and the
    last step derives target; the empty chain derives the identity alone.
    `product`'s errors name the step."""
    if not steps:
        return not target
    relators = list(relators)
    for i, (step_target, factors) in enumerate(steps):
        try:
            if product(relators, factors) != step_target:
                return False
        except (IndexError, ValueError) as e:
            raise type(e)(f"steps[{i}]: {e}") from None
        relators.append(step_target)
    return steps[-1][0] == target
