"""Finitely presented groups: presentation text format, parser/printer,
and Tietze transformations (generator elimination, relator simplification).

Grammar (whitespace-insensitive, ``#`` line comments, optional ``name:``
header lines in files)::

    presentation := "<" genlist "|" rellist ">"
    genlist      := ident ("," ident)*
    rellist      := [ relation ("," relation)* ]
    relation     := word "=" word | word        (bare word means word = 1)
    word         := "1" | term+
    term         := atom [ "^" signed-int ]
    atom         := ident | "[" word "," word "]" | "(" word ")"

Relations ``w = v`` are normalized to the relator ``w v^-1``; commutators
are expanded according to the active convention; relators are stored
cyclically reduced, with trivial ones dropped.

Parsing is one pass, linear in the text.  The text is tokenized once,
and the descent recurses only into brackets, round and square: a word's
terms, each an atom and its power, are multiplied on one stack of
integer letters (numbered as in `checker.Alphabet`), and a `Word` is
built only for each relator and for the result of `parse_word`.  A
presentation's generator names are checked as each name is read.  A
parse error points at the offending token, and an error at the end of
input just past the last token; a token's place in the text is worked
out only for an error.  No word the parser builds may exceed
``MAX_WORD_LENGTH`` letters, once freely reduced; a power is checked
before it is expanded, so one short line cannot exhaust memory.
Brackets nest at most ``MAX_NESTING`` deep, so that the recursive
descent never runs out of stack.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby, zip_longest
from operator import itemgetter
from string import ascii_letters

from .checker import Alphabet, _fields, _list, read_word
from .words import (
    _GEN_NAME,
    CONVENTION_DEFAULT,
    GEN_NAME_RE,
    Word,
    _commutator_factors,
    check_generator_name,
)


# longest word the parser will build (the corpus needs a few dozen letters)
MAX_WORD_LENGTH = 100_000

# deepest bracket nesting the parser accepts (the corpus nests 2 deep)
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NoDefiningRelator(ValueError):
    """No relator isolates the generator requested for elimination."""

    def __init__(self, gen: str, candidates: Sequence[Word]):
        self.gen = gen
        self.candidates = list(candidates)
        shown = ", ".join(str(w) for w in self.candidates) or "none"
        super().__init__(
            f"no relator isolates generator {gen!r}; relators containing it: {shown}"
        )


class Presentation:
    """Immutable: generator name list plus cyclically reduced relators."""

    __slots__ = ("name", "generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable[Word] = (),
                 name: str = ""):
        gens = tuple(check_generator_name(g) for g in generators)
        if len(set(gens)) != len(gens):
            raise ValueError(f"duplicate generator names in {gens}")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "relators", tuple(
            core for core in map(self._relator_core, relators)
            if core is not None))

    def _relator_core(self, r: Word) -> Word | None:
        """r cyclically reduced and checked against the generators; None
        for the identity, which a freely reduced r is only when empty."""
        core, _ = r.cyclic_reduce()
        if core.is_identity():
            return None
        self.check_word(core, "relator")
        return core

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        return f"Presentation(< {', '.join(self.generators)} | {len(self.relators)} relators >)"

    def check_word(self, w: Word, what: str) -> None:
        """Raise ValueError when w uses a generator outside the presentation."""
        unknown = w.generators() - set(self.generators)
        if unknown:
            raise ValueError(f"{what} {w} uses unknown generators {sorted(unknown)}")

    def with_relators(self, relators: Iterable[Word]) -> "Presentation":
        """The same generators and name with these relators.  A relator
        that is one of this presentation's own (the same object) is
        already checked and reduced, and is kept as it is; any other is
        checked, reduced or dropped as the constructor does."""
        own = {id(r) for r in self.relators}
        cores = (r if id(r) in own else self._relator_core(r)
                 for r in relators)
        return Presentation._of(
            self.generators, tuple(core for core in cores if core is not None),
            self.name)

    @staticmethod
    def _of(generators: tuple[str, ...], relators: tuple[Word, ...],
            name: str) -> "Presentation":
        """A presentation of distinct checked generator names and of
        relators over them, each cyclically reduced and not trivial;
        nothing is checked."""
        q = object.__new__(Presentation)
        object.__setattr__(q, "generators", generators)
        object.__setattr__(q, "name", name)
        object.__setattr__(q, "relators", relators)
        return q

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generators": list(self.generators),
            "relators": [[[g, e] for g, e in r] for r in self.relators],
        }

    @staticmethod
    def from_json(data: dict) -> "Presentation":
        """Load a presentation, checking JSON types as the presentation
        schema does; raises ValueError naming the field on any malformed
        document."""
        name, gens, rels = _fields(data, "presentation", _PRESENTATION_FIELDS)
        if type(name) is not str:
            raise ValueError(f"name must be a string, got {name!r}")
        for k, g in enumerate(_list(gens, "generators")):
            if type(g) is not str or not GEN_NAME_RE.match(g):
                raise ValueError(f"generators[{k}] must be a generator name, "
                                 f"got {g!r}")
        alphabet = Alphabet()
        return Presentation(gens, [
            alphabet.decode(read_word(r, alphabet, f"relators[{k}]"))
            for k, r in enumerate(_list(rels, "relators"))], name=name)


_PRESENTATION_FIELDS = itemgetter("name", "generators", "relators")


# -- parsing ----------------------------------------------------------------

# one match per token, or per run of whitespace or a comment, which leaves
# the group empty; a character no token starts with is a token of its own
_TOKEN_RE = re.compile(rf"\s+|#[^\n]*|(-?\d+|{_GEN_NAME}|.)")

# the one-character tokens besides digits
_SINGLE_TOKENS = frozenset("<>|,=^[]()" + ascii_letters)

# a `name:` header line, up to its newline
_HEADER_RE = re.compile(r"^[^\S\n]*name:(.*)", re.MULTILINE)


def _times(stack: list[int], word: list[int]) -> None:
    """Multiply the freely reduced integer letters on stack, in place, by
    the freely reduced word: only its head can cancel."""
    j, n = 0, len(word)
    while stack and j < n and stack[-1] == word[j] ^ 1:
        stack.pop()
        j += 1
    stack.extend(word[j:] if j else word)


def _inverse(word: list[int]) -> list[int]:
    return [x ^ 1 for x in reversed(word)]


class _Parser:
    """Recursive descent over the tokens of one text, which recurses only
    into brackets.  A word is read term by term onto one stack of the
    integer letters of `alphabet`, and becomes a `Word` only once it is a
    relator or the parsed word.  A token is its text, "" at the end of
    input; an error's offset, line and column are found only when it is
    raised.  A token is a name when it starts with a letter, and an
    integer when it starts with "-" or a digit."""

    def __init__(self, text: str, convention: str):
        self.text = text
        self.tokens = list(filter(None, _TOKEN_RE.findall(text)))
        bad = [t for t in set(self.tokens) if len(t) == 1
               and t not in _SINGLE_TOKENS and not t.isdecimal()]
        if bad:
            i = min(map(self.tokens.index, bad))
            raise self.error(f"unexpected character {self.tokens[i]!r}", i)
        self.tokens.append("")
        self.i = 0
        self.convention = convention
        self.alphabet = Alphabet()
        self.closed = False  # whether a name outside the alphabet is unknown
        self.depth = 0  # brackets open around the current word

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token i, or just past the last token for the
        end of input."""
        spans = [m.span() for m in _TOKEN_RE.finditer(self.text)
                 if m.group(1)]
        offset = (spans[i][0] if i < len(spans)
                  else spans[-1][1] if spans else 0)
        return ParseError(message, self.text.count("\n", 0, offset) + 1,
                          offset - self.text.rfind("\n", 0, offset))

    def expect(self, value: str) -> None:
        t = self.tokens[self.i]
        if t != value:
            raise self.error(
                f"expected {value!r}, got {t or 'end of input'!r}", self.i)
        self.i += 1

    def parse_presentation(self, name: str) -> Presentation:
        self.expect("<")
        self.closed = True
        gens = self._separated(self._generator)
        self.expect("|")
        relators = ([] if self.tokens[self.i] == ">"
                    else self._separated(self._relation))
        self.expect(">")
        if self.tokens[self.i]:
            raise self.error("trailing input after presentation", self.i)
        decode = self.alphabet.decode
        return Presentation._of(
            tuple(gens), tuple(decode(r) for r in relators if r), name)

    def parse_word(self) -> Word:
        w = self._word()
        if self.tokens[self.i]:
            raise self.error("trailing input after word", self.i)
        return self.alphabet.decode(w)

    def _separated(self, item) -> list:
        """item() read once, and once more after each comma."""
        out = [item()]
        while self.tokens[self.i] == ",":
            self.i += 1
            out.append(item())
        return out

    def _generator(self) -> str:
        t = self.tokens[self.i]
        if not t[:1].isalpha():
            raise self.error(
                f"expected identifier, got {t or 'end of input'!r}", self.i)
        if t in self.alphabet.codes:
            raise self.error("duplicate generator name", self.i)
        self.alphabet.add(t)
        self.i += 1
        return t

    def _relation(self) -> list[int]:
        """The integer letters of the next relation's relator, cyclically
        reduced."""
        w = self._word()
        at = self.i
        if self.tokens[at] == "=":
            self.i += 1
            _times(w, _inverse(self._word()))
            if len(w) > MAX_WORD_LENGTH:
                raise self._too_long(at)
        k, n = 0, len(w)
        while n - 2 * k >= 2 and w[k] == w[n - 1 - k] ^ 1:
            k += 1
        return w[k:n - k]

    def _too_long(self, i: int) -> ParseError:
        """The error for a word longer than MAX_WORD_LENGTH letters, built
        by the term, commutator or relation at token i."""
        return self.error(f"word longer than {MAX_WORD_LENGTH} letters", i)

    def _word(self) -> list[int]:
        """The integer letters of the word at the current token, freely
        reduced: each term, an atom and its power, is multiplied onto one
        stack as it is read."""
        tokens = self.tokens
        i = self.i
        if tokens[i] == "1":
            self.i = i + 1
            return []
        codes = self.alphabet.codes
        stack: list[int] = []
        pop, push = stack.pop, stack.append
        first = i
        while True:
            term, t = i, tokens[i]
            x = codes.get(t)
            atom = None  # a bracket's letters; x is a name's letter
            if x is not None:
                i += 1
            elif t == "[" or t == "(":
                self.i = i
                atom = self._bracket()
                i = self.i
            elif t[:1].isalpha():
                if self.closed:
                    raise self.error(f"unknown generator {t!r}", i)
                x = self.alphabet.add(t)
                i += 1
            elif i == first:
                raise self.error(
                    f"expected word atom, got {t or 'end of input'!r}", i)
            else:
                self.i = i
                return stack
            if tokens[i] != "^":
                if atom is not None:
                    _times(stack, atom)
                elif stack and stack[-1] == x ^ 1:
                    pop()
                else:
                    push(x)
            else:
                if atom is None:
                    atom = [x]
                n = self._exponent(i + 1, len(atom))
                i += 2
                if n < 0:
                    atom, n = _inverse(atom), -n
                # n may be huge only for the empty atom
                for _ in range(n if atom else 0):
                    _times(stack, atom)
            if len(stack) > MAX_WORD_LENGTH:
                raise self._too_long(term)

    def _exponent(self, i: int, size: int) -> int:
        """The integer at token i, the exponent of a size-letter atom, if
        the power is at most MAX_WORD_LENGTH letters long."""
        e = self.tokens[i]
        if not (e[:1] == "-" or e[:1].isdecimal()):
            raise self.error(
                f"expected integer exponent, got {e or 'end of input'!r}", i)
        try:
            n = int(e)
        except ValueError:  # more digits than int() converts
            n = None
        if n is None or size * abs(n) > MAX_WORD_LENGTH:
            raise self.error(f"exponent expands a {size}-letter word past "
                             f"{MAX_WORD_LENGTH} letters", i)
        return n

    def _bracket(self) -> list[int]:
        """The integer letters of the bracket at the current token, a
        commutator or a word in parentheses."""
        at = self.i
        bracket = self.tokens[at]
        if self.depth == MAX_NESTING:
            raise self.error(
                f"brackets nested more than {MAX_NESTING} deep", at)
        self.depth += 1
        self.i += 1
        w = self._word()
        if bracket == "[":
            self.expect(",")
            u, v = w, self._word()
            w = []
            for f in _commutator_factors(u, v, _inverse(u), _inverse(v),
                                         self.convention):
                _times(w, f)
            if len(w) > MAX_WORD_LENGTH:
                raise self._too_long(at)
            self.expect("]")
        else:
            self.expect(")")
        self.depth -= 1
        return w


def parse_word(text: str, convention: str = CONVENTION_DEFAULT) -> Word:
    """Parse a single word in the presentation grammar."""
    return _Parser(text, convention).parse_word()


def parse_presentation(text: str, convention: str = CONVENTION_DEFAULT,
                       name: str = "") -> Presentation:
    """Parse presentation text.  A ``name:`` header line, which ends at
    the next ``\n``, names the presentation, the last one if there are
    several, and is read as a blank line."""
    headers = _HEADER_RE.findall(text)
    if headers:
        name = headers[-1].strip()
        text = _HEADER_RE.sub("", text)
    return _Parser(text, convention).parse_presentation(name)


def print_presentation(p: Presentation) -> str:
    """Canonical one-line form; re-parses to a structurally equal presentation."""
    gens = ", ".join(p.generators)
    rels = ", ".join(str(r) for r in p.relators)
    return f"< {gens} | {rels} >" if p.relators else f"< {gens} | >"


def load_presentation_file(path, convention: str = CONVENTION_DEFAULT) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read(), convention=convention)


# -- Tietze moves -----------------------------------------------------------

@dataclass(frozen=True)
class EliminateGenerator:
    gen: str
    definition: Word
    defining_relator_index: int


@dataclass(frozen=True)
class DropDuplicateRelator:
    index: int


TietzeMove = EliminateGenerator | DropDuplicateRelator


def _defining_forms(relator: Word, gen: str) -> Word | None:
    """If relator is gen*w^-1 up to cyclic permutation and inversion, with w
    free of gen, return the definition w."""
    if relator.count(gen) != 1:
        return None
    letters = relator.letters
    i = next(k for k, (g, _) in enumerate(letters) if g == gen)
    # the rotation gen^e * rest: rest is the letters after gen, round the cycle
    rest = Word(letters[i + 1:] + letters[:i])
    return rest.inverse() if letters[i][1] == 1 else rest


def _shortest_defining_relator(p: Presentation, gen: str) -> int | None:
    """Index of the shortest relator defining gen, the first among equals;
    None when no relator defines it.  A relator defines gen when it holds
    gen exactly once."""
    found = [(len(r), i) for i, r in enumerate(p.relators)
             if r.count(gen) == 1]
    return min(found)[1] if found else None


def eliminate_generator(p: Presentation, gen: str,
                        using: int | None = None) -> tuple[Presentation, EliminateGenerator]:
    """Remove gen using a defining relator gen*w^-1; substitute w elsewhere.

    With ``using``, that relator index must define gen and is the one
    consumed; otherwise the shortest defining relator is used, the first
    among equals.
    """
    if gen not in p.generators:
        raise ValueError(f"{gen!r} is not a generator of {p!r}")
    if using is None:
        using = _shortest_defining_relator(p, gen)
        if using is None:
            raise NoDefiningRelator(
                gen, [r for r in p.relators if gen in r.generators()])
    elif not 0 <= using < len(p.relators):
        raise ValueError(f"no relator {using} in {p!r}")
    definition = _defining_forms(p.relators[using], gen)
    if definition is None:
        raise NoDefiningRelator(gen, [p.relators[using]])
    new_rels = [r.substitute(gen, definition)
                for i, r in enumerate(p.relators) if i != using]
    move = EliminateGenerator(gen, definition, using)
    out = Presentation([g for g in p.generators if g != gen], new_rels, name=p.name)
    return out, move


def _cyclic_class_key(w: Word) -> tuple:
    """Canonical key identifying a cyclically reduced w up to cyclic
    permutation and inversion: its least rotation or its inverse's."""
    n = len(w)
    return min((doubled[i:i + n]
                for doubled in (w.letters * 2, w.inverse().letters * 2)
                for i in range(n)), default=())


def dedupe_relators(p: Presentation) -> tuple[Presentation, list[TietzeMove]]:
    """Drop relators equal to an earlier one up to cyclic permutation/inversion."""
    seen: set[tuple] = set()
    kept: list[Word] = []
    moves: list[TietzeMove] = []
    for i, r in enumerate(p.relators):
        key = _cyclic_class_key(r)
        if key in seen:
            moves.append(DropDuplicateRelator(i))
        else:
            seen.add(key)
            kept.append(r)
    return p.with_relators(kept), moves


def simplify(p: Presentation, budget: int = 1000) -> tuple[Presentation, list[TietzeMove]]:
    """Greedy simplification: repeatedly eliminate the generator with the
    shortest defining relator, deduplicating as we go.  When one relator
    defines two generators (like w*g^-1), the generator later in the
    generator list is the one eliminated: generators are listed in the
    order they were introduced, so auxiliary ones go first.

    The returned move list replays exactly via replay_moves.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    moves: list[TietzeMove] = []
    current = p
    while budget > 0:
        current, dropped = dedupe_relators(current)
        moves.extend(dropped)
        best: tuple[int, int, str, int] | None = None
        for pos, gen in enumerate(current.generators):
            i = _shortest_defining_relator(current, gen)
            if i is not None:
                key = (len(current.relators[i]), -pos, gen, i)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        current, move = eliminate_generator(current, best[2], using=best[3])
        moves.append(move)
        budget -= 1
    current, dropped = dedupe_relators(current)
    moves.extend(dropped)
    return current, moves


def replay_moves(p: Presentation, moves: Sequence[TietzeMove]) -> Presentation:
    """Re-apply a recorded move list to reproduce a simplification's output.

    Each move is checked against the presentation it was recorded on: an
    elimination must find the definition it recorded, and each run of
    consecutive drops must name exactly the relators `dedupe_relators`
    drops there, in its order.  A mismatch raises ValueError."""
    current = p
    for drops, run in groupby(
            moves, key=lambda m: isinstance(m, DropDuplicateRelator)):
        if drops:
            current, dropped = dedupe_relators(current)
            for got, want in zip_longest(run, dropped):
                if got != want:
                    raise ValueError(
                        f"replay mismatch dropping relator {got.index}"
                        if got is not None else
                        f"replay mismatch: relator {want.index} is a "
                        f"duplicate the moves keep")
            continue
        for move in run:
            if not isinstance(move, EliminateGenerator):
                raise TypeError(f"unknown move {move!r}")
            current, got = eliminate_generator(
                current, move.gen, using=move.defining_relator_index)
            if got.definition != move.definition:
                raise ValueError(f"replay mismatch eliminating {move.gen}")
    return current


def abelianized_relation_matrix(p: Presentation) -> list[list[int]]:
    """One row per relator, one column per generator: exponent sums,
    added up letter by letter in one pass over each relator."""
    column = {g: j for j, g in enumerate(p.generators)}
    matrix = []
    for r in p.relators:
        row = [0] * len(column)
        for g, e in r.letters:
            row[column[g]] += e
        matrix.append(row)
    return matrix
