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

Parsing is one pass, linear in the text: a word's terms are multiplied
on one letter stack, and a presentation's generator names are checked as
each name is read.  A parse error points at the offending token, and an
error at the end of input just past the last token.  No word the parser
builds may exceed ``MAX_WORD_LENGTH`` letters, once freely reduced; a
power is checked before it is expanded, so one short line cannot exhaust
memory.  Brackets, round and square, nest at most ``MAX_NESTING`` deep,
so that the recursive descent never runs out of stack.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby, zip_longest
from operator import itemgetter

from .checker import Alphabet, _fields, _list, read_word
from .words import (
    _GEN_NAME,
    CONVENTION_DEFAULT,
    GEN_NAME_RE,
    Word,
    _multiply,
    _reduced,
    check_generator_name,
    commutator,
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
        q = object.__new__(Presentation)
        object.__setattr__(q, "generators", self.generators)
        object.__setattr__(q, "name", self.name)
        cores = (r if id(r) in own else q._relator_core(r) for r in relators)
        object.__setattr__(q, "relators", tuple(
            core for core in cores if core is not None))
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

# one token: whitespace and comments match no named group and are skipped,
# and `bad` is any character no token starts with
_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<int>-?\d+)"
    rf"|(?P<ident>{_GEN_NAME})"
    r"|(?P<punct>[<>|,=^\[\]()])"
    r"|(?P<bad>.)"
)

# a `name:` header line, up to its newline
_HEADER_RE = re.compile(r"^[^\S\n]*name:(.*)", re.MULTILINE)


class _Parser:
    """Recursive descent over the tokens of one text.  A token is
    (kind, value, offset); an error's line and column are computed from
    its offset only when it is raised."""

    def __init__(self, text: str, convention: str):
        self.text = text
        self.tokens = [(m.lastgroup, m.group(), m.start())
                       for m in _TOKEN_RE.finditer(text) if m.lastgroup]
        for kind, value, offset in self.tokens:
            if kind == "bad":
                raise self.error(f"unexpected character {value!r}", offset)
        # end of input sits just past the last token
        _, value, offset = self.tokens[-1] if self.tokens else ("", "", 0)
        self.tokens.append(("eof", "", offset + len(value)))
        self.i = 0
        self.convention = convention
        self.gens: set[str] | None = None  # the names an atom may use
        self.depth = 0  # brackets open around the current atom

    def error(self, message: str, offset: int) -> ParseError:
        """A ParseError at offset into the text."""
        return ParseError(message, self.text.count("\n", 0, offset) + 1,
                          offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        _, val, offset = self.next()
        if val != value:
            raise self.error(
                f"expected {value!r}, got {val or 'end of input'!r}", offset)

    def parse_presentation(self, name: str) -> Presentation:
        self.expect("<")
        self.gens = set()
        gens = self._separated(self._generator)
        self.expect("|")
        relators = ([] if self.peek()[1] == ">"
                    else self._separated(self._relation))
        self.expect(">")
        if self.peek()[0] != "eof":
            raise self.error("trailing input after presentation",
                             self.peek()[2])
        return Presentation(gens, relators, name=name)

    def parse_word(self) -> Word:
        w = self._word()
        if self.peek()[0] != "eof":
            raise self.error("trailing input after word", self.peek()[2])
        return w

    def _separated(self, item) -> list:
        """item() read once, and once more after each comma."""
        out = [item()]
        while self.peek()[1] == ",":
            self.i += 1
            out.append(item())
        return out

    def _generator(self) -> str:
        kind, val, offset = self.next()
        if kind != "ident":
            raise self.error(
                f"expected identifier, got {val or 'end of input'!r}", offset)
        if val in self.gens:
            raise self.error("duplicate generator name", offset)
        self.gens.add(val)
        return val

    def _relation(self) -> Word:
        left = self._word()
        if self.peek()[1] != "=":
            return left
        offset = self.next()[2]
        return self._bounded(left * self._word().inverse(), offset)

    def _word(self) -> Word:
        if self.peek()[1] == "1":
            self.i += 1
            return Word.identity()
        stack = list(self._term().letters)
        while True:
            kind, val, offset = self.peek()
            if kind != "ident" and val not in ("[", "("):
                return _reduced(tuple(stack))
            _multiply(stack, (self._term().letters,))
            self._bounded(stack, offset)

    def _term(self) -> Word:
        atom = self._atom()
        if self.peek()[1] != "^":
            return atom
        self.i += 1
        kind, val, offset = self.next()
        if kind != "int":
            raise self.error(f"expected integer exponent, got "
                             f"{val or 'end of input'!r}", offset)
        try:
            n = int(val)
        except ValueError:  # more digits than int() converts
            n = None
        if n is None or len(atom) * abs(n) > MAX_WORD_LENGTH:
            raise self.error(f"exponent expands a {len(atom)}-letter word "
                             f"past {MAX_WORD_LENGTH} letters", offset)
        return atom ** n

    def _bounded(self, w, offset: int):
        """w, a word or a letter stack, unless it is longer than
        MAX_WORD_LENGTH letters."""
        if len(w) > MAX_WORD_LENGTH:
            raise self.error(f"word longer than {MAX_WORD_LENGTH} letters",
                             offset)
        return w

    def _atom(self) -> Word:
        kind, val, offset = self.next()
        if kind == "ident":
            if self.gens is not None and val not in self.gens:
                raise self.error(f"unknown generator {val!r}", offset)
            return _reduced(((val, 1),))
        if val not in ("[", "("):
            raise self.error(
                f"expected word atom, got {val or 'end of input'!r}", offset)
        if self.depth == MAX_NESTING:
            raise self.error(
                f"brackets nested more than {MAX_NESTING} deep", offset)
        self.depth += 1
        w = self._word()
        if val == "[":
            self.expect(",")
            w = self._bounded(commutator(w, self._word(), self.convention),
                              offset)
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
