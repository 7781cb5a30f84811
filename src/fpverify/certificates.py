"""Consequence certificates: machine-checkable witnesses that a word lies
in the normal closure of a presentation's relators.

A certificate is an ordered product of conjugated relators,

    target  ==  prod_i  u_i * r_{k_i}^{s_i} * u_i^-1      (freely reduced),

so verification is a single free reduction.  Search works backwards from
the target: repeatedly splice a conjugated relator into the current word so
that it shortens, until the identity is reached; the splice positions and
rotations determine the conjugators.  The search is bounded (factor count,
conjugator length, explored states) and incomplete by nature; a failed
search proves nothing.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .checker import (Alphabet, check_derivation, product, read_certificate,
                      read_derivation)
from .coset import CosetTable, _add_cycles, _run
from .presentation import Presentation
from .words import Word, _product, _reduced


@dataclass(frozen=True)
class Factor:
    conjugator: Word
    relator_index: int
    sign: int  # +1 or -1

    def to_json(self) -> dict:
        return {
            "conjugator": [[g, e] for g, e in self.conjugator],
            "relator": self.relator_index,
            "sign": self.sign,
        }


@dataclass(frozen=True)
class SearchStats:
    """The work of one `search_certificate` call."""

    states: int     # distinct words reached, the start included
    peak_heap: int  # most words waiting in the search's heap at once


@dataclass(frozen=True)
class Certificate:
    target: Word
    factors: tuple[Factor, ...]
    # the work of the search that found it; not part of the witness
    stats: SearchStats | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        return {
            "target": [[g, e] for g, e in self.target],
            "factors": [f.to_json() for f in self.factors],
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        """Load a certificate, checking JSON types as the certificate schema
        does (a JSON bool is not an integer); raises ValueError naming the
        field on any malformed document."""
        alphabet = Alphabet()
        return _certificate(alphabet, *read_certificate(data, alphabet))


def _certificate(alphabet: Alphabet, target: list[int],
                 factors: list) -> Certificate:
    """The Certificate of `read_certificate`'s tuples over alphabet."""
    decode = alphabet.decode
    return Certificate(decode(target), tuple(
        Factor(decode(u), k, sign) for u, k, sign in factors))


def _encoded(alphabet: Alphabet, factors: Sequence[Factor]) -> list:
    """The checker's ``(conjugator, relator index, sign)`` tuples of
    factors over alphabet."""
    encode = alphabet.encode
    return [(encode(f.conjugator.letters), f.relator_index, f.sign)
            for f in factors]


class NotFound(Exception):
    """Bounded certificate search exhausted without a witness (inconclusive).

    `stats` holds the work done up to the failure when the search
    (`SearchStats`) or the collapse (`CollapseStats`) counted it."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


def certificate_product(relators: tuple[Word, ...], cert: Certificate) -> Word:
    """The product of the certificate's conjugated relators, freely reduced
    by the checker's `product` loop on integer letters; no Word is built
    per factor.  Raises IndexError for a relator index out of range and
    ValueError for a sign other than +-1, each naming the factor."""
    alphabet = Alphabet()
    words = [alphabet.encode(r.letters) for r in relators]
    return alphabet.decode(product(words, _encoded(alphabet, cert.factors)))


def verify_certificate(p: Presentation, cert: Certificate) -> bool:
    """True iff the certificate's product freely reduces to its target."""
    return certificate_product(p.relators, cert) == cert.target


def _inline(factors: tuple[Factor, ...], nbase: int,
            lemmas: list[tuple[Factor, ...]]) -> tuple[Factor, ...]:
    """factors over nbase relators and lemmas, rewritten over the relators
    alone: a factor u * (lemma j)^s * u^-1, with relator index nbase + j,
    becomes the factors lemmas[j] holds for lemma j, reversed with their
    signs flipped when s is -1, each conjugated by u."""
    out: list[Factor] = []
    for f in factors:
        j = f.relator_index - nbase
        if j < 0:
            out.append(f)
            continue
        u, sign = f.conjugator, f.sign
        out.extend(Factor(u * g.conjugator, g.relator_index, sign * g.sign)
                   for g in (lemmas[j] if sign == 1 else reversed(lemmas[j])))
    return tuple(out)


def _splice_moves(relators: tuple[Word, ...]):
    """All rotations of each relator and its inverse, with the data needed
    to rebuild the factor: rotation rot of r^sign satisfies
    rot == z^-1 * r^sign * z for conjugator z = first k letters of r^sign."""
    moves = []
    seen: set[tuple] = set()
    for idx, r in enumerate(relators):
        for sign in (1, -1):
            base = r if sign == 1 else r.inverse()
            for k in range(len(base)):
                rot = Word(base.letters[k:] + base.letters[:k])
                key = rot.letters
                if key in seen:
                    continue
                seen.add(key)
                moves.append((rot, Word(base.letters[:k]).inverse(), idx, sign))
    return moves


# how many letters longer than the target a word in the search may grow
_MAX_LENGTH_SLACK = 8

# derive_all's state budget for each pass
_STATE_BUDGETS = (20_000, 100_000, 400_000)


def search_certificate(p: Presentation, target: Word,
                       max_factors: int = 16,
                       max_conjugator_len: int = 24,
                       max_states: int = 200_000,
                       extra_relators: Sequence[Word] = ()) -> Certificate:
    """Bounded best-first search for a certificate expressing target as a
    consequence of p's relators (plus optional extra relators, which the
    returned certificate may reference by index past len(p.relators)).

    Splices are only tried at positions where the spliced rotation cancels
    against a neighboring letter (plus the two word ends); since every
    rotation of every relator and inverse is available, any subword
    replacement still has a representative move.

    The returned certificate's `stats` give the states explored and the
    peak heap size.  Raises NotFound when the bounds are exhausted; that
    is inconclusive.  Raises ValueError when target uses a generator
    outside p.
    """
    p.check_word(target, "target")
    moves = _splice_moves(p.relators + tuple(extra_relators))
    max_len = len(target) + _MAX_LENGTH_SLACK

    # best-first on (current length, factors used); parents reconstruct the
    # factor list at the end
    start = target
    best: dict[tuple, int] = {start.letters: 0}
    parents: dict[tuple, tuple] = {}
    heap: list[tuple[int, int, tuple]] = [(len(start), 0, start.letters)]
    # the heap grows only between pops, so it peaks just before one
    peak_heap = 0
    while heap:
        if len(heap) > peak_heap:
            peak_heap = len(heap)
        length, nfac, letters = heapq.heappop(heap)
        if best.get(letters, 1 << 30) < nfac:
            continue
        if not letters:
            return _rebuild(target, parents, SearchStats(len(best), peak_heap))
        if nfac >= max_factors:
            continue
        if len(best) > max_states:
            break
        n = len(letters)
        # positions of each letter value, for cancellation-driven splicing
        occ: dict[tuple, list[int]] = {}
        for i, let in enumerate(letters):
            occ.setdefault(let, []).append(i)
        for rot, z, idx, sign in moves:
            head = rot.letters[0]
            tail = rot.letters[-1]
            positions = {0, n}
            # rotation head cancels the letter just before the splice
            for i in occ.get((head[0], -head[1]), ()):
                positions.add(i + 1)
            # rotation tail cancels the letter just after the splice
            for i in occ.get((tail[0], -tail[1]), ()):
                positions.add(i)
            for pos in positions:
                head = _reduced(letters[:pos])
                new = head * rot * _reduced(letters[pos:])
                if len(new) > max_len:
                    continue
                conj = head * z
                if len(conj) > max_conjugator_len:
                    continue
                key = new.letters
                if best.get(key, 1 << 30) <= nfac + 1:
                    continue
                best[key] = nfac + 1
                parents[key] = (letters, conj, idx, sign)
                heapq.heappush(heap, (len(new), nfac + 1, key))
    bound = f"max_states={max_states}" if len(best) > max_states else "search space"
    raise NotFound(f"no certificate for {target}: {bound} exhausted after "
                   f"{len(best)} states explored",
                   SearchStats(len(best), peak_heap))


def _rebuild(target: Word, parents: dict, stats: SearchStats) -> Certificate:
    # walk from identity back to target; each step recorded w' = C * w with
    # C = conj * r^sign * conj^-1, so target = C_1^-1 C_2^-1 ... C_n^-1
    chain = []
    cur: tuple = ()
    while cur != target.letters:
        prev, conj, idx, sign = parents[cur]
        chain.append(Factor(conj, idx, -sign))
        cur = prev
    # steps were recorded identity-outward; the product wants them
    # target-outward
    return Certificate(target, tuple(reversed(chain)), stats)


# -- certificate extraction from coset enumeration ---------------------------
#
# Splice search cannot reach consequences whose shortest derivation is long
# (e.g. relators that only follow from the collapse of a trivial group).  For
# those we run the ordinary Felsch enumeration of `coset.py` with a proof log
# attached to its `CosetTable`: entry (alpha, x) = beta carries a proof whose
# relator expansion freely reduces to W(alpha) * x * W(beta)^-1, where W(c)
# is the definition word of coset c.  The table calls the log only where it
# changes.  A definition carries the empty proof.  A deduction or a
# coincidence found by a scan of a relator conjugate at alpha is proved by
# the entry proofs along the scan around W(alpha) * (conjugate) *
# W(alpha)^-1.  A merge is recorded in the log's own union-find with a
# bridge proof, and each entry a coincidence moves, or each merge it
# forces, is proved from the entry it came from and the bridges of its two
# ends.  When a merge first surfaces a trivial word outside the known
# relators, the merge's bridge proof is that word's certificate, and
# `_collapse` keeps it as a lemma step: the log is the only source of lemma
# certificates.  Once an enumeration collapses to a single coset, tracing
# any word through the table concatenates entry proofs into its
# certificate, so one collapse serves any number of traces.


# Proofs are nodes (`_Proof`), not words.  A node is a leaf word, the
# inverse of another node, or a concatenation of earlier nodes and
# definition words; recording a table event costs one node however long
# the proof it stands for, so the log's memory is linear in table events.
# Words exist only at extraction: a lemma's bridge, `trace`, and the
# novelty check's W(a) * W(b)^-1, which reads definition words only.  A
# node read there is expanded once, iteratively, and memoised.  A
# definition word is never stored: it is rebuilt from the definition tree
# (parent coset and column of each coset) when it is read.
#
# Expanded proofs are freely reduced words over an extended alphabet: the
# presentation's generators plus one reserved symbol "@k" per relator
# (standing for relator k inserted at that point).  Free reduction over the
# extended alphabet is sound (cancelling "@k" against its inverse deletes a
# relator-times-inverse pair) and it is what keeps proofs small: conjugator
# segments of adjacent factors cancel against each other, which a list of
# opaque (conjugator, relator, sign) factors can never do.  Free reduction
# is confluent, so a node expands to the same word as the eagerly reduced
# product it replaces.  Deleting the "@" symbols from any expanded proof
# leaves a word that freely reduces to the identity, so the factor form
# extracted at the end multiplies out to exactly the word the proof claims.


def _proof_to_factors(proof: Word) -> tuple[Factor, ...]:
    """Convert a proof word to certificate factors: each "@k" at prefix u
    becomes the factor u * relator_k^sign * u^-1."""
    factors = []
    prefix: list = []
    for name, sign in proof.letters:
        if name.startswith("@"):
            factors.append(Factor(Word(prefix), int(name[1:]), sign))
        else:
            prefix.append((name, sign))
    return tuple(factors)


class _Proof:
    """A proof node.  `parts` is a tuple of nodes and coset numbers (c
    stands for W(c), ~c for W(c)^-1), or None for the inverse of `base`;
    `word` is the freely reduced expansion, set for a leaf and filled in
    by `_ProofLog.expand`."""

    __slots__ = ("parts", "base", "word")

    def __init__(self, parts, base=None, word=None):
        self.parts = parts
        self.base = base
        self.word = word

    def inverse(self) -> "_Proof":
        if self.parts is None:
            return self.base
        if self is _EMPTY:
            return self
        return _Proof(None, self)


_EMPTY = _Proof((), word=Word.identity())


def _concat(parts) -> _Proof:
    """The node for the product of parts, with empty proofs left out."""
    parts = [q for q in parts if q is not _EMPTY]
    if len(parts) == 1 and type(parts[0]) is _Proof:
        return parts[0]
    return _Proof(tuple(parts)) if parts else _EMPTY


class _NewTrivialWord(Exception):
    """A coincidence produced a trivial word outside the known relator set."""

    def __init__(self, word: Word, proof: Word):
        self.word = word
        self.proof = proof


class _ProofLog:
    """Entry, merge and scan proofs for a `CosetTable` enumerating the
    cosets of the trivial subgroup; the table calls it where it changes.

    One log serves a sequence of tables over one presentation, as
    `_collapse` makes them.  It takes its relators from its
    first table, and `add_relator` appends each lemma to them: relator k
    stands for the symbol "@k" in proofs.  It owns the tables' scan lists
    `cycles` of the relators' cyclic conjugates, built by
    `coset._add_cycles` as every table's are, and the factor table, which
    maps each of those conjugates u^-1 r_k^s u, as columns, to the proof
    u^-1 @k^s u.  It has no letter code of its own: it encodes and
    decodes letters through the `alphabet` of the table it serves, whose
    integer letters are the table's columns and the checker's letters.
    A table calls `define` for each coset it defines, one at a time or
    in a fill scan's chain.

    With novelty, a merge whose trivial word W(a)*W(b)^-1 is, once
    cyclically reduced, not a key of the factor table, and so outside the
    cyclic classes of the relators, raises `_NewTrivialWord` before the
    table records it (collapse-ladder mining; it also keeps the terminal
    coincidence cascade from ever running).  `longest` is the length of
    the longest proof expanded so far."""

    def __init__(self, novelty: bool = False):
        self.novelty = novelty
        self.ct = None
        self.relators: list[Word] = []
        # u^-1 @k^s u for each cyclic conjugate (u^-1 r_k^s u) as columns
        self.factors: dict[tuple[int, ...], _Proof] = {}
        self.longest = 0

    def attach(self, ct) -> list[list[list[int]]]:
        """Serve ct; returns the scan lists it is to use."""
        if self.ct is not None and ct.presentation != self.ct.presentation:
            raise ValueError("a proof log serves the tables of one "
                             "presentation")
        self.alphabet = ct.alphabet
        if self.ct is None:
            self.cycles = [[] for _ in range(ct.ncols)]
            for r in ct.presentation.relators:
                self.add_relator(r)
        self.ct = ct
        # entry proofs, column-major like the table and as long as it
        self.proofs: list[list[_Proof | None]] = [
            [None] * len(ct.table[0]) for _ in range(ct.ncols)]
        self.parent = [0]  # definition tree: coset -> (parent, column)
        self.column = [0]
        self.merged: dict[int, tuple[int, _Proof]] = {}  # dead -> (parent, proof)
        return self.cycles

    def add_relator(self, r: Word) -> None:
        """Append the cyclically reduced relator r, and its new cyclic
        conjugates to the scan lists and the factor table."""
        k = len(self.relators)
        self.relators.append(r)
        cols = list(map(self.alphabet.index.__getitem__, r.letters))
        inverse = r.inverse()
        for cycle, sign, shift in _add_cycles(self.cycles, cols, self.factors):
            u = _reduced((r if sign == 1 else inverse).letters[:shift])
            self.factors[tuple(cycle)] = _Proof((), word=_reduced(
                u.inverse().letters + ((f"@{k}", sign),) + u.letters))

    def coset_word(self, c: int) -> Word:
        """W(c), rebuilt by walking the definition tree back to coset 0."""
        names, letters = self.alphabet.letters, []
        while c:
            letters.append(names[self.column[c]])
            c = self.parent[c]
        letters.reverse()
        return Word(letters)

    def expand(self, proof: _Proof) -> Word:
        """The freely reduced word a proof node stands for, memoised on
        every node expanded on the way."""
        if proof.word is not None:
            return proof.word
        stack = [proof]
        while stack:
            node = stack[-1]
            if node.word is not None:
                stack.pop()
                continue
            if node.parts is None:
                if node.base.word is None:
                    stack.append(node.base)
                    continue
                node.word = node.base.word.inverse()
            else:
                pending = [q for q in node.parts
                           if type(q) is _Proof and q.word is None]
                if pending:
                    stack.extend(pending)
                    continue
                node.word = _product(
                    q.word.letters if type(q) is _Proof
                    else self.coset_word(q).letters if q >= 0
                    else self.coset_word(~q).inverse().letters
                    for q in node.parts)
            stack.pop()
            if len(node.word) > self.longest:
                self.longest = len(node.word)
        return proof.word

    def define(self, alpha: int, x: int, beta: int) -> None:
        proofs = self.proofs
        if beta == len(proofs[0]):
            slack = [None] * (len(self.ct.table[0]) - beta)
            for column in proofs:
                column.extend(slack)
        self.parent.append(alpha)
        self.column.append(x)
        proofs[x][alpha] = proofs[x ^ 1][beta] = _EMPTY

    def entry(self, alpha: int, x: int, beta: int, proof: _Proof) -> None:
        """Record entry (alpha, x) = beta and its inverse, proof showing
        W(alpha)*x*W(beta)^-1."""
        self.proofs[x][alpha] = proof
        self.proofs[x ^ 1][beta] = proof.inverse()

    def scan(self, alpha: int, word: list[int], i: int, j: int) -> _Proof:
        """Proof of W(f)*word[i..j]*W(b)^-1 for a scan of the relator
        conjugate word at alpha whose forward end f is i letters in and
        whose backward end b is len(word) - 1 - j letters back."""
        table, proofs = self.ct.table, self.proofs
        forward = []
        f = alpha
        for x in word[:i]:
            forward.append(proofs[x][f])
            f = table[x][f]
        parts = [_concat(forward).inverse(),
                 alpha, self.factors[tuple(word)], ~alpha]
        b = alpha
        for x in reversed(word[j + 1:]):
            parts.append(proofs[x ^ 1][b])
            b = table[x ^ 1][b]
        return _concat(parts)

    def find(self, a: int) -> tuple[int, _Proof]:
        """Live representative of a, with proof of W(a)*W(rep)^-1."""
        chain = []
        while a in self.merged:
            chain.append(a)
            a = self.merged[a][0]
        proof = _EMPTY
        for c in reversed(chain):  # path-compress, root-most first
            proof = _concat((self.merged[c][1], proof))
            self.merged[c] = (a, proof)
        return a, proof

    def merge(self, a: int, b: int, proof: _Proof) -> None:
        """Record that cosets a, b coincide; proof shows W(a)*W(b)^-1."""
        ra, ca = self.find(a)
        rb, cb = self.find(b)
        if ra == rb:
            return
        bridge = _concat((ca.inverse(), proof, cb))  # W(ra)*W(rb)^-1
        if self.novelty:
            core, conj = (self.coset_word(ra)
                          * self.coset_word(rb).inverse()).cyclic_reduce()
            if tuple(map(self.alphabet.index.__getitem__, core.letters)) \
                    not in self.factors:
                raise _NewTrivialWord(
                    core, conj.inverse() * self.expand(bridge) * conj)
        if rb < ra:
            ra, rb, bridge = rb, ra, bridge.inverse()
        self.merged[rb] = (ra, bridge.inverse())

    def moved(self, gamma: int, x: int, delta: int) -> _Proof:
        """Proof of W(mu)*x*W(nu)^-1 for the entry (gamma, x) = delta of a
        dead coset, where mu and nu are the representatives of its ends."""
        _, bg = self.find(gamma)
        _, bd = self.find(delta)
        return _concat((bg.inverse(), self.proofs[x][gamma], bd))

    def forced(self, moved: _Proof, c: int, y: int) -> _Proof:
        """moved shows W(c)*y*W(o)^-1 and entry (c, y) = e is occupied:
        proof of W(o)*W(e)^-1 for the merge of o and e this forces."""
        return _concat((moved.inverse(), self.proofs[y][c]))

    def trace(self, w: Word) -> Word:
        """Proof word whose expansion is w, valid once only coset 0 is live."""
        a = 0
        parts = []
        for x in map(self.alphabet.index.__getitem__, w.letters):
            parts.append(self.proofs[x][a])
            a = self.ct.table[x][a]
        if a != 0:
            raise NotFound(f"{w} does not return to the base coset")
        return _product([self.expand(q).letters for q in parts])


@dataclass(frozen=True)
class CollapseStats:
    """The work of one `derive_by_collapse` call, or of a collapse up to
    the `NotFound` that ends it."""

    enumerations: int    # proof-logging enumerations, restarts included
    lemmas: int          # lemmas surfaced, before pruning
    cosets_defined: int  # cosets defined, summed over the enumerations
    longest_proof: int   # letters in the longest proof expanded


@dataclass(frozen=True)
class Derivation:
    """A chain of certificates deriving target from a presentation's
    relators.  Step k is certified over the base relators plus the targets
    of steps 0..k-1 (referenced by relator indices past the base count);
    the last step's target is the derived word.

    Chains exist because some consequences (everything that hinges on the
    collapse of a trivial group) have no short single certificate: inlining
    the steps multiplies out to astronomically many factors, while the
    chain stays small and every link re-verifies by one free reduction.
    """

    target: Word
    steps: tuple[Certificate, ...]
    # the work of the collapse that derived it; not part of the witness
    stats: CollapseStats | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        return {
            "target": [[g, e] for g, e in self.target],
            "steps": [s.to_json() for s in self.steps],
        }

    @staticmethod
    def from_json(data: dict) -> "Derivation":
        """Load a derivation; raises ValueError naming the field on any
        malformed document."""
        alphabet = Alphabet()
        target, steps = read_derivation(data, alphabet)
        return Derivation(alphabet.decode(target), tuple(
            _certificate(alphabet, *step) for step in steps))


def verify_derivation(p: Presentation, d: Derivation) -> bool:
    """True iff every step's certificate verifies over the base relators
    plus the targets of the earlier steps, and the last step derives
    d.target: the checker's `check_derivation` on integer letters.  Its
    IndexError or ValueError names the step and the factor."""
    alphabet = Alphabet(p.generators)
    encode = alphabet.encode
    return check_derivation(
        [encode(r.letters) for r in p.relators], encode(d.target.letters),
        [(encode(s.target.letters), _encoded(alphabet, s.factors))
         for s in d.steps])


def _collapse(p: Presentation, max_cosets: int, max_steps: int
              ) -> tuple[list[Certificate], _ProofLog, CollapseStats]:
    """The proof-logged collapse of the trivial group p presents.

    Runs Felsch enumerations over p's relators plus the lemmas so far.
    Each stops at a new short trivial word, which becomes a lemma step
    with the certificate the log extracted for it, until one completes
    with one live coset.  One log serves every enumeration and owns the
    lemmas (`_ProofLog.add_relator`).

    Returns the lemma steps, the log, whose last table has one live coset
    so that `log.trace(w)` proves any word w over p, and the counters.
    Raises NotFound, with the counters so far, when p is not certified
    trivial or a bound is exhausted."""
    steps: list[Certificate] = []
    log = _ProofLog(novelty=True)
    enumerations = cosets = 0

    def stats() -> CollapseStats:
        return CollapseStats(enumerations, len(steps), cosets, log.longest)

    while len(steps) <= max_steps:
        ct = CosetTable(p, max_cosets=max_cosets, log=log)
        enumerations += 1
        try:
            completed = _run(ct, "felsch")
        except _NewTrivialWord as lemma:
            steps.append(Certificate(lemma.word, _proof_to_factors(lemma.proof)))
            log.add_relator(lemma.word)
            continue
        finally:
            cosets += ct.defined_total
        if not completed:
            raise NotFound(
                f"coset limit {max_cosets} exceeded after {len(steps)} lemmas "
                f"({ct.live_count} live, {ct.defined_total} defined cosets)",
                stats())
        if ct.live_count != 1:
            raise NotFound(f"group not certified trivial ({ct.live_count} "
                           f"cosets)", stats())
        return steps, log, stats()
    raise NotFound(f"no derivation within {max_steps} lemmas", stats())


def derive_by_collapse(p: Presentation, target: Word,
                       max_cosets: int = 100_000,
                       max_steps: int = 500) -> Derivation:
    """Derivation of target through the collapse of a trivial group: the
    collapse's lemmas that a trace of target through its one-coset table
    uses, then that trace.  The result's `stats` count the work.
    Only applicable when the presented group is trivial; raises NotFound
    otherwise or when the bounds are exhausted, and ValueError when target
    uses a generator outside p.
    """
    p.check_word(target, "target")
    steps, log, stats = _collapse(p, max_cosets, max_steps)
    steps.append(Certificate(target, _proof_to_factors(log.trace(target))))
    # the trace's expansions count towards the longest proof
    stats = replace(stats, longest_proof=log.longest)
    d = Derivation(target, _prune_derivation(len(p.relators), steps), stats)
    if not verify_derivation(p, d):
        raise AssertionError(f"extracted derivation failed for {target}")
    return d


def _prune_derivation(nbase: int, steps: list[Certificate]) -> tuple[Certificate, ...]:
    """Drop lemma steps the final step never (transitively) references and
    renumber the survivors."""
    needed = {len(steps) - 1}
    for k in range(len(steps) - 1, -1, -1):
        if k not in needed:
            continue
        for f in steps[k].factors:
            if f.relator_index >= nbase:
                needed.add(f.relator_index - nbase)
    order = sorted(needed)
    renumber = {nbase + old: nbase + new for new, old in enumerate(order)}
    kept = []
    for k in order:
        kept.append(Certificate(steps[k].target, tuple(
            Factor(f.conjugator, renumber.get(f.relator_index, f.relator_index),
                   f.sign)
            for f in steps[k].factors)))
    return tuple(kept)


def derivation_to_certificate(p: Presentation, d: Derivation,
                              max_factors: int = 100_000) -> Certificate:
    """Inline a derivation chain into one certificate over p's relators.

    The expanded factor count is computed up front; chains whose expansion
    exceeds max_factors raise NotFound rather than materializing.  Raises
    ValueError when d does not verify over p.
    """
    if not verify_derivation(p, d):
        raise ValueError(f"derivation of {d.target} does not verify")
    nbase = len(p.relators)
    weight = [0] * len(d.steps)
    for k, step in enumerate(d.steps):
        weight[k] = sum(1 if f.relator_index < nbase
                        else weight[f.relator_index - nbase]
                        for f in step.factors)
    if not d.steps:
        return Certificate(d.target, ())
    if weight[-1] > max_factors or sum(weight) > 4 * max_factors:
        raise NotFound(
            f"inlined derivation needs {weight[-1]} factors (> {max_factors})")
    flat: list[tuple[Factor, ...]] = []
    for step in d.steps:
        flat.append(_inline(step.factors, nbase, flat))
    cert = Certificate(d.target, flat[-1])
    if not verify_certificate(p, cert):
        raise AssertionError(f"inlined derivation failed for {d.target}")
    return cert


def derive_all(p: Presentation, targets: list[Word],
               state_budgets: tuple[int, ...] = _STATE_BUDGETS
               ) -> dict[int, Certificate]:
    """Search certificates for several targets with lemma layering: one
    pass per state budget, in order, retries the unproven targets with all
    already-proven targets available as derived relators; the passes stop
    once every target is proven.  Returned certificates are inlined down
    to p's own relators and all verify.  Targets not derived within the
    bounds are absent from the result."""
    n = len(p.relators)
    proven: dict[int, Certificate] = {}
    extra: list[Word] = []  # the proven targets, in the order they were proven
    flat: list[tuple[Factor, ...]] = []  # their certificates, in that order
    for budget in state_budgets:
        for i, t in enumerate(targets):
            if i in proven:
                continue
            try:
                cert = search_certificate(p, t, max_states=budget,
                                          extra_relators=extra)
            except NotFound:
                continue
            cert = Certificate(t, _inline(cert.factors, n, flat))
            if not verify_certificate(p, cert):
                raise AssertionError(f"inlined certificate failed for {t}")
            proven[i] = cert
            extra.append(t)
            flat.append(cert.factors)
        if len(proven) == len(targets):
            break
    return proven


def check_equivalence(p1: Presentation, p2: Presentation,
                      dictionary: dict[str, Word],
                      certs: dict[int, Certificate] | None = None,
                      state_budgets: tuple[int, ...] = _STATE_BUDGETS) -> bool:
    """One-directional consequence check: every relator of p2, translated
    into p1's generators via dictionary, must carry a verified certificate
    over p1's relators.  Supplied certs (keyed by p2 relator index) are
    verified; missing ones are searched for by `derive_all` with
    state_budgets."""
    certs = certs or {}
    images = {}  # each letter of p2's relators -> the letters of its image
    for g in {g for r in p2.relators for g in r.generators()}:
        if g not in dictionary:
            raise KeyError(f"dictionary missing entry for generator {g!r}")
        images[g, 1] = dictionary[g].letters
        images[g, -1] = dictionary[g].inverse().letters
    missing: list[Word] = []
    for i, r in enumerate(p2.relators):
        # every letter at once, so that no image is translated again
        translated = _product(images[letter] for letter in r.letters)
        if translated.is_identity():
            continue
        cert = certs.get(i)
        if cert is None:
            missing.append(translated)
        elif not (cert.target == translated and verify_certificate(p1, cert)):
            return False
    return len(derive_all(p1, missing, state_budgets)) == len(missing)
