"""Todd-Coxeter coset enumeration.

Enumerates cosets of a finitely generated subgroup (possibly trivial) in a
finitely presented group.  Strategies: HLT (default) and Felsch.
Completion yields the subgroup index and a complete coset table; hitting
the coset limit is reported as a result, not an exception.  At tight
coset limits Felsch often completes where HLT stops.

The table has one column per generator and per inverse generator, and
one slot per coset in each column (0-based internally, coset 0 is the
subgroup; reported statistics use the 1-based convention only in
printing).  It is stored column-major, as in Holt-Eick-O'Brien ch. 5 and
ACE: `table[x][alpha]` is the entry of coset alpha in column x.  A
coset's row is its slot across the columns, not a list of its own, so a
definition writes two slots, appends to `p` and allocates no container
for the cyclic garbage collector to track.  The columns grow together in
blocks, and the coset count is the length of the union-find array `p`,
not of a column.  Coincidences are handled by that union-find array,
processed to exhaustion before any new coset is defined.

`CosetTable.coincidence` runs the cascade in one loop over the queue of
dead cosets, for tables with and without a proof log.  It makes no
method call per moved entry: the union-find find (a fast path when a
coset's parent is already a root, else a walk with path compression) and
the merge each moved entry forces are written out in the loop, and the
log, when there is one, is called where the table changes.  The loop
counts its merges in a local and adds them to `live_count` and
`coincidence_count` in a `finally`, so a cascade ended early, by the
index-1 stop or by a proof log's lemma, leaves the counts right.  Path
compression never changes a representative, so the tables and counts
are those of a find without it.

`CosetTable.scan` is the one two-sided trace of words at a coset.  It
takes a list of words and scans them in turn, so a row's relators, the
subgroup words and a deduction's relator cycles cost one call each, and
it returns right after a merge, so the caller can drain the deductions
and resume.  With `fill` (HLT's relator scans, and the subgroup words of
both strategies) an incomplete trace's gap is defined as one chain of
new cosets in a local loop and closed by the gap's last letter as a
deduction: the "scan and fill" of Holt-Eick-O'Brien ch. 5, without a
method call per coset.

Proof logging.  A table may carry a proof log (`certificates._ProofLog`),
called only where the table changes: a definition, a deduction closed by
a scan, and each merge and moved entry of a coincidence.  The scan's
trace loops never touch it.  Its proofs are keyed by coset number, so a
table with a log is never compacted, and they are products of relator
factors, so a table with a log has no subgroup words.  Its fill scans
define a gap as the same chain of cosets as a table without one, and
log each coset of the chain as it is defined.  Table, log and witness checker
share one letter code: column x is the integer letter x of the table's
`checker.Alphabet`, and the log reads letters through that alphabet.
The log owns the relators of a collapse derivation: the presentation's,
then each lemma it surfaced.  A table with a log scans the log's relator
cycles, which `_add_cycles` builds as it builds every table's.

Deductions.  Both strategies run one driver that walks the live rows in
order and defines each missing entry of a row.  After each step it
drains the table's deduction queue, first in, first out, and scans each
changed entry (alpha, x) at alpha by the cyclic conjugates x u of the
relators and their inverses; their rotated inverses x^-1 u^-1 at alpha^x
would walk the same cycles backwards.  A coincidence pushes every entry
it moves onto that queue, and so does every deduction closed by one of
those scans, so Felsch's rule runs to exhaustion and a merge's
consequences, and theirs, are found at once, not when the row pointer
reaches the cosets they touch.  Taking the oldest entry first spreads a
merge's consequences breadth first rather than down one chain of them;
on `pi1-N-reduced` under HLT the index-1 stop below then fires after
8,954 definitions, where taking the newest entry first took 15,415.
HLT adds relator fill scans: at each row it first scans every relator
with `fill`, then defines the entries still missing; neither its fill
scans nor its definitions push anything.  Felsch also pushes every
definition and every deduction a fill scan closes.

Index 1.  Every entry of the table and every merge is a valid deduction
about the cosets of the subgroup H, so once each column's entry at coset
0 is defined and lies in coset 0's class, every generator and inverse
fixes H's coset: H = G and the index is 1, even with a coincidence
cascade half done (Havas & Ramsay 2000; Holt-Eick-O'Brien ch. 5).  The
driver stops there and keeps the table's one-row quotient instead of
merging the rest of the cascade one coset at a time.  The cosets still
live then are counted as coincidences, so the counts match those of the
full cascade, and `EnumerationResult.index_one_live` records how many
there were.  A table with a proof log runs every cascade to its end,
since its proofs follow each merge.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import deque
from dataclasses import dataclass

from .checker import Alphabet
from .presentation import Presentation
from .words import Word

STRATEGIES = ("hlt", "felsch")
DEFAULT_STRATEGY = "hlt"
DEFAULT_MAX_COSETS = 1_000_000

# dead-coset fraction that triggers table compaction
COMPACTION_THRESHOLD = 0.5

# fewest slots the columns grow by at once; they grow by about a quarter
# of their length when that is more
_COLUMN_BLOCK = 1024


class _LimitReached(Exception):
    pass


class _IndexOne(Exception):
    """Coset 0's row closed on itself: every generator fixes the subgroup's
    coset, so the index is 1."""


@dataclass
class EnumerationResult:
    status: str                 # "Completed" | "LimitExceeded"
    index: int | None
    cosets_defined_total: int
    cosets_live_max: int
    coincidences: int
    strategy: str
    elapsed_ms: float
    table: "CosetTable | None" = None
    compactions: int = 0
    # live cosets when coset 0's row closed on itself, 0 if it never did
    index_one_live: int = 0
    # deductions taken from the queue and scanned by the relator cycles
    deductions: int = 0

    @property
    def completed(self) -> bool:
        return self.status == "Completed"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "index": self.index,
            "cosets_defined_total": self.cosets_defined_total,
            "cosets_live_max": self.cosets_live_max,
            "coincidences": self.coincidences,
            "strategy": self.strategy,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


class CosetTable:
    """Partial action table of generators on cosets with coincidence merging.

    `table` is column-major: a list of `ncols` columns, and entry
    (alpha, x) is `table[x][alpha]`.  The columns have the same length,
    at least the coset count `len(p)`, and every slot past the coset count
    is None.  When a definition finds them full, each grows by
    `_COLUMN_BLOCK` slots or a quarter of its length, whichever is more.
    Compaction and standardization build new columns, so a caller that
    binds a column must bind it again after either; growth extends the
    columns in place.  `alphabet` is the `checker.Alphabet` of the
    generators: column x is its integer letter x.

    `deductions` is a first-in, first-out queue of changed entries
    (coset, column), drained by the enumeration driver after each relator
    scan and each definition.  Every entry a coincidence moves, and every
    deduction a scan without `fill` closes, is pushed onto it; definitions
    and the deductions a fill scan closes are pushed only while
    `track_deductions` is set, which the driver does for Felsch.  HLT
    instead fills each row's relator scans (`scan` with `fill`) before
    defining the row's missing entries.  `deductions_scanned` counts the
    entries the driver takes.

    `cycles[x]` lists the distinct cyclic conjugates of the relators and
    their inverses that begin with column x, shortest first, as
    `_add_cycles` builds them; the driver scans a deduction (alpha, x) by
    `cycles[x]`.  A table with a proof log `log` must have no subgroup
    words, and scans the log's cycles, which also hold its lemmas."""

    def __init__(self, presentation: Presentation, subgroup_gens=(),
                 max_cosets: int = DEFAULT_MAX_COSETS, log=None):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        if log is not None and subgroup_gens:
            # the log's proofs are products of relator factors only
            raise ValueError("a proof log needs the trivial subgroup")
        self.presentation = presentation
        self.gens = presentation.generators
        self.ncols = 2 * len(self.gens)
        self.alphabet = Alphabet(self.gens)
        self.max_cosets = max_cosets

        # relators as column sequences, shortest first for scanning
        encode = self.alphabet.encode
        rels = sorted(presentation.relators, key=len)
        self.relator_cols = [encode(r.letters) for r in rels]
        for w in subgroup_gens:
            presentation.check_word(w, "subgroup word")
        self.subgroup_cols = [encode(w.letters) for w in subgroup_gens]

        self.table: list[list[int | None]] = [
            [None] * _COLUMN_BLOCK for _ in range(self.ncols)]
        self.p: list[int] = [0]       # union-find, p[i] <= i, coset 0 is root
        self.live_count = 1
        self.defined_total = 1
        self.live_max = 1
        self.coincidence_count = 0
        self.compactions = 0
        self.index_one_live = 0
        self.deductions_scanned = 0
        self.track_deductions = False
        self.deductions: deque[tuple[int, int]] = deque()
        self.complete = False
        self.log = log
        if log is None:
            self.cycles: list[list[list[int]]] = [[] for _ in range(self.ncols)]
            known: set[tuple[int, ...]] = set()
            for word in self.relator_cols:
                for cycle, _, _ in _add_cycles(self.cycles, word, known):
                    known.add(tuple(cycle))
        else:
            self.cycles = log.attach(self)

    # -- basic operations ---------------------------------------------------

    def rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def live_cosets(self) -> list[int]:
        # the numbers are p's own int objects, so the list allocates none
        return [r for i, r in enumerate(self.p) if i == r]

    def _grow(self) -> None:
        size = len(self.table[0])
        slack = [None] * max(_COLUMN_BLOCK, size // 4)
        for column in self.table:
            column.extend(slack)

    def define(self, alpha: int, x: int) -> int:
        if self.live_count >= self.max_cosets:
            raise _LimitReached
        table = self.table
        beta = len(self.p)
        if beta == len(table[x]):
            self._grow()
        self.p.append(beta)
        table[x][alpha] = beta
        table[x ^ 1][beta] = alpha
        self.live_count += 1
        self.defined_total += 1
        if self.live_count > self.live_max:
            self.live_max = self.live_count
        if self.track_deductions:
            self.deductions.append((alpha, x))
        if self.log is not None:
            self.log.define(alpha, x, beta)
        return beta

    def coincidence(self, alpha: int, beta: int, proof=None) -> None:
        """Merge alpha and beta and process the dead cosets to exhaustion;
        proof (with a log) shows W(alpha)*W(beta)^-1.  The log's `merge`
        sees each merge before `p` records it, and may end the cascade by
        raising; the counts stay right (see the module docstring).

        Without a proof log, each processed dead coset whose class is now
        coset 0's is followed by a look at coset 0's row: when every entry
        there is defined and lies in coset 0's class, the index is 1 and
        `_IndexOne` ends the cascade (see `_close_index_one`)."""
        p, log, table, deductions = self.p, self.log, self.table, self.deductions
        columns = [(x, table[x], table[x ^ 1]) for x in range(self.ncols)]
        if log is not None:
            log.merge(alpha, beta, proof)
        alpha, beta = self.rep(alpha), self.rep(beta)
        if alpha == beta:
            return
        if beta < alpha:
            alpha, beta = beta, alpha
        p[beta] = alpha
        merges = 1
        queue = [beta]
        try:
            # the loop visits the dead cosets the merges append
            for gamma in queue:
                for x, col, inv in columns:
                    delta = col[gamma]
                    if delta is None:
                        continue
                    inv[delta] = None
                    # mu and nu are the roots of gamma and delta; a path
                    # longer than one step is compressed, as `rep` does
                    mu = p[gamma]
                    if p[mu] != mu:
                        while p[mu] != mu:
                            mu = p[mu]
                        c = gamma
                        while p[c] != mu:
                            p[c], c = mu, p[c]
                    nu = p[delta]
                    if p[nu] != nu:
                        while p[nu] != nu:
                            nu = p[nu]
                        c = delta
                        while p[c] != nu:
                            p[c], c = nu, p[c]
                    if log is not None:
                        moved = log.moved(gamma, x, delta)
                    # the entry (mu, x) = nu either lands or forces the
                    # merge of the root hi with the class of lo
                    lo = col[mu]
                    if lo is not None:
                        hi = nu
                        if log is not None:
                            log.merge(nu, lo, log.forced(moved, mu, x))
                    else:
                        lo = inv[nu]
                        if lo is None:
                            col[mu] = nu
                            inv[nu] = mu
                            if log is not None:
                                log.entry(mu, x, nu, moved)
                            deductions.append((mu, x))
                            continue
                        hi = mu
                        if log is not None:
                            log.merge(mu, lo, log.forced(moved.inverse(), nu,
                                                         x ^ 1))
                    r = p[lo]
                    if p[r] != r:
                        while p[r] != r:
                            r = p[r]
                        while p[lo] != r:
                            p[lo], lo = r, p[lo]
                    if r == hi:
                        continue
                    if r < hi:
                        p[hi] = r
                    else:
                        p[r], hi = hi, r
                    merges += 1
                    queue.append(hi)
                if (log is None and self.rep(gamma) == 0
                        and self._row_zero_closed()):
                    raise _IndexOne
        finally:
            self.live_count -= merges
            self.coincidence_count += merges

    def scan(self, alpha: int, words: list[list[int]], fill: bool = False,
             k: int = 0) -> int:
        """Two-sided scans of words[k:] at alpha in turn; returns the index
        of the next word to scan, len(words) once all are scanned.

        Each scan closes its trace by a deduction when exactly one entry
        is missing, or merges cosets when the two ends disagree; it
        returns right after a merge, so the caller can drain the
        deductions and, while alpha is live, resume.  A deduction is
        pushed onto `deductions` when fill is off or the table tracks
        deductions.  An incomplete trace is left alone, unless fill is
        set: then the gap word[i:j] between the forward end f and the
        backward end b is defined as one chain of new cosets, and word[j]
        closes the trace as a deduction.  The words are freely reduced,
        so neither end moves during the chain, except when f == b and
        word[j]^-1 == word[i]: the first new entry then also extends the
        backward trace, and that step goes through `define`.  A proof
        log records each coset of the chain as it is defined.  At the
        coset limit the chain defines the cosets that fit and raises
        `_LimitReached`, leaving the table, its counts and its log as
        that many `define` calls would.
        """
        table, p, log = self.table, self.p, self.log
        n = len(words)
        while k < n:
            word = words[k]
            k += 1
            f, i = alpha, 0
            b, j = alpha, len(word) - 1
            while True:
                while i <= j:
                    nxt = table[word[i]][f]
                    if nxt is None:
                        break
                    f, i = nxt, i + 1
                while j >= i:
                    prv = table[word[j] ^ 1][b]
                    if prv is None:
                        break
                    b, j = prv, j - 1
                if j < i:
                    if f != b:
                        self.coincidence(f, b, None if log is None
                                         else log.scan(alpha, word, i, j))
                        return k
                    break
                if j > i:
                    if not fill:
                        break
                    if f == b and word[j] ^ 1 == word[i]:
                        f, i = self.define(f, word[i]), i + 1
                        continue
                    m = self.max_cosets - self.live_count
                    if m > j - i:
                        m = j - i
                    beta = len(p)
                    while beta + m > len(table[0]):
                        self._grow()
                    for x in word[i:i + m]:
                        # beta is one int object, shared by p and the entries
                        p.append(beta)
                        table[x][f] = beta
                        table[x ^ 1][beta] = f
                        if self.track_deductions:
                            self.deductions.append((f, x))
                        if log is not None:
                            log.define(f, x, beta)
                        f, beta = beta, beta + 1
                    self.live_count += m
                    self.defined_total += m
                    if self.live_count > self.live_max:
                        self.live_max = self.live_count
                    if i + m < j:
                        raise _LimitReached
                    i = j
                x = word[i]
                if log is not None:
                    log.entry(f, x, b, log.scan(alpha, word, i, j))
                table[x][f] = b
                table[x ^ 1][b] = f
                if self.track_deductions or not fill:
                    self.deductions.append((f, x))
                break
        return k

    def _row_zero_closed(self) -> bool:
        """Whether every column's entry at coset 0 lies in coset 0's class,
        read through `rep`, so stale entries of a cascade count."""
        rep = self.rep
        for col in self.table:
            beta = col[0]
            if beta is None or rep(beta) != 0:
                return False
        return True

    def _close_index_one(self) -> None:
        """Replace the table by its one-row quotient once coset 0's row has
        closed: every coset still live merges into coset 0, and each of
        those merges is counted, as the full cascade would count it."""
        self.index_one_live = self.live_count
        self.coincidence_count += self.live_count - 1
        self.live_count = 1
        self.table = [[0] for _ in range(self.ncols)]
        self.p = [0]
        self.deductions.clear()

    # -- maintenance --------------------------------------------------------

    def compact(self, order: list[int] | None = None) -> list[int | None]:
        """Drop dead cosets and renumber the live ones in `order`, by
        default their current order; returns the old->new mapping."""
        self.compactions += 1
        n = len(self.p)
        live = self.live_cosets() if order is None else order
        mapping: list[int | None] = [None] * n
        for new, old in enumerate(live):
            mapping[old] = new
        rep = self.rep
        remap = [mapping[rep(i)] for i in range(n)]
        new_table = []
        for col in self.table:
            entries = [col[i] for i in live]
            new_table.append([None if e is None else remap[e] for e in entries])
        self.deductions = deque((remap[a], x) for a, x in self.deductions)
        self.table = new_table
        self.p = list(range(len(live)))
        return mapping

    def maybe_compact(self) -> list[int | None] | None:
        if self.log is not None:
            return None  # proofs are keyed by coset number
        n = len(self.p)
        if n > 64 and (n - self.live_count) / n > COMPACTION_THRESHOLD:
            return self.compact()
        return None

    def standardize(self) -> None:
        """Renumber cosets breadth-first from coset 0 by generator order,
        dropping dead ones.  The table must be complete and validated, so
        that live entries point only at live cosets."""
        assert self.complete
        table = self.table
        order: list[int] = [0]
        seen = {0}
        qi = 0
        while qi < len(order):
            alpha = order[qi]
            qi += 1
            for col in table:
                beta = col[alpha]
                if beta not in seen:
                    seen.add(beta)
                    order.append(beta)
        self.compact(order)

    def validate(self) -> None:
        """Check involution consistency, closed relator traces, and subgroup
        generator stabilization on a complete table.  Every entry of a live
        coset must point at a live coset."""
        p = self.p
        n = len(p)
        live = self.live_cosets()
        for x in range(self.ncols):
            col, inv = self.table[x], self.table[x ^ 1]
            for alpha in live:
                beta = col[alpha]
                if beta is None:
                    raise AssertionError(f"incomplete entry ({alpha}, {x})")
                if not (0 <= beta < n and p[beta] == beta):
                    raise AssertionError(
                        f"entry ({alpha}, {x}) = {beta} is not a live coset")
                if inv[beta] != alpha:
                    raise AssertionError(f"involution broken at ({alpha}, {x})")
        for word in self.relator_cols:
            for alpha in live:
                if self._trace(alpha, word) != alpha:
                    raise AssertionError(f"relator open at coset {alpha}")
        for word in self.subgroup_cols:
            if self._trace(0, word) != 0:
                raise AssertionError("subgroup generator moves coset 0")

    def check_involution(self) -> bool:
        """Partial-table consistency: entry(c,g)=d implies entry(d,g^-1)=c,
        modulo coincidence representatives."""
        rep = self.rep
        live = self.live_cosets()
        for x in range(self.ncols):
            col, inv = self.table[x], self.table[x ^ 1]
            for alpha in live:
                beta = col[alpha]
                if beta is None:
                    continue
                back = inv[rep(beta)]
                if back is not None and rep(back) != alpha:
                    return False
        return True

    def _trace(self, alpha: int, word: list[int]) -> int | None:
        table = self.table
        for x in word:
            alpha = table[x][alpha]
            if alpha is None:
                return None
        return alpha

    def trace_word(self, alpha: int, w: Word) -> int | None:
        self.presentation.check_word(w, "word")
        if not (0 <= alpha < len(self.p) and self.p[alpha] == alpha):
            raise ValueError(f"{alpha} is not a live coset")
        return self._trace(alpha, self.alphabet.encode(w.letters))


# -- strategy drivers -------------------------------------------------------

def _add_cycles(cycles: list[list[list[int]]], word: list[int], known):
    """Insert the cyclic conjugates of the cyclically reduced column word
    and of its inverse into cycles, each into the list of its first column
    after every cycle no longer than it; returns (cycle, sign, shift) for
    each, the rotation of word^sign by shift letters.  known holds every
    cycle already in cycles as a tuple, and the caller adds the new ones
    to it; a word found there inserts nothing."""
    # every call inserts a whole class, so word stands for its own
    if tuple(word) in known:
        return []
    # the rotations repeat with the word's period, and none of the word's
    # is one of its inverse's: no element of a free group other than 1 is
    # conjugate to its inverse
    n = len(word)
    period = next(d for d in range(1, n + 1) if word[d:] + word[:d] == word)
    new = []
    for sign, base in ((1, word), (-1, [c ^ 1 for c in reversed(word)])):
        for shift in range(period):
            cycle = base[shift:] + base[:shift]
            insort(cycles[cycle[0]], cycle, key=len)
            new.append((cycle, sign, shift))
    return new


def _process_deductions(ct: CosetTable) -> None:
    """Drain the deduction queue to exhaustion, oldest entry first,
    scanning each relator cycle through a changed entry (alpha, x) once:
    at alpha, from x on.  The scans push the entries they close, so the
    queue empties only once Felsch's rule finds nothing more."""
    deductions, p, cycles = ct.deductions, ct.p, ct.cycles
    scan, rep = ct.scan, ct.rep
    while deductions:
        alpha, x = deductions.popleft()
        ct.deductions_scanned += 1
        alpha = rep(alpha)
        words = cycles[x]
        k = 0
        while k < len(words) and p[alpha] == alpha:
            k = scan(alpha, words, False, k)


def _run(ct: CosetTable, strategy: str) -> bool:
    """Fill the table row by row; returns True on completion, False when
    the limit is exceeded.  HLT first scans the relators at each row,
    defining cosets as it goes, in one `scan` call unless a merge
    interrupts it; then both strategies define the row's missing
    entries, draining the deduction queue after each step.  A
    coincidence that closes coset 0's row completes the run at once,
    with the table replaced by its one-row quotient."""
    hlt = strategy == "hlt"
    ct.track_deductions = not hlt
    try:
        # coset 0 stays live, so its merges can wait for the last word
        subgroup = ct.subgroup_cols
        k = 0
        while k < len(subgroup):
            k = ct.scan(0, subgroup, True, k)
        _process_deductions(ct)
        p, table = ct.p, ct.table
        relators = ct.relator_cols
        alpha = 0
        while alpha < len(p):
            if p[alpha] != alpha:
                alpha += 1
                continue
            if hlt:
                k = 0
                while k < len(relators):
                    k = ct.scan(alpha, relators, True, k)
                    if ct.deductions:
                        _process_deductions(ct)
                    if p[alpha] != alpha:
                        break
            for x, col in enumerate(table):
                if p[alpha] != alpha:
                    break
                if col[alpha] is None:
                    ct.define(alpha, x)
                    if ct.deductions:
                        _process_deductions(ct)
            alpha_rep = ct.rep(alpha)
            mapping = ct.maybe_compact()
            if mapping is not None:
                alpha = mapping[alpha_rep]
                p, table = ct.p, ct.table
            alpha += 1
    except _LimitReached:
        return False
    except _IndexOne:
        ct._close_index_one()
    ct.complete = True
    return True


def enumerate_cosets(p: Presentation, subgroup_gens=(),
                     strategy: str = DEFAULT_STRATEGY,
                     max_cosets: int = DEFAULT_MAX_COSETS) -> EnumerationResult:
    """Run coset enumeration; on completion the result carries the finished,
    validated, standardized table."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    start = time.monotonic()
    ct = CosetTable(p, subgroup_gens, max_cosets=max_cosets)
    ok = _run(ct, strategy)
    elapsed = (time.monotonic() - start) * 1000.0
    if ok:
        ct.validate()
        ct.standardize()
    return EnumerationResult(
        status="Completed" if ok else "LimitExceeded",
        index=ct.live_count if ok else None,
        cosets_defined_total=ct.defined_total, cosets_live_max=ct.live_max,
        coincidences=ct.coincidence_count, strategy=strategy,
        elapsed_ms=elapsed, table=ct, compactions=ct.compactions,
        index_one_live=ct.index_one_live, deductions=ct.deductions_scanned)


def verify_trivial(p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS,
                   strategy: str = DEFAULT_STRATEGY) -> tuple[bool, EnumerationResult]:
    """(True, result) iff enumeration over the trivial subgroup completes
    with index 1.  False never asserts nontriviality."""
    result = enumerate_cosets(p, (), strategy=strategy, max_cosets=max_cosets)
    return (result.completed and result.index == 1), result


def permutation_action(table: CosetTable, w: Word) -> tuple[int, ...]:
    """Image of each coset under w, as a tuple (0-based); table must be
    complete."""
    table.presentation.check_word(w, "word")
    if not table.complete:
        raise ValueError("permutation_action requires a completed table")
    cols = table.alphabet.encode(w.letters)
    return tuple(table._trace(alpha, cols) for alpha in range(table.live_count))
