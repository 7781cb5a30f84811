"""The benchmark's workloads: seeded inputs built in set-up, one job, and a
check of the job's output made outside the timed interval.

Jobs look every fpverify function up through its module at call time, so
the tracer's wrappers see the calls.

Seeds.  Seed 0 uses the frozen corpus exactly.  Any other seed renames the
generators of the ``enum-limit`` and ``collapse-derive`` inputs to fresh
names drawn from the seed.  The renaming keeps the generators' order, both
as listed and as sorted strings, so every engine makes the same choices on
the variant as on the corpus and does the same amount of work: a seed
changes the inputs and the string hashes, never the size of a job.
Shuffling or rotating the relators instead keeps the group but not the
work: over seeds 0 to 6 on a shared 2-vCPU host, a collapse derivation took
1.3 to 5.7 s and an enumeration 4.4 to 9.4 s, which would make runs under
different seeds incomparable.
"""

from __future__ import annotations

import json
import random
import string

from fpverify import certificates, corpus, coset, verify
from fpverify.presentation import Presentation
from fpverify.words import CONVENTION_GAP, Word

ENUM_FILE = "pi1-N-reduced.grp"
ENUM_MAX_COSETS = 200_000
COLLAPSE_SCENARIO = "redundancy-nine"
COLLAPSE_RELATOR = 15


def rename_map(generators, seed: int) -> dict[str, str]:
    """Map each generator to a seeded fresh name, preserving sorted order.

    Seed 0 maps every generator to itself.
    """
    if seed == 0:
        return {g: g for g in generators}
    rng = random.Random(seed)
    tail = string.ascii_lowercase + string.digits
    names: set[str] = set()
    while len(names) < len(generators):
        names.add(rng.choice(string.ascii_lowercase)
                  + "".join(rng.choice(tail) for _ in range(rng.randrange(4))))
    return dict(zip(sorted(generators), sorted(names)))


def rename_word(w: Word, names: dict[str, str]) -> Word:
    return Word((names[g], e) for g, e in w)


def rename_presentation(p: Presentation, names: dict[str, str]) -> Presentation:
    return Presentation([names[g] for g in p.generators],
                        [rename_word(r, names) for r in p.relators],
                        name=p.name)


def _without_times(data):
    if isinstance(data, dict):
        return {k: _without_times(v) for k, v in data.items()
                if k != "elapsed_ms"}
    if isinstance(data, list):
        return [_without_times(v) for v in data]
    return data


class CorpusReplay:
    """``run_all()`` with library defaults, as ``fpverify verify --all``."""

    name = "corpus-replay"

    def __init__(self, seed: int):
        """run_all reads the frozen corpus itself: the seed acts only
        through the child's hash seed."""

    def job(self):
        return verify.run_all()

    def check(self, reports) -> bool:
        return bool(reports) and all(r.status == "pass" for r in reports)

    def signature(self, reports) -> str:
        return json.dumps([_without_times(r.to_json()) for r in reports],
                          sort_keys=True)


class EnumLimit:
    """Default-strategy enumeration of pi1-N-reduced under the GAP
    commutator convention, stopped by a 200,000-coset limit."""

    name = "enum-limit"

    def __init__(self, seed: int):
        p = corpus.load_corpus_presentation(ENUM_FILE, convention=CONVENTION_GAP)
        self.presentation = rename_presentation(p, rename_map(p.generators, seed))

    def job(self):
        return coset.enumerate_cosets(self.presentation, (),
                                      max_cosets=ENUM_MAX_COSETS)

    def check(self, result) -> bool:
        # a completed table is validated inside enumerate_cosets
        if result.completed:
            return True
        return (result.status == "LimitExceeded"
                and result.table.check_involution())

    def signature(self, result) -> str:
        return json.dumps(_without_times(result.to_json()), sort_keys=True)


class CollapseDerive:
    """Fresh ``derive_by_collapse`` of redundancy-nine's relator 15 over the
    other sixteen relators."""

    name = "collapse-derive"

    def __init__(self, seed: int):
        full = corpus.load_scenario(COLLAPSE_SCENARIO).presentation()
        names = rename_map(full.generators, seed)
        full = rename_presentation(full, names)
        self.target = full.relators[COLLAPSE_RELATOR]
        self.rest = full.with_relators(
            [r for j, r in enumerate(full.relators) if j != COLLAPSE_RELATOR])

    def job(self):
        return certificates.derive_by_collapse(self.rest, self.target)

    def check(self, d) -> bool:
        round_trip = certificates.Derivation.from_json(
            json.loads(json.dumps(d.to_json())))
        return (d.target == self.target and round_trip == d
                and certificates.verify_derivation(self.rest, d))

    def signature(self, d) -> str:
        return json.dumps(d.to_json(), sort_keys=True)


WORKLOADS = {w.name: w for w in (CorpusReplay, EnumLimit, CollapseDerive)}
