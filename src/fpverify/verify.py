"""End-to-end scenario verification: replay each corpus scenario's pipeline
(parsing, eliminations, certificates, enumeration, homology) and compare the
outcomes against the frozen expectations.

Reports record the active commutator convention, which picks where a
witness step's witness comes from: the frozen corpus file under the
default convention, a live search or collapse under the alternate one,
where the frozen words do not apply.  One check follows either way: the
witness must prove the step's target, and its step's `detail` gives its
size and, for a live witness, the counters of the work that found it.

A frozen witness is read from its file's checked bytes by
`fpverify.checker` straight into plain tuples of integer letters and
checked there, with no word object built for it: `redundancy-nine`'s
`load-derivations` step times reading and decoding its chains, and each
`relator-*` step that chain's products.  A malformed witness, one naming
a relator the presentation does not have included, raises ValueError
naming the file, the key and the field or factor.  So does a file that
holds other indices than the ones its scenario's claims name (0 for a
certificate, one per relator of the frozen presentation each
`equivalence-*` step proves, `certified_indices` for the chains): every
claim is checked against its frozen witness, and none is searched for.

A replay reads the corpus through the snapshot its scenario carries
(`fpverify.corpus`); every library read of a corpus file goes through
one.  The snapshot parsed the registry once, from the bytes the replay's
`manifest` step hashes, so a replay runs the registry it checked.  That
step also reads and hashes the files no earlier scenario of the snapshot
named, and the pipeline takes every file through the scenario's loaders,
which parse or decode only those checked bytes; outside a replay the
loaders refuse, with ValueError, bytes that differ from the manifest.
`run_all` replays the scenarios of one `list_scenarios` call, which share
one snapshot, so each step's time includes the reads it is first to
make; `run_scenario` given an id loads the scenario, and with it a
snapshot, of its own.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .certificates import (
    NotFound,
    derive_all,
    derive_by_collapse,
    search_certificate,
    verify_certificate,
    verify_derivation,
)
from .checker import (
    Alphabet,
    check_certificate,
    check_derivation,
    read_certificate,
    read_derivation,
)
from .corpus import Scenario, list_scenarios, load_scenario
from .coset import DEFAULT_MAX_COSETS, DEFAULT_STRATEGY, enumerate_cosets
from .presentation import (
    Presentation,
    eliminate_generator,
    parse_presentation,
    parse_word,
    print_presentation,
)
from .snf import homology_h1
from .words import CONVENTION_DEFAULT


@dataclass
class StepResult:
    name: str
    status: str  # "pass" | "fail" | "limit"
    detail: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status,
                "detail": self.detail,
                "elapsed_ms": round(self.elapsed_ms, 3)}


@dataclass
class RunReport:
    scenario: str
    convention: str
    steps: list[StepResult]
    source_claim: str = ""
    source_location: str = ""
    elapsed_ms: float = 0.0
    version: str = __version__

    @property
    def status(self) -> str:
        if any(s.status == "limit" for s in self.steps):
            return "limit"
        if all(s.status == "pass" for s in self.steps):
            return "pass"
        return "fail"

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "status": self.status,
            "convention": self.convention,
            "version": self.version,
            "source_claim": self.source_claim,
            "source_location": self.source_location,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "steps": [s.to_json() for s in self.steps],
        }


class _Steps:
    """Collects StepResults.  Each step is timed from the end of the step
    before it, or from the start of the run, so a report's step times add
    up to its run."""

    def __init__(self):
        self.results: list[StepResult] = []
        self._mark = time.monotonic()

    def record(self, name: str, status: str, **detail) -> bool:
        now = time.monotonic()
        self.results.append(StepResult(name, status, detail,
                                       (now - self._mark) * 1000.0))
        self._mark = now
        return status == "pass"

    def check(self, name: str, ok: bool, **detail) -> bool:
        return self.record(name, "pass" if ok else "fail", **detail)

    def timed(self, name: str, fn) -> bool:
        """Record fn()'s (ok, detail); a NotFound fails the step with its
        message and counters."""
        try:
            ok, detail = fn()
        except NotFound as exc:
            ok, detail = False, {"error": str(exc), **_stats(exc)}
        return self.check(name, ok, **detail)


def _stats(x) -> dict:
    """The counters of x, a witness or a NotFound, if it has them."""
    return asdict(x.stats) if x.stats else {}


def _frozen(s: Scenario, key: str, read, p: Presentation, indices):
    """The alphabet, p's relators as its integer words, and s's frozen
    witnesses under key as {index: read(doc, alphabet)}, read from the
    checked bytes of the file by the checker (`read_certificate` or
    `read_derivation`).  The file must hold exactly indices, the ones
    s's claims name: anything else raises ValueError naming the file."""
    alphabet = Alphabet(p.generators)
    relators = [alphabet.encode(r.letters) for r in p.relators]
    return alphabet, relators, s.witnesses(
        key, lambda doc: read(doc, alphabet), indices)


def _proves(s: Scenario, key: str, i: int, check, relators: list,
            target: list[int], witness: tuple) -> bool:
    """Whether frozen witness i of s's file under key, a (target, factors
    or steps) pair as the checker reads it, proves target over relators
    by check.  A relator index out of range makes the witness malformed:
    a ValueError naming the file, the key and the factor."""
    frozen, body = witness
    try:
        return frozen == target and check(relators, frozen, body)
    except IndexError as e:
        raise ValueError(f"{s.files[key]}[{str(i)!r}]: {e}") from None


def _expected_h1(expected: dict) -> tuple[int, tuple[int, ...]]:
    return expected["h1"]["free_rank"], tuple(expected["h1"]["torsion"])


def _run_presentation_scenario(s: Scenario, steps: _Steps, convention: str,
                               max_cosets: int, strategy: str) -> None:
    p = s.presentation(convention=convention)
    exp = s.expected
    steps.check("parse",
                len(p.generators) == exp["generator_count"]
                and len(p.relators) == exp["relator_count"],
                generators=len(p.generators), relators=len(p.relators))
    steps.check("round-trip",
                parse_presentation(print_presentation(p),
                                   convention=convention) == p)
    if "h1" in exp or exp.get("trivial"):
        h1 = homology_h1(p)  # shared by the h1 and h1-cross-check steps
    if "h1" in exp:
        steps.check("h1", (h1.free_rank, h1.torsion) == _expected_h1(exp),
                    computed=h1.to_json(), expected=exp["h1"])
    if exp.get("trivial"):
        result = enumerate_cosets(p, (), strategy=strategy,
                                  max_cosets=max_cosets)
        if result.completed:
            status = "pass" if result.index == 1 else "fail"
        else:
            status = "limit"
        steps.record("triviality", status, enumeration=result.to_json(),
                     compactions=result.compactions,
                     index_one_live=result.index_one_live,
                     deductions=result.deductions)
        # independent cross-check: a trivial group must have trivial H1
        steps.check("h1-cross-check", h1.is_trivial(), computed=h1.to_json())


def _run_elimination_scenario(s: Scenario, steps: _Steps, convention: str,
                              max_cosets: int, strategy: str) -> None:
    base = s.presentation("base", convention=convention)
    new = s.presentation("new", convention=convention)
    frozen_raw = s.presentation("eliminated", convention=convention)
    full = s.presentation("massaged", convention=convention)
    union = Presentation(new.generators, base.relators + new.relators)
    current = union
    for gen in s.expected["eliminate"]:
        current, _ = eliminate_generator(current, gen)
    steps.check("eliminate",
                current == frozen_raw,
                generators=list(current.generators),
                relators=len(current.relators))

    # each relator of p2 must be a consequence of p1's
    def equivalence(key: str, p1: Presentation, p2: Presentation):
        n = len(p2.relators)
        if convention != CONVENTION_DEFAULT:
            # frozen witnesses are convention-specific
            found = derive_all(p1, list(p2.relators))
            return len(found) == n, {"certificates": len(found),
                                     "unproven": n - len(found)}
        alphabet, relators, certs = _frozen(s, key, read_certificate, p1,
                                            range(n))
        return all(_proves(s, key, i, check_certificate, relators,
                           alphabet.encode(r.letters), certs[i])
                   for i, r in enumerate(p2.relators)), {"certificates": n}
    # the frozen witnesses are for the frozen presentations, so that a
    # faulty elimination fails only its own step; a live search starts
    # from the live elimination, as the frozen file holds the default
    # convention's words
    raw = frozen_raw if convention == CONVENTION_DEFAULT else current
    steps.timed("equivalence-forward",
                lambda: equivalence("full_from_raw", raw, full))
    steps.timed("equivalence-backward",
                lambda: equivalence("raw_from_full", full, raw))


def _run_derive_scenario(s: Scenario, steps: _Steps, convention: str,
                         max_cosets: int, strategy: str) -> None:
    base = s.presentation("base", convention=convention)
    target = parse_word(s.expected["target"], convention=convention)

    def certificate():
        if convention == CONVENTION_DEFAULT:
            alphabet, relators, certs = _frozen(s, "certificates",
                                                read_certificate, base, (0,))
            return (_proves(s, "certificates", 0, check_certificate,
                            relators, alphabet.encode(target.letters),
                            certs[0]),
                    {"factors": len(certs[0][1])})
        cert = search_certificate(base, target)
        return (cert.target == target and verify_certificate(base, cert),
                {"factors": len(cert.factors), **_stats(cert)})
    steps.timed("certificate", certificate)


def _run_redundancy_scenario(s: Scenario, steps: _Steps, convention: str,
                             max_cosets: int, strategy: str) -> None:
    full = s.presentation(convention=convention)
    indices = s.expected["certified_indices"]
    if convention == CONVENTION_DEFAULT:
        # decoding the frozen chains is a step of its own, so that each
        # relator step times only its check
        _, relators, chains = _frozen(s, "derivations", read_derivation, full,
                                      indices)
        steps.record("load-derivations", "pass", chains=len(chains))

        def derivation(i: int):
            return (_proves(s, "derivations", i, check_derivation,
                            relators[:i] + relators[i + 1:], relators[i],
                            chains[i]),
                    {"steps_in_chain": len(chains[i][1])})
    else:
        def derivation(i: int):
            rest = full.with_relators(
                [r for j, r in enumerate(full.relators) if j != i])
            target = full.relators[i]
            d = derive_by_collapse(rest, target)
            return (d.target == target and verify_derivation(rest, d),
                    {"steps_in_chain": len(d.steps), **_stats(d)})
    certified = 0
    for i in indices:
        certified += steps.timed(f"relator-{i}", lambda: derivation(i))
    steps.check("count", certified >= s.expected["redundant_count_at_least"],
                certified=certified,
                required=s.expected["redundant_count_at_least"])


# Each scenario runs the one pipeline whose expected field it carries.
_PIPELINES = {
    "generator_count": _run_presentation_scenario,
    "eliminate": _run_elimination_scenario,
    "target": _run_derive_scenario,
    "certified_indices": _run_redundancy_scenario,
}


def _pipeline(s: Scenario):
    matches = [fn for key, fn in _PIPELINES.items() if key in s.expected]
    if len(matches) != 1:
        raise KeyError(f"scenario {s.id!r} matches {len(matches)} pipelines; "
                       f"its expected fields must name exactly one of "
                       f"{sorted(_PIPELINES)}")
    return matches[0]


def run_scenario(scenario_id: str | Scenario,
                 convention: str = CONVENTION_DEFAULT,
                 max_cosets: int = DEFAULT_MAX_COSETS,
                 strategy: str = DEFAULT_STRATEGY) -> RunReport:
    """Replay the scenario registered as scenario_id, or scenario_id
    itself when it is a Scenario, through the snapshot it carries."""
    # the run and its first step include looking up the scenario and
    # reading and hashing the files no earlier scenario of its snapshot
    # read; a scenario whose files differ from the manifest is not replayed
    t0 = time.monotonic()
    steps = _Steps()
    s = (scenario_id if isinstance(scenario_id, Scenario)
         else load_scenario(scenario_id))
    mismatches = s.mismatches()
    if steps.check("manifest", not mismatches, mismatches=mismatches):
        _pipeline(s)(s, steps, convention, max_cosets, strategy)
    return RunReport(scenario=s.id, convention=convention,
                     steps=steps.results, source_claim=s.source_claim,
                     source_location=s.source_location,
                     elapsed_ms=(time.monotonic() - t0) * 1000.0)


def run_all(convention: str = CONVENTION_DEFAULT,
            max_cosets: int = DEFAULT_MAX_COSETS,
            strategy: str = DEFAULT_STRATEGY) -> list[RunReport]:
    """The scenarios of one `list_scenarios` call replayed from the
    snapshot they share, so each file is read, hashed and parsed once per
    call."""
    return [run_scenario(s, convention=convention, max_cosets=max_cosets,
                         strategy=strategy) for s in list_scenarios()]
