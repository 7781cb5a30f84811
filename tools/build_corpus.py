#!/usr/bin/env python3
"""Rebuild the frozen corpus under src/fpverify/corpus/ from its sources.

The sources are `scenarios.json` and every file a scenario names under a
key other than the derived ones (`DERIVED`): the hand-written `.grp`
presentations.  They are copied into `CORPUS` unchanged and parsed from
their raw bytes (`source`), not through the library's checked loaders:
the builder runs after a source is edited and before it pins the edit in
the manifest, and `list_scenarios` parses the registry whether or not
its bytes match.  A derived file is never copied, only recomputed, and
each witness file is checked after it is written: its bytes are read back
as a replay reads them (`fpverify.corpus.read_witnesses`), which raises
ValueError unless the file holds exactly the indices the replay requires,
and every witness is checked by `fpverify.checker`, raising `BuildError`
unless each proves its target.  No check is an `assert`, so `python -O`
skips none.  A scenario's `expected` fields
choose its work, as they choose its pipeline in `fpverify.verify`:

- `eliminate`: eliminate the listed generators, in order, from the union
  of `base` and `new`, each by its shortest defining relator, into
  `eliminated`; then certify it equivalent to `massaged` both ways
  (`full_from_raw`, `raw_from_full`);
- `target`: search a certificate of the target word over `base`, into
  `certificates`;
- `certified_indices`: derive each listed relator of `presentation` from
  the others, into `derivations`.

The checksum manifest is rewritten last.  Deterministic: a rerun writes
the same files every time.  It reproduces the frozen corpus byte for byte
except the collapse chains in the `derivations` file and its manifest
entry: those were frozen from an earlier proof-logging enumerator, and a
rerun writes different, shorter chains (9-19 steps for the seven deep
relators instead of 12-30).  The frozen chains are pinned by the manifest
and still verify; the corpus keeps them.  `tests/test_corpus.py` reruns
`main()` into a temporary directory and checks both promises.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fpverify import (  # noqa: E402
    Derivation, Presentation, Scenario, Word, derive_all, derive_by_collapse,
    eliminate_generator, list_scenarios, parse_presentation, parse_word,
    search_certificate)
from fpverify.checker import (  # noqa: E402
    Alphabet, check_certificate, check_derivation, read_certificate,
    read_derivation)
from fpverify.corpus import (  # noqa: E402
    MANIFEST, REGISTRY, _in_manifest, corpus_path, read_witnesses)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "fpverify" / "corpus"

# the `files` keys whose files this script computes; every other file a
# scenario names is a source
DERIVED = ("eliminated", "full_from_raw", "raw_from_full", "certificates",
           "derivations")

# certified relators whose derivation is one certificate from a direct
# splice search; the collapse would give chains of about 11 steps there
REDUNDANT_SHALLOW = (0, 1, 14, 16)

# the eliminated presentation's header comment, its counts in words
RAW_COMMENT = ("Seventeen relators over eight generators, produced by "
               "eliminating\n{} from the union of {} and {}.")


class BuildError(Exception):
    """A file the builder computed does not check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise BuildError(message)


def format_grp(p: Presentation, name: str, comment: str = "") -> str:
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"name: {name}")
    lines.append("< " + ", ".join(p.generators) + " |")
    for i, r in enumerate(p.relators):
        sep = "," if i < len(p.relators) - 1 else ""
        lines.append(f"  {r}{sep}")
    lines.append(">")
    return "\n".join(lines) + "\n"


def source(s: Scenario, key: str = "presentation") -> Presentation:
    """The presentation in s's source file under key, from its raw bytes."""
    return parse_presentation(corpus_path(s.files[key]).read_bytes().decode())


def write(name: str, data: bytes) -> None:
    (CORPUS / name).write_bytes(data)
    print(f"wrote {name} ({len(data)} bytes)")


def write_json(name: str, data) -> None:
    write(name, (json.dumps(data, indent=1) + "\n").encode("utf-8"))


def freeze(name: str, witnesses: dict, read, check,
           over: dict[int, tuple[Presentation, Word]]) -> None:
    """Write witnesses to name, then read the written bytes back as a
    replay does, holding exactly the indices of over, and check witness i
    with the checker's read and check over over[i], a (presentation,
    target) pair."""
    write_json(name, {str(k): w.to_json() for k, w in witnesses.items()})
    written = read_witnesses(name, (CORPUS / name).read_bytes(),
                             lambda doc: doc, over)
    for i, doc in written.items():
        p, target = over[i]
        alphabet = Alphabet(p.generators)
        encode = alphabet.encode
        frozen, witness = read(doc, alphabet)
        require(frozen == encode(target.letters)
                and check([encode(r.letters) for r in p.relators], frozen,
                          witness),
                f"{name}[{str(i)!r}]: does not prove its target {target}")


def build_elimination(s: Scenario) -> None:
    base, new = source(s, "base"), source(s, "new")
    massaged = source(s, "massaged")
    raw = Presentation(new.generators, base.relators + new.relators)
    for gen in s.expected["eliminate"]:
        raw, move = eliminate_generator(raw, gen)
        print(f"eliminated {gen} via definition {move.definition}")
    name = s.files["eliminated"]
    stems = (Path(s.files[key]).stem for key in ("base", "new"))
    text = format_grp(raw, Path(name).stem, RAW_COMMENT.format(
        ", ".join(s.expected["eliminate"]), *stems))
    require(parse_presentation(text) == raw,
            f"{name}: does not parse back to the eliminated presentation")
    write(name, text.encode("utf-8"))

    for key, p, q in (("full_from_raw", raw, massaged),
                      ("raw_from_full", massaged, raw)):
        certs = derive_all(p, list(q.relators))
        freeze(s.files[key], certs, read_certificate, check_certificate,
               {i: (p, r) for i, r in enumerate(q.relators)})


def build_certificate(s: Scenario) -> None:
    base = source(s, "base")
    target = parse_word(s.expected["target"])
    freeze(s.files["certificates"], {0: search_certificate(base, target)},
           read_certificate, check_certificate, {0: (base, target)})


def build_derivations(s: Scenario) -> None:
    full = source(s)
    derivations: dict[int, Derivation] = {}
    over = {}
    for i in sorted(s.expected["certified_indices"]):
        rest = full.with_relators(
            [r for j, r in enumerate(full.relators) if j != i])
        target = full.relators[i]
        if i in REDUNDANT_SHALLOW:
            d = Derivation(target, (search_certificate(rest, target),))
        else:
            d = derive_by_collapse(rest, target)
        derivations[i] = d
        over[i] = (rest, target)
        print(f"relator {i}: {len(d.steps)} step(s)")
    freeze(s.files["derivations"], derivations, read_derivation,
           check_derivation, over)


# Each scenario gets the work of every expected field it carries.
BUILDERS = {
    "eliminate": build_elimination,
    "target": build_certificate,
    "certified_indices": build_derivations,
}


def main() -> None:
    CORPUS.mkdir(exist_ok=True)
    scenarios = list_scenarios()
    sources = {REGISTRY} | {name for s in scenarios
                            for key, name in s.files.items()
                            if key not in DERIVED}
    for name in sorted(sources):
        write(name, corpus_path(name).read_bytes())
    for s in scenarios:
        for field, build in BUILDERS.items():
            if field in s.expected:
                build(s)

    write_json(MANIFEST, {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(CORPUS.iterdir()) if _in_manifest(path)})


if __name__ == "__main__":
    main()
