#!/usr/bin/env python3
"""Regenerate the frozen corpus under src/fpverify/corpus/.

Writes the literal presentation files, recomputes every derived artifact
(the eliminated presentation, the equivalence certificates, the scenario
certificates, the redundancy derivations), verifies each one before
freezing it, and rewrites the checksum manifest.  Deterministic: a rerun
writes the same files every time.  It reproduces the frozen corpus byte
for byte except `redundancy-nine.derivations.json` and its manifest
entry: those collapse chains were frozen from an earlier proof-logging
enumerator, and a rerun writes different, shorter chains (9-19 steps for
the seven deep relators instead of 12-30).  The frozen chains are pinned
by the manifest and still verify; the corpus keeps them.
`tests/test_corpus.py` reruns `main()` into a temporary directory and
checks both promises.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fpverify.certificates import (  # noqa: E402
    Certificate,
    Derivation,
    derive_all,
    derive_by_collapse,
    save_certificates,
    search_certificate,
    verify_certificate,
    verify_derivation,
)
from fpverify.presentation import (  # noqa: E402
    Presentation,
    _defining_forms,
    eliminate_generator,
    parse_presentation,
    parse_word,
)
from fpverify.words import Word  # noqa: E402

CORPUS = Path(__file__).resolve().parents[1] / "src" / "fpverify" / "corpus"

PI1_E0_TILDE = """\
# Six generators, nine relators read off by tracing the attaching circles
# of the 2-handles.
name: pi1-E0-tilde
< a, c, e, g, h, q |
  [a, e] = 1,
  [h, e] = 1,
  [a, q] = c,
  [c^-1, a] = c q,
  [g, a] = h,
  [g^-1, h] = a,
  [c q, a h] = 1,
  [c, a h] = 1,
  [q^-1, c] [g^-1, e] = 1
>
"""

ELEVEN_NEW_RELATORS = """\
# Relator words of the eleven additional 2-handles, over the extended
# generator set (five new generators x, y, u, v, w).
name: eleven-new-relators
< a, c, e, g, h, q, x, y, u, v, w |
  v g^-1 h^-1 g h a,
  x y x y^-1 x^-1 y^-1,
  c y x^-1 c^-1 x y^-1,
  q y^-1,
  x y x^-1 w y^-1,
  y x^-1 v^-1 u^-1,
  v u^-1 v u,
  u w u^-1 v w^-1,
  u^2 e^-1,
  w e^-1 w^-1 e,
  w g^-1
>
"""

PI1_N_FULL = """\
# Eight-generator presentation with the relations already massaged
# ([q,c]=1 and [c,x]=1 in place of their raw forms).
name: pi1-N-full
< a, c, g, h, q, x, u, v |
  [a, u^2] = 1,
  [h, u^2] = 1,
  [a, q] = c,
  [a^-1, c^-1] = q,
  [g, a] = h,
  [g^-1, h] = a,
  [q, a h] = 1,
  [c, a h] = 1,
  [q, c] = 1,
  v = a^-1 [h^-1, g^-1],
  x q x = q x q,
  [c, x] = 1,
  g = [x, q^-1],
  q x^-1 = u v,
  u v = v^-1 u,
  v = [u, g^-1],
  [g, u^2] = 1
>
"""

PI1_N_REDUCED = """\
# Five-generator, seven-relator presentation of the same (trivial) group.
name: pi1-N-reduced
< a, c, g, h, q |
  [a, q] = c,
  [a^-1, c^-1] = q,
  [g, a] = h,
  [g^-1, h] = a,
  [q, a h] = 1,
  [c, a h] = 1,
  g q^-2 g = q^-1 g q^-1
>
"""

DERIVE_QC_BASE = """\
# The nine base relators plus [g,e]=1; [q,c]=1 is a consequence.
name: derive-qc-commute-base
< a, c, e, g, h, q |
  [a, e] = 1,
  [h, e] = 1,
  [a, q] = c,
  [c^-1, a] = c q,
  [g, a] = h,
  [g^-1, h] = a,
  [c q, a h] = 1,
  [c, a h] = 1,
  [q^-1, c] [g^-1, e] = 1,
  [g, e] = 1
>
"""

DERIVE_CX_BASE = """\
# In the presence of [q,c]=1 the relator c q x^-1 c^-1 x q^-1 is
# equivalent to [c,x]=1.
name: derive-cx-commute-base
< c, q, x |
  c q x^-1 c^-1 x q^-1,
  [q, c] = 1
>
"""

DERIVE_GX2_BASE = """\
# g = [x,q^-1] and the braid relation x q x = q x q give g^-1 x^2 = x q.
name: derive-gx2-base
< g, q, x |
  g = [x, q^-1],
  x q x = q x q
>
"""

CONJUGACY_X_BASE = """\
# g^-1 x^2 = x q and the braid relation give the conjugacy x = g q g^-1.
name: conjugacy-x-base
< g, q, x |
  g^-1 x^2 = x q,
  x q x = q x q
>
"""

# indices into pi1-N-full's relator list, split by how the witness is found:
# a direct bounded splice search vs. extraction from a collapsing enumeration
REDUNDANT_SHALLOW = (0, 1, 14, 16)
REDUNDANT_DEEP = (5, 6, 7, 8, 9, 11, 15)

SCENARIOS = [
    {
        "id": "pi1-E0-tilde",
        "description": "Base presentation: 6 generators, 9 relators; "
                       "first homology is free of rank 2.",
        "files": {"presentation": "pi1-E0-tilde.grp"},
        "expected": {"generator_count": 6, "relator_count": 9,
                     "h1": {"free_rank": 2, "torsion": []}},
        "source_claim": "the fundamental group $\\pi_{1}(\\tilde{E}_{0})$ is "
                        "given in terms of the generators of Figure 2 (by "
                        "reading off the relations by tracing the attaching "
                        "knots of the $2$-handles, starting at the points "
                        "indicated by small circles)",
        "source_location": "§2",
    },
    {
        "id": "eleven-new-relators",
        "description": "The eleven additional relator words over the "
                       "extended generator set.",
        "files": {"presentation": "eleven-new-relators.grp"},
        "expected": {"generator_count": 11, "relator_count": 11},
        "source_claim": "introducing $11$ new relations coming from the $11$ "
                        "new $2$-handles of Figure 17",
        "source_location": "§2",
    },
    {
        "id": "elimination-y-w",
        "description": "Eliminating y, w, e from the 20-relator union yields "
                       "a 17-relator presentation certified equivalent (both "
                       "directions) to pi1-N-full.",
        "files": {"base": "pi1-E0-tilde.grp",
                  "new": "eleven-new-relators.grp",
                  "eliminated": "pi1-N-raw.grp",
                  "massaged": "pi1-N-full.grp",
                  "full_from_raw": "elimination-full-from-raw.certs.json",
                  "raw_from_full": "elimination-raw-from-full.certs.json"},
        "expected": {"eliminates_to": "pi1-N-raw",
                     "equivalent_to": "pi1-N-full",
                     "eliminate": ["y", "w", "e"]},
        "source_claim": "After eliminating $y, w$ from the short words, "
                        "these new relations become:",
        "source_location": "§2",
    },
    {
        "id": "pi1-N-full",
        "description": "Eight-generator presentation enumerates to index 1 "
                       "over the trivial subgroup; H1 trivial.",
        "files": {"presentation": "pi1-N-full.grp"},
        "expected": {"generator_count": 8, "relator_count": 17,
                     "trivial": True,
                     "h1": {"free_rank": 0, "torsion": []}},
        "source_claim": "From this presentation by using the group theory "
                        "software GAP, reader can verify that $\\pi_{1}(N)$ "
                        "is the trivial group.",
        "source_location": "§2",
    },
    {
        "id": "pi1-N-reduced",
        "description": "Five-generator, seven-relator presentation "
                       "enumerates to index 1; H1 trivial.",
        "files": {"presentation": "pi1-N-reduced.grp"},
        "expected": {"generator_count": 5, "relator_count": 7,
                     "trivial": True,
                     "h1": {"free_rank": 0, "torsion": []}},
        "source_claim": "the group has the following presentation, and it "
                        "is trivial",
        "source_location": "§2",
    },
    {
        "id": "derive-qc-commute",
        "description": "[q,c]=1 is a certified consequence of the nine base "
                       "relators plus [g,e]=1.",
        "files": {"base": "derive-qc-commute-base.grp",
                  "certificates": "derive-qc-commute.certs.json"},
        "expected": {"certificate_exists": True, "target": "[q, c]"},
        "source_claim": "The last relation of $\\pi_{1}(\\tilde{E}_{0})$  "
                        "and $ [g,e]=1$  implies $ [q,c]=1$",
        "source_location": "§2",
    },
    {
        "id": "derive-cx-commute",
        "description": "[c,x]=1 is a certified consequence of "
                       "c q x^-1 c^-1 x q^-1 together with [q,c]=1.",
        "files": {"base": "derive-cx-commute-base.grp",
                  "certificates": "derive-cx-commute.certs.json"},
        "expected": {"certificate_exists": True, "target": "[c, x]"},
        "source_claim": "in the presence of  $[q,c]=1$ the third relation "
                        "above is equivalent to $[c,x]=1$",
        "source_location": "§2",
    },
    {
        "id": "derive-gx2",
        "description": "g^-1 x^2 = x q is a certified consequence of "
                       "g = [x,q^-1] and x q x = q x q.",
        "files": {"base": "derive-gx2-base.grp",
                  "certificates": "derive-gx2.certs.json"},
        "expected": {"certificate_exists": True,
                     "target": "g^-1 x^2 (x q)^-1"},
        "source_claim": "$g=[x,q^{-1}]$ and $xqx=qxq$ $\\Rightarrow$ "
                        "$g^{-1}x^{2}=xq$",
        "source_location": "§2",
    },
    {
        "id": "conjugacy-x",
        "description": "x = g q g^-1 is a certified consequence of "
                       "g^-1 x^2 = x q and x q x = q x q.",
        "files": {"base": "conjugacy-x-base.grp",
                  "certificates": "conjugacy-x.certs.json"},
        "expected": {"certificate_exists": True,
                     "target": "x (g q g^-1)^-1"},
        "source_claim": "again this with $xqx=qxq$ gives an equivalent "
                        "presentation $x=gqg^{-1}$",
        "source_location": "§2",
    },
    {
        "id": "redundancy-nine",
        "description": "Eleven relators of pi1-N-full carry verified "
                       "derivations from the remaining sixteen (at least "
                       "nine required).",
        "files": {"presentation": "pi1-N-full.grp",
                  "derivations": "redundancy-nine.derivations.json"},
        "expected": {"redundant_count_at_least": 9,
                     "certified_indices": sorted(
                         REDUNDANT_SHALLOW + REDUNDANT_DEEP)},
        "source_claim": "we can check that nine of the above relations are "
                        "redundant",
        "source_location": "§2",
    },
]


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


def write(name: str, text: str) -> None:
    (CORPUS / name).write_text(text, encoding="utf-8")
    print(f"wrote {name} ({len(text)} bytes)")


def main() -> None:
    CORPUS.mkdir(exist_ok=True)
    write("pi1-E0-tilde.grp", PI1_E0_TILDE)
    write("eleven-new-relators.grp", ELEVEN_NEW_RELATORS)
    write("pi1-N-full.grp", PI1_N_FULL)
    write("pi1-N-reduced.grp", PI1_N_REDUCED)
    write("derive-qc-commute-base.grp", DERIVE_QC_BASE)
    write("derive-cx-commute-base.grp", DERIVE_CX_BASE)
    write("derive-gx2-base.grp", DERIVE_GX2_BASE)
    write("conjugacy-x-base.grp", CONJUGACY_X_BASE)

    e0 = parse_presentation(PI1_E0_TILDE)
    eleven = parse_presentation(ELEVEN_NEW_RELATORS)
    full = parse_presentation(PI1_N_FULL)
    assert len(e0.relators) == 9 and len(eleven.relators) == 11
    assert len(full.relators) == 17

    # union of the base and new relators, then eliminate y, w, e
    union = Presentation(eleven.generators, e0.relators + eleven.relators,
                         name="union")
    raw = union
    for gen, definition in (("y", "q"), ("w", "g"), ("e", "u^2")):
        wanted = parse_word(definition)
        idx = next(i for i, r in enumerate(raw.relators)
                   if _defining_forms(r, gen) == wanted)
        raw, move = eliminate_generator(raw, gen, using=idx)
        print(f"eliminated {gen} via definition {move.definition}")
    assert len(raw.generators) == 8 and len(raw.relators) == 17
    write("pi1-N-raw.grp", format_grp(
        raw, "pi1-N-raw",
        "Seventeen relators over eight generators, produced by eliminating\n"
        "y, w, e from the union of pi1-E0-tilde and eleven-new-relators."))
    raw = parse_presentation((CORPUS / "pi1-N-raw.grp").read_text())

    # equivalence certificates, both directions
    t0 = time.monotonic()
    full_from_raw = derive_all(raw, list(full.relators),
                               state_budgets=(20_000, 100_000, 800_000))
    assert len(full_from_raw) == 17, sorted(full_from_raw)
    save_certificates(CORPUS / "elimination-full-from-raw.certs.json",
                      full_from_raw)
    raw_from_full = derive_all(full, list(raw.relators),
                               state_budgets=(20_000, 100_000, 800_000))
    assert len(raw_from_full) == 17, sorted(raw_from_full)
    save_certificates(CORPUS / "elimination-raw-from-full.certs.json",
                      raw_from_full)
    print(f"equivalence certificates: {time.monotonic() - t0:.1f}s")

    # single-certificate derivation scenarios
    for stem, base_text, target_text in [
        ("derive-qc-commute", DERIVE_QC_BASE, "[q, c]"),
        ("derive-cx-commute", DERIVE_CX_BASE, "[c, x]"),
        ("derive-gx2", DERIVE_GX2_BASE, "g^-1 x^2 (x q)^-1"),
        ("conjugacy-x", CONJUGACY_X_BASE, "x (g q g^-1)^-1"),
    ]:
        base = parse_presentation(base_text)
        target = parse_word(target_text)
        cert = search_certificate(base, target)
        assert verify_certificate(base, cert)
        save_certificates(CORPUS / f"{stem}.certs.json", {0: cert})
        print(f"{stem}: {len(cert.factors)} factors")

    # redundancy derivations against pi1-N-full
    derivations: dict[int, Derivation] = {}
    for i in sorted(REDUNDANT_SHALLOW + REDUNDANT_DEEP):
        rest = full.with_relators(
            [r for j, r in enumerate(full.relators) if j != i])
        target = full.relators[i]
        t0 = time.monotonic()
        if i in REDUNDANT_SHALLOW:
            cert = search_certificate(rest, target)
            d = Derivation(target, (cert,))
        else:
            d = derive_by_collapse(rest, target)
        assert verify_derivation(rest, d)
        derivations[i] = d
        print(f"relator {i}: {len(d.steps)} step(s), "
              f"{time.monotonic() - t0:.1f}s")
    payload = {str(k): d.to_json() for k, d in sorted(derivations.items())}
    with open(CORPUS / "redundancy-nine.derivations.json", "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print("wrote redundancy-nine.derivations.json")

    with open(CORPUS / "scenarios.json", "w", encoding="utf-8") as fh:
        json.dump(SCENARIOS, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print("wrote scenarios.json")

    manifest = {}
    for path in sorted(CORPUS.iterdir()):
        if not path.is_file() or path.name in ("manifest.json", "__init__.py"):
            continue
        if path.suffix == ".pyc":
            continue
        manifest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    with open(CORPUS / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    print(f"wrote manifest.json ({len(manifest)} files)")


if __name__ == "__main__":
    main()
