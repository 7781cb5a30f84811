"""Frozen ground-truth data: presentations, derivation scenarios, and the
certificates backing them, with programmatic access and checksum pinning.

Layout: ``<id>.grp`` presentation files in the textual grammar,
``scenarios.json`` registering every scenario with its expected outcome and
the verbatim source claim it reproduces, ``*.certs.json`` /
``*.derivations.json`` frozen witnesses, and ``manifest.json`` pinning a
sha256 per file so silent edits fail loudly: a scenario's replay checks
its files against it first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..certificates import Certificate, Derivation
from ..presentation import Presentation, parse_presentation
from ..words import CONVENTION_DEFAULT

CORPUS_DIR = Path(__file__).parent

MANIFEST = "manifest.json"
REGISTRY = "scenarios.json"


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    files: dict
    expected: dict
    source_claim: str
    source_location: str

    def presentation(self, key: str = "presentation",
                     convention: str = CONVENTION_DEFAULT) -> Presentation:
        return load_corpus_presentation(self.files[key], convention=convention)

    def certificates(self, key: str = "certificates") -> dict[int, Certificate]:
        return _load_witnesses(self.files[key], Certificate.from_json)

    def derivations(self, key: str = "derivations") -> dict[int, Derivation]:
        return _load_witnesses(self.files[key], Derivation.from_json)


def _load_witnesses(name: str, from_json) -> dict:
    """A frozen ``{index: witness}`` file, each witness read by
    from_json; raises ValueError naming the file, and the key, on a
    malformed one."""
    with open(corpus_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    if type(data) is not dict:
        raise ValueError(f"{name}: must be an object keyed by relator index, "
                         f"got {type(data).__name__}")
    out = {}
    for k, v in data.items():
        try:
            out[int(k)] = from_json(v)
        except ValueError as e:
            raise ValueError(f"{name}[{k!r}]: {e}") from None
    return out


def corpus_path(name: str) -> Path:
    path = CORPUS_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {name}")
    return path


def load_corpus_presentation(name: str,
                             convention: str = CONVENTION_DEFAULT) -> Presentation:
    with open(corpus_path(name), encoding="utf-8") as fh:
        return parse_presentation(fh.read(), convention=convention)


# each registry entry's fields with their types
_ENTRY_FIELDS = {"id": str, "description": str, "files": dict,
                 "expected": dict, "source_claim": str,
                 "source_location": str}


@lru_cache(maxsize=None)
def _registry() -> dict[str, Scenario]:
    """The registered scenarios by id; raises ValueError naming the
    registry when it is not JSON or an entry is malformed."""
    with open(corpus_path(REGISTRY), encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except ValueError as e:
            raise ValueError(f"{REGISTRY}: not JSON: {e}") from None
    if type(entries) is not list:
        raise ValueError(f"{REGISTRY}: must be a list of scenario entries, "
                         f"got {type(entries).__name__}")
    out: dict[str, Scenario] = {}
    for k, e in enumerate(entries):
        if type(e) is not dict:
            raise ValueError(f"{REGISTRY}[{k}]: must be an object, "
                             f"got {type(e).__name__}")
        fields = {"files": {}, "expected": {}, "source_location": "", **e}
        for name, kind in _ENTRY_FIELDS.items():
            if type(fields.get(name)) is not kind:
                raise ValueError(f"{REGISTRY}[{k}]: {name!r} must be a "
                                 f"{kind.__name__}, got {fields.get(name)!r}")
        unknown = sorted(set(fields) - set(_ENTRY_FIELDS))
        if unknown:
            raise ValueError(f"{REGISTRY}[{k}]: unknown fields {unknown}")
        if not all(type(f) is str for f in fields["files"].values()):
            raise ValueError(f"{REGISTRY}[{k}]: 'files' must map keys to "
                             f"file names")
        out[fields["id"]] = Scenario(**fields)
    return out


def list_scenarios() -> list[Scenario]:
    return [s for _, s in sorted(_registry().items())]


def load_scenario(scenario_id: str) -> Scenario:
    registry = _registry()
    if scenario_id not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}")
    return registry[scenario_id]


def file_sha256(name: str) -> str:
    return hashlib.sha256(corpus_path(name).read_bytes()).hexdigest()


def _manifest() -> dict[str, str]:
    """The manifest's digests by file name; raises ValueError unless it
    holds an object of name -> digest strings."""
    with open(corpus_path(MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if type(manifest) is not dict or not all(
            type(d) is str for d in manifest.values()):
        raise ValueError(f"{MANIFEST} must hold an object of file name -> "
                         f"sha256 strings")
    return manifest


def _in_manifest(path: Path) -> bool:
    """Whether the manifest pins the file at path: every file in the
    corpus directory but the manifest itself and the package's code."""
    return (path.is_file() and path.name not in (MANIFEST, "__init__.py")
            and path.suffix != ".pyc")


def _mismatches(names, manifest: dict[str, str]) -> list[str]:
    """A message for each of the files names whose SHA-256 differs from
    the manifest's digest, or which is missing from the corpus or from
    the manifest."""
    out = []
    for name in names:
        digest = manifest.get(name)
        try:
            actual = file_sha256(name)
        except FileNotFoundError as e:
            out.append(str(e))
            continue
        if actual != digest:
            out.append(f"corpus file {name} checksum mismatch: "
                       f"{actual} != {digest}")
    return out


def _scenario_mismatches(s: Scenario) -> list[str]:
    """`_mismatches` of the registry and the files s names, which are all
    that replaying s reads from the corpus."""
    try:
        manifest = _manifest()
    except (OSError, ValueError) as e:  # missing, or not JSON
        return [f"{MANIFEST} unreadable: {e}"]
    return _mismatches((REGISTRY, *s.files.values()), manifest)


def verify_checksums() -> None:
    """Raise if any corpus file is missing or differs from the manifest."""
    manifest = _manifest()
    mismatches = _mismatches(sorted(manifest), manifest)
    if mismatches:
        raise ValueError(mismatches[0])
    on_disk = {p.name for p in CORPUS_DIR.iterdir() if _in_manifest(p)}
    extra = on_disk - set(manifest)
    missing = set(manifest) - on_disk
    if extra or missing:
        raise ValueError(
            f"corpus manifest out of date: extra={sorted(extra)} "
            f"missing={sorted(missing)}")
