"""Frozen ground-truth data: presentations, derivation scenarios, and the
certificates backing them, with programmatic access and checksum pinning.

Layout: ``<id>.grp`` presentation files in the textual grammar,
``scenarios.json`` registering every scenario with its expected outcome and
the verbatim source claim it reproduces, ``*.certs.json`` /
``*.derivations.json`` frozen witnesses, and ``manifest.json`` pinning a
sha256 per file so silent edits fail loudly.

Every library read of a corpus file goes through a snapshot, one
checked view of the corpus.  `list_scenarios` and `load_scenario` each
make one, which reads `scenarios.json` once and parses the registry from
those bytes, the ones a replay's `manifest` step hashes; the scenarios
they return carry it, and a `Scenario` built directly gets one of its
own.  A snapshot reads the manifest once, reads and hashes each file the
first time it is needed, and parses or decodes only checked bytes, each
presentation once per convention.  A loader, in a replay or outside one,
raises ValueError naming a file whose bytes are missing or differ from
the manifest, and no file is read again after its check.  Nothing
outlives its snapshot: the next call reads every file afresh, and sees
an edit of the registry.

A witness file is a JSON object keyed by indices in canonical decimal,
each key once (`read_witnesses`).  A caller that knows the indices its
scenario's claims name passes them, and the file must then hold exactly
those: a replay and the corpus builder both do, so one rule decides
which witnesses a file holds.  `Scenario.witnesses` reads one with a
given reader: a replay passes `fpverify.checker`'s, which decode each
witness into plain tuples, and `certificates` and `derivations` pass the
`from_json` loaders.  A scenario's loaders raise ValueError naming the
scenario and the key when it names no file under that key.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from json.decoder import scanstring
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
    # the snapshot this scenario's loaders read through: the one it was
    # listed from, or one of its own
    _snapshot: _Snapshot = field(default_factory=lambda: _Snapshot(),
                                 repr=False, compare=False)

    def mismatches(self) -> list[str]:
        """A message for each file replaying this scenario reads, the
        registry and the files it names, that is missing or differs from
        the manifest; or the one message why the manifest is unreadable."""
        return self._snapshot.mismatches((REGISTRY, *self.files.values()))

    def _file(self, key: str) -> str:
        """The name of the file this scenario names under key; raises
        ValueError naming the scenario and the key when it names none."""
        if key not in self.files:
            raise ValueError(f"scenario {self.id!r} names no {key!r} file")
        return self.files[key]

    def presentation(self, key: str = "presentation",
                     convention: str = CONVENTION_DEFAULT) -> Presentation:
        return self._snapshot.presentation(self._file(key), convention)

    def certificates(self, key: str = "certificates") -> dict[int, Certificate]:
        return self.witnesses(key, Certificate.from_json)

    def derivations(self, key: str = "derivations") -> dict[int, Derivation]:
        return self.witnesses(key, Derivation.from_json)

    def witnesses(self, key: str, read, indices=None) -> dict:
        """The frozen witness file under key as ``{index: read(doc)}``,
        as `read_witnesses` reads it, holding exactly indices if given."""
        name = self._file(key)
        return read_witnesses(name, self._snapshot.data(name), read, indices)


def read_witnesses(name: str, data: bytes, read, indices=None) -> dict:
    """The witness file name, holding data, as ``{index: read(doc)}``.

    data must be a JSON object keyed by indices in canonical decimal
    (``str(int(k)) == k``, not negative), none of them repeated, so that
    each witness in the file is read and none is silently replaced by a
    later one.  Given indices, the ones its scenario's claims name, the
    file must hold a witness for each of them and for no other, so that
    no claim goes unwitnessed and no witness goes unchecked.  read takes
    one witness document, and raises ValueError when it is malformed.
    Every error is a ValueError naming the file, and the key when there
    is one."""
    try:
        members = _members(data.decode("utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or not an object
        raise ValueError(f"{name}: {e}") from None
    out = {}
    for k, doc in members:
        try:
            i = int(k)
        except ValueError:
            i = -1
        if i < 0 or str(i) != k:
            raise ValueError(f"{name}[{k!r}]: key must be an index in "
                             f"canonical decimal")
        if i in out:
            raise ValueError(f"{name}[{k!r}]: key repeated")
        try:
            out[i] = read(doc)
        except ValueError as e:
            raise ValueError(f"{name}[{k!r}]: {e}") from None
    if indices is not None and out.keys() != set(indices):
        missing, extra = set(indices) - out.keys(), out.keys() - set(indices)
        raise ValueError(f"{name}: must hold a witness for each index its "
                         f"claims name and no other: missing "
                         f"{sorted(missing)}, extra {sorted(extra)}")
    return out


_JSON = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace


def _members(text: str) -> list[tuple[str, object]]:
    """The members of the JSON object text as (key, value) pairs, in
    order and with a repeated key kept each time (`json.loads` keeps only
    its last value); ValueError when text is not JSON or not an object."""
    space = _SPACE.match
    i = space(text).end()
    if not text.startswith("{", i):
        raise ValueError(f"must be an object keyed by relator index, "
                         f"got {type(json.loads(text)).__name__}")
    members = []
    i = space(text, i + 1).end()
    end = text.startswith("}", i)
    while not end:
        if not text.startswith('"', i):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, i)
        key, i = scanstring(text, i + 1)
        i = space(text, i).end()
        if not text.startswith(":", i):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
        value, i = _JSON.raw_decode(text, space(text, i + 1).end())
        members.append((key, value))
        i = space(text, i).end()
        end = text.startswith("}", i)
        if not end:
            if not text.startswith(",", i):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
            i = space(text, i + 1).end()
    if space(text, i + 1).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, i + 1)
    return members


def corpus_path(name: str) -> Path:
    path = CORPUS_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {name}")
    return path


def _read(name: str) -> bytes:
    """The bytes of corpus file name, or ValueError when it is missing;
    every library read of a corpus file is one call of this, made by a
    snapshot."""
    try:
        return corpus_path(name).read_bytes()
    except FileNotFoundError as e:
        raise ValueError(str(e)) from None


def load_corpus_presentation(name: str,
                             convention: str = CONVENTION_DEFAULT) -> Presentation:
    return _Snapshot().presentation(name, convention)


# each registry entry's fields with their types
_ENTRY_FIELDS = {"id": str, "description": str, "files": dict,
                 "expected": dict, "source_claim": str,
                 "source_location": str}


def _registry(data: bytes, snapshot: _Snapshot) -> dict[str, Scenario]:
    """The scenarios registered in data, the registry's bytes, by id, each
    reading through snapshot; raises ValueError naming the registry when
    it is not JSON or an entry is malformed."""
    try:
        entries = json.loads(data)
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
        out[fields["id"]] = Scenario(**fields, _snapshot=snapshot)
    return out


def list_scenarios() -> list[Scenario]:
    return [s for _, s in sorted(_Snapshot().scenarios().items())]


def load_scenario(scenario_id: str) -> Scenario:
    registry = _Snapshot().scenarios()
    if scenario_id not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}")
    return registry[scenario_id]


class _Snapshot:
    """One checked view of the corpus: the manifest read once, each file
    read once and its checked bytes or the message why they do not match,
    and the presentations parsed from checked bytes by (file, convention)."""

    def __init__(self):
        self._digests: dict[str, str] | str | None = None
        self._raw: dict[str, bytes] = {}
        self._checked: dict[str, bytes | str] = {}
        self._presentations: dict[tuple[str, str], Presentation] = {}

    def _bytes(self, name: str) -> bytes:
        """name's bytes, read the first time only."""
        if name not in self._raw:
            self._raw[name] = _read(name)
        return self._raw[name]

    def scenarios(self) -> dict[str, Scenario]:
        """The registered scenarios by id, each reading through this
        snapshot, parsed from the registry's bytes whether or not they
        match the manifest: each replay's `manifest` step checks those
        bytes.  Not kept here, so that a snapshot and its scenarios make
        no reference cycle, which would hold every byte read until the
        next garbage collection."""
        return _registry(self._bytes(REGISTRY), self)

    def digests(self) -> dict[str, str]:
        """The manifest's digests by file name, read once; raises
        ValueError with why the manifest is unreadable unless it holds an
        object of name -> digest strings."""
        if self._digests is None:
            try:
                digests = json.loads(_read(MANIFEST))
                if type(digests) is not dict or not all(
                        type(d) is str for d in digests.values()):
                    raise ValueError(f"{MANIFEST} must hold an object of "
                                     f"file name -> sha256 strings")
                self._digests = digests
            except (OSError, ValueError) as e:  # missing or malformed
                self._digests = f"{MANIFEST} unreadable: {e}"
        if type(self._digests) is str:
            raise ValueError(self._digests)
        return self._digests

    def _check(self, name: str) -> bytes | str:
        """name's checked bytes, or why they are not; the file is hashed
        the first time only."""
        if name not in self._checked:
            try:
                digest = self.digests().get(name)
                data = self._bytes(name)
                actual = hashlib.sha256(data).hexdigest()
                if actual != digest:
                    raise ValueError(f"corpus file {name} checksum mismatch: "
                                     f"{actual} != {digest}")
                self._checked[name] = data
            except ValueError as e:
                self._checked[name] = str(e)
        return self._checked[name]

    def mismatches(self, names) -> list[str]:
        """A message for each file of names that is missing or differs
        from the manifest, or the one message why the manifest is
        unreadable."""
        return list(dict.fromkeys(
            c for c in map(self._check, names) if type(c) is str))

    def data(self, name: str) -> bytes:
        """name's checked bytes; raises ValueError saying why not."""
        data = self._check(name)
        if type(data) is str:
            raise ValueError(data)
        return data

    def presentation(self, name: str, convention: str) -> Presentation:
        key = (name, convention)
        if key not in self._presentations:
            self._presentations[key] = parse_presentation(
                self.data(name).decode("utf-8"), convention=convention)
        return self._presentations[key]


def _in_manifest(path: Path) -> bool:
    """Whether the manifest pins the file at path: every file in the
    corpus directory but the manifest itself and the package's code."""
    return (path.is_file() and path.name not in (MANIFEST, "__init__.py")
            and path.suffix != ".pyc")


def verify_checksums() -> None:
    """Raise ValueError if the manifest is missing or malformed, or any
    corpus file is missing, differs from it or is not listed in it."""
    snapshot = _Snapshot()
    manifest = snapshot.digests()
    for name in sorted(manifest):
        snapshot.data(name)
    on_disk = {p.name for p in CORPUS_DIR.iterdir() if _in_manifest(p)}
    extra = on_disk - set(manifest)
    missing = set(manifest) - on_disk
    if extra or missing:
        raise ValueError(
            f"corpus manifest out of date: extra={sorted(extra)} "
            f"missing={sorted(missing)}")
