import gc
import hashlib
import importlib.util
import json
import re
import shutil
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import fpverify.corpus as corpus
from fpverify.cli import main
from fpverify.verify import run_all, run_scenario
from fpverify import (
    Certificate,
    Derivation,
    Word,
    homology_h1,
    parse_presentation,
    parse_word,
    print_presentation,
    verify_certificate,
    verify_derivation,
)

EXPECTED_IDS = [
    "conjugacy-x",
    "derive-cx-commute",
    "derive-gx2",
    "derive-qc-commute",
    "eleven-new-relators",
    "elimination-y-w",
    "pi1-E0-tilde",
    "pi1-N-full",
    "pi1-N-reduced",
    "redundancy-nine",
]


def test_registry_ids_sorted():
    assert [s.id for s in corpus.list_scenarios()] == EXPECTED_IDS


def test_unknown_scenario():
    with pytest.raises(KeyError):
        corpus.load_scenario("no-such-scenario")


def test_checksums_pinned():
    corpus.verify_checksums()


def _unique_keys(pairs):
    """An object_pairs_hook that rejects a key repeated in one object."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def test_no_corpus_json_file_repeats_a_key_at_any_depth():
    # json.loads keeps the last value of a repeated key, and the replay
    # checks for repeats only among a witness file's top-level indices;
    # the shipped files hold none anywhere
    with pytest.raises(ValueError, match="repeated key 'sign'"):
        json.loads('{"0": {"factors": [{"sign": -1, "sign": 1}]}}',
                   object_pairs_hook=_unique_keys)
    files = sorted(corpus.CORPUS_DIR.glob("*.json"))
    manifest = json.loads((corpus.CORPUS_DIR / "manifest.json").read_bytes())
    assert {p.name for p in files} == \
        {name for name in manifest if name.endswith(".json")} | {"manifest.json"}
    for path in files:
        json.loads(path.read_bytes(), object_pairs_hook=_unique_keys)


@pytest.mark.parametrize("text, error", [
    ("[]", r"bad\.certs\.json: must be an object keyed by relator index, got list"),
    ("{", r"bad\.certs\.json: Expecting property name"),
    ('{"0": {"target": [], "factors": []}} 1', r"bad\.certs\.json: Extra data"),
    ('{"x": {"target": [], "factors": []}}', r"bad\.certs\.json\['x'\]"),
    # an index in anything but canonical decimal, or repeated, would let
    # a witness stand in for another one that is then never read
    ('{"00": {"target": [], "factors": []}}',
     r"bad\.certs\.json\['00'\]: key must be an index in canonical decimal"),
    ('{"0": {"target": [], "factors": [], "steps": []}, "00": {}}',
     r"bad\.certs\.json\['00'\]: key must be an index"),
    ('{" 1": {"target": [], "factors": []}}', r"\[' 1'\]: key must be"),
    ('{"-1": {"target": [], "factors": []}}', r"\['-1'\]: key must be"),
    ('{"1_0": {"target": [], "factors": []}}', r"\['1_0'\]: key must be"),
    ('{"0": {"target": [], "factors": []}, "0": {"target": [], "factors": []}}',
     r"bad\.certs\.json\['0'\]: key repeated"),
    ('{"0": {"target": [], "factors": null}}',
     r"bad\.certs\.json\['0'\]: factors must be a list"),
])
def test_a_malformed_witness_file_is_a_value_error(corpus_copy, text, error):
    repin(corpus_copy, "bad.certs.json", text)
    s = replace(corpus.load_scenario("derive-gx2"),
                files={"certificates": "bad.certs.json",
                       "derivations": "bad.certs.json"})
    with pytest.raises(ValueError, match=error):
        s.certificates()
    with pytest.raises(ValueError, match=error.split(":")[0]):
        s.derivations()


@pytest.fixture
def corpus_copy(tmp_path, monkeypatch):
    """A copy of the corpus, read in place of the shipped one."""
    for p in corpus.CORPUS_DIR.iterdir():
        if p.is_file() and p.suffix != ".pyc" and p.name != "__init__.py":
            shutil.copy(p, tmp_path / p.name)
    monkeypatch.setattr(corpus, "CORPUS_DIR", tmp_path)
    return tmp_path


def repin(directory, name, text):
    """Write text to the corpus file name in directory and pin its new
    digest in the manifest, as a deliberate edit would."""
    (directory / name).write_text(text)
    manifest = json.loads((directory / corpus.MANIFEST).read_text())
    manifest[name] = hashlib.sha256(text.encode()).hexdigest()
    (directory / corpus.MANIFEST).write_text(json.dumps(manifest))


@pytest.mark.parametrize("scenario, name, path, where", [
    ("derive-gx2", "derive-gx2.certs.json", ("0", "factors", 1),
     "['0']: factors[1]"),
    ("elimination-y-w", "elimination-full-from-raw.certs.json",
     ("3", "factors", 0), "['3']: factors[0]"),
    ("redundancy-nine", "redundancy-nine.derivations.json",
     ("5", "steps", 1, "factors", 0), "['5']: steps[1]: factors[0]"),
])
def test_a_witness_naming_a_missing_relator_is_malformed(
        corpus_copy, capsys, scenario, name, path, where):
    # a relator index past the presentation's relators is an input error
    # naming the file, the key and the factor: verify exits 2 with it
    data = json.loads((corpus_copy / name).read_text())
    factor = data
    for key in path:
        factor = factor[key]
    factor["relator"] = 99
    repin(corpus_copy, name, json.dumps(data))
    message = f"{name}{where}: relator index 99 out of range"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_scenario(scenario)
    assert main(["verify", "--scenario", scenario]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_witness_under_a_repeated_index_is_rejected(corpus_copy, capsys):
    # a sign-flipped certificate under "0" and the good one under "00":
    # with one index kept per key the bad one would never be checked
    name = "derive-gx2.certs.json"
    good = json.loads((corpus_copy / name).read_text())["0"]
    flipped = json.loads(json.dumps(good))
    flipped["factors"][0]["sign"] *= -1
    repin(corpus_copy, name, json.dumps({"0": flipped, "00": good}))
    message = f"{name}['00']: key must be an index in canonical decimal"
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus.load_scenario("derive-gx2").certificates()
    assert main(["verify", "--scenario", "derive-gx2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # and the flipped certificate alone fails its step
    repin(corpus_copy, name, json.dumps({"0": flipped}))
    report = run_scenario("derive-gx2")
    step = next(x for x in report.steps if x.name == "certificate")
    assert step.status == "fail"


def _keyed_one(data):
    return {"1": data["0"]}


def _extra(key):
    return lambda data: {**data, key: data["0"]}


def _without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("scenario, name, edit, missing, extra", [
    ("derive-gx2", "derive-gx2.certs.json", _keyed_one, [0], [1]),
    ("derive-gx2", "derive-gx2.certs.json", _extra("7"), [], [7]),
    ("elimination-y-w", "elimination-full-from-raw.certs.json",
     _without("3"), [3], []),
    ("elimination-y-w", "elimination-full-from-raw.certs.json",
     _extra("99"), [], [99]),
    ("redundancy-nine", "redundancy-nine.derivations.json",
     _without("5"), [5], []),
], ids=["gx2-keyed-1", "gx2-extra-7", "full-from-raw-without-3",
        "full-from-raw-extra-99", "redundancy-without-5"])
def test_a_witness_file_holds_exactly_the_indices_its_claims_name(
        corpus_copy, capsys, scenario, name, edit, missing, extra):
    # a missing witness would leave a claim unchecked, or be searched for
    # live; an extra one would never be checked: both are input errors
    # naming the file and the indices, and verify exits 2 with them
    data = json.loads((corpus_copy / name).read_text())
    repin(corpus_copy, name, json.dumps(edit(data)))
    message = (f"{name}: must hold a witness for each index its claims "
               f"name and no other: missing {missing}, extra {extra}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run_scenario(scenario)
    assert main(["verify", "--scenario", scenario]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_checksum_mismatch_detected(corpus_copy):
    target = corpus_copy / "pi1-N-reduced.grp"
    target.write_text(target.read_text().replace("q^-2", "q^-3"))
    with pytest.raises(ValueError, match="pi1-N-reduced.grp checksum mismatch"):
        corpus.verify_checksums()
    target.unlink()
    with pytest.raises(ValueError, match="not found: pi1-N-reduced.grp"):
        corpus.verify_checksums()


def test_an_unlisted_corpus_file_is_detected(corpus_copy):
    (corpus_copy / "stray.grp").write_text("< a | a >")
    with pytest.raises(ValueError, match=re.escape(
            "corpus manifest out of date: extra=['stray.grp'] missing=[]")):
        corpus.verify_checksums()


def test_replay_checks_the_manifest_first(corpus_copy, capsys):
    # the registry's expectation lowered, as an edit could: the replay
    # fails at its first step, names the file and replays nothing more
    registry = corpus_copy / corpus.REGISTRY
    text = registry.read_text()
    registry.write_text(text.replace('"redundant_count_at_least": 9',
                                     '"redundant_count_at_least": 1'))
    report = run_scenario("redundancy-nine")
    assert report.status == "fail"
    [step] = report.steps
    assert (step.name, step.status) == ("manifest", "fail")
    [mismatch] = step.detail["mismatches"]
    assert "scenarios.json checksum mismatch" in mismatch
    # a scenario that reads only untouched files still passes ...
    registry.write_text(text)
    report = run_scenario("pi1-E0-tilde")
    assert report.status == "pass" and report.steps[0].name == "manifest"
    assert report.steps[0].detail == {"mismatches": []}
    # ... until one of its own files goes missing; the CLI exits 1
    (corpus_copy / "pi1-E0-tilde.grp").unlink()
    assert main(["verify", "--scenario", "pi1-E0-tilde"]) == 1
    out = capsys.readouterr().out
    assert "manifest" in out and "not found: pi1-E0-tilde.grp" in out
    # every scenario fails it once the manifest itself is gone
    (corpus_copy / corpus.MANIFEST).unlink()
    [step] = run_scenario("derive-gx2").steps
    assert step.detail["mismatches"] == [
        "manifest.json unreadable: corpus file not found: manifest.json"]


def test_an_altered_shared_file_fails_every_scenario_naming_it(
        corpus_copy, monkeypatch):
    # pi1-N-full.grp is named by three scenarios: each fails its manifest
    # step with the same message, the other seven replay, and the altered
    # bytes are never parsed
    target = corpus_copy / "pi1-N-full.grp"
    altered = target.read_text().replace("x q x = q x q", "x q x = q q x")
    target.write_text(altered)
    parsed = []
    parse = corpus.parse_presentation
    monkeypatch.setattr(corpus, "parse_presentation", lambda text, **kw:
                        parsed.append(text) or parse(text, **kw))
    reports = {r.scenario: r for r in run_all()}
    failed = {"pi1-N-full", "elimination-y-w", "redundancy-nine"}
    assert {sid for sid, r in reports.items() if r.status != "pass"} == failed
    messages = set()
    for sid in failed:
        [step] = reports[sid].steps
        assert (step.name, step.status) == ("manifest", "fail")
        [mismatch] = step.detail["mismatches"]
        messages.add(mismatch)
    [message] = messages
    assert message.startswith("corpus file pi1-N-full.grp checksum mismatch: ")
    assert parsed and altered not in parsed


def test_a_replay_parses_the_bytes_it_hashed(monkeypatch):
    # a file that changes after its check: every later read returns other
    # bytes, which a replay must never see
    first = {}
    read = corpus._read

    def changing_read(name):
        if name in first:
            return b"< a | a >" if name.endswith(".grp") else b"{}"
        first[name] = read(name)
        return first[name]

    monkeypatch.setattr(corpus, "_read", changing_read)
    parsed = []
    parse = corpus.parse_presentation
    monkeypatch.setattr(corpus, "parse_presentation", lambda text, **kw:
                        parsed.append(text) or parse(text, **kw))
    assert all(r.status == "pass" for r in run_all())
    assert sorted(parsed) == sorted(
        data.decode() for name, data in first.items() if name.endswith(".grp"))


def test_a_loader_refuses_bytes_that_differ_from_the_manifest(corpus_copy):
    # outside a replay too: an altered file is never parsed
    target = corpus_copy / "pi1-N-full.grp"
    target.write_text(target.read_text().replace("x q x = q x q",
                                                 "x q x = q q x"))
    message = "corpus file pi1-N-full.grp checksum mismatch: "
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus.load_scenario("pi1-N-full").presentation()
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus.load_corpus_presentation("pi1-N-full.grp")


def test_a_snapshot_is_freed_with_its_scenarios():
    # a snapshot holds every byte it read: a reference cycle between it
    # and its scenarios would keep them until the next garbage collection
    gc.disable()
    try:
        s = corpus.load_scenario("pi1-N-full")
        s.presentation()
        snapshot = weakref.ref(s._snapshot)
        del s
        assert snapshot() is None
    finally:
        gc.enable()


def test_a_registry_edit_is_seen_by_the_next_replay(corpus_copy):
    # a re-pinned edit between two replays in one process: the second
    # replays the registry its manifest step checked, not the first one's
    assert run_scenario("redundancy-nine").status == "pass"
    registry = corpus_copy / corpus.REGISTRY
    text = registry.read_text()
    edited = text.replace('"redundant_count_at_least": 9',
                          '"redundant_count_at_least": 12')
    assert edited != text
    repin(corpus_copy, corpus.REGISTRY, edited)
    report = run_scenario("redundancy-nine")
    assert report.steps[0].name == "manifest"
    assert report.steps[0].status == "pass"
    count = report.steps[-1]
    assert (count.name, count.status) == ("count", "fail")
    assert count.detail == {"certified": 11, "required": 12}


def test_a_missing_registry_is_an_input_error(corpus_copy, capsys):
    (corpus_copy / corpus.REGISTRY).unlink()
    message = "corpus file not found: scenarios.json"
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus.list_scenarios()
    for args in (["verify", "--all"], ["verify", "--scenario", "derive-gx2"]):
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_a_missing_manifest_is_an_input_error(corpus_copy):
    (corpus_copy / corpus.MANIFEST).unlink()
    with pytest.raises(ValueError, match=re.escape(
            "manifest.json unreadable: corpus file not found: manifest.json")):
        corpus.verify_checksums()


@pytest.mark.parametrize("text", ["[]", '{"scenarios.json": 1}'])
def test_a_manifest_that_is_not_an_object_fails_the_step(corpus_copy, text):
    (corpus_copy / corpus.MANIFEST).write_text(text)
    report = run_scenario("derive-gx2")
    assert report.status == "fail"
    [step] = report.steps
    [mismatch] = step.detail["mismatches"]
    assert mismatch == ("manifest.json unreadable: manifest.json must hold "
                        "an object of file name -> sha256 strings")
    with pytest.raises(ValueError, match="manifest.json must hold an object"):
        corpus.verify_checksums()


def test_a_registry_entry_without_a_description(corpus_copy, capsys):
    registry = corpus_copy / corpus.REGISTRY
    entries = json.loads(registry.read_text())
    del entries[3]["description"]
    registry.write_text(json.dumps(entries))
    message = "scenarios.json[3]: 'description' must be a str, got None"
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus.list_scenarios()
    # verify exits 2 with the message; the other commands never read it
    assert main(["verify", "--scenario", "pi1-E0-tilde"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["verify", "--all"]) == 2
    assert main(["parse", str(corpus_copy / "pi1-E0-tilde.grp")]) == 0


def test_a_registry_entry_without_a_file_its_pipeline_reads(corpus_copy,
                                                            capsys):
    registry = corpus_copy / corpus.REGISTRY
    entries = json.loads(registry.read_text())
    entry = next(e for e in entries if e["id"] == "derive-gx2")
    del entry["files"]["certificates"]
    repin(corpus_copy, corpus.REGISTRY, json.dumps(entries))
    message = "scenario 'derive-gx2' names no 'certificates' file"
    with pytest.raises(ValueError, match=re.escape(message)):
        corpus.load_scenario("derive-gx2").certificates()
    assert main(["verify", "--scenario", "derive-gx2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ValueError, match="names no 'base' file"):
        corpus.load_scenario("pi1-N-full").presentation("base")


@pytest.mark.parametrize("text, error", [
    ("[{", r"scenarios\.json: not JSON: "),
    ("{}", r"scenarios\.json: must be a list of scenario entries, got dict"),
    ("[[]]", r"scenarios\.json\[0\]: must be an object, got list"),
    ('[{"id": 1}]', r"scenarios\.json\[0\]: 'id' must be a str, got 1"),
    ('[{"id": "x", "description": "d", "source_claim": "c", "file": {}}]',
     r"scenarios\.json\[0\]: unknown fields \['file'\]"),
    ('[{"id": "x", "description": "d", "source_claim": "c",'
     ' "files": {"presentation": 3}}]',
     r"scenarios\.json\[0\]: 'files' must map keys to file names"),
])
def test_a_malformed_registry_is_a_value_error(corpus_copy, text, error):
    (corpus_copy / corpus.REGISTRY).write_text(text)
    with pytest.raises(ValueError, match=error):
        corpus.load_scenario("pi1-E0-tilde")


def test_every_scenario_has_source_claim():
    for s in corpus.list_scenarios():
        assert s.source_claim.strip()
        assert s.description.strip()


def test_referenced_files_exist_and_parse():
    for s in corpus.list_scenarios():
        loaded = corpus.load_scenario(s.id)
        for name in loaded.files.values():
            assert corpus.corpus_path(name).is_file()
            if name.endswith(".grp"):
                corpus.load_corpus_presentation(name)


def test_presentation_files_round_trip():
    for s in corpus.list_scenarios():
        for name in s.files.values():
            if name.endswith(".grp"):
                p = corpus.load_corpus_presentation(name)
                assert parse_presentation(print_presentation(p)) == p


def test_eleven_new_relators_contents():
    p = corpus.load_corpus_presentation("eleven-new-relators.grp")
    assert len(p.relators) == 11
    assert set(p.generators) == set("acehgq") | set("xyuvw")
    assert p.relators[0] == parse_word("v g^-1 h^-1 g h a")
    assert p.relators[-1] == parse_word("w g^-1")


def test_trivial_scenarios_have_trivial_h1():
    # necessary condition through an independent code path
    for s in corpus.list_scenarios():
        if s.expected.get("trivial"):
            p = s.presentation()
            assert homology_h1(p).is_trivial()


def test_h1_expectations():
    for s in corpus.list_scenarios():
        if "h1" in s.expected:
            h1 = homology_h1(s.presentation())
            assert h1.free_rank == s.expected["h1"]["free_rank"]
            assert list(h1.torsion) == s.expected["h1"]["torsion"]


def test_frozen_equivalence_certificates_verify():
    s = corpus.load_scenario("elimination-y-w")
    raw = s.presentation("eliminated")
    full = s.presentation("massaged")
    fwd = s.certificates("full_from_raw")
    bwd = s.certificates("raw_from_full")
    assert sorted(fwd) == list(range(17)) and sorted(bwd) == list(range(17))
    for i, cert in fwd.items():
        assert cert.target == full.relators[i]
        assert verify_certificate(raw, cert)
    for i, cert in bwd.items():
        assert cert.target == raw.relators[i]
        assert verify_certificate(full, cert)


def test_frozen_scenario_certificates_verify():
    for sid in ("derive-qc-commute", "derive-cx-commute", "derive-gx2",
                "conjugacy-x"):
        s = corpus.load_scenario(sid)
        base = s.presentation("base")
        cert = s.certificates()[0]
        assert cert.target == parse_word(s.expected["target"])
        assert verify_certificate(base, cert)


def test_frozen_redundancy_derivations_verify():
    s = corpus.load_scenario("redundancy-nine")
    full = s.presentation()
    derivations = s.derivations()
    assert sorted(derivations) == s.expected["certified_indices"]
    assert len(derivations) >= s.expected["redundant_count_at_least"]
    for i, d in derivations.items():
        rest = full.with_relators(
            [r for j, r in enumerate(full.relators) if j != i])
        assert d.target == full.relators[i]
        assert verify_derivation(rest, d)


def _frozen_witnesses():
    """(presentation, certificate) for every frozen certificate and every
    step of every frozen derivation, with the relators each step may use."""
    for sid in ("derive-qc-commute", "derive-cx-commute", "derive-gx2",
                "conjugacy-x"):
        s = corpus.load_scenario(sid)
        yield s.presentation("base"), s.certificates()[0]
    s = corpus.load_scenario("elimination-y-w")
    for key, base in (("full_from_raw", "eliminated"), ("raw_from_full", "massaged")):
        for cert in s.certificates(key).values():
            yield s.presentation(base), cert
    s = corpus.load_scenario("redundancy-nine")
    full = s.presentation()
    for i, d in s.derivations().items():
        relators = [r for j, r in enumerate(full.relators) if j != i]
        for step in d.steps:
            yield full.with_relators(relators), step
            relators.append(step.target)


MUTATIONS = {
    "sign": lambda f, n: replace(f, sign=-f.sign),
    "relator": lambda f, n: replace(f, relator_index=(f.relator_index + 1) % n),
    "conjugator": lambda f, n: f.conjugator and replace(
        f, conjugator=Word(f.conjugator.letters[:-1])),
}


def _mutations(cert, relators):
    """For each kind of mutation, the certificate with it applied to the
    first factor whose value u r^s u^-1 it changes.  One factor changed in
    value changes the product, so the verifier must reject each of them."""
    def value(f):
        r = relators[f.relator_index]
        return (r if f.sign == 1 else r.inverse()).conjugated_by(f.conjugator)

    factors = cert.factors
    for kind, mutate in MUTATIONS.items():
        for k, f in enumerate(factors):
            bad = mutate(f, len(relators))
            if bad and value(bad) != value(f):
                yield kind, Certificate(
                    cert.target, factors[:k] + (bad,) + factors[k + 1:])
                break


def test_verifier_rejects_mutated_frozen_witnesses():
    kinds = set()
    n = 0
    for p, cert in _frozen_witnesses():
        assert verify_certificate(p, cert)
        for kind, bad in _mutations(cert, p.relators):
            assert not verify_certificate(p, bad), (kind, str(cert.target))
            kinds.add(kind)
        n += 1
    assert kinds == {"sign", "relator", "conjugator"} and n > 40

    # and a derivation with one mutated step fails as a whole
    s = corpus.load_scenario("redundancy-nine")
    full = s.presentation()
    i, d = next(iter(s.derivations().items()))
    rest = full.with_relators([r for j, r in enumerate(full.relators) if j != i])
    relators = rest.relators + tuple(step.target for step in d.steps[:-1])
    for _, bad in _mutations(d.steps[-1], relators):
        assert not verify_derivation(rest, Derivation(d.target, d.steps[:-1] + (bad,)))


def test_raw_presentation_regenerates_from_sources():
    s = corpus.load_scenario("elimination-y-w")
    base = s.presentation("base")
    new = s.presentation("new")
    assert len(base.relators) + len(new.relators) == 20
    union = parse_presentation(
        "< " + ", ".join(new.generators) + " | >").with_relators(
        base.relators + new.relators)
    from fpverify import simplify
    eliminated, _ = simplify(union, budget=3)
    assert eliminated == s.presentation("eliminated")


def test_scenarios_json_well_formed():
    with open(corpus.corpus_path("scenarios.json"), encoding="utf-8") as fh:
        entries = json.load(fh)
    assert len(entries) == len(EXPECTED_IDS)
    for e in entries:
        assert set(e) <= {"id", "description", "files", "expected",
                          "source_claim", "source_location"}


def load_builder(monkeypatch, directory):
    """tools/build_corpus.py as a module, writing into directory."""
    script = Path(__file__).resolve().parents[1] / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", script)
    build = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec.loader.exec_module(build)
    monkeypatch.setattr(build, "CORPUS", directory)
    return build


def test_the_builder_refuses_a_witness_that_does_not_check(tmp_path,
                                                           monkeypatch):
    # a search returning a certificate with one sign flipped: the builder
    # reads the file it wrote back through the replay's checker and raises
    build = load_builder(monkeypatch, tmp_path)
    search = build.search_certificate

    def flipped(p, target, **kw):
        cert = search(p, target, **kw)
        f = cert.factors[0]
        return Certificate(cert.target, (replace(f, sign=-f.sign),)
                           + cert.factors[1:])

    monkeypatch.setattr(build, "search_certificate", flipped)
    # conjugacy-x is the first scenario the builder freezes
    with pytest.raises(build.BuildError, match=re.escape(
            "conjugacy-x.certs.json['0']: does not prove its target")):
        build.main()
    assert (tmp_path / "conjugacy-x.certs.json").is_file()
    assert not (tmp_path / corpus.MANIFEST).exists()


def test_the_builder_refuses_a_witness_file_missing_an_index(tmp_path,
                                                             monkeypatch):
    # a search that proves all but one relator: the file the builder wrote
    # breaks the replay's index rule, and no manifest pins it
    build = load_builder(monkeypatch, tmp_path)
    derive_all = build.derive_all
    monkeypatch.setattr(build, "derive_all", lambda p, targets: {
        i: c for i, c in derive_all(p, targets).items() if i != 3})
    name = "elimination-full-from-raw.certs.json"
    with pytest.raises(ValueError, match=re.escape(
            f"{name}: must hold a witness for each index its claims name "
            f"and no other: missing [3], extra []")):
        build.main()
    assert (tmp_path / name).is_file()
    assert not (tmp_path / corpus.MANIFEST).exists()


def test_the_builder_reads_an_edited_source_and_pins_it(corpus_copy,
                                                        monkeypatch):
    # a source edited and not yet pinned, as before a rebuild: the builder
    # parses its raw bytes, which a checked loader would refuse, and the
    # manifest it writes pins them
    name = corpus.load_scenario("conjugacy-x").files["base"]
    edited = b"# edited\n" + (corpus_copy / name).read_bytes()
    (corpus_copy / name).write_bytes(edited)
    with pytest.raises(ValueError, match=f"{name} checksum mismatch"):
        corpus.load_corpus_presentation(name)
    build = load_builder(monkeypatch, corpus_copy)
    build.main()
    pinned = json.loads((corpus_copy / corpus.MANIFEST).read_text())
    assert pinned[name] == hashlib.sha256(edited).hexdigest()
    corpus.verify_checksums()


def test_build_corpus_reproduces_the_frozen_corpus(tmp_path, monkeypatch):
    # tools/build_corpus.py, run into a temporary directory, rewrites every
    # frozen file byte for byte except redundancy-nine's collapse chains
    # (frozen from an earlier enumerator) and their manifest entry; the
    # rebuilt chains must verify instead
    build = load_builder(monkeypatch, tmp_path)
    build.main()

    chains = "redundancy-nine.derivations.json"
    frozen = {p.name for p in corpus.CORPUS_DIR.iterdir()
              if p.is_file() and p.suffix not in (".py", ".pyc")}
    assert {p.name for p in tmp_path.iterdir()} == frozen
    for name in sorted(frozen - {chains, corpus.MANIFEST}):
        assert (tmp_path / name).read_bytes() == \
            corpus.corpus_path(name).read_bytes(), name
    rebuilt = json.loads((tmp_path / corpus.MANIFEST).read_text())
    pinned = json.loads(corpus.corpus_path(corpus.MANIFEST).read_text())
    assert rebuilt.keys() == pinned.keys()
    del rebuilt[chains], pinned[chains]
    assert rebuilt == pinned

    s = corpus.load_scenario("redundancy-nine")
    full = s.presentation()
    derivations = json.loads((tmp_path / chains).read_text())
    assert sorted(map(int, derivations)) == s.expected["certified_indices"]
    for key, data in derivations.items():
        i = int(key)
        rest = full.with_relators(
            [r for j, r in enumerate(full.relators) if j != i])
        d = Derivation.from_json(data)
        assert d.target == full.relators[i]
        assert verify_derivation(rest, d)
