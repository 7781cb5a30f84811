import ast
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from fpverify.cli import main
from fpverify.corpus import corpus_path
from fpverify.presentation import MAX_NESTING, MAX_WORD_LENGTH

from conftest import BADLY_PRESENTED_Z_MODULE, schema


def validate(instance, name):
    jsonschema.validate(instance, schema(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_roundtrip(capsys):
    code, out, _ = run(capsys, "parse", str(corpus_path("pi1-N-reduced.grp")))
    assert code == 0 and out.startswith("< a, c, g, h, q |")


def test_parse_json_schema(capsys):
    code, out, _ = run(capsys, "parse", "--json",
                       str(corpus_path("pi1-E0-tilde.grp")))
    assert code == 0
    validate(json.loads(out), "presentation")


def test_parse_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "parse", "/nonexistent/file.grp")
    assert exc.value.code == 2


def test_parse_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("< a | a,, >")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "parse", str(bad))
    assert exc.value.code == 2


def test_parse_exponent_past_word_bound(tmp_path, capsys):
    bad = tmp_path / "long.grp"
    bad.write_text(f"< a | a^{MAX_WORD_LENGTH + 1} >")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "parse", str(bad))
    assert exc.value.code == 2
    assert f"1:9: exponent expands a 1-letter word past {MAX_WORD_LENGTH}" \
        in capsys.readouterr().err


def test_tc_reduced(capsys):
    code, out, _ = run(capsys, "tc", str(corpus_path("pi1-N-reduced.grp")))
    assert code == 0
    data = json.loads(out)
    validate(data, "enumeration")
    assert data["status"] == "Completed" and data["index"] == 1


def test_tc_limit_exceeded(capsys):
    code, out, _ = run(capsys, "tc", "--max-cosets", "10",
                       str(corpus_path("pi1-N-full.grp")))
    assert code == 3
    data = json.loads(out)
    validate(data, "enumeration")
    assert data["status"] == "LimitExceeded"


def test_tc_env_var_limit(capsys, monkeypatch):
    monkeypatch.setenv("FPVERIFY_MAX_COSETS", "10")
    code, out, _ = run(capsys, "tc", str(corpus_path("pi1-N-full.grp")))
    assert code == 3
    for value, reason in (("zero", "not an integer: 'zero'"),
                          ("0", "must be >= 1, got 0")):
        monkeypatch.setenv("FPVERIFY_MAX_COSETS", value)
        code, err = exit_code(capsys, "tc", str(corpus_path("pi1-N-full.grp")))
        assert code == 2
        assert err == f"error: FPVERIFY_MAX_COSETS: {reason}\n"


def exit_code(capsys, *argv):
    """Exit code of a run that stops by SystemExit, with its stderr."""
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    return stop.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("tc", "--max-cosets", "0"), "--max-cosets: must be >= 1, got 0"),
    (("tc", "--max-cosets", "-5"), "--max-cosets: must be >= 1, got -5"),
    (("tc", "--max-cosets", "ten"), "--max-cosets: not an integer"),
    (("verify", "--all", "--max-cosets", "0"), "--max-cosets: must be >= 1"),
    (("simplify", "--budget", "-1"), "--budget: must be >= 0, got -1"),
    (("certify", "--target", "a", "--max-states", "-3"),
     "--max-states: must be >= 0, got -3"),
    (("certify", "--target", "a", "--max-factors", "-1"),
     "--max-factors: must be >= 0, got -1"),
    (("certify", "--target", "a", "--max-conjugator-len", "x"),
     "--max-conjugator-len: not an integer"),
])
def test_bad_integer_options_exit_2(capsys, argv, message):
    path = str(corpus_path("pi1-N-full.grp"))
    argv = argv if argv[0] == "verify" else argv + (path,)
    code, err = exit_code(capsys, *argv)
    assert code == 2 and message in err


def test_removed_strategy_exits_2(capsys):
    code, err = exit_code(capsys, "tc", str(corpus_path("pi1-N-full.grp")),
                          "--strategy", "hlt-lookahead")
    assert code == 2
    choices = err.split("choose from")[1]
    assert "hlt" in choices and "felsch" in choices
    assert "lookahead" not in choices


def test_bad_env_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FPVERIFY_MAX_COSETS", "0")
    code, err = exit_code(capsys, "tc", str(corpus_path("pi1-N-full.grp")))
    assert code == 2 and "FPVERIFY_MAX_COSETS" in err


def test_simplify_budget_zero_is_allowed(tmp_path, capsys):
    grp = tmp_path / "pair.grp"
    grp.write_text("< a, b | a b^-1, b^3 >")
    code, out, _ = run(capsys, "simplify", "--budget", "0", str(grp))
    assert code == 0 and out.strip() == "< a, b | a b^-1, b^3 >"


@pytest.mark.parametrize("argv", [
    ("parse", "{deep}"),
    ("tc", "{grp}", "--subgroup", "{word}"),
    ("certify", "{grp}", "--target", "{word}"),
], ids=["parse", "tc-subgroup", "certify-target"])
def test_deep_nesting_exits_2_without_a_traceback(tmp_path, argv):
    word = "(" * 330 + "a" + ")" * 330
    deep, grp = tmp_path / "deep.grp", tmp_path / "z3.grp"
    deep.write_text(f"< a | {word} >")
    grp.write_text("< a | a^3 >")
    argv = [a.format(deep=deep, grp=grp, word=word) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "fpverify.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    col = MAX_NESTING + (7 if argv[0] == "parse" else 1)
    assert f"1:{col}: brackets nested more than {MAX_NESTING} deep" \
        in proc.stderr


def test_tc_subgroup(tmp_path, capsys):
    grp = tmp_path / "s3.grp"
    grp.write_text("< r, s | r^3, s^2, (r s)^2 >")
    code, out, _ = run(capsys, "tc", "--subgroup", "r", str(grp))
    assert code == 0 and json.loads(out)["index"] == 2


@pytest.mark.parametrize("argv, message", [
    (("tc", "--subgroup", "zz"), "subgroup word"),
    (("certify", "--target", "zz"), "target word"),
])
def test_word_outside_the_presentation_exits_2(tmp_path, capsys, argv,
                                                message):
    grp = tmp_path / "z3.grp"
    grp.write_text("< a | a^3 >")
    code, out, err = run(capsys, *argv, str(grp))
    assert code == 2 and out == ""
    assert message in err and "unknown generators ['zz']" in err


def test_abelianize(capsys, tmp_path):
    code, out, _ = run(capsys, "abelianize",
                       str(corpus_path("pi1-E0-tilde.grp")))
    assert code == 0
    data = json.loads(out)
    validate(data, "h1")
    assert data == {"free_rank": 2, "torsion": []}
    z2 = tmp_path / "z2.grp"
    z2.write_text("< a | a^2 >")
    code, out, _ = run(capsys, "abelianize", str(z2))
    assert json.loads(out) == {"free_rank": 0, "torsion": [2]}


def test_simplify(tmp_path, capsys):
    grp = tmp_path / "pair.grp"
    grp.write_text("< a, b | a b^-1, b^3 >")
    code, out, _ = run(capsys, "simplify", str(grp))
    assert code == 0 and out.strip() == "< a | a^3 >"
    code, out, _ = run(capsys, "simplify", "--json", str(grp))
    assert code == 0
    data = json.loads(out)
    validate(data["presentation"], "presentation")
    assert data == {"presentation": {"name": "", "generators": ["a"],
                                     "relators": [[["a", 1]] * 3]},
                    "moves": 1}


def test_certify_found(tmp_path, capsys):
    grp = tmp_path / "trivial.grp"
    grp.write_text("< a | a^2, a^3 >")
    code, out, _ = run(capsys, "certify", "--target", "a", str(grp))
    assert code == 0
    validate(json.loads(out), "certificate")


def test_certify_not_found(tmp_path, capsys):
    grp = tmp_path / "z.grp"
    grp.write_text("< a, b | a^2 >")
    code, _, err = run(capsys, "certify", "--target", "b",
                       "--max-states", "1000", str(grp))
    assert code == 1 and "not found" in err


def test_verify_scenario(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "derive-qc-commute")
    assert code == 0 and "PASS" in out
    # the human-readable report carries the source claim next to the outcome
    assert "source claim" in out


def test_verify_unknown_scenario(capsys):
    code, _, err = run(capsys, "verify", "--scenario", "nope")
    assert code == 2 and "unknown scenario" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "redundancy-nine",
                       "--json")
    assert code == 0
    data = json.loads(out)
    for report in data["reports"]:
        validate(report, "report")
        assert report["convention"] == "default"


def triviality_detail(capsys, *argv):
    code, out, _ = run(capsys, "verify", "--scenario", "pi1-N-full", "--json",
                       *argv)
    report = json.loads(out)["reports"][0]
    validate(report, "report")
    step = next(s for s in report["steps"] if s["name"] == "triviality")
    validate(step["detail"]["enumeration"], "enumeration")
    return code, step["detail"]


def test_triviality_step_reports_compactions(capsys):
    code, detail = triviality_detail(capsys)
    assert code == 0
    # only the final renumbering: the run stops when coset 0's row closes,
    # before its dead cosets call for a compaction
    assert (detail["enumeration"]["index"], detail["compactions"]) == (1, 1)
    # the live cosets when index 1 was proven, under each strategy
    # and the deductions taken from the queue and scanned
    assert (detail["index_one_live"], detail["deductions"]) == (151, 111)
    code, detail = triviality_detail(capsys, "--strategy", "felsch")
    assert (code, detail["index_one_live"], detail["deductions"]) == (
        0, 77, 1_457)
    code, detail = triviality_detail(capsys, "--max-cosets", "100")
    assert code == 3
    assert "lookahead_passes" not in detail
    assert detail["index_one_live"] == 0
    # a limit hit reports how far the run got
    assert detail["enumeration"]["cosets_live_max"] == 100


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports
    for report in reports:
        validate(report, "report")


def test_gap_convention_full_presentation_is_trivial(capsys):
    code, out, _ = run(capsys, "--convention", "gap", "verify", "--scenario",
                       "pi1-N-full", "--json")
    assert code == 0
    report = json.loads(out)["reports"][0]
    validate(report, "report")
    step = next(s for s in report["steps"] if s["name"] == "triviality")
    assert step["status"] == "pass"
    assert step["detail"]["enumeration"]["index"] == 1


def test_verify_limit_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "pi1-N-reduced",
                       "--max-cosets", "100")
    assert code == 3 and "LIMIT" in out


def test_gap_convention_flag(capsys):
    # under the alternate convention the claims are re-derived live and the
    # outcome is recorded either way; this one still holds
    code, out, _ = run(capsys, "--convention", "gap", "verify", "--scenario",
                       "derive-qc-commute")
    assert code == 0
    assert "convention=gap" in out


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "fpverify.cli", "abelianize",
         str(corpus_path("pi1-N-reduced.grp"))],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"free_rank": 0, "torsion": []}


def test_abelianize_a_badly_presented_module(tmp_path):
    # in a subprocess with a timeout, so that an entry blow-up fails the
    # test instead of hanging it
    grp = tmp_path / "module.grp"
    grp.write_text(BADLY_PRESENTED_Z_MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "fpverify.cli", "abelianize", str(grp)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"free_rank": 0,
                                       "torsion": [2, 5116140078]}


@pytest.mark.parametrize("argv", [
    ("tc", str(corpus_path("pi1-N-full.grp"))),
    ("verify", "--all"),
])
def test_closed_stdout_exits_without_a_traceback(argv):
    proc = subprocess.Popen([sys.executable, "-m", "fpverify.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    proc.stdout.close()  # the reader leaves before the first write
    _, err = proc.communicate(timeout=60)
    # a pipe buffer holds all of verify --all's output, so only a read end
    # closed before the first write meets the closed pipe every time
    assert err == ""
    assert proc.returncode == 141


def test_frozen_artifacts_validate_against_schemas():
    with open(corpus_path("derive-qc-commute.certs.json")) as fh:
        for cert in json.load(fh).values():
            validate(cert, "certificate")
    with open(corpus_path("redundancy-nine.derivations.json")) as fh:
        for d in json.load(fh).values():
            validate(d, "derivation")


def test_the_cli_imports_no_typing():
    # annotations are never evaluated, so fpverify needs no `typing`; the
    # standard-library modules it imports come first, so a Python that
    # loads `typing` for one of them does not fail this
    src = Path(__file__).resolve().parents[1] / "src"
    stdlib = set()
    for path in (src / "fpverify").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                stdlib.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                stdlib.add(node.module)
    stdlib -= {"__future__", "fpverify", "typing"}
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            f"import {', '.join(sorted(stdlib))}\n"
            f"before = 'typing' in sys.modules\n"
            f"import fpverify.cli\n"
            f"print(before, 'typing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == "True" or after == "False"
