import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_oracle
import frsim.analysis
import frsim.cli
from frsim.cli import (
    EXIT_INCONSISTENT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    ReportDocument,
    _fraction,
    _write_json,
    build_parser,
    main,
)
from frsim.measurement import NormalizationError, ResidualError
from frsim.perspectives import GIVEN_LABELS
from frsim.protocol import ProtocolVariant
from frsim.tensor import UnitarityError
from variants import ALL_VARIANTS, variant_id

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "branches_none_golden.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


# branches ----------------------------------------------------------------------

def test_branches_no_notebooks(capsys):
    code, out, err = run_cli(capsys, "branches", "--notebooks", "none")
    assert code == EXIT_OK and err == ""
    doc = parse(out)
    assert doc["schema_version"] == "1"
    rows = {(r["wbar"], r["w"]): r for r in doc["results"]["joint"]}
    assert rows[("ok", "ok")]["probability"] == pytest.approx(1 / 12, abs=1e-10)
    assert rows[("ok", "ok")]["fraction"] == "1/12"
    assert doc["results"]["marginals"]["wbar_ok"]["fraction"] == "1/6"


def test_branches_both_notebooks(capsys):
    code, out, _ = run_cli(capsys, "branches", "--notebooks", "both")
    assert code == EXIT_OK
    doc = parse(out)
    rows = {(r["wbar"], r["w"]): r for r in doc["results"]["joint"]}
    assert rows[("ok", "ok")]["probability"] == pytest.approx(1 / 4, abs=1e-10)


def test_branches_intrusion_with_spin_notebook(capsys):
    code, out, _ = run_cli(capsys, "branches", "--notebooks", "f", "--intrusion")
    assert code == EXIT_OK
    doc = parse(out)
    cond = doc["results"]["conditionals"]["up_given_wbar_ok"]
    assert cond["probability"] == pytest.approx(1.0, abs=1e-10)


def test_branches_golden_document(capsys):
    code, out, _ = run_cli(capsys, "branches", "--notebooks", "none")
    assert code == EXIT_OK
    assert out == GOLDEN.read_text()


_NOTEBOOK_FLAGS = {frozenset(): "none", frozenset({"Fbar"}): "fbar",
                   frozenset({"F"}): "f", frozenset({"Fbar", "F"}): "both"}


def _fractions(results):
    """Every ``fraction`` field of a branches document, keyed by where it stands."""
    out = {("joint", r["wbar"], r["w"], r["intrusion"]): r["fraction"] for r in results["joint"]}
    for group in ("marginals", "conditionals"):
        out.update({(group, name): entry["fraction"] for name, entry in results[group].items()})
    if "halt" in results:
        out["halt",] = results["halt"]["fraction"]
    return {where: Fraction(text) for where, text in out.items()}


@pytest.mark.parametrize("v", ALL_VARIANTS, ids=variant_id)
def test_every_branches_fraction_is_the_exact_one(capsys, v):
    argv = ["branches", "--notebooks", _NOTEBOOK_FLAGS[v.notebooks],
            "--announce", "on" if v.announce_wbar else "off"]
    argv += ["--cheat"] * v.cheat + ["--intrusion"] * v.intrusion
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    exact = exact_oracle.joint(v.notebooks, v.intrusion)
    wbar = {label: sum(p for key, p in exact.items() if key[0] == label)
            for label in ("ok", "fail")}
    expected = {("joint", *key): p for key, p in exact.items()}
    expected.update({("marginals", f"wbar_{label}"): p for label, p in wbar.items()})
    if v.intrusion:
        expected["conditionals", "up_given_wbar_ok"] = exact["ok", None, "up"] / wbar["ok"]
    else:
        expected.update({("conditionals", f"w_ok_given_wbar_{label}"):
                         exact.get((label, "ok", None), 0) / wbar[label] for label in wbar})
        expected["halt",] = exact.get(("ok", "ok", None), 0)
    assert _fractions(parse(out)["results"]) == expected


@pytest.mark.parametrize(
    "argv, golden",
    (
        (("run", "--rounds", "120000", "--seed", "7"), "run_rounds_golden.json"),
        (("run", "--until-halt", "--repeats", "2000", "--seed", "7"), "run_until_halt_golden.json"),
        (("perspectives", "--t", "2", "--given", "wbar=ok"), "perspectives_t2_golden.json"),
        (("detect", "--cheat", "--rounds", "10000", "--seed", "3"), "detect_cheat_golden.json"),
        (("branches", "--notebooks", "both", "--intrusion", "--format", "text"),
         "branches_both_intrusion_golden.txt"),
        (("perspectives", "--t", "3", "--notebooks", "both", "--announce", "off"),
         "perspectives_t3_both_golden.json"),
        (("run", "--until-halt", "--intrusion", "--repeats", "3", "--max-rounds", "5",
          "--seed", "1"), "run_until_halt_intrusion_golden.json"),
        (("run", "--until-halt", "--notebooks", "both", "--repeats", "500", "--max-rounds", "6",
          "--seed", "9"), "run_until_halt_both_max6_golden.json"),
        (("detect", "--cheat", "--rounds", "10000", "--seed", "3", "--format", "text"),
         "detect_cheat_golden.txt"),
        (("detect", "--rounds", "10", "--seed", "3", "--format", "text"),
         "detect_inconclusive_golden.txt"),
        (("run", "--rounds", "120000", "--seed", "7", "--format", "text"),
         "run_rounds_golden.txt"),
        (("run", "--until-halt", "--repeats", "2000", "--seed", "7", "--format", "text"),
         "run_until_halt_golden.txt"),
        (("perspectives", "--t", "2", "--given", "wbar=ok", "--format", "text"),
         "perspectives_t2_golden.txt"),
    ),
    ids=("run-rounds", "run-until-halt", "perspectives", "detect", "branches-intrusion-text",
         "perspectives-t3-both", "run-until-halt-intrusion", "run-until-halt-both-max6",
         "detect-cheat-text", "detect-inconclusive-text", "run-rounds-text",
         "run-until-halt-text", "perspectives-text"),
)
def test_golden_document(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == (DATA / golden).read_text()


# run ----------------------------------------------------------------------------

def test_run_frequencies_and_z_scores(capsys):
    code, out, _ = run_cli(capsys, "run", "--rounds", "5000", "--seed", "7")
    assert code == EXIT_OK
    doc = parse(out)
    rows = {(r["wbar"], r["w"]): r for r in doc["results"]["frequencies"]}
    halt = rows[("ok", "ok")]
    assert abs(halt["frequency"] - 1 / 12) < 0.02
    assert abs(halt["z"]) < 4
    assert halt["exact_fraction"] == "1/12"


def test_run_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "run", "--rounds", "300", "--seed", "42")
    _, second, _ = run_cli(capsys, "run", "--rounds", "300", "--seed", "42")
    assert first == second
    _, third, _ = run_cli(capsys, "run", "--rounds", "300", "--seed", "43")
    assert third != first


def test_run_until_halt(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--until-halt", "--repeats", "60", "--seed", "7"
    )
    assert code == EXIT_OK
    doc = parse(out)
    results = doc["results"]
    assert results["halted_runs"] == 60
    assert results["exhausted_runs"] == 0
    assert 5 < results["mean_rounds_to_halt"] < 25
    assert sum(results["rounds_to_halt_histogram"].values()) == 60


def test_run_until_halt_samples_nothing_when_no_round_can_halt(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("an intrusion round cannot halt; nothing should be sampled")

    monkeypatch.setattr(frsim.analysis, "grid_uniforms", refuse)
    code, out, _ = run_cli(
        capsys, "run", "--until-halt", "--intrusion", "--repeats", "2000", "--seed", "1"
    )
    assert code == EXIT_OK
    results = parse(out)["results"]
    assert results["exhausted_runs"] == 2000 and results["halted_runs"] == 0


@pytest.mark.parametrize(
    "argv",
    (
        ("run", "--rounds", "10", "--seed", "-1"),
        ("run", "--until-halt", "--max-rounds", "0"),
        ("detect", "--rounds", "1", "--min-ok", "0"),
        ("detect", "--cheat", "--rounds", "10000", "--seed", "3", "--confidence", "1.5"),
        # Ten rounds give no bound, so only detect_records' own check sees the NaN.
        ("detect", "--cheat", "--rounds", "10", "--seed", "3", "--confidence", "nan"),
        ("run", "--rounds", str(2**64 + 1)),
        ("detect", "--rounds", str(2**64 + 1)),
        ("branches", "--out", str(DATA / "no-such-dir" / "x.json")),
        ("branches", "--out", str(DATA)),
        ("run", "--until-halt", "--rounds", "5"),
        ("run", "--rounds", "5", "--repeats", "9"),
        ("run", "--rounds", "5", "--max-rounds", "6"),
        ("branches", "--notebooks", "none", "--cheat"),
        ("run", "--seed", "1"),
        ("run", "--rounds", "0"),
        ("detect", "--rounds", "0"),
        ("perspectives", "--t", "1", "--agent", "f"),
        ("perspectives", "--t", "2", "--given", "wbar=sideways"),
        ("perspectives", "--t", "2", "--given", "wbar=ok,wbar=fail"),
        ("perspectives", "--t", "2", "--given", "zz=ok"),
        ("perspectives", "--t", "2", "--given", "wbar"),
    ),
    ids=("negative-seed", "zero-max-rounds", "zero-min-ok", "confidence-above-one",
         "nan-confidence-without-a-bound",
         "run-rounds-beyond-2-64", "detect-rounds-beyond-2-64", "out-missing-dir", "out-is-dir",
         "rounds-with-until-halt", "repeats-without-until-halt",
         "max-rounds-without-until-halt", "cheat-without-coin-notebook", "run-without-rounds",
         "run-zero-rounds", "detect-zero-rounds", "single-agent-missing-outcome",
         "given-bad-label", "given-repeated-key", "given-unknown-key", "given-item-without-label"),
)
def test_values_the_library_rejects_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)  # main returns; it raises no SystemExit
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("frsim: error: ")


def test_repeat_count_too_large_to_hold_is_usage_error(capsys, monkeypatch):
    def out_of_memory(config, repeats):
        raise MemoryError(f"Unable to allocate an array for {repeats} runs")

    monkeypatch.setattr(frsim.cli, "rounds_to_halt", out_of_memory)
    code, out, err = run_cli(capsys, "run", "--until-halt", "--repeats", str(2**40), "--seed", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"frsim: error: Unable to allocate an array for {2**40} runs\n"


# perspectives --------------------------------------------------------------------

def test_perspectives_after_announced_ok(capsys):
    code, out, _ = run_cli(capsys, "perspectives", "--t", "2", "--given", "wbar=ok")
    assert code == EXIT_OK
    doc = parse(out)
    agents = doc["results"]["agents"]
    assert "limit" in agents["Fbar"]
    assert "undetermined" in agents["F"]  # her own spin outcome was not given
    for agent in ("Wbar", "W", "C"):
        ok = agents[agent]["predictions"]["spin_lab"]["ok"]
        assert ok == pytest.approx(0.5, abs=1e-10)


def test_perspectives_spin_friend_up(capsys):
    code, out, _ = run_cli(
        capsys, "perspectives", "--t", "1", "--agent", "f", "--given", "s=up",
        "--announce", "off",
    )
    assert code == EXIT_OK
    doc = parse(out)
    entry = doc["results"]["agents"]["F"]
    assert entry["layout"] == ["R", "Fbar", "S", "Wbar", "W"]
    assert len(entry["amplitudes"]) == 1
    assert entry["amplitudes"][0]["labels"] == ["t", "t", "up", "ready", "ready"]
    assert entry["predictions"]["R"]["t"] == pytest.approx(1.0, abs=1e-10)
    assert entry["predictions"]["Fbar"]["t"] == pytest.approx(1.0, abs=1e-10)


def test_perspectives_limit_marker_is_not_an_error(capsys):
    code, out, _ = run_cli(capsys, "perspectives", "--t", "2", "--agent", "fbar",
                           "--given", "wbar=ok")
    assert code == EXIT_OK
    doc = parse(out)
    assert "limit" in doc["results"]["agents"]["Fbar"]


def test_perspectives_inconsistent_transcript_exits_3(capsys):
    for argv, line in (
        (("perspectives", "--t", "2", "--given", "wbar=ok,s=down"),
         "outcome 'ok' on ('Wbar',) has probability 0.000e+00; "
         "conditioning on it is inconsistent"),
        (("perspectives", "--t", "3", "--intrusion", "--given", "wbar=ok,w=fail"),
         "the w step is skipped once wbar=ok, so no w outcome follows"),
        (("perspectives", "--t", "2", "--intrusion", "--agent", "wbar",
          "--given", "wbar=fail,intrusion=up"),
         "the intrusion step happens only after wbar=ok, so wbar=fail leaves no "
         "intrusion outcome"),
        (("perspectives", "--t", "2", "--agent", "wbar", "--given", "wbar=ok,intrusion=down"),
         "no step of this variant writes the intrusion outcome, so intrusion=down "
         "cannot be given"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INCONSISTENT, argv
        assert (out, err) == ("", f"inconsistent transcript: {line}\n"), argv


# detect ---------------------------------------------------------------------------

def test_detect_with_cheating(capsys):
    code, out, _ = run_cli(capsys, "detect", "--cheat", "--rounds", "4000", "--seed", "3")
    assert code == EXIT_OK
    doc = parse(out)
    results = doc["results"]
    assert results["decision"] == "record-detected"
    assert abs(results["observed_up_fraction"] - 1 / 3) < 0.05
    assert results["threshold"] < 1.0


def test_detect_without_cheating(capsys):
    code, out, _ = run_cli(capsys, "detect", "--rounds", "4000", "--seed", "3")
    assert code == EXIT_OK
    doc = parse(out)
    results = doc["results"]
    assert results["decision"] == "no-record"
    assert results["observed_up_fraction"] == 1.0


def test_detect_too_few_rounds_is_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "detect", "--cheat", "--rounds", "10", "--seed", "3")
    assert code == EXIT_OK
    doc = parse(out)
    assert doc["results"]["decision"] == "inconclusive"


# document handling -----------------------------------------------------------------

def test_document_round_trip(capsys):
    _, out, _ = run_cli(capsys, "branches", "--notebooks", "both")
    doc = ReportDocument(**json.loads(out))
    assert doc.to_json() == out


def test_document_rejects_nan():
    doc = ReportDocument(schema_version="1", command="detect", variant={}, seed=0,
                         results={"threshold": float("nan")})
    with pytest.raises(ValueError):
        doc.to_json()


def _written(value) -> str:
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


_JSON_FILES = sorted(DATA.glob("*.json")) + [Path(frsim.cli.__file__).parent / "data"
                                              / "reference_states.json"]


@pytest.mark.parametrize("path", _JSON_FILES, ids=lambda path: path.name)
def test_writer_matches_json_dumps_on_the_goldens(path):
    # The files hold sorted keys; read each object's keys in reverse, so the
    # writer has to sort them.
    value = json.loads(path.read_text(), object_pairs_hook=lambda pairs: dict(reversed(pairs)))
    assert _written(value) == _dumped(value)


_KEYS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "🙂"])
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.1, 1e1, 1e-7, 2.0**53]))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**100, 2**100) | _FLOATS
            | _FLOATS.map(np.float64) | st.text(max_size=6) | _KEYS)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=_DOCUMENTS)
def test_writer_matches_json_dumps(value):
    assert _written(value) == _dumped(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                                   {"a": [1, {"b": float("nan")}]}, {1, 2}, {"a": (1, {2})},
                                   np.int64(3), b"bytes"],
                         ids=["nan", "inf", "-inf", "np-nan", "nested-nan", "set", "nested-set",
                              "np-int64", "bytes"])
def test_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(Exception) as dumped:
        _dumped(value)
    with pytest.raises(type(dumped.value)):
        _written(value)


def _fraction_by_limit_denominator(p):
    """The rule ``_fraction`` replaced, kept verbatim as its oracle."""
    frac = Fraction(p).limit_denominator(24)
    if abs(float(frac) - p) < 1e-9:
        return f"{frac.numerator}/{frac.denominator}"
    return None


def test_fraction_matches_the_limit_denominator_rule():
    values = [-0.0, 0.0, -1.5, -1 / 12, 7.25, 1e300, -1e300, 5e-324, 1 - 2**-53, 1e-9, 2e-9]
    for q in range(1, 31):
        for n in range(-q, 2 * q + 1):
            for offset in (0.0, 9.99e-10, 1e-9, 1.0001e-9):
                values += [n / q + offset, n / q - offset]
    mismatches = [p for p in values if _fraction(p) != _fraction_by_limit_denominator(p)]
    assert not mismatches
    assert _fraction(1 / 24) == "1/24"
    assert _fraction(-0.0) == "0/1"


@pytest.mark.parametrize("value, error", [(float("nan"), ValueError), (float("inf"), OverflowError),
                                          (-float("inf"), OverflowError)])
def test_fraction_raises_on_what_the_old_rule_raises(value, error):
    with pytest.raises(error):
        _fraction_by_limit_denominator(value)
    with pytest.raises(error):
        _fraction(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
def test_a_non_finite_result_exits_4_and_writes_nothing(capsys, monkeypatch, tmp_path, bad):
    # The text renderer lists detect's results as they stand, so it would
    # print "threshold: nan" if the JSON check did not run in both formats.
    results = {"threshold": bad, "z": [0.5, {"p": bad}]}
    monkeypatch.setitem(frsim.cli._HANDLERS, "detect", lambda args: (ProtocolVariant(), results))
    for fmt in ("json", "text"):
        argv = ("detect", "--rounds", "1", "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal invariant violation")
        path = tmp_path / f"report.{fmt}"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == EXIT_INTERNAL
        assert (out, path.exists()) == ("", False)
        assert err.startswith("internal invariant violation")


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    code = "import sys, frsim.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(frsim.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "branches", "--notebooks", "none", "--out", str(path)
    )
    assert code == EXIT_OK
    assert out == ""
    assert path.read_text() == GOLDEN.read_text()


def test_text_format_renders_fractions(capsys):
    code, out, _ = run_cli(capsys, "branches", "--notebooks", "none", "--format", "text")
    assert code == EXIT_OK
    assert "(1/12)" in out
    assert "(1/6)" in out


def test_internal_invariant_violation_exits_4(capsys, monkeypatch):
    def boom(args):
        raise ResidualError("forced for the exit-code contract")

    monkeypatch.setitem(frsim.cli._HANDLERS, "branches", boom)
    code, out, err = run_cli(capsys, "branches", "--notebooks", "none")
    assert code == EXIT_INTERNAL
    assert "internal invariant" in err


def test_normalization_and_unitarity_errors_exit_4(capsys, monkeypatch):
    for error in (NormalizationError, UnitarityError):
        def boom(args):
            raise error("forced for the exit-code contract")

        monkeypatch.setitem(frsim.cli._HANDLERS, "branches", boom)
        code, out, err = run_cli(capsys, "branches", "--notebooks", "none")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "internal invariant violation: forced for the exit-code contract\n"


def test_timestamp_flag_adds_timestamps(capsys):
    _, out, _ = run_cli(capsys, "branches", "--notebooks", "none", "--timestamp")
    doc = parse(out)
    assert doc["timestamps"] is not None
    _, plain, _ = run_cli(capsys, "branches", "--notebooks", "none")
    assert parse(plain)["timestamps"] is None


# the shared grammar ------------------------------------------------------------------

HELP = json.loads((DATA / "help_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split()[1:], "--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out == HELP[command]


def test_shared_parser_leaks_nothing_between_calls(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["branches", "--notebooks", "all"])
    assert exc.value.code == EXIT_USAGE
    assert run_cli(capsys, "run", "--rounds", "0")[0] == EXIT_USAGE
    argv = ("perspectives", "--t", "3", "--notebooks", "both", "--announce", "off")
    assert run_cli(capsys, *argv) == (
        EXIT_OK, (DATA / "perspectives_t3_both_golden.json").read_text(), "")
    assert run_cli(capsys, "branches") == (EXIT_OK, GOLDEN.read_text(), "")


# grammar-driven fuzz ----------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"document holds {name}")


def _sub_parsers():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _values(action):
    """Two strategies for one flag's value: valid ones (a choice, a small count,
    a probability, distinct --given keys), and ones at or past the edge of what
    the flag accepts (junk, 0, negative, beyond 2**64, NaN, repeated keys)."""
    junk = st.sampled_from(["", "x", "1.5"])
    if action.choices is not None:
        return st.sampled_from([str(c) for c in action.choices]), junk
    if action.type is int:
        # Every positive count of repeats is valid, and as slow as it is large.
        huge = st.nothing() if action.dest == "repeats" else st.integers(2**64 + 1, 2**70)
        edge = st.one_of(st.integers(max_value=0), huge).map(str) | junk
        return st.integers(1, 40).map(str), edge
    if action.type is float:
        return st.floats(0, 1).map(str), st.sampled_from(["nan", "inf", "-inf", "0", "1"])
    items = st.sampled_from([f"{key}={label}" for key, labels in GIVEN_LABELS.items()
                             for label in labels])
    bad_items = st.sampled_from(["", "wbar", "zz=ok", "wbar=", "wbar=?", " WBAR = ok "])
    return (st.lists(items, max_size=4, unique_by=lambda item: item.split("=")[0]).map(",".join),
            st.lists(items | bad_items, min_size=1, max_size=4).map(",".join))


@st.composite
def _argv(draw):
    """A subcommand with some of its flags (not --out, which writes files); in
    half the draws one of them takes an edge value."""
    name, sub = draw(st.sampled_from(sorted(_sub_parsers().items())))
    flags = [a for a in sub._actions if a.option_strings and a.dest not in ("help", "out")]
    edgy = draw(st.none() | st.sampled_from([a for a in flags if a.nargs != 0]))
    argv = [name]
    for action in flags:
        if action is not edgy and not action.required and not draw(st.booleans()):
            continue
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            valid, edge = _values(action)
            argv.append(draw(edge if action is edgy else valid))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
# A non-finite confidence must exit 2 in every run, not only when drawn.
@example(argv=["detect", "--cheat", "--rounds", "10000", "--seed", "3", "--confidence", "nan"])
@example(argv=["detect", "--cheat", "--rounds", "10000", "--seed", "3", "--confidence", "inf"])
def test_every_argv_of_the_grammar_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own grammar errors
            code = exc.code
        else:
            if code == EXIT_USAGE:  # found after parsing: one line from main
                assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
                assert err.getvalue().startswith("frsim: error:"), (argv, err.getvalue())
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INCONSISTENT, EXIT_INTERNAL), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK and "text" not in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
