import json
from pathlib import Path

import pytest

import frsim.cli
from frsim.cli import (
    EXIT_INCONSISTENT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    ReportDocument,
    main,
)
from frsim.measurement import ResidualError

GOLDEN = Path(__file__).parent / "data" / "branches_none_golden.json"


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


def test_cheat_without_coin_notebook_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["branches", "--notebooks", "none", "--cheat"])
    assert err.value.code == 2


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


def test_run_requires_rounds(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--seed", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ("run", "--rounds", "10", "--seed", "-1"),
        ("run", "--until-halt", "--max-rounds", "0"),
        ("detect", "--rounds", "1", "--min-ok", "0"),
        ("detect", "--cheat", "--rounds", "10000", "--seed", "3", "--confidence", "1.5"),
    ),
    ids=("negative-seed", "zero-max-rounds", "zero-min-ok", "confidence-above-one"),
)
def test_values_the_library_rejects_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


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


def test_perspectives_single_agent_missing_outcome_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["perspectives", "--t", "1", "--agent", "f"])
    assert err.value.code == 2


def test_perspectives_inconsistent_transcript_exits_3(capsys):
    for argv in (
        ("perspectives", "--t", "2", "--given", "wbar=ok,s=down"),
        ("perspectives", "--t", "3", "--intrusion", "--given", "wbar=ok,w=fail"),
        ("perspectives", "--t", "2", "--intrusion", "--agent", "wbar",
         "--given", "wbar=fail,intrusion=up"),
        ("perspectives", "--t", "2", "--agent", "wbar", "--given", "wbar=ok,intrusion=down"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INCONSISTENT, argv
        assert "inconsistent" in err


def test_perspectives_bad_given_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["perspectives", "--t", "2", "--given", "wbar=sideways"])
    assert err.value.code == 2


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
    doc = ReportDocument.from_json(out)
    assert doc.to_json() == out


def test_document_rejects_nan():
    doc = ReportDocument(schema_version="1", command="detect", variant={}, seed=0,
                         results={"threshold": float("nan")})
    with pytest.raises(ValueError):
        doc.to_json()


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
    def boom(parser, args):
        raise ResidualError("forced for the exit-code contract")

    monkeypatch.setitem(frsim.cli._HANDLERS, "branches", boom)
    code, out, err = run_cli(capsys, "branches", "--notebooks", "none")
    assert code == EXIT_INTERNAL
    assert "internal invariant" in err


def test_timestamp_flag_adds_timestamps(capsys):
    _, out, _ = run_cli(capsys, "branches", "--notebooks", "none", "--timestamp")
    doc = parse(out)
    assert doc["timestamps"] is not None
    _, plain, _ = run_cli(capsys, "branches", "--notebooks", "none")
    assert parse(plain)["timestamps"] is None
