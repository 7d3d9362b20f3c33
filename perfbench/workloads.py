"""The three workloads: inputs made from the workload seed, rounds, checks.

A round is a fixed list of operations on frsim.  Every operation's output is
checked against :mod:`oracle` (closed forms and a hand expansion), the
shipped golden states, or properties the method must have; the checks run
outside the timed regions.  frsim functions are looked up on the package at
call time, so that :mod:`layertrace` sees every call the workloads make.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path
from time import perf_counter

import frsim
import frsim.cli
import numpy as np

import oracle
from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent

# Sampled statistics must lie within this many standard errors of the
# closed form.  Wide enough that any correct sampler passes on any seed.
Z_BOUND = 6.0
EXACT_ATOL = 1e-10

AGENTS = ("Fbar", "F", "Wbar", "W", "C")
LEVEL_PREDICTIONS = ("R", "S", "Fbar", "F", "Nbar", "N", "Wbar", "W")
LABELS = ("ok", "fail")
SPINS = ("up", "down")

NO_NOTEBOOKS = frozenset()
BOTH_NOTEBOOKS = frozenset({"Fbar", "F"})
# The two `detect` set-ups: a secret coin notebook, and no record at all.
DETECT_CHEAT = (False, frozenset({"Fbar"}), True, True)
DETECT_CLEAN = (False, NO_NOTEBOOKS, False, True)

# Per-round sizes at scale 1.
MC_VARIANTS = 4
ENUMERATION_PASSES = 2
MC_ROUNDS = 3000
HALT_RUNS = 300
DETECT_ROUNDS = 6000
SWEEP_CHUNK = 36
REFERENCE_ROUNDS = 20

# Arguments of the CLI commands timed by `cli_calls`.  The short ones run
# several times a round, so that each timed block lasts about half a second
# and spans several speed readings.
CLI_ROUNDS, CLI_UNTIL_HALT_REPEATS, CLI_DETECT_ROUNDS = 120_000, 2000, 10_000
CLI_REPEATS = {"cli_branches_s": 100, "cli_perspectives_s": 40, "cli_run_until_halt_s": 2,
               "cli_detect_s": 3}
# Invocations that today end in a traceback or a NaN verdict.  Each should
# exit 2 with a message and no traceback; until then each counts as failed.
KNOWN_FAULTS = (
    ("run", "--rounds", "10", "--seed", "-1"),
    ("run", "--until-halt", "--max-rounds", "0"),
    ("detect", "--rounds", "1", "--min-ok", "0"),
    ("detect", "--cheat", "--rounds", "10000", "--seed", "3", "--confidence", "1.5"),
)


def variant(spec: tuple) -> frsim.ProtocolVariant:
    announce, notebooks, cheat, intrusion = spec
    return frsim.ProtocolVariant(
        announce_wbar=announce, notebooks=notebooks, cheat=cheat, intrusion=intrusion)


def describe(spec: tuple) -> str:
    announce, notebooks, cheat, intrusion = spec
    return "announce={} notebooks={} cheat={} intrusion={}".format(
        int(announce), "+".join(sorted(notebooks)) or "none", int(cheat), int(intrusion))


class Checks:
    """Collects failed correctness checks instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self.failures) < 50:
            self.failures.append(message)

    def within_z(self, count: int, n: int, p: float, what: str) -> None:
        if 0.0 < p < 1.0:
            z = (count / n - p) / sqrt(p * (1.0 - p) / n)
            self.expect(abs(z) <= Z_BOUND, f"{what}: {count}/{n} is {z:+.1f} SE from {p:.6g}")
        else:
            self.expect(count == round(p * n), f"{what}: {count}/{n}, closed form {p}")


# -- inputs ----------------------------------------------------------------


def _marginal_w(joint: dict) -> dict[str, float]:
    return {w: sum(p for (_, b, _), p in joint.items() if b == w) for w in LABELS}


def _givens(agent: str, t: int, spec: tuple) -> list[dict]:
    """Outcome sets an agent can hold at time t that its own model finds possible.

    Outside cheat mode an agent's model is the true dynamics without the
    agent itself, so an outcome set is consistent exactly when the hand
    expansion gives it nonzero probability.  Only the fields the agent
    uses at that time are set.
    """
    announce, notebooks, _, intrusion = spec
    ws = oracle.wbar_spin(notebooks)
    jw = oracle.joint(notebooks, False)
    p_s = {s: ws[("ok", s)] + ws[("fail", s)] for s in SPINS}
    p_w = _marginal_w(jw)
    pairs = [{"wbar": a, "w": b} for (a, b, _), p in jw.items() if p > 0]
    if agent == "Fbar":
        return [{"r": "t"}, {"r": "h"}]
    if t <= 1 and agent != "F":
        return [{}]
    if agent == "F":
        if t == 0:
            return [{}]
        if t == 1 or not announce:
            return [{"s": s} for s in SPINS if p_s[s] > 0]
        return [{"s": s, "wbar": a} for (a, s), p in ws.items() if p > 0]
    if agent == "Wbar":
        if t == 2:
            out = [{"wbar": a} for a in LABELS]
            if intrusion:
                out += [{"wbar": "ok", "intrusion": s} for s in SPINS if ws[("ok", s)] > 0]
            return out
        return pairs if announce else [{"wbar": a} for a in LABELS]
    if t == 2:
        return [{"wbar": a} for a in LABELS] if announce else [{}]
    if announce:
        return pairs
    return [{"w": w} for w in LABELS if p_w[w] > 0] if agent == "W" else [{}]


def sweep_inputs() -> list[tuple[str, int, dict, tuple]]:
    """(agent, time, given, variant) over every variant, both announce settings.

    Times stop before the agent's own lab is measured (perspective limit),
    and at t=2 in intrusion variants, where an ok ends the round early.
    Under cheat only Fbar and C are swept: the others' models omit the
    secret notebook, and the hand expansion does not model their view.
    """
    out = []
    for spec in oracle.VARIANTS:
        cheat, intrusion = spec[2], spec[3]
        for agent in ("Fbar", "C") if cheat else AGENTS:
            last = {"Fbar": 1, "F": 2}.get(agent, 2 if intrusion else 3)
            for t in range(last + 1):
                for given in _givens(agent, t, spec):
                    out.append((agent, t, given, spec))
    return out


def _spread_order(items: list[tuple], rng: random.Random) -> list[tuple]:
    """Shuffle within each (agent, time) group and spread every group evenly
    over the sequence, so each chunk of the sweep has about the same mix."""
    groups: dict[tuple, list] = {}
    for item in items:
        groups.setdefault(item[:2], []).append(item)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((i + offset) / len(members), m) for i, m in enumerate(members)]
    keyed.sort(key=lambda pair: pair[0])
    return [m for _, m in keyed]


@dataclass
class Inputs:
    """Everything the workloads hand to frsim, generated from one seed."""

    program_seed: int
    mc_variants: list[tuple]
    halt_variants: list[tuple]
    reference_variants: list[tuple]
    enumeration_order: list[tuple]
    sweep: list[tuple]
    cli_order: list[int]
    fault_order: list[tuple[str, ...]]
    sizes: dict[str, int] = field(default_factory=dict)


def make_inputs(seed: int, scale: float = 1.0) -> Inputs:
    rng = random.Random(seed)
    sweep = _spread_order(sweep_inputs(), rng)
    enumeration_order = list(oracle.VARIANTS)
    rng.shuffle(enumeration_order)
    announce = [rng.random() < 0.5 for _ in range(2)]
    cheat = rng.random() < 0.5
    halt_variants = [(announce[0], NO_NOTEBOOKS, False, False),
                     (announce[1], BOTH_NOTEBOOKS, cheat, False)]
    cli_order = list(range(5))
    rng.shuffle(cli_order)
    fault_order = list(KNOWN_FAULTS)
    rng.shuffle(fault_order)

    def size(n: int, floor: int) -> int:
        return max(floor, round(n * scale))

    return Inputs(
        program_seed=rng.randrange(2**31),
        mc_variants=rng.sample(list(oracle.VARIANTS), MC_VARIANTS),
        halt_variants=halt_variants,
        reference_variants=list(halt_variants),
        enumeration_order=enumeration_order,
        sweep=sweep,
        cli_order=cli_order,
        fault_order=fault_order,
        sizes={
            "mc_rounds": size(MC_ROUNDS, 200),
            "halt_runs": size(HALT_RUNS, 20),
            "detect_rounds": size(DETECT_ROUNDS, 600),
            "sweep_chunk": size(SWEEP_CHUNK, 4),
            "reference_rounds": size(REFERENCE_ROUNDS, 2),
            "cli_rounds": size(CLI_ROUNDS, 2000),
            "cli_until_halt_repeats": size(CLI_UNTIL_HALT_REPEATS, 100),
            "cli_detect_rounds": size(CLI_DETECT_ROUNDS, 1000),
        },
    )


def prepare(inputs: Inputs, parts: set[str]) -> dict:
    """One-time preparation: warm the per-variant caches, load golden states."""
    state = {}
    if "sampled_rounds" in parts:
        for spec in set(inputs.mc_variants + inputs.halt_variants) | {DETECT_CHEAT, DETECT_CLEAN}:
            frsim.monte_carlo(frsim.ProtocolConfig(variant=variant(spec), seed=0), 1)
    if "cli_calls" in parts:
        for spec in ((True, NO_NOTEBOOKS, False, False), DETECT_CHEAT):
            frsim.monte_carlo(frsim.ProtocolConfig(variant=variant(spec), seed=0), 1)
    if "exact_states" in parts:
        state["references"] = frsim.load_reference_states()
    return state


def _seed(inputs: Inputs, k: int, j: int) -> int:
    return (inputs.program_seed + 7919 * k + j) % 2**31


# -- sampled_rounds ----------------------------------------------------------


class Sampled:
    """monte_carlo over a variant mix, short until-halt runs, record detection."""

    name = "sampled_rounds"

    def __init__(self, inputs: Inputs, state: dict, checks: Checks, meter: SpeedMeter) -> None:
        self.inputs, self.checks, self.meter = inputs, checks, meter
        self.sizes = inputs.sizes
        # per closed-form halting probability: [runs, rounds summed]
        self.halts = {spec: [0, 0] for spec in inputs.halt_variants}

    def round(self, k: int) -> tuple[dict[str, list[float]], int, int]:
        inputs, checks, sizes = self.inputs, self.checks, self.sizes
        scaled = self.meter.scaled
        n = sizes["mc_rounds"]
        tables, mc_s = [], 0.0
        for j, spec in enumerate(inputs.mc_variants):
            config = frsim.ProtocolConfig(variant=variant(spec), seed=_seed(inputs, k, j))
            with scaled() as span:
                tables.append(frsim.monte_carlo(config, n))
            mc_s += span.seconds

        batch, runs, halt_s = sizes["halt_runs"], [], 0.0
        for j, spec in enumerate(inputs.halt_variants):
            config = frsim.ProtocolConfig(variant=variant(spec), seed=_seed(inputs, k, 10 + j))
            with scaled() as span:
                reports = [frsim.run_until_halt(config, stream=(r,)) for r in range(batch)]
            halt_s += span.seconds
            runs.append((spec, reports))

        detections, detect_s = [], 0.0
        for j, spec in enumerate((DETECT_CHEAT, DETECT_CLEAN)):
            config = frsim.ProtocolConfig(variant=variant(spec), seed=_seed(inputs, k, 20 + j))
            with scaled() as span:
                detections.append(frsim.detect_records(config, sizes["detect_rounds"]))
            detect_s += span.seconds

        for spec, table in zip(inputs.mc_variants, tables):
            self._check_table(spec, table, n, f"monte_carlo round {k} {describe(spec)}")
        for spec, reports in runs:
            self._check_halts(spec, reports, f"run_until_halt round {k} {describe(spec)}")
        for spec, report in zip((DETECT_CHEAT, DETECT_CLEAN), detections):
            check_detection(checks, spec[2], report, sizes["detect_rounds"], f"detect_records round {k}")
        rates = {
            "mc_rounds_per_s": n * len(tables) / mc_s,
            "halt_runs_per_s": sum(len(reports) for _, reports in runs) / halt_s,
            "detect_rounds_per_s": sizes["detect_rounds"] * len(detections) / detect_s,
        }
        return ({name: [rate] for name, rate in rates.items()},
                len(tables) + sum(len(reports) for _, reports in runs) + len(detections), 0)

    def _check_table(self, spec: tuple, table, n: int, what: str) -> None:
        joint = oracle.joint(spec[1], spec[3])
        counts = dict(table.counts)
        self.checks.expect(table.total == n and sum(counts.values()) == n,
                           f"{what}: counts sum to {sum(counts.values())}, asked for {n}")
        self.checks.expect(set(counts) <= set(joint),
                           f"{what}: keys {sorted(set(counts) - set(joint), key=str)} outside the support")
        for key, p in joint.items():
            self.checks.within_z(counts.get(key, 0), n, p, f"{what} {key}")

    def _check_halts(self, spec: tuple, reports, what: str) -> None:
        support = oracle.joint(spec[1], spec[3])
        tally = self.halts[spec]
        for report in reports:
            n = report.rounds_executed
            counts = dict(report.outcome_counts)
            self.checks.expect(report.halted and report.halting_round == n - 1,
                               f"{what}: run did not halt at its last round")
            self.checks.expect(sum(counts.values()) == n and set(counts) <= set(support),
                               f"{what}: counts {counts} do not fit {n} rounds and the support")
            self.checks.expect(report.transcripts[-1].key() == ("ok", "ok", None),
                               f"{what}: last round is not a halt")
            tally[0] += 1
            tally[1] += n

    def check_reproducible(self) -> None:
        """The same seed and stream give the same table and the same run twice."""
        spec = self.inputs.mc_variants[0]
        config = frsim.ProtocolConfig(variant=variant(spec), seed=_seed(self.inputs, 0, 0))
        first = frsim.monte_carlo(config, 500)
        self.checks.expect(first.counts == frsim.monte_carlo(config, 500).counts,
                           f"monte_carlo not reproducible for {describe(spec)}")
        halt = frsim.ProtocolConfig(variant=variant(self.inputs.halt_variants[0]), seed=3)
        a = frsim.run_until_halt(halt, stream=(5,))
        b = frsim.run_until_halt(halt, stream=(5,))
        self.checks.expect(a.transcripts == b.transcripts, "run_until_halt not reproducible")

    def finish(self) -> dict:
        """Mean rounds to halt against 1/p, within Z_BOUND geometric standard errors."""
        out = {}
        for spec, (runs, rounds) in self.halts.items():
            if not runs:
                continue
            p = oracle.halting_probability(spec[1])
            mean = rounds / runs
            se = sqrt(1.0 - p) / p / sqrt(runs)
            self.checks.expect(abs(mean - 1 / p) <= Z_BOUND * se,
                               f"mean rounds to halt {mean:.3f} over {runs} runs vs {1 / p:.3f} "
                               f"({describe(spec)})")
            out[describe(spec)] = {"runs": runs, "mean_rounds_to_halt": mean, "closed_form": 1 / p}
        return out


def check_detection(checks: Checks, cheat: bool, report, rounds: int, what: str) -> None:
    """Decision, ok-round count and up fraction against the closed forms."""
    notebooks = DETECT_CHEAT[1] if cheat else NO_NOTEBOOKS
    p_ok = oracle.coin_lab_ok(notebooks)
    p_up = oracle.P_UP_GIVEN_OK_COIN_RECORD if cheat else oracle.P_UP_GIVEN_OK_NO_COIN_RECORD
    expected = "record-detected" if cheat else "no-record"
    checks.expect(report.decision == expected,
                  f"{what}: decided {report.decision!r} with cheat={cheat}, expected {expected!r}")
    checks.expect(report.rounds == rounds, f"{what}: reported {report.rounds} rounds, ran {rounds}")
    checks.within_z(report.ok_rounds, rounds, p_ok, f"{what} ok rounds (cheat={cheat})")
    if report.ok_rounds:
        checks.within_z(report.up_count, report.ok_rounds, p_up, f"{what} up | ok (cheat={cheat})")


# -- exact_states ------------------------------------------------------------


def _expected_lab_predictions(agent: str, t: int, given: dict, spec: tuple) -> dict:
    """Closed-form ok-probabilities C and W assign to the coin and spin labs."""
    announce, notebooks = spec[0], spec[1]
    jw = oracle.joint(notebooks, False)
    p_wbar = {a: sum(p for (x, _, _), p in jw.items() if x == a) for a in LABELS}
    p_w = _marginal_w(jw)
    out = {}
    if t == 1:
        out["coin_lab"] = oracle.coin_lab_ok(notebooks)
        out["spin_lab"] = oracle.spin_lab_ok_before_coin_lab(notebooks)
    elif announce:
        a = given["wbar"]
        out["coin_lab"] = float(a == "ok")
        if t == 2:
            out["spin_lab"] = jw.get((a, "ok", None), 0.0) / p_wbar[a]
        else:
            out["spin_lab"] = float(given["w"] == "ok")
    elif agent == "W" and t == 3:
        w = given["w"]
        out["coin_lab"] = jw.get(("ok", w, None), 0.0) / p_w[w]
        out["spin_lab"] = float(w == "ok")
    else:
        out["coin_lab"] = p_wbar["ok"]
        out["spin_lab"] = p_w["ok"]
    return out


def check_model(checks: Checks, agent: str, t: int, given: dict, spec: tuple,
                predictions: dict) -> None:
    """Predictions are probabilities, pin what the agent saw or heard, and
    for C and W equal the hand expansion's conditionals."""
    what = f"{agent} t={t} given={given} {describe(spec)}"
    for name, dist in predictions.items():
        values = list(dist.values())
        checks.expect(all(-1e-12 <= p <= 1 + 1e-9 for p in values), f"{what}: {name} {dist}")
        if name in LEVEL_PREDICTIONS:
            checks.expect(abs(sum(values) - 1.0) < 1e-9, f"{what}: {name} sums to {sum(values)}")
    pinned = []
    if agent == "Fbar":
        pinned.append(("R", given["r"]))
    if agent == "F" and "s" in given:
        pinned.append(("S", given["s"]))
    if agent == "Wbar" and t >= 2:
        pinned.append(("coin_lab", given["wbar"]))
        if "intrusion" in given:
            pinned.append(("S", given["intrusion"]))
    if agent == "W" and t == 3:
        pinned.append(("spin_lab", given["w"]))
    if spec[0] and t >= 2 and agent != "Wbar":
        pinned.append(("Wbar", given["wbar"]))
    if spec[0] and t == 3 and agent != "W":
        pinned.append(("W", given["w"]))
    for name, label in pinned:
        p = predictions.get(name, {}).get(label)
        checks.expect(p is not None and abs(p - 1.0) < 1e-9, f"{what}: P({name}={label}) is {p}")
    if agent in ("C", "W") and t >= 1:
        for name, p in _expected_lab_predictions(agent, t, given, spec).items():
            got = predictions.get(name, {}).get("ok")
            checks.expect(got is not None and abs(got - p) < EXACT_ATOL,
                          f"{what}: P({name}=ok) is {got}, hand expansion {p}")


class Exact:
    """Exact enumeration of every variant, an agent-model sweep, golden
    states and reference rounds."""

    name = "exact_states"

    def __init__(self, inputs: Inputs, state: dict, checks: Checks, meter: SpeedMeter) -> None:
        self.inputs, self.checks, self.meter = inputs, checks, meter
        self.references = state["references"]
        self.chunk = inputs.sizes["sweep_chunk"]
        self.reference_rounds = inputs.sizes["reference_rounds"]
        self.ops_per_round = (ENUMERATION_PASSES * len(inputs.enumeration_order) + self.chunk
                              + len(self.references)
                              + self.reference_rounds * len(inputs.reference_variants))
        self.sweep_calls = 0
        self.reference_tally = {spec: [0, 0] for spec in inputs.reference_variants}

    def round(self, k: int) -> tuple[dict[str, list[float]], int, int]:
        inputs, checks = self.inputs, self.checks
        scaled = self.meter.scaled
        variants = [variant(spec) for spec in inputs.enumeration_order] * ENUMERATION_PASSES
        with scaled() as enumerate_span:
            joints = [frsim.enumerate_exact(v) for v in variants]

        sweep = inputs.sweep
        chunk = [sweep[(self.sweep_calls + i) % len(sweep)] for i in range(self.chunk)]
        self.sweep_calls += self.chunk
        calls = [(agent, t, frsim.Given(**given), variant(spec)) for agent, t, given, spec in chunk]
        with scaled() as sweep_span:
            predictions = [frsim.standard_predictions(frsim.agent_model_at(*args)) for args in calls]

        transcripts, reference_s = [], 0.0
        for j, spec in enumerate(inputs.reference_variants):
            v, seed = variant(spec), _seed(inputs, k, 30 + j)
            with scaled() as span:
                batch = [frsim.run_round(v, frsim.round_rng(seed, i), i)
                         for i in range(self.reference_rounds)]
            reference_s += span.seconds
            transcripts.append((spec, batch))

        for spec, joint in zip(inputs.enumeration_order * ENUMERATION_PASSES, joints):
            expected = oracle.joint(spec[1], spec[3])
            entries = dict(joint.entries)
            checks.expect(set(entries) == set(expected) and all(
                abs(entries[key] - p) <= EXACT_ATOL for key, p in expected.items()),
                f"enumerate_exact {describe(spec)}: {entries} vs hand expansion {expected}")
        for (agent, t, given, spec), prediction in zip(chunk, predictions):
            check_model(checks, agent, t, given, spec, prediction)
        self._check_golden()
        for spec, batch in transcripts:
            support = oracle.joint(spec[1], spec[3])
            tally = self.reference_tally[spec]
            for i, transcript in enumerate(batch):
                key = transcript.key()
                checks.expect(key in support and transcript.round_index == i
                              and transcript.halted == (key == ("ok", "ok", None)),
                              f"run_round {describe(spec)} gave {transcript}")
                tally[0] += 1
                tally[1] += transcript.halted
        rates = {
            "enumerations_per_s": len(joints) / enumerate_span.seconds,
            "agent_models_per_s": len(predictions) / sweep_span.seconds,
            "reference_rounds_per_s": sum(len(batch) for _, batch in transcripts) / reference_s,
        }
        return {name: [rate] for name, rate in rates.items()}, self.ops_per_round, 0

    def _check_golden(self) -> None:
        """The shipped golden states, up to global phase, plus W's closed form."""
        checks = self.checks
        for ref in self.references:
            model = frsim.agent_model_at(ref.agent, ref.time, ref.given, ref.variant)
            checks.expect(model.layout.names == ref.state.layout.names,
                          f"golden {ref.tag}: layout {model.layout.names}")
            if model.layout.names != ref.state.layout.names:
                continue
            derived = frsim.reorder(model.state, ref.state.layout)
            overlap = abs(np.vdot(derived.amplitudes, ref.state.amplitudes))
            checks.expect(frsim.equal_up_to_global_phase(derived, ref.state)
                          and overlap >= 1.0 - EXACT_ATOL,
                          f"golden {ref.tag}: overlap {overlap!r}")
        model = frsim.agent_model_at("W", 2, frsim.Given(wbar="ok"), frsim.ProtocolVariant())
        p = frsim.standard_predictions(model)["spin_lab"]["ok"]
        checks.expect(abs(p - oracle.W_SPIN_LAB_OK_AFTER_WBAR_OK) < EXACT_ATOL,
                      f"W predicts spin_lab ok {p} after wbar=ok")

    def finish(self) -> dict:
        out = {"sweep_inputs": len(self.inputs.sweep), "sweep_calls": self.sweep_calls,
               "sweep_repeated_share": max(0.0, 1 - len(self.inputs.sweep) / self.sweep_calls)
               if self.sweep_calls else 0.0}
        for spec, (rounds, halts) in self.reference_tally.items():
            if rounds:
                self.checks.within_z(halts, rounds, oracle.halting_probability(spec[1]),
                                     f"run_round halting frequency {describe(spec)}")
        return out


# -- cli_calls ---------------------------------------------------------------


@dataclass
class Call:
    """One finished CLI invocation, in process or as a fresh process."""

    wall_s: float
    exit_code: int
    stdout: str
    stderr: str


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: tuple[str, ...]) -> Call:
    """``python -m frsim.cli ARGS`` as a fresh process, run to its end."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "frsim.cli", *args], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, errors="replace")
    return Call(perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)


def run_main(args: tuple[str, ...]) -> Call:
    """``frsim.cli.main(args)`` in this process, as ``python -m frsim.cli`` runs it:
    an uncaught exception becomes a traceback on stderr and exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = frsim.cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI's own failure, reported like the interpreter would
            traceback.print_exc()
            code = 1
    return Call(perf_counter() - start, code, out.getvalue(), err.getvalue())


def _strict_json(text: str):
    def reject(constant: str):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class Cli:
    """The five ROADMAP commands and the known-fault invocations.

    A round runs them through ``frsim.cli.main`` in this process; that is
    what is timed.  :meth:`fresh_pass` also runs ``branches`` as a fresh
    ``python -m frsim.cli`` process, the way users do, and checks it.
    """

    name = "cli_calls"

    def __init__(self, inputs: Inputs, state: dict, checks: Checks, meter: SpeedMeter) -> None:
        self.inputs, self.checks, self.meter = inputs, checks, meter
        s = inputs.sizes
        self.timed = (
            ("cli_branches_s", ("branches",), self._check_branches),
            ("cli_run_rounds_s", ("run", "--rounds", str(s["cli_rounds"]), "--seed", "7"),
             self._check_run_rounds),
            ("cli_run_until_halt_s", ("run", "--until-halt", "--repeats", str(s["cli_until_halt_repeats"]),
                                      "--seed", "7"), self._check_until_halt),
            ("cli_perspectives_s", ("perspectives", "--t", "2", "--given", "wbar=ok"),
             self._check_perspectives),
            ("cli_detect_s", ("detect", "--cheat", "--rounds", str(s["cli_detect_rounds"]),
                              "--seed", "3"), self._check_detect),
        )
        self.faults: dict[str, dict] = {}
        self.fresh: dict[str, dict] = {}

    def round(self, k: int, timed_only: bool = False) -> tuple[dict[str, list[float]], int, int]:
        """Each timed command once, then (unless ``timed_only``) each known fault once."""
        out: dict[str, list[float]] = {}
        for index in self.inputs.cli_order:
            metric, args, check = self.timed[index]
            repeats = CLI_REPEATS.get(metric, 1)
            with self.meter.scaled() as span:
                calls = [run_main(args) for _ in range(repeats)]
            out[metric] = [span.seconds / repeats]
            for call in calls:
                self._check_ok(call, args, check)
        timed = sum(CLI_REPEATS.get(metric, 1) for metric, _, _ in self.timed)
        if timed_only:
            return out, timed, 0
        failed = sum(not self._check_fault(run_main(args), args) for args in self.inputs.fault_order)
        return out, timed + len(KNOWN_FAULTS), failed

    def fresh_pass(self) -> None:
        """``branches`` once as a fresh process, as users run it: checked, wall time kept."""
        _, args, check = self.timed[0]
        call = spawn(args)
        self._check_ok(call, args, check)
        self.fresh[" ".join(args)] = {"wall_s": call.wall_s, "exit_code": call.exit_code}

    def _check_fault(self, call: Call, args: tuple[str, ...]) -> bool:
        mended = self._fault_mended(call)
        if not mended:
            self.faults[" ".join(args)] = {
                "exit_code": call.exit_code,
                "last_stderr_line": (call.stderr.strip().splitlines() or [""])[-1][:200],
            }
        return mended

    @staticmethod
    def _fault_mended(call: Call) -> bool:
        """Exit 2 with a message, no traceback, and strict JSON if anything is printed."""
        if call.exit_code != 2 or "Traceback" in call.stderr or not call.stderr.strip():
            return False
        if call.stdout.strip():
            try:
                _strict_json(call.stdout)
            except ValueError:
                return False
        return True

    def _check_ok(self, call: Call, args: tuple[str, ...], check) -> None:
        what = "frsim " + " ".join(args)
        self.checks.expect(call.exit_code == 0, f"{what}: exit {call.exit_code}: {call.stderr[-300:]}")
        if call.exit_code != 0:
            return
        try:
            doc = _strict_json(call.stdout)
        except ValueError as exc:
            self.checks.expect(False, f"{what}: output is not strict JSON ({exc})")
            return
        check(doc["results"], what)

    def _check_branches(self, results: dict, what: str) -> None:
        expected = oracle.joint(NO_NOTEBOOKS, False)
        rows = {(r["wbar"], r["w"], r["intrusion"]): r["probability"] for r in results["joint"]}
        self.checks.expect(set(rows) == set(expected) and all(
            abs(rows[key] - p) <= EXACT_ATOL for key, p in expected.items()),
            f"{what}: joint {rows} vs hand expansion {expected}")
        self.checks.expect(abs(results["halt"]["probability"] - oracle.P_HALT_NO_NOTEBOOKS) <= EXACT_ATOL,
                           f"{what}: P(halt) {results['halt']}")
        self.checks.expect(
            abs(results["marginals"]["wbar_ok"]["probability"] - oracle.P_WBAR_OK_NO_NOTEBOOKS)
            <= EXACT_ATOL, f"{what}: P(wbar=ok) {results['marginals']['wbar_ok']}")

    def _check_run_rounds(self, results: dict, what: str) -> None:
        n = self.inputs.sizes["cli_rounds"]
        expected = oracle.joint(NO_NOTEBOOKS, False)
        counts = {(r["wbar"], r["w"], r["intrusion"]): r["count"] for r in results["frequencies"]}
        self.checks.expect(results["rounds"] == n and sum(counts.values()) == n,
                           f"{what}: counts sum to {sum(counts.values())}")
        self.checks.expect(all(c == 0 or key in expected for key, c in counts.items()),
                           f"{what}: sampled keys outside the support: {counts}")
        for key, p in expected.items():
            self.checks.within_z(counts.get(key, 0), n, p, f"{what} {key}")

    def _check_until_halt(self, results: dict, what: str) -> None:
        repeats = self.inputs.sizes["cli_until_halt_repeats"]
        p = oracle.P_HALT_NO_NOTEBOOKS
        halted = results["halted_runs"]
        self.checks.expect(halted + results["exhausted_runs"] == repeats and halted == repeats,
                           f"{what}: {halted} halted of {repeats}")
        self.checks.expect(sum(results["rounds_to_halt_histogram"].values()) == halted,
                           f"{what}: histogram does not sum to the halted runs")
        mean = results["mean_rounds_to_halt"]
        se = sqrt(1 - p) / p / sqrt(max(halted, 1))
        self.checks.expect(mean is not None and abs(mean - 1 / p) <= Z_BOUND * se,
                           f"{what}: mean rounds to halt {mean}, closed form {1 / p}")

    def _check_perspectives(self, results: dict, what: str) -> None:
        agents = results["agents"]
        for agent in ("W", "C"):
            p = agents.get(agent, {}).get("predictions", {}).get("spin_lab", {}).get("ok")
            self.checks.expect(p is not None and abs(p - oracle.W_SPIN_LAB_OK_AFTER_WBAR_OK)
                               <= EXACT_ATOL, f"{what}: {agent} predicts spin_lab ok {p}")
        self.checks.expect("limit" in agents.get("Fbar", {}),
                           f"{what}: Fbar at t=2 is not reported as a perspective limit")

    def _check_detect(self, results: dict, what: str) -> None:
        report = _Report(**{k: results[k] for k in ("decision", "rounds", "ok_rounds", "up_count")})
        check_detection(self.checks, True, report, self.inputs.sizes["cli_detect_rounds"], what)
        self.checks.expect(results["threshold"] is not None and results["threshold"] < 1.0,
                           f"{what}: threshold {results['threshold']}")

    def finish(self) -> dict:
        return {"known_faults_failing": self.faults, "fresh_processes": self.fresh}


@dataclass
class _Report:
    decision: str
    rounds: int
    ok_rounds: int
    up_count: int


WORKLOADS = {cls.name: cls for cls in (Sampled, Exact, Cli)}
