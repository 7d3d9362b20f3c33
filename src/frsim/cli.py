"""Command-line interface: exact branches, sampled runs, perspectives, detection.

Every command emits one report document, as canonical JSON (default) or an
aligned text table (``--format text``).  Documents are deterministic given
the full flag set including the seed; a wall-clock timestamp is only added
on explicit request (``--timestamp``) since it would break byte-for-byte
reproducibility.

Exit codes: 0 success, 2 usage error, 3 inconsistent transcript
(zero-probability conditioning), 4 internal invariant violation (also a NaN
or infinity in the results, in either format).  Argparse
reports grammar errors (an unknown flag, a bad choice) itself.  A usage error
found after parsing, such as a value the library rejects, prints exactly one
``frsim: error:`` line: handlers raise, and :func:`main` alone maps the
exception to its exit code.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

import numpy as np

from .analysis import detect_records, enumerate_exact, monte_carlo, rounds_to_halt, z_scores
from .measurement import BasisError, InconsistentOutcomeError, ResidualError
from .perspectives import (
    AGENTS,
    GIVEN_LABELS,
    Given,
    PerspectiveLimit,
    agent_model_at,
    standard_predictions,
)
from .protocol import ProtocolConfig, ProtocolVariant
from .tensor import UnitarityError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = "1"

_NOTEBOOKS = {"none": (), "fbar": ("Fbar",), "f": ("F",), "both": ("Fbar", "F")}
_AGENT_FLAGS = {agent.lower(): agent for agent in AGENTS}

# A command's variant and results; main wraps them in the ReportDocument.
Report = tuple[ProtocolVariant, dict]


@dataclass
class ReportDocument:
    """Schema-versioned result record; round-trips losslessly through JSON."""

    schema_version: str
    command: str
    variant: dict
    seed: int | None
    results: dict
    timestamps: dict | None = None

    def to_json(self) -> str:
        """The fields as canonical JSON, with a final newline.

        Keys are sorted, nesting is indented by two spaces, strings are
        ASCII with escapes, and a NaN or infinity raises ``ValueError``: the
        bytes of ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``.
        The fields are read as they stand, without a copy.
        """
        out: list[str] = []
        _write_json(vars(self), "\n", out)
        out.append("\n")
        return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as JSON.

    ``newline`` is a newline and the indent of the line ``value`` starts on;
    its items go on lines indented two spaces more.  Tuples are written as
    lists, and ``int`` and ``float`` subclasses as their base type.  Any
    other type, and a dict key that is not a string, raises ``TypeError``.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{"
        for key in sorted(value):
            out.append(f"{opener}{inner}{_quote(key)}: ")
            _write_json(value[key], inner, out)
            opener = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "["
        for item in value:
            out.append(opener + inner)
            _write_json(item, inner, out)
            opener = ","
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fraction(p: float) -> str | None:
    """``n/q`` for the smallest denominator q <= 24 within 1e-9 of ``p``, else None.

    Two fractions of denominators at most 24 lie at least 1/552 apart, so at
    most one is that close, and the smallest q finds it in lowest terms: the
    fraction ``Fraction(p).limit_denominator(24)`` gives.  NaN raises
    ``ValueError`` and an infinity ``OverflowError``.
    """
    for q in range(1, 25):  # a rendering rule, not an invariant: a miss renders no fraction
        n = round(p * q)
        if abs(n / q - p) < 1e-9:
            return f"{n}/{q}"
    return None


def _prob_entry(p: float) -> dict:
    entry: dict = {"probability": p}
    frac = _fraction(p)
    if frac is not None:
        entry["fraction"] = frac
    return entry


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--notebooks", choices=sorted(_NOTEBOOKS), default="none",
                        help="which friends keep notebooks (default none)")
    parser.add_argument("--announce", choices=("on", "off"), default="on",
                        help="announce the coin-lab outcome at t=2 (default on)")
    parser.add_argument("--cheat", action="store_true",
                        help="the coin friend's notebook is secret")
    parser.add_argument("--intrusion", action="store_true",
                        help="measure the spin directly after an ok at t=2")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the document to a file instead of stdout")
    parser.add_argument("--timestamp", action="store_true",
                        help="include a wall-clock timestamp (breaks reproducibility)")


def _variant_from_args(args: argparse.Namespace) -> ProtocolVariant:
    return ProtocolVariant(
        announce_wbar=(args.announce == "on"),
        notebooks=frozenset(_NOTEBOOKS[args.notebooks]),
        cheat=args.cheat,
        intrusion=args.intrusion,
    )


def _given_from_flag(text: str | None) -> Given:
    """Parse ``system=label,...``; :class:`Given` checks each label."""
    if not text:
        return Given()
    values: dict[str, str] = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"--given items must look like system=label, got {item!r}")
        key, label = item.split("=", 1)
        key = key.strip().lower()
        label = label.strip()
        if key not in GIVEN_LABELS:
            raise ValueError(f"--given key must be one of {sorted(GIVEN_LABELS)}, got {key!r}")
        if key in values:
            raise ValueError(f"--given key {key!r} is repeated")
        values[key] = label
    return Given(**values)


def cmd_branches(args: argparse.Namespace) -> Report:
    variant = _variant_from_args(args)
    joint = enumerate_exact(variant)
    rows = [{**key._asdict(), **_prob_entry(joint.entries[key])}
            for key in sorted(joint.entries, key=str)]
    results: dict = {"joint": rows}
    marginals = {
        "wbar_ok": _prob_entry(joint.marginal_wbar("ok")),
        "wbar_fail": _prob_entry(joint.marginal_wbar("fail")),
    }
    results["marginals"] = marginals
    conditionals: dict = {}
    if not variant.intrusion:
        conditionals["w_ok_given_wbar_ok"] = _prob_entry(joint.conditional_w("ok", "ok"))
        conditionals["w_ok_given_wbar_fail"] = _prob_entry(joint.conditional_w("ok", "fail"))
        results["halt"] = _prob_entry(joint.halt_probability)
    else:
        conditionals["up_given_wbar_ok"] = _prob_entry(joint.conditional_intrusion("up"))
    results["conditionals"] = conditionals
    return variant, results


def cmd_run(args: argparse.Namespace) -> Report:
    variant = _variant_from_args(args)
    if args.until_halt:
        if args.rounds is not None:
            raise ValueError("--rounds does not apply to --until-halt runs; cap them with --max-rounds")
        repeats = 1 if args.repeats is None else args.repeats
        config = ProtocolConfig(variant=variant, seed=args.seed)
        if args.max_rounds is not None:
            config = replace(config, max_rounds=args.max_rounds)
        lengths = rounds_to_halt(config, repeats)
        halted = lengths[lengths > 0]
        histogram = {str(n): int(count) for n, count in zip(*np.unique(halted, return_counts=True))}
        return variant, {
            "repeats": repeats,
            "max_rounds": config.max_rounds,
            "halted_runs": len(halted),
            "exhausted_runs": repeats - len(halted),
            "mean_rounds_to_halt": int(halted.sum()) / len(halted) if len(halted) else None,
            "rounds_to_halt_histogram": histogram,
        }

    for flag, value in (("--repeats", args.repeats), ("--max-rounds", args.max_rounds)):
        if value is not None:
            raise ValueError(f"{flag} applies only to --until-halt runs")
    if args.rounds is None:
        raise ValueError("--rounds is required (or use --until-halt)")
    config = ProtocolConfig(variant=variant, seed=args.seed)
    table = monte_carlo(config, args.rounds)
    exact = enumerate_exact(variant)
    scores = z_scores(table, exact)
    rows = []
    for key in sorted(set(table.counts) | set(exact.entries), key=str):
        row = {
            **key._asdict(),
            "count": table.counts.get(key, 0),
            "frequency": table.frequency(key),
            "std_error": table.std_error(key),
            "exact": exact.probability(key),
            "z": scores[key],
        }
        frac = _fraction(exact.probability(key))
        if frac is not None:
            row["exact_fraction"] = frac
        rows.append(row)
    return variant, {"rounds": args.rounds, "frequencies": rows}


def _agent_entry(agent: str, args_time: int, given: Given, variant: ProtocolVariant) -> dict:
    try:
        model = agent_model_at(agent, args_time, given, variant)
    except PerspectiveLimit as exc:
        return {"limit": str(exc)}
    except InconsistentOutcomeError:
        raise  # a zero-probability transcript is an inconsistency, not a gap
    except ValueError as exc:
        return {"undetermined": str(exc)}
    return {
        "layout": list(model.layout.names),
        "amplitudes": [{"labels": list(labels), "re": amp.real, "im": amp.imag}
                       for labels, amp in model.state.nonzero_terms()],
        "log": [list(event) for event in model.log],
        "predictions": standard_predictions(model),
    }


def cmd_perspectives(args: argparse.Namespace) -> Report:
    variant = _variant_from_args(args)
    given = _given_from_flag(args.given)
    agents = list(AGENTS) if args.agent == "all" else [_AGENT_FLAGS[args.agent]]
    entries: dict[str, dict] = {}
    for agent in agents:
        entry = _agent_entry(agent, args.t, given, variant)
        if args.agent != "all" and "undetermined" in entry:
            raise ValueError(entry["undetermined"])
        entries[agent] = entry
    return variant, {
        "time": args.t,
        "given": {k: v for k, v in vars(given).items() if v is not None},
        "agents": entries,
    }


def cmd_detect(args: argparse.Namespace) -> Report:
    notebooks = frozenset({"Fbar"}) if args.cheat else frozenset()
    variant = ProtocolVariant(
        announce_wbar=False,
        notebooks=notebooks,
        cheat=args.cheat,
        intrusion=True,
    )
    config = ProtocolConfig(variant=variant, seed=args.seed)
    report = detect_records(
        config,
        args.rounds,
        confidence=args.confidence,
        min_ok_rounds=args.min_ok,
    )
    return variant, vars(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built on the first call and shared by every later one.

    :func:`main` parses with this one parser for the life of the process, so
    callers must treat it as read-only.
    """
    parser = argparse.ArgumentParser(
        prog="frsim",
        description="Two-lab extended Wigner's-friend protocol simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_branches = sub.add_parser("branches", help="exact joint outcome distribution")
    _add_variant_flags(p_branches)
    _add_output_flags(p_branches)

    p_run = sub.add_parser("run", help="sampled rounds or repeated until-halt runs")
    _add_variant_flags(p_run)
    _add_output_flags(p_run)
    p_run.add_argument("--rounds", type=int, default=None, help="number of sampled rounds")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--until-halt", action="store_true",
                       help="repeat whole runs until the halting condition")
    p_run.add_argument("--repeats", type=int, default=None,
                       help="number of independent until-halt runs (default 1)")
    p_run.add_argument("--max-rounds", type=int, default=None,
                       help="round cap of each until-halt run (default 10000)")

    p_persp = sub.add_parser("perspectives", help="per-agent states and predictions")
    _add_variant_flags(p_persp)
    _add_output_flags(p_persp)
    p_persp.add_argument("--t", type=int, required=True, choices=(0, 1, 2, 3),
                         help="protocol time step")
    p_persp.add_argument("--agent", choices=sorted(_AGENT_FLAGS) + ["all"], default="all")
    p_persp.add_argument("--given", default=None,
                         help="comma-separated outcomes, e.g. wbar=ok,s=up")

    p_detect = sub.add_parser("detect", help="interaction-free record detection")
    _add_output_flags(p_detect)
    p_detect.add_argument("--cheat", action="store_true",
                          help="the coin friend secretly keeps a notebook")
    p_detect.add_argument("--rounds", type=int, required=True)
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--min-ok", type=int, default=30,
                          help="minimum post-selected ok rounds for a decision")
    p_detect.add_argument("--confidence", type=float, default=0.99)

    return parser


_HANDLERS = {
    "branches": cmd_branches,
    "run": cmd_run,
    "perspectives": cmd_perspectives,
    "detect": cmd_detect,
}


def _format_probability(p: float) -> str:
    frac = _fraction(p)
    return f"{p:.17g}" + (f"  ({frac})" if frac else "")


def render_text(doc: ReportDocument) -> str:
    lines = [f"command: {doc.command}   schema: {doc.schema_version}"]
    variant = doc.variant
    lines.append(
        "variant: notebooks={} announce={} cheat={} intrusion={}".format(
            ",".join(variant["notebooks"]) or "none",
            "on" if variant["announce_wbar"] else "off",
            "on" if variant["cheat"] else "off",
            "on" if variant["intrusion"] else "off",
        )
    )
    if doc.seed is not None:
        lines.append(f"seed: {doc.seed}")
    results = doc.results
    if doc.command == "branches":
        lines.append(f"{'wbar':6} {'w':6} {'intrusion':9}  probability")
        for row in results["joint"]:
            lines.append(
                f"{row['wbar'] or '-':6} {row['w'] or '-':6} "
                f"{row['intrusion'] or '-':9}  {_format_probability(row['probability'])}"
            )
        for name, entry in {**results["marginals"], **results["conditionals"]}.items():
            lines.append(f"P({name}) = {_format_probability(entry['probability'])}")
        if "halt" in results:
            lines.append(f"P(halt per round) = {_format_probability(results['halt']['probability'])}")
    elif doc.command == "run" and "frequencies" in results:
        lines.append(f"rounds: {results['rounds']}")
        lines.append(f"{'wbar':6} {'w':6} {'intrusion':9} {'count':>8} "
                     f"{'frequency':>12} {'exact':>12} {'z':>8}")
        for row in results["frequencies"]:
            lines.append(
                f"{row['wbar'] or '-':6} {row['w'] or '-':6} {row['intrusion'] or '-':9} "
                f"{row['count']:>8} {row['frequency']:>12.6f} {row['exact']:>12.6f} "
                f"{row['z']:>8.2f}"
            )
    elif doc.command == "run":
        lines.append(
            "until-halt repeats: {repeats}  halted: {halted_runs}  "
            "exhausted: {exhausted_runs}".format(**results)
        )
        mean = results["mean_rounds_to_halt"]
        lines.append(f"mean rounds to halt: {mean if mean is None else format(mean, '.6f')}")
    elif doc.command == "perspectives":
        lines.append(f"time: t={results['time']}  given: {results['given'] or '{}'}")
        for agent, entry in results["agents"].items():
            lines.append(f"agent {agent}:")
            if "limit" in entry:
                lines.append(f"  PERSPECTIVE LIMIT: {entry['limit']}")
                continue
            if "undetermined" in entry:
                lines.append(f"  undetermined: {entry['undetermined']}")
                continue
            lines.append(f"  layout: ({', '.join(entry['layout'])})")
            for row in entry["amplitudes"]:  # every amplitude of the schedule is real
                lines.append(f"    {row['re']:+.9f}  |{','.join(row['labels'])}>")
            for name, probs in entry["predictions"].items():
                shown = "  ".join(f"{label}={p:.9g}" for label, p in probs.items())
                lines.append(f"  predict {name}: {shown}")
    elif doc.command == "detect":
        lines.extend(f"{key}: {value}" for key, value in results.items())
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        variant, results = _HANDLERS[args.command](args)
    except InconsistentOutcomeError as exc:
        print(f"inconsistent transcript: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ResidualError, BasisError, UnitarityError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, MemoryError) as exc:  # a rejected value, or a count too large to hold
        print(f"frsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = ReportDocument(
        schema_version=SCHEMA_VERSION,
        command=args.command,
        variant={**vars(variant), "notebooks": sorted(variant.notebooks)},
        seed=vars(args).get("seed"),
        results=results,
        timestamps={"unix_epoch_seconds": time.time()} if args.timestamp else None,
    )
    try:  # the JSON is written in either format: it rejects a NaN or infinity
        rendered = doc.to_json()
        if args.format == "text":
            rendered = render_text(doc)
    except ValueError as exc:  # a NaN or infinity among the results
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:  # an unwritable --out is a usage error
            print(f"frsim: error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
