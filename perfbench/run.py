"""frsim benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``sampled_rounds``, ``exact_states``, ``cli_calls`` (see
README.md).  The named workload runs whole rounds until ``--seconds`` have
passed.  With ``--trace 0`` the last line of standard output is a JSON
summary of every end-to-end metric; each figure is a median over rounds,
scaled to a reference host speed (``speed.py``).
The metrics that belong to the two other workloads come from a fixed
number of their rounds run after the measured loop, so that every run
reports all of them.  With ``--trace 1`` the run alternates untraced and
traced rounds of the named workload alone, and reports per-layer counters
and the tracing overhead.  The lines before the summary are a result
document with the machine, versions, inputs, sample counts and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import ProcessClock, SpeedMeter  # noqa: E402

WORKLOAD_NAMES = ("sampled_rounds", "exact_states", "cli_calls")
SETUP_REPEATS = 3
PROBE_ROUNDS = {"sampled_rounds": 6, "exact_states": 14}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "mc_rounds_per_s": "1/s",
    "halt_runs_per_s": "1/s",
    "detect_rounds_per_s": "1/s",
    "enumerations_per_s": "1/s",
    "agent_models_per_s": "1/s",
    "reference_rounds_per_s": "1/s",
    "cli_branches_s": "s",
    "cli_run_rounds_s": "s",
    "cli_run_until_halt_s": "s",
    "cli_perspectives_s": "s",
    "cli_detect_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every per-round size; below 1 only for self-checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_record() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"
    uname = platform.uname()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "system": f"{uname.system} {uname.release} {uname.machine}",
        "commit": commit,
    }


def summarize(samples: list[float]) -> dict:
    out = {"value": median(samples), "samples": len(samples)}
    if len(samples) >= 2:
        q1, _, q3 = quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure_setup(args: argparse.Namespace) -> tuple[float, None]:
    """Seconds from starting a fresh interpreter until the workload is ready."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--scale", str(args.scale)]
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    _, err = proc.communicate()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
    return elapsed, None


def import_times() -> dict[str, float]:
    """Cumulative import seconds of frsim and of scipy, from ``-X importtime``."""
    import workloads

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import frsim"], cwd=ROOT,
                          env=workloads.cli_env(), capture_output=True, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    frsim_s = scipy_s = 0.0
    for i, (depth, name, seconds) in enumerate(entries):
        if name == "frsim":
            frsim_s = seconds
        # importtime lists children before their parent: the parent is the
        # next entry that is less deeply nested.
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if is_scipy(name) and not is_scipy(parent):
            scipy_s += seconds
    return {"cli.import_frsim_s": frsim_s, "analysis.import_scipy_s": scipy_s}


def plain_run(args, inputs, checks) -> tuple[dict, int, int, dict]:
    import workloads

    state = workloads.prepare(inputs, set(WORKLOAD_NAMES))
    meter = SpeedMeter()
    clock = ProcessClock(ROOT)
    setup = [clock.measure(lambda: measure_setup(args))[0] for _ in range(SETUP_REPEATS)]
    runners = {name: cls(inputs, state, checks, meter) for name, cls in workloads.WORKLOADS.items()}

    samples: dict[str, list[float]] = {"setup_s": setup}
    attempted = failed = rounds = 0
    deadline = perf_counter() + args.seconds
    while True:
        metrics, a, f = runners[args.workload].round(rounds)
        attempted, failed, rounds = attempted + a, failed + f, rounds + 1
        for name, values in metrics.items():
            samples.setdefault(name, []).extend(values)
        if perf_counter() >= deadline:
            break
    for name, runner in runners.items():
        if name == args.workload:
            continue
        if name == "cli_calls":
            probe = [runner.round(10**6, timed_only=True)[0]]
        else:
            probe = [runner.round(10**6 + i)[0] for i in range(PROBE_ROUNDS[name])]
        for metrics in probe:
            for metric, values in metrics.items():
                samples.setdefault(metric, []).extend(values)
    runners["sampled_rounds"].check_reproducible()
    if args.workload == "cli_calls":
        runners["cli_calls"].fresh_pass()
    samples["peak_rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]

    metrics = {name: dict(summarize(samples[name]), unit=unit)
               for name, unit in END_TO_END_UNITS.items()}
    details = {name: runner.finish() for name, runner in runners.items()}
    details["rounds"] = rounds
    details["host_speed"] = summarize(meter.readings)
    details["setup_process_speed"] = sorted(clock.readings)
    return metrics, attempted, failed, details


def traced_run(args, inputs, checks) -> tuple[dict, int, int, dict]:
    import workloads
    from layertrace import Tracer, per_layer_metrics

    tracer = Tracer()
    meter = SpeedMeter()
    tracer.install()
    try:
        state = workloads.prepare(inputs, {args.workload})
    finally:
        tracer.uninstall()
    runner = workloads.WORKLOADS[args.workload](inputs, state, checks, meter)
    untraced, traced = [], []
    attempted = failed = k = 0
    deadline = perf_counter() + args.seconds
    while True:
        for walls, install in ((untraced, False), (traced, True)):
            if install:
                tracer.install()
            try:
                speed = meter.measure()
                start = perf_counter()
                _, a, f = runner.round(k)
                walls.append((perf_counter() - start) * (speed + meter.measure()) / 2)
            finally:
                if install:
                    tracer.uninstall()
            attempted, failed, k = attempted + a, failed + f, k + 1
        if perf_counter() >= deadline:
            break
    overhead = median(traced) / median(untraced) - 1.0
    values = per_layer_metrics(tracer)
    values["trace.traced_rounds"] = (len(traced), "count")
    values["tracing.overhead_pct"] = (100.0 * overhead, "%")
    for name, seconds in import_times().items():
        values[name] = (seconds, "s")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    details = {"untraced_round_s": summarize(untraced), "traced_round_s": summarize(traced),
               "host_speed": summarize(meter.readings), "finish": runner.finish()}
    return metrics, attempted, failed, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import frsim  # fails here when the program is missing

    if ROOT / "src" not in Path(frsim.__file__).resolve().parents:
        sys.exit(f"frsim was imported from {frsim.__file__}, not from this checkout's src/")

    import oracle
    import workloads

    inputs = workloads.make_inputs(args.seed, args.scale)
    if args.setup_probe:
        workloads.prepare(inputs, set(WORKLOAD_NAMES))
        print("ready", flush=True)
        return 0

    checks = workloads.Checks()
    for problem in oracle.self_check():
        checks.expect(False, f"hand expansion: {problem}")
    run = traced_run if args.trace else plain_run
    metrics, attempted, failed, details = run(args, inputs, checks)

    document = {
        "benchmark": "frsim perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine_record(),
        "inputs": {
            "program_seed": inputs.program_seed,
            "sizes": inputs.sizes,
            "mc_variants": [workloads.describe(s) for s in inputs.mc_variants],
            "halt_variants": [workloads.describe(s) for s in inputs.halt_variants],
            "sweep_inputs": len(inputs.sweep),
        },
        "attempted": attempted,
        "failed": failed,
        "failed_checks": checks.failures,
        "metrics": metrics,
        "details": details,
    }
    print(json.dumps(document, indent=1, sort_keys=True, default=str))
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    summary = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
