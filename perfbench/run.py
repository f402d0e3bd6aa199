"""The repository's benchmark: one command, every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload counting-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced for ``--seconds`` and prints
the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` measures an
untraced pass for half of ``--seconds``, then replays exactly the same
units with spans around the library's public calls (see ``tracing.py`` and
``layers.py``) and prints the per-layer metrics, the time no span covers,
and the tracing overhead (traced over untraced wall time of those units).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the provenance.  Both, plus per-unit details (and the spans of a
traced pass), are written under ``.bench_out/`` in the repository root.
The exit code is 0 whenever the measurement ran, so that a caller always
gets the result line: a failed output check shows as ``"correct": false``
with its count in ``failed``, and each failure is printed on standard
error.  The exit code is 2, with no result printed, when the benchmark
cannot run at all (for example without the library sources).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
import served  # noqa: E402
import workloads as inproc  # noqa: E402

SERVED = "served-sweep"
WORKLOAD_NAMES = list(inproc.WORKLOADS) + [SERVED]
#: Fresh-interpreter set-up probes per run, spread evenly through the
#: measuring time (the median of all of them is reported).
SETUP_PROBES = 10
#: Server + worker starts per served run, half before and half after the
#: measured jobs (their median is reported).
SERVED_STARTS = 4
#: ``cached_cells_per_s`` of a workload that serves no cells from a cache
#: (the in-process ones): a fixed placeholder, as every end-to-end metric is
#: printed on every workload and none may read 0.
NOT_SERVED = 1.0
#: Units (or served jobs) every untraced run measures, however long they take.
MIN_UNITS = 3
#: A traced replay starts no unit that would take it past this many times
#: the untraced pass's measuring time (keeps a traced run within its limit).
TRACE_BUDGET_FACTOR = 4


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ----------------------------------------------------------------- set-up
def load_definition() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def require_sources() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchmarkError(f"no library sources under {SRC}; nothing to measure")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def build() -> None:
    """Byte-compile the sources so no measured import pays for compilation."""
    if not compileall.compile_dir(SRC, quiet=1):
        raise BenchmarkError("compiling the library sources failed")


def probe_setup(runs: List[Any], served_mode: bool) -> float:
    """Import + protocol build + ``Simulator`` construction in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    command = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    if served_mode:
        command.append("--served")
    command += [f"{protocol}:{n}" for protocol, n in runs]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{completed.stderr}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


class SetupProbes:
    """Set-up probes spread evenly through a run's measuring time.

    The machine's speed drifts by tens of percent over seconds to minutes,
    and a probe lasts a fraction of a second.  Probes taken between the
    measured units, on a schedule of one per ``seconds / SETUP_PROBES`` of
    measuring time, see the same mix of speeds as the units themselves;
    probes bunched at the start and end of a run see only those instants.
    """

    def __init__(self, runs: List[Any], served_mode: bool, seconds: float) -> None:
        self.runs = runs
        self.served_mode = served_mode
        self.every_s = seconds / SETUP_PROBES
        self.times: List[float] = []

    def catch_up(self, spent: float) -> None:
        """Take the probes due after ``spent`` seconds of measuring."""
        due = min(SETUP_PROBES, 1 + int(spent / self.every_s))
        while len(self.times) < due:
            self.times.append(probe_setup(self.runs, self.served_mode))

    def median(self) -> float:
        """The median probe, after taking any not yet taken."""
        self.catch_up(self.every_s * SETUP_PROBES)
        return statistics.median(self.times)


def provenance(seed: int) -> Dict[str, Any]:
    import numpy
    from repro.fingerprint import code_fingerprint

    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": nproc,
        "code_fingerprint": code_fingerprint(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -------------------------------------------------------- in-process passes
def time_is_up(
    spent: float, units: int, seconds: float, min_units: int = MIN_UNITS
) -> bool:
    """Whether to stop before another unit, after ``spent`` seconds of units.

    Never before ``min_units`` units, so that a few units far off the others
    (a run that never reaches its predicate spends its whole budget) weigh
    less.  After that, stops once ``seconds`` have passed, or when half of a
    typical unit would already run past them: a run then ends within half a
    unit of ``seconds`` instead of always overrunning by up to a whole unit.
    """
    if units < min_units:
        return False
    return spent >= seconds or spent + 0.5 * spent / units >= seconds


def play_units(
    workload: Any, seed: int, seconds: float, min_units: int,
    probes: Optional[SetupProbes] = None,
) -> "tuple[List[List[Any]], List[float]]":
    """Untraced pass: whole units for about ``seconds``.

    ``probes`` take their due set-up probes between units.  Returns the
    units and each unit's elapsed time.
    """
    units: List[List[Any]] = []
    elapsed: List[float] = []
    for specs in workload.units(seed):
        unit_started = time.perf_counter()
        outcomes = [inproc.execute_run(spec) for spec in specs]
        elapsed.append(time.perf_counter() - unit_started)
        for outcome in outcomes:
            outcome.telemetry = None  # only the traced pass reads it
        units.append(outcomes)
        if probes is not None:
            probes.catch_up(sum(elapsed))
        if time_is_up(sum(elapsed), len(units), seconds, min_units):
            break
    return units, elapsed


def replay_units(
    units: List[List[Any]], tracer: Any,
    untraced_elapsed: Optional[List[float]] = None, budget_s: Optional[float] = None,
) -> "tuple[List[List[Any]], List[float]]":
    """Traced pass over the units the untraced pass played, in order.

    With ``budget_s``, a unit after the first is replayed only while the
    pass is predicted to stay within the budget (from the traced-over-
    untraced ratio so far), so one unusually long unit cannot push the run
    past its time limit.  Returns the replayed units and their elapsed times.
    """
    def wrap_predicate(predicate: Any) -> Any:
        return tracer.wrap("engine.convergence.predicate", predicate)

    replayed: List[List[Any]] = []
    elapsed: List[float] = []
    for index, unit in enumerate(units):
        if replayed and budget_s is not None and untraced_elapsed is not None:
            ratio = sum(elapsed) / sum(untraced_elapsed[: len(elapsed)])
            if sum(elapsed) + ratio * untraced_elapsed[index] > budget_s:
                break
        tracer.run_id = f"unit-{index:04d}"
        unit_started = time.perf_counter()
        outcomes = [inproc.execute_run(o.spec, wrap_predicate) for o in unit]
        elapsed.append(time.perf_counter() - unit_started)
        replayed.append(outcomes)
    tracer.run_id = None
    return replayed, elapsed


def _geometric_mean(values: List[float]) -> float:
    positive = [value for value in values if value > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(value) for value in positive) / len(positive))


def inprocess_metrics(units: List[List[Any]]) -> Dict[str, float]:
    outcomes = [outcome for unit in units for outcome in unit]
    rates = []
    for protocol in dict.fromkeys(o.spec.protocol for o in outcomes):
        mine = [o for o in outcomes if o.spec.protocol == protocol]
        run_s = sum(o.run_s for o in mine)
        if run_s > 0:
            rates.append(sum(o.interactions for o in mine) / run_s)
    return {
        # Mean, not median: a unit's time to the predicate has two modes
        # (the approximate runs end at one of a few checkpoints).
        "wall_s": statistics.fmean(sum(o.wall_s for o in unit) for unit in units),
        "interactions_per_s": _geometric_mean(rates),
        # Median, not mean: the first run of a process also fills lazy
        # caches (a one-off cost of about 10 ms).
        "served_overhead_ms_per_cell": statistics.median(
            1000.0 * (o.wall_s - o.run_s) for o in outcomes
        ),
        # No warm resubmission runs in-process: see NOT_SERVED.
        "cached_cells_per_s": NOT_SERVED,
    }


def run_inprocess(name: str, seed: int, seconds: float, trace: bool,
                  out_dir: str, report: Dict[str, Any],
                  probes: Optional[SetupProbes]) -> Dict[str, Any]:
    workload = inproc.WORKLOADS[name]
    # A traced run reports no end-to-end figures, so it needs no floor.
    units, elapsed = play_units(
        workload, seed, seconds, 1 if trace else MIN_UNITS, probes
    )
    outcomes = [outcome for unit in units for outcome in unit]
    failures = [
        f"{o.spec.protocol} n={o.spec.n} seed={o.spec.seed}: {o.error}"
        for o in outcomes
        if o.error
    ]
    report["units"] = [
        [
            {
                "protocol": o.spec.protocol, "n": o.spec.n, "seed": o.spec.seed,
                "wall_s": o.wall_s, "run_s": o.run_s,
                "interactions": o.interactions, "error": o.error,
            }
            for o in unit
        ]
        for unit in units
    ]
    result = {
        "metrics": inprocess_metrics(units),
        "attempted": len(outcomes),
        "failures": failures,
    }
    if trace:
        result["traced"] = layers.traced_inprocess(
            units, elapsed, replay_units, TRACE_BUDGET_FACTOR * seconds, out_dir
        )
    return result


# ------------------------------------------------------------ served passes
def play_served(harness: Any, seed: int, seconds: float, tracer: Any = None,
                count: Optional[int] = None,
                probes: Optional[SetupProbes] = None) -> List[Any]:
    """Closed-loop jobs for about ``seconds`` (or exactly ``count`` jobs).

    ``probes`` take their due set-up probes between jobs.
    """
    from repro.experiments import runner

    execute = runner.execute_cell
    if tracer is not None:
        execute = tracer.wrap("bench.check.reference_execute_cell", execute)

    def reference(spec: Any) -> Dict[str, Any]:
        return served.reference_document(spec, execute)

    iterations = []
    spent = 0.0
    index = 0
    while True:
        if tracer is not None:
            tracer.run_id = f"job-{index:04d}"
        started = time.perf_counter()
        iterations.append(harness.iteration(seed, index, reference, tracer))
        spent += time.perf_counter() - started
        index += 1
        if probes is not None:
            probes.catch_up(spent)
        if count is not None:
            if index >= count:
                break
        elif time_is_up(spent, index, seconds):
            break
    if tracer is not None:
        tracer.run_id = None
    return iterations


def served_metrics(iterations: List[Any]) -> Dict[str, float]:
    done = [it for it in iterations if it.cold_s > 0 and it.warm_s] or iterations
    run_s = sum(it.run_s for it in done)
    warm_cells = sum(it.cells * len(it.warm_s) for it in done)
    warm_s = sum(sum(it.warm_s) for it in done)
    return {
        # Median, not mean: now and then one cell runs several times longer
        # than the rest, and a run holds only three to seven jobs.
        "wall_s": statistics.median(
            it.cold_s + statistics.fmean(it.warm_s or [0.0]) for it in done
        ),
        "interactions_per_s": sum(it.interactions for it in done) / run_s if run_s else 0.0,
        "served_overhead_ms_per_cell": statistics.median(
            1000.0 * (it.cold_s - it.cell_wall_s) / it.cells for it in done
        ),
        "cached_cells_per_s": warm_cells / warm_s if warm_s > 0 else 0.0,
    }


def run_served(seed: int, seconds: float, trace: bool,
               out_dir: str, report: Dict[str, Any],
               probes: Optional[SetupProbes]) -> Dict[str, Any]:
    harness = served.ServedHarness(ROOT, out_dir)

    def restarts(count: int) -> List[float]:
        times = []
        for _ in range(count):
            harness.stop()
            times.append(harness.start())
        return times

    try:
        # A traced run reports no set-up time: one start is enough.
        starts = restarts(1 if trace else SERVED_STARTS // 2)
        started = time.perf_counter()
        iterations = play_served(harness, seed, seconds, probes=probes)
        untraced_wall = time.perf_counter() - started  # no probes when traced
        if not trace:
            starts += restarts(SERVED_STARTS - len(starts))
        report["served_start_s"] = starts
        report["units"] = [
            {k: v for k, v in vars(it).items() if k != "cold_artifact"}
            for it in iterations
        ]
        result = {
            "metrics": served_metrics(iterations),
            "attempted": sum(it.checks for it in iterations),
            "failures": [error for it in iterations for error in it.errors],
            "setup_extra_s": statistics.median(starts),
        }
        if trace:
            result["traced"] = layers.traced_served(
                harness, seed, len(iterations), play_served, untraced_wall, out_dir
            )
    finally:
        harness.stop()
        shutil.rmtree(harness.cache_dir, ignore_errors=True)
    result["worker_peak_mb"] = harness.worker_peak_mb
    return result


# ------------------------------------------------------------- one workload
def warm_imports() -> None:
    """Import what the timed phase calls, so no unit pays for the imports
    (their cost is part of ``setup_s``, measured in fresh interpreters)."""
    import repro.engine  # noqa: F401
    import repro.experiments.builtin  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.server.app  # noqa: F401
    import repro.server.worker  # noqa: F401
    from repro.fingerprint import code_fingerprint

    code_fingerprint()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    out_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    report: Dict[str, Any] = {"workload": name, "seconds": seconds, "trace": trace}
    served_mode = name == SERVED
    if served_mode:
        setup_runs = [("count-exact", max(served.SERVED_NS))]
    else:
        setup_runs = inproc.WORKLOADS[name].runs
    # A traced run spends half its time untraced and replays those units
    # traced (which takes longer); its end-to-end figures, set-up time
    # included, are not reported.
    measure_s = seconds / 2 if trace else seconds
    probes = None if trace else SetupProbes(setup_runs, served_mode, measure_s)
    if probes is not None:
        probes.catch_up(0.0)
    warm_imports()
    if served_mode:
        result = run_served(seed, measure_s, trace, out_dir, report, probes)
    else:
        result = run_inprocess(name, seed, measure_s, trace, out_dir, report, probes)
    metrics = result["metrics"]
    attempted = result["attempted"]
    failures = list(result["failures"])
    if trace:
        # The traced pass checks every run it replays again.
        attempted += result["traced"]["attempted"]
        failures += result["traced"]["failures"]
        report["per_layer"] = result["traced"]["metrics"]
    if probes is not None:
        metrics["setup_s"] = probes.median() + result.get("setup_extra_s", 0.0)
        report["setup_probe_s"] = probes.times
    metrics["correct_fraction"] = (attempted - len(failures)) / attempted
    metrics["peak_rss_mb"] = peak_rss_mb() + result.get("worker_peak_mb", 0.0)
    report["end_to_end"] = metrics
    report["failures"] = failures
    report["out_dir"] = out_dir
    return {"report": report, "attempted": attempted, "failed": len(failures)}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        definition = load_definition()
        require_sources()
        build()
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ImportError, RuntimeError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    report = outcome["report"]
    section = "per_layer" if args.trace else "end_to_end"
    values = report[section]
    declared = {metric["name"]: metric["unit"] for metric in definition[section]}
    if set(values) != set(declared):
        print(
            f"perfbench: measured {sorted(values)} but BENCHMARK.json declares "
            f"{sorted(declared)}",
            file=sys.stderr,
        )
        return 2
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }
    record = {"provenance": provenance(args.seed), **report, "result": result}
    path = os.path.join(
        report["out_dir"], f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    threading.current_thread().name = "bench-main"
    raise SystemExit(main())
