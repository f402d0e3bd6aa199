"""The in-process workloads: simulation runs driven through ``Simulator``.

A workload is an endless sequence of *units*; a unit is a short list of
runs (one per protocol of the workload) whose seeds derive from the
benchmark's ``--seed`` and the unit's index.  The loop in ``run.py``
plays units until the measuring time is used up, then replays exactly the
same units with tracing on.

Every run is checked (``check_run``) and every check counts into
``correct_fraction``; a run that raises is a failed check, not a dropped
run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class RunSpec:
    """One simulation run as the program receives it."""

    protocol: str
    n: int
    seed: int
    budget: int
    #: Convergence-check cadence; ``None`` runs without a predicate.
    check_interval: Optional[int]
    confirm_checks: int
    #: ``"predicate"``: the registry predicate must hold at the end.
    #: ``"budget"``: the run must stop on its budget with n agents counted.
    check: str


def unit_seed(seed: int, workload: str, index: int, part: str) -> int:
    """A 63-bit run seed derived from the benchmark seed (stable across runs)."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}/{part}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _policy_run(
    builtin: str, protocol: str, n: int, seed: int
) -> RunSpec:
    """A run to the registry predicate under a builtin sweep's policy."""
    from repro.experiments.builtin import resolve_builtin

    spec = resolve_builtin(builtin)
    return RunSpec(
        protocol=protocol,
        n=n,
        seed=seed,
        budget=spec.budget.budget(n),
        check_interval=spec.check_interval(n),
        confirm_checks=spec.confirm_checks,
        check="predicate",
    )


def _budget_run(protocol: str, n: int, seed: int, interactions: int) -> RunSpec:
    return RunSpec(
        protocol=protocol,
        n=n,
        seed=seed,
        budget=interactions,
        check_interval=None,
        confirm_checks=1,
        check="budget",
    )


@dataclass(frozen=True)
class InProcessWorkload:
    name: str
    #: ``(protocol, n)`` pairs a unit runs, in order (the set-up probe
    #: builds exactly these).
    runs: List[Any]
    make_unit: Callable[[int, int], List[RunSpec]]

    def units(self, seed: int) -> Iterator[List[RunSpec]]:
        index = 0
        while True:
            yield self.make_unit(seed, index)
            index += 1


#: Theorem 1 / Theorem 2 protocols at a small n, run to a correct count.
SMALL_N = 128
#: Paper-scale population and the fixed interactions per run there (one
#: parallel-time unit: every agent interacts about twice).
PAPER_N = 100_000
PAPER_INTERACTIONS = 100_000
#: Backup counters: nearly every interaction is a no-op (geometric skips).
#: Sizes are small enough for a run to hold about thirty units, because
#: their interaction counts vary widely from seed to seed (``backup-exact``
#: by about 40% at n = 200: the last absorptions are waiting times).
BACKUP_APPROX_N = 1_000
BACKUP_EXACT_N = 200


def _counting_small(seed: int, index: int) -> List[RunSpec]:
    return [
        _policy_run(
            "theorem-1", "approximate", SMALL_N,
            unit_seed(seed, "counting-small", index, "approximate"),
        ),
        _policy_run(
            "theorem-2", "count-exact", SMALL_N,
            unit_seed(seed, "counting-small", index, "count-exact"),
        ),
    ]


def _counting_paper_scale(seed: int, index: int) -> List[RunSpec]:
    return [
        _budget_run(
            protocol, PAPER_N,
            unit_seed(seed, "counting-paper-scale", index, protocol),
            PAPER_INTERACTIONS,
        )
        for protocol in ("approximate", "count-exact")
    ]


def _backup_sparse(seed: int, index: int) -> List[RunSpec]:
    return [
        _policy_run(
            "counting-curve", "backup-approximate", BACKUP_APPROX_N,
            unit_seed(seed, "backup-sparse", index, "backup-approximate"),
        ),
        _policy_run(
            "backup-profile", "backup-exact", BACKUP_EXACT_N,
            unit_seed(seed, "backup-sparse", index, "backup-exact"),
        ),
    ]


WORKLOADS: Dict[str, InProcessWorkload] = {
    workload.name: workload
    for workload in (
        InProcessWorkload(
            "counting-small",
            [("approximate", SMALL_N), ("count-exact", SMALL_N)],
            _counting_small,
        ),
        InProcessWorkload(
            "counting-paper-scale",
            [("approximate", PAPER_N), ("count-exact", PAPER_N)],
            _counting_paper_scale,
        ),
        InProcessWorkload(
            "backup-sparse",
            [("backup-approximate", BACKUP_APPROX_N), ("backup-exact", BACKUP_EXACT_N)],
            _backup_sparse,
        ),
    )
}


# ------------------------------------------------------------------ checks
def check_run(spec: RunSpec, result: Any, predicate: Optional[Callable]) -> Optional[str]:
    """``None`` when the run's output is correct, else the reason it is not."""
    counted = sum(result.output_counts.values())
    if counted != spec.n:
        return f"output histogram counts {counted} agents, expected {spec.n}"
    if spec.check == "budget":
        if result.stopped_reason != "budget" or result.interactions != spec.budget:
            return (
                f"expected to stop on the budget of {spec.budget} interactions, "
                f"stopped ({result.stopped_reason}) after {result.interactions}"
            )
        return None
    if not predicate(result.output_counts):
        return (
            f"the {spec.protocol} predicate does not hold at the end "
            f"({result.stopped_reason} after {result.interactions} interactions)"
        )
    return None


# -------------------------------------------------------------------- runs
@dataclass
class RunOutcome:
    spec: RunSpec
    error: Optional[str]
    #: Wall time of build + construction + run + check.
    wall_s: float
    #: ``SimulationResult.wall_time_s`` (the engine's own ``run`` time).
    run_s: float
    interactions: int
    telemetry: Optional[Dict[str, Any]]


def execute_run(spec: RunSpec, wrap_predicate: Optional[Callable] = None) -> RunOutcome:
    """Build, construct, run and check one simulation run.

    ``wrap_predicate`` (traced pass) wraps the registry predicate before it
    is handed to ``Simulator.run``; the end-of-run check always uses the
    unwrapped predicate.
    """
    from repro.engine import Simulator
    from repro.experiments.registry import resolve_protocol

    started = time.perf_counter()
    try:
        entry = resolve_protocol(spec.protocol)
        protocol = entry.build(spec.n, {})
        predicate = entry.convergence(spec.n, {})
        simulator = Simulator(protocol, spec.n, seed=spec.seed, backend="auto")
        run_predicate = None
        if spec.check_interval is not None:
            run_predicate = wrap_predicate(predicate) if wrap_predicate else predicate
        result = simulator.run(
            max_interactions=spec.budget,
            convergence=run_predicate,
            check_interval=spec.check_interval,
            confirm_checks=spec.confirm_checks,
        )
        error = check_run(spec, result, predicate)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        return RunOutcome(
            spec, f"{type(exc).__name__}: {exc}",
            time.perf_counter() - started, 0.0, 0, None,
        )
    return RunOutcome(
        spec,
        error,
        time.perf_counter() - started,
        result.wall_time_s,
        result.interactions,
        result.extra.get("telemetry"),
    )
