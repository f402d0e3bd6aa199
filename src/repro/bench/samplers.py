"""Sampler-strategy benchmark: scan vs alias vs Fenwick on the batch backend.

Four workloads exercise the regimes the ``sampler=`` knob was built for:

* ``backup-exact`` at ``n in {10^3, 10^4}`` — the paper's wide-table Õ(n²)
  protocol.  Every applied event changes the key histogram, so the active
  pair-type table churns on nearly every draw: the alias table thrashes
  (O(P) rebuild per event) and the scan pays O(P) per draw, while the
  Fenwick tree pays O(log P) — the motivating case from the ROADMAP.
* ``backup-exact`` under *recount churn* — the PR 3 scenario shape
  (periodic 10% replace + detected-membership restart), which piles
  population-level table churn on top of the per-event churn.
* ``approximate`` (dense regime) — the composed counting stack samples the
  key histogram itself; many interactions are no-ops at key level, so the
  alias table amortises across draws.  Fenwick must stay within 10% here
  for ``auto``'s switch to be safe.
* ``static-table`` — a synthetic pruning protocol whose transitions swap
  the two keys, leaving the configuration (and therefore the weight table)
  untouched forever: the alias strategy's best case (build once, O(1) draws)
  and the workload that shows why ``auto`` *stays* on alias when nothing
  churns.

Each workload runs once per knob value (``scan``, ``alias``, ``fenwick``,
``auto``) with a shared interaction budget, so wall time is end-to-end and
apples-to-apples.  The headline checks the acceptance criteria: Fenwick
beats scan *and* alias on churning ``backup-exact`` at ``n = 10^4``, and the
``auto`` default stays within 10% of alias on static-weight workloads
(where it keeps the alias strategy).
"""

from __future__ import annotations

import json
import platform
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..counting.backup import ExactBackupProtocol
from ..engine.protocol import Protocol
from ..engine.samplers import SAMPLER_NAMES
from ..engine.simulator import simulate
from ..engine.vectorized import numpy_available
from ..experiments.registry import resolve_protocol
from ..experiments.spec import BudgetPolicy
from ..scenarios.events import expand_events
from ..scenarios.spec import EventSpec

__all__ = [
    "SamplerBenchCase",
    "SamplerBenchEntry",
    "StaticTableProtocol",
    "sampler_cases",
    "run_sampler_benchmark",
    "write_report",
]

#: Knob values every case runs under (the engine's registry, forced
#: strategies first so a strategy added there is benchmarked automatically;
#: the NumPy-backed "vector" strategy only when NumPy is importable).
SAMPLER_STRATEGIES = tuple(
    name
    for name in SAMPLER_NAMES
    if name != "auto" and (name != "vector" or numpy_available())
) + ("auto",)

#: Acceptance tolerances of the headline (see module docstring).
STATIC_TOLERANCE = 1.10
HEADLINE_CASE = "backup-exact-churn"
HEADLINE_N = 10_000


class StaticTableProtocol(Protocol):
    """Synthetic pruning-regime protocol with a permanently static table.

    ``keys`` state classes, every ordered pair declared active (a deliberate
    ``can_interaction_change`` overestimate) and every transition swapping
    the two keys — configuration-preserving, so the ``keys^2``-entry
    pair-weight table is built once and never changes.  Every interaction is
    one sampler draw and nothing else: the closest an end-to-end run gets to
    a draw-only microbenchmark, and the alias strategy's best case.
    """

    name = "static-table"

    def __init__(self, keys: int = 40) -> None:
        self.keys = keys

    def initial_state(self, agent_id: int) -> int:
        return agent_id % self.keys

    def transition(self, initiator: int, responder: int, rng: random.Random) -> None:
        raise NotImplementedError("static-table runs on the batch backend only")

    def output(self, state: int) -> int:
        return 0

    def state_key(self, state: int) -> Hashable:
        return state

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        return True

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        return key_b, key_a

    def output_key(self, key: Hashable) -> int:
        return 0

    def initial_key_counts(self, n: int) -> Counter:
        counts: Counter = Counter()
        for agent_id in range(n):
            counts[agent_id % self.keys] += 1
        return counts


@dataclass
class SamplerBenchCase:
    """One sampler-benchmark workload (run once per strategy knob)."""

    case: str
    protocol_name: str
    make_protocol: Callable[[int], Protocol]
    regime: str
    n: int
    max_interactions: int
    events: Optional[List[EventSpec]] = None


@dataclass
class SamplerBenchEntry:
    """Result of one (case, strategy) run."""

    case: str
    protocol: str
    regime: str
    n: int
    sampler: str
    strategy: str
    switched: bool
    interactions: int
    draws: int
    transition_calls: int
    wall_time_s: float
    interactions_per_second: float
    stopped_reason: str
    sampler_stats: Dict[str, Any]


def _recount_events(period: int, first_at: int, repeat: int) -> List[EventSpec]:
    """Periodic 10% replace + restart (the recount-churn scenario shape)."""
    return [
        EventSpec(
            kind="replace",
            at_interactions=first_at,
            fraction=0.1,
            restart=True,
            repeat=repeat,
            every=BudgetPolicy(factor=float(period), n_exponent=0.0, log_exponent=0.0),
        )
    ]


def sampler_cases(smoke: bool = False) -> List[SamplerBenchCase]:
    """The benchmark grid (bounded < 30 s under ``smoke``)."""
    approximate = resolve_protocol("approximate")
    if smoke:
        return [
            SamplerBenchCase(
                "backup-exact-churn", "backup-exact",
                lambda n: ExactBackupProtocol(), "pruning",
                n=512, max_interactions=300_000,
            ),
            SamplerBenchCase(
                "backup-exact-recount", "backup-exact",
                lambda n: ExactBackupProtocol(), "pruning",
                n=256, max_interactions=200_000,
                events=_recount_events(period=60_000, first_at=50_000, repeat=2),
            ),
            SamplerBenchCase(
                "approximate-dense", "approximate",
                lambda n: approximate.build(n, {}), "dense",
                n=256, max_interactions=60_000,
            ),
            SamplerBenchCase(
                "static-table", "static-table",
                lambda n: StaticTableProtocol(keys=40), "pruning",
                n=512, max_interactions=20_000,
            ),
        ]
    return [
        SamplerBenchCase(
            "backup-exact-churn", "backup-exact",
            lambda n: ExactBackupProtocol(), "pruning",
            n=1_000, max_interactions=1_500_000,
        ),
        SamplerBenchCase(
            "backup-exact-churn", "backup-exact",
            lambda n: ExactBackupProtocol(), "pruning",
            n=10_000, max_interactions=30_000_000,
        ),
        SamplerBenchCase(
            "backup-exact-recount", "backup-exact",
            lambda n: ExactBackupProtocol(), "pruning",
            n=1_000, max_interactions=4_000_000,
            events=_recount_events(period=1_000_000, first_at=500_000, repeat=3),
        ),
        SamplerBenchCase(
            "approximate-dense", "approximate",
            lambda n: approximate.build(n, {}), "dense",
            n=1_000, max_interactions=400_000,
        ),
        SamplerBenchCase(
            "static-table", "static-table",
            lambda n: StaticTableProtocol(keys=40), "pruning",
            n=2_000, max_interactions=150_000,
        ),
    ]


def run_entry(case: SamplerBenchCase, sampler: str, base_seed: int = 0) -> SamplerBenchEntry:
    """Run one (case, strategy) combination and time it end to end."""
    protocol = case.make_protocol(case.n)
    timeline = (
        expand_events(case.events, case.n, {}, base_seed) if case.events else ()
    )
    started = time.perf_counter()
    result = simulate(
        protocol,
        case.n,
        seed=base_seed,
        backend="batch",
        sampler=sampler,
        # This benchmark compares the *Python* sampler strategies against
        # each other; the NumPy layer has its own benchmark (--accel).
        accel="python",
        max_interactions=case.max_interactions,
        timeline=timeline,
    )
    wall = time.perf_counter() - started
    stats = result.extra.get("sampler", {})
    return SamplerBenchEntry(
        case=case.case,
        protocol=case.protocol_name,
        regime=case.regime,
        n=case.n,
        sampler=sampler,
        strategy=stats.get("strategy", sampler),
        switched=bool(stats.get("switched")),
        interactions=result.interactions,
        draws=int(stats.get("draws", 0)),
        transition_calls=int(result.extra.get("transition_calls", 0)),
        wall_time_s=round(wall, 4),
        interactions_per_second=round(result.interactions / wall, 1) if wall > 0 else 0.0,
        stopped_reason=result.stopped_reason,
        sampler_stats=stats,
    )


def _comparisons(entries: List[SamplerBenchEntry]) -> List[Dict[str, Any]]:
    by_case: Dict[tuple, Dict[str, SamplerBenchEntry]] = {}
    for entry in entries:
        by_case.setdefault((entry.case, entry.n), {})[entry.sampler] = entry
    comparisons = []
    for (case, n), strategies in sorted(by_case.items()):
        if not all(name in strategies for name in SAMPLER_STRATEGIES):
            continue
        walls = {name: strategies[name].wall_time_s for name in SAMPLER_STRATEGIES}
        fenwick = walls["fenwick"] or float("inf")
        alias = walls["alias"] or float("inf")
        comparisons.append(
            {
                "case": case,
                "n": n,
                "wall_time_s": walls,
                "fenwick_speedup_vs_scan": round(walls["scan"] / fenwick, 2),
                "fenwick_speedup_vs_alias": round(alias / fenwick, 2),
                "auto_vs_alias": round(walls["auto"] / alias, 2),
                "auto_strategy": strategies["auto"].strategy,
                "auto_switched": strategies["auto"].switched,
            }
        )
    return comparisons


def run_sampler_benchmark(
    cases: Optional[List[SamplerBenchCase]] = None,
    base_seed: int = 0,
    smoke: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the sampler grid and return the ``BENCH_samplers.json`` report."""
    if cases is None:
        cases = sampler_cases(smoke=smoke)
    entries: List[SamplerBenchEntry] = []
    for case in cases:
        for sampler in SAMPLER_STRATEGIES:
            if progress:
                progress(f"{case.case} n={case.n} sampler={sampler} ...")
            entry = run_entry(case, sampler, base_seed=base_seed)
            entries.append(entry)
            if progress:
                progress(
                    f"  {entry.interactions} interactions, {entry.draws} draws, "
                    f"{entry.wall_time_s:.3f}s (strategy={entry.strategy})"
                )
    comparisons = _comparisons(entries)

    def find(case: str, pin_n: Optional[int] = None) -> Optional[Dict[str, Any]]:
        matching = [c for c in comparisons if c["case"] == case]
        pinned = [c for c in matching if c["n"] == pin_n]
        if pinned:
            return pinned[0]
        # Smoke and custom grids lack the pinned size; judge the largest.
        return max(matching, key=lambda c: c["n"]) if matching else None

    churn = find(HEADLINE_CASE, pin_n=HEADLINE_N)
    static = find("static-table")
    dense = find("approximate-dense")
    headline: Dict[str, Any] = {
        "churn": churn,
        "static": static,
        "dense": dense,
        "criteria": {
            "churn_fenwick_beats_scan": (
                churn["fenwick_speedup_vs_scan"] > 1.0 if churn else None
            ),
            "churn_fenwick_beats_alias": (
                churn["fenwick_speedup_vs_alias"] > 1.0 if churn else None
            ),
            "static_auto_within_tolerance": (
                static["auto_vs_alias"] <= STATIC_TOLERANCE if static else None
            ),
            "dense_fenwick_within_tolerance": (
                dense["fenwick_speedup_vs_alias"] >= 1.0 / STATIC_TOLERANCE
                if dense
                else None
            ),
        },
    }
    criteria = [value for value in headline["criteria"].values() if value is not None]
    return {
        "benchmark": "samplers",
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "static_tolerance": STATIC_TOLERANCE,
        "headline": headline,
        # The smoke grid has no headline-size case; only the full grid judges.
        "headline_met": bool(criteria) and all(criteria) if not smoke else None,
        "entries": [asdict(entry) for entry in entries],
        "comparisons": comparisons,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write the report as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
