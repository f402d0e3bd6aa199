"""Acceleration-layer benchmark: ``accel="python"`` vs ``accel="numpy"``.

Each workload runs once per acceleration path with a *shared interaction
budget* (no convergence predicate), so wall time is end-to-end and
apples-to-apples — the two paths draw from the same chain law but different
random streams, and a convergence-bound run would measure the luck of the
stream, not the kernel.

The grid covers the regimes the NumPy layer was built for:

* ``backup-exact`` at ``n in {10^3, 10^4}`` — the paper's Appendix-C.2
  exact-counting protocol, the headline workload.  In the pruning regime
  every applied event changes ~4 key counts, and the Python path pays the
  O(changed * K) ``_update_pair_weights`` walk per event (~300 us at
  ``n = 10^4``); the factorised ``w(a, b) = c_a * c_b`` kernel replaces it
  with O(changed) vectorised column updates.  The acceptance criterion is
  an end-to-end speedup of at least :data:`TARGET_SPEEDUP` at
  ``n = 10^4``.
* ``backup-approximate`` at ``n = 10^4`` — the Appendix-C.1 counting
  workload behind the committed ``SWEEP_counting-curve.json``.
* ``approximate`` and ``count-exact`` (dense regime, Theorems 1 and 2) at
  ``n in {256, 10^3, 10^4, 10^5}`` — the composed counting stack's phase
  clocks change the histogram on nearly every interaction, so the dense
  block kernel detects thrash within a few blocks.  Where the mean
  collision-free run ``sqrt(pi n / 8)`` reaches
  :attr:`~repro.engine.vectorized.CollisionFreeKernel.MIN_EXPECTED_RUN`
  the run moves on to the collision-free kernel (one vectorised step per
  run of about ``sqrt(n)`` interactions); below it, it falls back to the
  Python sampler.  ``n = 256`` sits at the threshold (the crossover row),
  ``n = 10^5`` is paper scale.
* ``static-dense`` — a synthetic dense-regime workload whose transitions
  swap the two keys (configuration-preserving forever): blocks are never
  invalidated and the benchmark shows the raw amortisation ceiling of the
  vectorised draws.
"""

from __future__ import annotations

import json
import platform
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..counting.backup import ApproximateBackupProtocol, ExactBackupProtocol
from ..engine.errors import ConfigurationError
from ..engine.protocol import Protocol
from ..engine.simulator import simulate
from ..engine.vectorized import numpy_available
from ..experiments.registry import resolve_protocol

__all__ = [
    "VectorBenchCase",
    "VectorBenchEntry",
    "StaticDenseProtocol",
    "vectorized_cases",
    "run_vectorized_benchmark",
    "write_report",
]

#: Acceleration paths every case runs under.
ACCEL_PATHS = ("python", "numpy")

#: Acceptance target: the NumPy path must be at least this many times
#: faster end-to-end on the headline counting workload.
TARGET_SPEEDUP = 3.0
HEADLINE_CASE = "backup-exact"
HEADLINE_MIN_N = 10_000


class StaticDenseProtocol(Protocol):
    """Synthetic dense-regime protocol whose histogram never changes.

    Keeps the conservative ``can_interaction_change`` (dense regime — the
    participants are drawn straight from the key histogram) while every
    transition swaps the two keys, which is configuration-preserving: the
    histogram, and therefore the block kernel's cumulative-sum array, is
    built once and never invalidated.  Every interaction is two draws and
    nothing else — the dense analogue of the sampler benchmark's
    ``static-table``, showing the amortisation ceiling of blocked draws.
    """

    name = "static-dense"

    def __init__(self, keys: int = 40) -> None:
        self.keys = keys

    def initial_state(self, agent_id: int) -> int:
        return agent_id % self.keys

    def transition(self, initiator: int, responder: int, rng: random.Random) -> None:
        raise NotImplementedError("static-dense runs on the batch backend only")

    def output(self, state: int) -> int:
        return 0

    def state_key(self, state: int) -> Hashable:
        return state

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
class VectorBenchCase:
    """One acceleration-benchmark workload (run once per accel path)."""

    case: str
    protocol_name: str
    make_protocol: Callable[[int], Protocol]
    regime: str
    n: int
    max_interactions: int


@dataclass
class VectorBenchEntry:
    """Result of one (case, accel path) run."""

    case: str
    protocol: str
    regime: str
    n: int
    accel: str
    active: str
    #: The NumPy kernel driving the run at its end (``None`` when none).
    kernel: Optional[str]
    fallback_reason: Optional[str]
    interactions: int
    transition_calls: int
    wall_time_s: float
    interactions_per_second: float
    stopped_reason: str
    sampler_stats: Dict[str, Any]


def _dense_counting_cases(ns_budgets: List[Tuple[int, int]]) -> List[VectorBenchCase]:
    """Theorem 1 / Theorem 2 protocols in the dense regime, per ``(n, budget)``."""
    cases = []
    for n, budget in ns_budgets:
        for case, name in (("approximate-dense", "approximate"), ("count-exact-dense", "count-exact")):
            entry = resolve_protocol(name)
            cases.append(
                VectorBenchCase(
                    case, name, lambda n, entry=entry: entry.build(n, {}), "dense",
                    n=n, max_interactions=budget,
                )
            )
    return cases


def vectorized_cases(smoke: bool = False) -> List[VectorBenchCase]:
    """The benchmark grid (bounded < 30 s under ``smoke``)."""
    if smoke:
        return [
            VectorBenchCase(
                "backup-exact", "backup-exact",
                lambda n: ExactBackupProtocol(), "pruning",
                n=512, max_interactions=300_000,
            ),
            *_dense_counting_cases([(256, 40_000), (100_000, 40_000)]),
            VectorBenchCase(
                "static-dense", "static-dense",
                lambda n: StaticDenseProtocol(keys=40), "dense",
                n=512, max_interactions=100_000,
            ),
        ]
    return [
        VectorBenchCase(
            "backup-exact", "backup-exact",
            lambda n: ExactBackupProtocol(), "pruning",
            n=1_000, max_interactions=1_500_000,
        ),
        VectorBenchCase(
            "backup-exact", "backup-exact",
            lambda n: ExactBackupProtocol(), "pruning",
            n=10_000, max_interactions=30_000_000,
        ),
        VectorBenchCase(
            "backup-approximate", "backup-approximate",
            lambda n: ApproximateBackupProtocol(), "pruning",
            n=10_000, max_interactions=120_000_000,
        ),
        *_dense_counting_cases(
            [(256, 200_000), (1_000, 200_000), (10_000, 200_000), (100_000, 200_000)]
        ),
        VectorBenchCase(
            "static-dense", "static-dense",
            lambda n: StaticDenseProtocol(keys=40), "dense",
            n=2_000, max_interactions=1_000_000,
        ),
    ]


def run_entry(case: VectorBenchCase, accel: str, base_seed: int = 0) -> VectorBenchEntry:
    """Run one (case, accel path) combination and time it end to end."""
    protocol = case.make_protocol(case.n)
    started = time.perf_counter()
    result = simulate(
        protocol,
        case.n,
        seed=base_seed,
        backend="batch",
        accel=accel,
        max_interactions=case.max_interactions,
    )
    wall = time.perf_counter() - started
    accel_record = result.extra.get("accel", {})
    return VectorBenchEntry(
        case=case.case,
        protocol=case.protocol_name,
        regime=case.regime,
        n=case.n,
        accel=accel,
        active=accel_record.get("active", accel),
        kernel=result.extra.get("sampler", {}).get("kernel"),
        fallback_reason=accel_record.get("fallback_reason"),
        interactions=result.interactions,
        transition_calls=int(result.extra.get("transition_calls", 0)),
        wall_time_s=round(wall, 4),
        interactions_per_second=round(result.interactions / wall, 1) if wall > 0 else 0.0,
        stopped_reason=result.stopped_reason,
        sampler_stats=result.extra.get("sampler", {}),
    )


def _comparisons(entries: List[VectorBenchEntry]) -> List[Dict[str, Any]]:
    by_case: Dict[tuple, Dict[str, VectorBenchEntry]] = {}
    for entry in entries:
        by_case.setdefault((entry.case, entry.n), {})[entry.accel] = entry
    comparisons = []
    for (case, n), paths in sorted(by_case.items()):
        if not all(name in paths for name in ACCEL_PATHS):
            continue
        python_wall = paths["python"].wall_time_s
        numpy_wall = paths["numpy"].wall_time_s or float("inf")
        comparisons.append(
            {
                "case": case,
                "n": n,
                "regime": paths["python"].regime,
                "python_wall_time_s": python_wall,
                "numpy_wall_time_s": paths["numpy"].wall_time_s,
                "speedup": round(python_wall / numpy_wall, 2),
                "numpy_active": paths["numpy"].active,
                "numpy_kernel": paths["numpy"].kernel,
                "numpy_fallback": paths["numpy"].fallback_reason,
            }
        )
    return comparisons


def run_vectorized_benchmark(
    cases: Optional[List[VectorBenchCase]] = None,
    base_seed: int = 0,
    smoke: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the accel grid and return the ``BENCH_vectorized.json`` report."""
    if not numpy_available():
        raise ConfigurationError(
            "the acceleration benchmark compares accel='python' against "
            "accel='numpy' and needs NumPy installed (and not vetoed by "
            "REPRO_NO_NUMPY); pip install 'repro-berenbrink-kr19[accel]'"
        )
    if cases is None:
        cases = vectorized_cases(smoke=smoke)
    entries: List[VectorBenchEntry] = []
    for case in cases:
        for accel in ACCEL_PATHS:
            if progress:
                progress(f"{case.case} n={case.n} accel={accel} ...")
            entry = run_entry(case, accel, base_seed=base_seed)
            entries.append(entry)
            if progress:
                progress(
                    f"  {entry.interactions} interactions, {entry.wall_time_s:.3f}s "
                    f"(active={entry.active}, kernel={entry.kernel})"
                )
    comparisons = _comparisons(entries)
    headline_candidates = [
        comparison
        for comparison in comparisons
        if comparison["case"] == HEADLINE_CASE and comparison["n"] >= HEADLINE_MIN_N
    ]
    headline = max(headline_candidates, key=lambda c: c["n"], default=None)
    import numpy as _numpy  # guarded by the availability check above

    return {
        "benchmark": "vectorized",
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": _numpy.__version__,
        "target_speedup": TARGET_SPEEDUP,
        "headline": headline,
        # The smoke grid has no headline-size case; only the full grid judges.
        "headline_met": (
            bool(headline and headline["speedup"] >= TARGET_SPEEDUP)
            if headline is not None
            else None
        ),
        "entries": [asdict(entry) for entry in entries],
        "comparisons": comparisons,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write the report as indented JSON (delegates to the shared writer)."""
    from .runner import write_report as _write

    _write(report, path)
