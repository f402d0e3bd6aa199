"""The traced pass: which public calls are wrapped, and the per-layer metrics.

Spans come from wrappers installed by ``instrument`` around public calls of
each layer; program counters come from the runs' own telemetry
(``SimulationResult.extra["telemetry"]``), the result cache's ``stats()``
and the job manager's ``/metrics`` text.  Every ``*_s`` call metric is the
*self* time of those spans (children excluded), so the layer seconds of one
thread add up to at most that thread's wall time.

On served-sweep the cells run in the worker process, which is not traced:
its cell seconds come from the records' ``wall_time_s`` and its counters
from the records' telemetry, while the engine-layer spans are those of the
in-process reference execution of the very same cells (same seeds, hence
the same trajectories), which the output check runs anyway.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List

from tracing import Tracer

#: Layers whose self time is reported, in report order.
LAYERS = (
    "engine.simulator",
    "engine.backends",
    "engine.samplers",
    "engine.vectorized",
    "protocols",
    "engine.convergence",
    "obs.trace",
    "server.cache",
    "server.jobs",
    "server.app",
    "server.app.stream",
    "bench.client",
    "bench.check",
)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every layer (restore with ``tracer.restore``)."""
    import repro.experiments.registry  # noqa: F401 - loads every protocol class
    from repro.engine import backends, simulator, vectorized
    from repro.engine.protocol import Protocol
    from repro.engine.samplers import WeightedSampler
    from repro.obs.trace import RunTracer
    from repro.server.app import ReproRequestHandler
    from repro.server.cache import ResultCache
    from repro.server.jobs import JobManager

    tracer.patch_method(simulator.Simulator, "__init__", "engine.simulator.Simulator.__init__")
    tracer.patch_method(simulator.Simulator, "run", "engine.simulator.Simulator.run")
    for cls in (backends.BatchBackend, backends.AgentBackend):
        tracer.patch_method(cls, "advance_to", f"engine.backends.{cls.__name__}.advance_to")
    for cls in [WeightedSampler] + _subclasses(WeightedSampler):
        for method in ("sample", "update", "rebuild", "sample_block"):
            tracer.patch_method(cls, method, f"engine.samplers.{cls.__name__}.{method}")
    for cls, methods in (
        (vectorized.DenseBlockKernel, ("next_pair", "set_count", "rebuild")),
        (
            vectorized.FactorisedPairKernel,
            ("next_pair", "next_skip", "set_count", "active_weight", "rebuild"),
        ),
    ):
        for method in methods:
            tracer.patch_method(cls, method, f"engine.vectorized.{cls.__name__}.{method}")
    for cls in _subclasses(Protocol):
        if cls.__module__.startswith(("repro.counting.", "repro.primitives.")):
            tracer.patch_method(cls, "delta_key", f"protocols.{cls.__name__}.delta_key")
    tracer.patch_method(RunTracer, "add", "obs.trace.RunTracer.add")
    for method in ("get", "put"):
        tracer.patch_method(ResultCache, method, f"server.cache.ResultCache.{method}")
    for method in ("submit", "lease_work", "heartbeat_work", "complete_work"):
        tracer.patch_method(JobManager, method, f"server.jobs.JobManager.{method}")
    for verb in ("do_POST", "do_DELETE"):
        tracer.patch_method(ReproRequestHandler, verb, f"server.app.handler.{verb}")
    # An event stream holds its handler open until the job ends; that wait
    # is kept apart from the request handling it would otherwise swamp.
    plain_get = ReproRequestHandler.__dict__["do_GET"]
    handle = tracer.wrap("server.app.handler.do_GET", plain_get)
    stream = tracer.wrap("server.app.stream.do_GET", plain_get)

    def do_GET(handler: Any) -> None:  # noqa: N802 - http.server API
        path = handler.path.split("?", 1)[0].rstrip("/")
        (stream if path.endswith("/events") else handle)(handler)

    tracer.replace_method(ReproRequestHandler, "do_GET", do_GET)


# ------------------------------------------------------------ aggregation
def _calls(stats: Dict[str, Dict[str, float]], match: Callable[[str], bool]) -> Dict[str, float]:
    calls = 0
    self_s = 0.0
    for name, slot in stats.items():
        if match(name):
            calls += slot["calls"]
            self_s += slot["self_s"]
    return {"calls": calls, "self_s": self_s}


def telemetry_counters(telemetries: Iterable[Any]) -> Dict[str, float]:
    """Program counters summed over the runs' ``extra["telemetry"]``."""
    builds = alias_draws = table_draws = 0
    interactions = applied = 0
    pair_weights_s = 0.0
    engaged = fallbacks = 0
    blocks = invalidations = 0
    for telemetry in telemetries:
        if not isinstance(telemetry, dict):
            continue
        skips = telemetry.get("skips") or {}
        interactions += int(skips.get("interactions") or 0)
        applied += int(skips.get("applied_events") or 0)
        phase = (telemetry.get("phases") or {}).get("pair_weights") or {}
        pair_weights_s += float(phase.get("wall_time_s") or 0.0)
        engaged += bool((telemetry.get("accel") or {}).get("engaged"))
        fallbacks += sum(
            1 for event in telemetry.get("events") or () if event.get("kind") == "accel-fallback"
        )
        sampler = telemetry.get("sampler") or {}
        for record in [sampler] + list(sampler.get("retired") or ()):
            builds += int(record.get("builds") or 0) + int(record.get("sampler_builds") or 0)
            if record.get("strategy") == "alias":
                alias_draws += int(record.get("draws") or 0)
                table_draws += int(record.get("table_draws") or 0)
            if "blocks" in record and "invalidations" in record:
                blocks += int(record["blocks"])
                invalidations += int(record["invalidations"])
    return {
        "samplers.builds": builds,
        "samplers.table_hit_ratio": table_draws / alias_draws if alias_draws else 0.0,
        "backends.applied_events": applied,
        "backends.skip_efficiency": 1.0 - applied / interactions if interactions else 0.0,
        "backends.pair_weights_s": pair_weights_s,
        "vectorized.accel_engaged_runs": engaged,
        "vectorized.accel_fallbacks": fallbacks,
        "vectorized.block_invalidation_ratio": invalidations / blocks if blocks else 0.0,
    }


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    stats = tracer.stats()
    metrics: Dict[str, float] = {}

    def put(prefix: str, match: Callable[[str], bool]) -> None:
        totals = _calls(stats, match)
        metrics[f"{prefix}_calls"] = totals["calls"]
        metrics[f"{prefix}_s"] = totals["self_s"]

    for method in ("sample", "update", "rebuild"):
        put(
            f"samplers.{method}",
            lambda name, m=method: name.startswith("engine.samplers.")
            and name.endswith(f".{m}"),
        )
    put("protocols.delta_key", lambda name: name.startswith("protocols."))
    put("backends.advance_to", lambda name: name.startswith("engine.backends."))
    metrics["backends.advance_to_self_s"] = metrics.pop("backends.advance_to_s")
    put("vectorized.kernel", lambda name: name.startswith("engine.vectorized."))
    put("convergence.predicate", lambda name: name.startswith("engine.convergence."))
    put("trace.add", lambda name: name == "obs.trace.RunTracer.add")
    for method in ("get", "put"):
        put(f"cache.{method}", lambda name, m=method: name == f"server.cache.ResultCache.{m}")
    for method in ("lease_work", "complete_work"):
        put(f"jobs.{method}", lambda name, m=method: name == f"server.jobs.JobManager.{m}")
    put("app.http", lambda name: name.startswith("server.app.handler."))
    metrics["app.http_requests"] = metrics.pop("app.http_calls")
    metrics["app.handler_s"] = metrics.pop("app.http_s")
    by_layer = tracer.self_seconds_by_layer()
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = by_layer.get(layer, 0.0)
    return metrics


def _finish(
    tracer: Tracer,
    metrics: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    out_dir: str,
    extra: Dict[str, Any],
) -> Dict[str, float]:
    """Add the tracing metrics and write the spans out.

    The traced pass repeats the untraced pass's work exactly, so the ratio
    of their wall times is the tracing overhead.
    """
    by_thread = tracer.self_seconds_by_thread()
    covered = by_thread.get(threading.current_thread().name, 0.0)
    metrics["tracing.traced_wall_s"] = traced_wall
    metrics["tracing.untraced_wall_s"] = untraced_wall
    metrics["tracing.overhead_ratio"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0
    )
    metrics["tracing.uncovered_s"] = max(0.0, traced_wall - covered)
    document = {
        "main_thread": threading.current_thread().name,
        "self_s_by_thread": by_thread,
        "self_s_by_layer": tracer.self_seconds_by_layer(),
        "metrics": metrics,
        **extra,
        **tracer.export(),
    }
    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
    return metrics


def _server_zeroes(metrics: Dict[str, float]) -> None:
    metrics.update(
        {
            "runner.execute_cell_calls": 0,
            "runner.execute_cell_s": 0.0,
            "cache.hit_ratio": 0.0,
            "cache.disk_loads": 0,
            "jobs.empty_lease_share": 0.0,
            "jobs.queue_wait_s": 0.0,
            "jobs.leases_expired": 0,
            "jobs.leases_requeued": 0,
        }
    )


def traced_inprocess(
    units: List[List[Any]],
    untraced_elapsed: List[float],
    replay_units: Callable[..., Any],
    budget_s: float,
    out_dir: str,
) -> Dict[str, Any]:
    """Replay the untraced pass's units under spans."""
    tracer = Tracer()
    instrument(tracer)
    try:
        replayed, traced_elapsed = replay_units(units, tracer, untraced_elapsed, budget_s)
    finally:
        tracer.restore()
    traced_wall = sum(traced_elapsed)
    untraced_wall = sum(untraced_elapsed[: len(replayed)])
    outcomes = [outcome for unit in replayed for outcome in unit]
    failures = [
        f"traced replay of {o.spec.protocol} seed={o.spec.seed}: "
        + (o.error or f"{o.interactions} interactions, untraced {u.interactions}")
        for o, u in zip(outcomes, (u for unit in units for u in unit))
        if o.error or o.interactions != u.interactions
    ]
    metrics = span_metrics(tracer)
    metrics.update(telemetry_counters(o.telemetry for o in outcomes))
    _server_zeroes(metrics)
    metrics = _finish(
        tracer, metrics, traced_wall, untraced_wall, out_dir,
        {"units": len(units), "units_replayed": len(replayed)},
    )
    return {"metrics": metrics, "failures": failures, "attempted": len(outcomes)}


def traced_served(
    harness: Any,
    seed: int,
    count: int,
    play_served: Callable[..., List[Any]],
    untraced_wall: float,
    out_dir: str,
) -> Dict[str, Any]:
    """Replay the untraced pass's jobs against a fresh server under spans."""
    # A fresh cache_dir makes the replayed cold jobs cold again.
    harness.stop()
    shutil.rmtree(harness.cache_dir, ignore_errors=True)
    harness.cache_dir = os.path.join(out_dir, "served-cache-traced")
    harness.start()
    tracer = Tracer()
    instrument(tracer)
    try:
        before = harness.server.probe.counts()
        started = time.perf_counter()
        iterations = play_served(harness, seed, 0.0, tracer=tracer, count=count)
        traced_wall = time.perf_counter() - started
        after = harness.server.probe.counts()
        leases = harness.lease_metrics()
    finally:
        tracer.restore()
    failures = [error for it in iterations for error in it.errors]
    metrics = span_metrics(tracer)
    telemetries = [
        (run.get("extra") or {}).get("telemetry")
        for it in iterations
        if it.cold_artifact
        for cell in it.cold_artifact.get("cells", [])
        for run in cell.get("runs", [])
    ]
    metrics.update(telemetry_counters(telemetries))
    polls = after["polls"] - before["polls"]
    granted = after["granted"] - before["granted"]
    hits = sum(it.warm_hits for it in iterations)
    lookups = sum(it.warm_lookups for it in iterations)
    waits = [it.queue_wait_s for it in iterations if it.queue_wait_s is not None]
    metrics.update(
        {
            "runner.execute_cell_calls": sum(it.cells for it in iterations),
            "runner.execute_cell_s": sum(it.cell_wall_s for it in iterations),
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.disk_loads": sum(it.warm_disk_loads for it in iterations),
            "jobs.empty_lease_share": (polls - granted) / polls if polls else 0.0,
            "jobs.queue_wait_s": statistics.median(waits) if waits else 0.0,
            "jobs.leases_expired": leases["repro_leases_expired_total"],
            "jobs.leases_requeued": leases["repro_leases_requeued_total"],
        }
    )
    metrics = _finish(
        tracer, metrics, traced_wall, untraced_wall, out_dir, {"jobs": len(iterations)}
    )
    attempted = sum(it.checks for it in iterations)
    return {"metrics": metrics, "failures": failures, "attempted": attempted}
