"""The benchmark's own tests (not part of the library's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They check that a wrong output fails its check, that span self times are
consistent with the wall time, that the printed metric and workload names
match ``BENCHMARK.json``, that a non-default seed runs clean, and that the
benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------- output checks
def _small_run(check: str, budget: int) -> tuple:
    spec = workloads.RunSpec(
        protocol="count-exact", n=16, seed=5, budget=budget,
        check_interval=16 if check == "predicate" else None,
        confirm_checks=3, check=check,
    )
    outcome = workloads.execute_run(spec)
    return spec, outcome


def test_correct_runs_pass_their_checks():
    for check, budget in (("predicate", 200_000), ("budget", 500)):
        _spec, outcome = _small_run(check, budget)
        assert outcome.error is None, outcome.error


def test_wrong_outputs_fail_their_checks():
    from repro.experiments.registry import resolve_protocol

    spec, outcome = _small_run("predicate", 200_000)
    predicate = resolve_protocol("count-exact").convergence(16, {})
    assert outcome.error is None
    wrong = SimpleNamespace(
        output_counts=Counter({15: 16}), stopped_reason="converged", interactions=10
    )
    assert workloads.check_run(spec, wrong, predicate)
    missing_agent = SimpleNamespace(
        output_counts=Counter({16: 15}), stopped_reason="converged", interactions=10
    )
    assert workloads.check_run(spec, missing_agent, predicate)

    budget_spec, _ = _small_run("budget", 500)
    early = SimpleNamespace(
        output_counts=Counter({1: 16}), stopped_reason="converged", interactions=499
    )
    assert workloads.check_run(budget_spec, early, None)


def test_a_changed_artifact_fails_its_check():
    from repro.server import stable_document

    spec = served.sweep_spec(seed=3, index=0)
    spec.ns = [10, 12]
    reference = served.reference_document(spec)
    expected = stable_document(reference)
    assert served.artifact_error(copy.deepcopy(reference), expected) is None
    tampered = copy.deepcopy(reference)
    tampered["cells"][1]["runs"][0]["interactions"] += 1
    error = served.artifact_error(tampered, expected)
    assert error and "count-exact-n12" in error


# ------------------------------------------------------------------- spans
def test_span_self_times_are_consistent_with_wall_time():
    tracer = Tracer(keep_per_name=2)

    def leaf():
        time.sleep(0.002)

    def middle():
        for _ in range(3):
            traced_leaf()
        time.sleep(0.001)

    traced_leaf = tracer.wrap("bench.check.leaf", leaf)
    traced_middle = tracer.wrap("bench.check.middle", middle)
    started = time.perf_counter()
    worker = threading.Thread(target=traced_middle, name="side")
    worker.start()
    traced_middle()
    worker.join(timeout=10)
    assert not worker.is_alive()
    wall = time.perf_counter() - started

    stats = tracer.stats()
    assert stats["bench.check.leaf"]["calls"] == 6
    assert stats["bench.check.middle"]["calls"] == 2
    for slot in stats.values():
        assert slot["self_s"] >= -1e-9
        assert slot["self_s"] <= slot["total_s"] + 1e-9
    for thread_total in tracer.self_seconds_by_thread().values():
        assert 0.0 <= thread_total <= wall
    # Two spans per name and thread are kept whole: one leaf span per thread
    # is only aggregated.
    assert tracer.dropped() == 2
    parents = {span[0]: span for span in tracer.spans}
    for span in tracer.spans:
        assert span[3] >= span[2]
        if span[1] == "bench.check.leaf" and span[4] in parents:
            assert parents[span[4]][1] == "bench.check.middle"


def test_traced_library_spans_fit_in_the_wall_time():
    spec = workloads.RunSpec(
        protocol="backup-approximate", n=64, seed=2, budget=10**6,
        check_interval=256, confirm_checks=3, check="predicate",
    )
    untraced = workloads.execute_run(spec)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        started = time.perf_counter()
        outcomes, _elapsed = run.replay_units([[untraced]], tracer)
        wall = time.perf_counter() - started
    finally:
        tracer.restore()
    assert outcomes[0][0].error is None
    assert outcomes[0][0].interactions == untraced.interactions
    stats = tracer.stats()
    assert stats["engine.simulator.Simulator.run"]["calls"] == 1
    assert any(name.startswith("protocols.") for name in stats)
    assert stats["engine.convergence.predicate"]["calls"] >= 1
    for slot in stats.values():
        assert slot["self_s"] >= -1e-9
    by_thread = tracer.self_seconds_by_thread()
    assert sum(by_thread.values()) <= wall
    # Restored: no wrapper is left on the library's classes.
    from repro.engine.simulator import Simulator

    assert not hasattr(Simulator.run, "__wrapped__")


def test_setup_probes_are_spread_through_the_run(monkeypatch):
    taken = []
    monkeypatch.setattr(run, "probe_setup", lambda runs, served_mode: taken.append(1) or 0.5)
    probes = run.SetupProbes([("count-exact", 16)], False, seconds=10.0)
    probes.catch_up(0.0)
    assert len(taken) == 1
    probes.catch_up(3.5)  # one probe per second of measuring is due
    assert len(taken) == 4
    probes.catch_up(3.9)
    assert len(taken) == 4
    assert probes.median() == 0.5
    assert len(taken) == run.SETUP_PROBES


# ------------------------------------------------------- the command itself
def test_names_match_benchmark_json():
    definition = _definition()
    assert [w["name"] for w in definition["workloads"]] == run.WORKLOAD_NAMES
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        completed = _bench(
            "--workload", "backup-sparse", "--seed", "4", "--seconds", "1",
            "--trace", str(trace),
        )
        assert completed.returncode == 0, completed.stderr
        result = _result(completed)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in definition[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared


def test_another_seed_runs_clean():
    completed = _bench(
        "--workload", "served-sweep", "--seed", "7", "--seconds", "1", "--trace", "0"
    )
    assert completed.returncode == 0, completed.stderr
    result = _result(completed)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert result["metrics"]["correct_fraction"]["value"] == 1.0
    provenance = json.loads(completed.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 7


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = _bench(
        "--workload", "counting-small", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_unknown_workload_is_rejected():
    completed = _bench("--workload", "no-such-workload", "--seed", "1", "--seconds", "1")
    assert completed.returncode != 0
