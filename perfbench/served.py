"""The served-sweep workload: one client, one job server, one worker process.

The server is an in-process ``JobManager(local_execution=False)`` behind
``make_server`` with a fresh ``cache_dir``; a real ``repro-worker`` child
process, at its default poll interval, leases every cell over HTTP.  The
client sends jobs in a closed loop (the next job is submitted only after
the previous artifact came back).  Each iteration is:

* cold job: a sweep of single-seed ``count-exact`` cells at n <= 32, new
  seeds each iteration, so every cell misses the cache and is executed by
  the worker (the write path);
* warm job: a new manager over the same ``cache_dir`` receives the
  identical resubmission and serves every cell from disk (the read path).

Both artifacts are checked against an in-process ``execute_cell`` over the
same payloads, compared through ``stable_document``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from workloads import unit_seed

#: Population sizes of the swept cells: 12 cells of about 0.1-0.3 s each.
SERVED_NS = list(range(10, 33, 2))
#: Longest a job may take before the benchmark gives up on it.
JOB_TIMEOUT_S = 120.0
#: Warm resubmissions per cold job (each to a new manager).
WARM_REPEATS = 5
#: How often an HTTP server loop checks for shutdown.
SERVE_POLL_S = 0.05
#: Share of the worker's poll period between its last empty poll and a
#: cold submission (see ``LeaseProbe.await_phase``).
SUBMIT_PHASE = 0.5


def sweep_spec(seed: int, index: int) -> Any:
    """The iteration's sweep: Theorem 2's budget policy, one seed per cell."""
    from repro.experiments.builtin import resolve_builtin
    from repro.experiments.spec import SweepSpec

    theorem_2 = resolve_builtin("theorem-2")
    return SweepSpec(
        name=f"perfbench-served-{index}",
        protocol="count-exact",
        ns=list(SERVED_NS),
        seeds_per_cell=1,
        base_seed=unit_seed(seed, "served-sweep", index, "sweep"),
        backend="auto",
        budget=theorem_2.budget,
        max_checks=theorem_2.max_checks,
    )


class LeaseProbe:
    """Count lease polls on a manager and note when a job's first cell leaves.

    Installed as an instance attribute that calls the class's
    ``lease_work`` at call time, so a traced pass that wraps the class
    method is still seen through the probe.
    """

    def __init__(self, manager: Any) -> None:
        self.polls = 0
        self.granted = 0
        self.first_grant_at: Optional[float] = None
        self.first_poll = threading.Event()
        self._empty_poll = threading.Event()
        self._last_empty_at: Optional[float] = None
        #: Time between the idle worker's last two consecutive empty polls.
        self.poll_period_s: Optional[float] = None
        self._lock = threading.Lock()
        cls = type(manager)

        def lease_work(worker_id: str) -> Optional[Dict[str, Any]]:
            lease = cls.lease_work(manager, worker_id)
            now = time.perf_counter()
            with self._lock:
                self.polls += 1
                if lease is not None:
                    self.granted += 1
                    self._last_empty_at = None
                    if self.first_grant_at is None:
                        self.first_grant_at = now
                else:
                    if self._last_empty_at is not None:
                        self.poll_period_s = now - self._last_empty_at
                    self._last_empty_at = now
                    self._empty_poll.set()
            self.first_poll.set()
            return lease

        manager.lease_work = lease_work

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {"polls": self.polls, "granted": self.granted}

    def await_phase(self, share: float, timeout_s: float = 10.0) -> None:
        """Return ``share`` of a poll period after the idle worker's next empty poll.

        A job submitted at a random instant waits for the worker's next
        poll a random share of the poll period, half of it on average.
        Submitting at a fixed phase makes every job wait that average, so
        a run of a few jobs measures it without the phase's randomness.
        """
        while True:
            self._empty_poll.clear()
            if not self._empty_poll.wait(timeout_s):
                raise RuntimeError("repro-worker stopped polling the server")
            with self._lock:
                period = self.poll_period_s
            if period is not None:
                time.sleep(share * period)
                return


class _Server:
    """A manager plus its HTTP server on an ephemeral port."""

    def __init__(self, cache_dir: str) -> None:
        from repro.server import JobManager, ReproClient, ResultCache
        from repro.server.app import make_server

        self.manager = JobManager(
            local_execution=False, cache=ResultCache(cache_dir=cache_dir)
        )
        self.probe = LeaseProbe(self.manager)
        self.httpd = make_server("127.0.0.1", 0, self.manager)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.client = ReproClient(self.url, timeout_s=JOB_TIMEOUT_S)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": SERVE_POLL_S},
            name="bench-http",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=10.0)
        self.manager.close()


def _start_worker(root: str, url: str, log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.server.worker",
                "--server", url,
                "--worker-id", "perfbench-worker",
                "--quiet",
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident memory (``VmHWM``); 0.0 without ``/proc``.

    ``RUSAGE_CHILDREN`` cannot stand in for it: a child's peak there
    includes the parent's memory it shared between ``fork`` and ``exec``.
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _stop_worker(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)


@dataclass
class Iteration:
    cells: int
    cold_s: float = 0.0
    #: One wall time per warm resubmission.
    warm_s: List[float] = field(default_factory=list)
    #: Sum of the cold cells' own ``wall_time_s`` (execute_cell in the worker).
    cell_wall_s: float = 0.0
    interactions: int = 0
    #: Sum of the runs' ``wall_time_s`` (Simulator.run in the worker).
    run_s: float = 0.0
    queue_wait_s: Optional[float] = None
    errors: List[str] = field(default_factory=list)
    checks: int = 0
    warm_disk_loads: int = 0
    warm_hits: int = 0
    warm_lookups: int = 0
    cold_artifact: Optional[Dict[str, Any]] = None


class ServedHarness:
    """Owns the cold server and the worker for one benchmark invocation."""

    def __init__(self, root: str, out_dir: str) -> None:
        self.root = root
        self.out_dir = out_dir
        self.cache_dir = os.path.join(out_dir, "served-cache")
        self.worker_log = os.path.join(out_dir, "worker.log")
        self.server: Optional[_Server] = None
        self.worker: Optional[subprocess.Popen] = None
        #: Largest peak resident memory of any worker stopped so far (MB).
        self.worker_peak_mb = 0.0

    # ---------------------------------------------------------------- setup
    def start(self) -> float:
        """Bind the server and start the worker; seconds until its first poll."""
        started = time.perf_counter()
        self.server = _Server(self.cache_dir)
        self.worker = _start_worker(self.root, self.server.url, self.worker_log)
        deadline = started + 60.0
        while not self.server.probe.first_poll.wait(0.005):
            if self.worker.poll() is not None:
                raise RuntimeError(
                    f"repro-worker exited with {self.worker.returncode} before "
                    f"its first lease poll (log: {self.worker_log})"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("repro-worker never polled the server")
        return time.perf_counter() - started

    def stop(self) -> None:
        if self.worker is not None:
            self.worker_peak_mb = max(self.worker_peak_mb, _peak_rss_mb(self.worker.pid))
            _stop_worker(self.worker)
            self.worker = None
        if self.server is not None:
            self.server.close()
            self.server = None

    # ------------------------------------------------------------ one job
    @staticmethod
    def _run_job(client: Any, spec_dict: Dict[str, Any]) -> Dict[str, Any]:
        job_id = client.submit("sweep", spec_dict)["job_id"]
        for _event in client.watch(job_id):
            pass
        return {"job_id": job_id, "artifact": client.artifact(job_id)}

    def iteration(
        self, seed: int, index: int, reference: Any, tracer: Any = None
    ) -> Iteration:
        """One cold job, its warm resubmissions, and every artifact check."""
        from repro.server import ServerError, stable_document

        if self.server is None:
            raise RuntimeError("the served harness is not started")
        spec = sweep_spec(seed, index)
        spec_dict = spec.to_dict()
        outcome = Iteration(cells=len(spec.cells()))
        run_job = self._run_job
        if tracer is not None:
            run_job = tracer.wrap("bench.client.job", run_job)

        # Cold job: every cell is new to the cache and leased by the worker.
        probe = self.server.probe
        probe.await_phase(SUBMIT_PHASE)
        probe.first_grant_at = None
        outcome.checks += 1
        started = time.perf_counter()
        try:
            cold = run_job(self.server.client, spec_dict)
        except ServerError as error:
            outcome.errors.append(f"cold job failed: {error}")
            return outcome
        outcome.cold_s = time.perf_counter() - started
        if probe.first_grant_at is not None:
            outcome.queue_wait_s = probe.first_grant_at - started
        artifact = cold["artifact"]
        outcome.cold_artifact = artifact
        for cell in artifact.get("cells", []):
            outcome.cell_wall_s += float(cell.get("wall_time_s") or 0.0)
            for run in cell.get("runs", []):
                outcome.interactions += int(run.get("interactions") or 0)
                outcome.run_s += float(run.get("wall_time_s") or 0.0)
        status = self.server.client.status(cold["job_id"])["progress"]
        expected = stable_document(reference(spec))
        if status.get("remote_cells") != outcome.cells:
            outcome.errors.append(
                f"cold job: {status.get('remote_cells')} of {outcome.cells} "
                f"cells came from the worker"
            )
        else:
            error = artifact_error(artifact, expected)
            if error:
                outcome.errors.append(f"cold job: {error}")

        # Warm jobs: each a new manager over the same cache_dir, so every
        # cell of the identical resubmission is a disk load.
        for _ in range(WARM_REPEATS):
            outcome.checks += 1
            warm = _Server(self.cache_dir)
            try:
                started = time.perf_counter()
                try:
                    warm_job = run_job(warm.client, spec_dict)
                except ServerError as error:
                    outcome.errors.append(f"warm job failed: {error}")
                    continue
                outcome.warm_s.append(time.perf_counter() - started)
                warm_status = warm.client.status(warm_job["job_id"])["progress"]
                stats = warm.manager.cache.stats()
            finally:
                warm.close()
            loads = int(stats.get("disk_loads") or 0)
            outcome.warm_disk_loads += loads
            outcome.warm_hits += int(stats.get("hits") or 0)
            outcome.warm_lookups += int(stats.get("hits") or 0) + int(stats.get("misses") or 0)
            if warm_status.get("cached_cells") != outcome.cells or loads != outcome.cells:
                outcome.errors.append(
                    f"warm job: {warm_status.get('cached_cells')} cached cells and "
                    f"{loads} disk loads for {outcome.cells} cells"
                )
                continue
            error = artifact_error(warm_job["artifact"], expected)
            if error:
                outcome.errors.append(f"warm job: {error}")
        return outcome

    def lease_metrics(self) -> Dict[str, float]:
        """Expired and requeued leases from the cold manager's /metrics text."""
        if self.server is None:
            raise RuntimeError("the served harness is not started")
        values = {"repro_leases_expired_total": 0.0, "repro_leases_requeued_total": 0.0}
        for line in self.server.manager.render_metrics().splitlines():
            name, _, value = line.partition(" ")
            if name in values:
                values[name] = float(value)
        return values


def artifact_error(artifact: Dict[str, Any], expected: Dict[str, Any]) -> Optional[str]:
    """``None`` when the served artifact equals the stable reference document."""
    from repro.server import stable_document

    if stable_document(artifact) == expected:
        return None
    got = stable_document(artifact).get("cells") or []
    want = expected.get("cells") or []
    differing = [
        str(cell.get("cell_id"))
        for cell, reference in zip(got, want)
        if cell != reference
    ]
    return (
        "artifact differs from in-process execute_cell"
        + (f" in cells {', '.join(differing)}" if differing else "")
    )


def reference_document(spec: Any, execute: Any = None) -> Dict[str, Any]:
    """The sweep document an in-process ``execute_cell`` loop produces."""
    from repro.experiments.artifacts import build_document
    from repro.experiments.runner import cell_payload, execute_cell

    run = execute or execute_cell
    records = [run(cell_payload(spec, cell)) for cell in spec.cells()]
    return build_document(spec, records, 1)
