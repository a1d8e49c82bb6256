"""The ``service-jobs`` workload: an in-process ``repro-ssle serve`` stack.

``ExperimentServer`` + ``JobManager`` + ``WarmPool`` (one worker) + a local
``ResultsStore`` under the checkout, driven by one closed-loop
``ServiceClient``: each job is submitted only after the previous job's
result is in the client's hand, as a researcher waiting on each result
would.  Each pass of the job sequence runs on a stack of its own, started
with the clock stopped, so every pass starts from the same state: an empty
store and a pool worker with cold encoder caches.

The traced run passes wrapper store and pool objects into the manager and
counts the client's status polls; it records one span per job and per
layer call, keyed by the job's position in the sequence.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import shutil
import statistics
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from timing import measure_passes
from tracing import Tracer, clock

#: Upper bound on one job's wait; a job this slow is a failure, not data.
_JOB_TIMEOUT_S = 120.0
#: Jobs between two reference samples of the host's speed (see timing.py).
_PROBE_EVERY = 5


def _percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _strip_wall_clock(value):
    """``value`` without its ``wall_time`` fields (the only non-deterministic
    part of a result payload)."""
    if isinstance(value, dict):
        return {key: _strip_wall_clock(item) for key, item in value.items()
                if key != "wall_time"}
    if isinstance(value, list):
        return [_strip_wall_clock(item) for item in value]
    return value


class Stack:
    """The server, manager, pool and store of one pass, plus the client."""

    def __init__(self, inputs: Dict, workdir: Path, store_factory=None,
                 backend=None) -> None:
        from repro.service import ExperimentServer, JobManager, ServiceClient, WarmPool
        from repro.store import ResultsStore

        self.inputs = inputs
        self.workdir = workdir
        self.backend = backend or WarmPool(workers=inputs["pool_workers"])
        self.backend.warm()
        # Fork the worker now, before the event-loop thread exists, so the
        # first job does not pay the process start.
        self.backend.pool.submit(int).result()
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="service-loop",
                                       daemon=True)
        self.thread.start()

        async def start():
            manager = JobManager(backend=self.backend,
                                 store=(store_factory or ResultsStore)(workdir / "store"))
            server = ExperimentServer(manager)
            await server.start("127.0.0.1", 0)
            return manager, server

        self.manager, self.server = self._call(start())
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.port}", retries=0)

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def close(self) -> None:
        """Stop the server and the loop thread, then the pool; wait for all."""
        try:
            self._call(self.server.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            if self.thread.is_alive():
                raise RuntimeError("the service event loop did not stop within 30 s")
            self.loop.close()
            self.backend.close()
            shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # One closed-loop pass over the job sequence
    # ------------------------------------------------------------------ #
    def run_pass(self, tracer: Optional[Tracer] = None, probe=None
                 ) -> Tuple[float, List[Dict]]:
        """One closed-loop pass; its time is the sum of the job latencies.
        ``probe``, when given, is called between every ``_PROBE_EVERY`` jobs."""
        poll = self.inputs["poll_interval_s"]
        client = self.client
        records: List[Dict] = []
        for index, job in enumerate(self.inputs["jobs"]):
            if probe is not None and index and index % _PROBE_EVERY == 0:
                probe()
            unit = f"job-{index}"
            if tracer is not None:
                tracer.current_unit = unit
            t0 = clock()
            submitted = client.submit(job["payload"])
            t1 = clock()
            status = client.wait(submitted["id"], timeout=_JOB_TIMEOUT_S,
                                 poll_interval=poll)
            t2 = clock()
            result = client.result(submitted["id"]) if status["state"] == "DONE" else None
            t3 = clock()
            records.append({"kind": job["kind"], "latency": t3 - t0, "status": status,
                            "result": result})
            if tracer is not None:
                span = tracer.add_span("job", unit, t0, t3)
                tracer.add_span("service.submit", unit, t0, t1, span.id)
                tracer.add_span("service.wait", unit, t1, t2, span.id)
                tracer.add_span("service.result", unit, t2, t3, span.id)
        return sum(record["latency"] for record in records), records


def measure(stack: Stack, seconds: float) -> Dict:
    """Identical passes for ``seconds`` (see :mod:`timing`), each on a fresh
    stack; ``stack``, built in set-up, serves the first."""
    stacks = [stack]
    numbers = itertools.count(1)

    def run_pass(probe) -> Tuple[float, List[Dict]]:
        current = stacks.pop() if stacks else Stack(
            stack.inputs, stack.workdir.parent / f"pass-{next(numbers)}")
        try:
            return current.run_pass(probe=probe)
        finally:
            current.close()

    measured = measure_passes(run_pass, seconds)
    passes = measured["payloads"]
    measured.update(passes=passes, attempted=sum(len(records) for records in passes),
                    steps=sum(trial["steps"] for record in passes[0]
                              if record["kind"] == "fresh" and record["result"]
                              for trial in _trials(record["result"])))
    return measured


def _trials(result: Dict) -> List[Dict]:
    return [trial for point in result["results"] for trial in point["trials"]]


def latency_metrics(records: List[Dict], seconds: float) -> Dict[str, float]:
    """Closed-loop job rate and latencies (milliseconds) over ``records``,
    the jobs of passes that took ``seconds`` in all."""
    every = [1000 * r["latency"] for r in records]
    warm = [1000 * r["latency"] for r in records if r["kind"] == "warm"]
    cold = [1000 * r["latency"] for r in records if r["kind"] == "fresh"]
    return {"service.jobs_per_s": len(records) / seconds,
            "service.job_p50_ms": _percentile(every, 50),
            "service.job_p90_ms": _percentile(every, 90),
            "service.warm_job_p50_ms": _percentile(warm, 50),
            "service.cold_job_p50_ms": _percentile(cold, 50)}


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #
def expected_results(inputs: Dict) -> Dict[int, Dict]:
    """Each fresh job's result as the direct path computes it, in-process:
    ``batch_tasks`` + ``run_trials`` (what ``run_spec`` runs), assembled in
    the ``run --format json`` shape, wall-clock fields stripped."""
    from repro.api.builder import ExperimentResult
    from repro.api.executor import batch_tasks, run_trials
    from repro.api.registry import collect_convergence
    from repro.experiments.reporting import jsonable
    from repro.service.requests import JobRequest

    expected = {}
    for index, job in enumerate(inputs["jobs"]):
        if job["kind"] != "fresh":
            continue
        request = JobRequest.from_payload(job["payload"])
        points = []
        for batch, family in zip(request.batch_requests(), request.validate()):
            outcomes = run_trials(batch_tasks(batch))
            summary = collect_convergence(outcomes[0].protocol_name, batch.population_size,
                                          outcomes)
            point = ExperimentResult(
                spec=batch.spec_name, protocol=summary.protocol_name,
                population_size=batch.population_size, family=family,
                seed=request.config.seed, max_steps=request.config.max_steps,
                workers=max(1, inputs["pool_workers"]), trials=tuple(outcomes),
                wall_time=0.0, topology=request.config.topology,
                topology_params=request.config.topology_params).to_dict()
            point["_run_spec_steps"] = summary.steps
            point["_run_spec_failures"] = summary.failures
            points.append(point)
        expected[index] = json.loads(json.dumps(_strip_wall_clock(jsonable(points))))
    return expected


def check_pass(inputs: Dict, records: List[Dict], expected: Dict[int, Dict]) -> List[str]:
    """Failures of one pass: state, served/executed counts, result identity."""
    failures = []
    trials = None
    for index, (job, record) in enumerate(zip(inputs["jobs"], records)):
        status = record["status"]
        trials = job["payload"]["trials"]
        want = (0, trials) if job["kind"] == "fresh" else (trials, 0)
        progress = status["progress"]
        got = (progress["trials_served"], progress["trials_executed"])
        if status["state"] != "DONE" or record["result"] is None:
            failures.append(f"job {index}: state {status['state']} ({status.get('error')})")
            continue
        if got != want:
            failures.append(f"job {index} ({job['kind']}): served/executed {got} != {want}")
        points = _strip_wall_clock(record["result"]["results"])
        reference = expected[job["of"]]
        direct = [{key: value for key, value in point.items() if not key.startswith("_")}
                  for point in reference]
        if points != direct:
            failures.append(f"job {index}: result differs from the direct path")
            continue
        for point, ref in zip(points, reference):
            converged = [t["steps"] for t in point["trials"] if t["converged"]]
            if (converged != ref["_run_spec_steps"]
                    or len(point["trials"]) - len(converged) != ref["_run_spec_failures"]):
                failures.append(f"job {index}: summary differs from run_spec")
            if len(converged) != len(point["trials"]):
                failures.append(f"job {index}: a trial missed its step budget")
    if len(records) != len(inputs["jobs"]):
        failures.append("a pass completed fewer jobs than submitted")
    return failures


def outcome_rows(inputs: Dict, records: List[Dict]) -> List[list]:
    """The pinned per-trial rows of a pass: fresh jobs only (warm ones repeat them)."""
    rows = []
    for job, record in zip(inputs["jobs"], records):
        if job["kind"] != "fresh" or record["result"] is None:
            continue
        for point in record["result"]["results"]:
            for trial in point["trials"]:
                rows.append([point["spec"], point["population_size"], trial["trial"],
                             trial["steps"], trial["converged"]])
    return rows


# ---------------------------------------------------------------------- #
# Traced run: wrapper store and pool
# ---------------------------------------------------------------------- #
class TracedStore:
    """A ``ResultsStore`` stand-in that times and counts every load and save."""

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    @property
    def write(self) -> bool:
        return self._store.write

    @property
    def root(self):
        return self._store.root

    def stats(self):
        return self._store.stats()

    def load(self, digest):
        started = clock()
        trials = self._store.load(digest)
        ended = clock()
        tracer = self._tracer
        tracer.count("store.seconds", ended - started)
        tracer.add_span("store.load", tracer.current_unit, started, ended)
        tracer.count("store.loads")
        tracer.count("store.hits" if trials else "store.misses")
        return trials

    def save(self, digest, meta, trials) -> None:
        started = clock()
        self._store.save(digest, meta, trials)
        ended = clock()
        self._tracer.count("store.seconds", ended - started)
        self._tracer.add_span("store.save", self._tracer.current_unit, started, ended)
        self._tracer.count("store.saves")


def traced_pool(tracer: Tracer, workers: int):
    """A ``WarmPool`` whose ``run_point`` is timed, with executed trials'
    own wall times collected to separate executor overhead."""
    from repro.service import WarmPool

    class TracedPool(WarmPool):
        def run_point(self, tasks, store=None, on_result=None):
            executed: List = []

            def observe(position, task, outcome, served):
                if served:
                    tracer.count("service.trials_served")
                else:
                    executed.append(outcome)
                    tracer.count("service.trials_executed")
                if on_result is not None:
                    on_result(position, task, outcome, served)

            store_before = tracer.counters.get("store.seconds", 0.0)
            started = clock()
            try:
                return super().run_point(tasks, store=store, on_result=observe)
            finally:
                ended = clock()
                tracer.add_span("pool.run_point", tracer.current_unit, started, ended)
                if executed:
                    store_time = tracer.counters.get("store.seconds", 0.0) - store_before
                    tracer.count("executor.trials", len(executed))
                    tracer.count("executor.overhead_s", (ended - started) - store_time
                                 - sum(outcome.wall_time for outcome in executed))

    return TracedPool(workers=workers)


def trace(inputs: Dict, workdir: Path, seconds: float
          ) -> Tuple[Dict[str, float], Tracer, List[str], Dict]:
    """Untraced passes for ``seconds``, then one traced pass on a fresh stack.

    Every stack starts cold, so all passes see the same state.  Per-layer
    figures are per pass; the job latencies come from the untraced passes.
    Returns (per-layer metrics, tracer, failures, the untraced measurement).
    """
    from repro.store import ResultsStore

    measured = measure(Stack(inputs, workdir / "pass-0"), seconds)
    untraced_records = measured["passes"][0]
    tracer = Tracer()
    stack = Stack(inputs, workdir / "traced",
                  store_factory=lambda root: TracedStore(ResultsStore(root), tracer),
                  backend=traced_pool(tracer, inputs["pool_workers"]))
    polls = [0]
    status = stack.client.status

    def counted_status(job_id):
        polls[0] += 1
        return status(job_id)

    stack.client.status = counted_status
    try:
        traced_wall, records = stack.run_pass(tracer)
        jobs = stack.manager.jobs()
    finally:
        stack.close()
    failures = check_pass(inputs, records, expected_results(inputs))
    if outcome_rows(inputs, records) != outcome_rows(inputs, untraced_records):
        failures.append("traced and untraced passes disagree")

    queue = [1000 * (job.started - job.created) for job in jobs if job.started]
    run = [1000 * (job.finished - job.started) for job in jobs if job.finished and job.started]
    c = tracer.counters
    metrics = {
        "executor.trials": c.get("executor.trials", 0),
        "executor.overhead_s": c.get("executor.overhead_s", 0.0),
        "store.loads": c.get("store.loads", 0),
        "store.load_s": tracer.total("store.load"),
        "store.hits": c.get("store.hits", 0),
        "store.misses": c.get("store.misses", 0),
        "store.saves": c.get("store.saves", 0),
        "store.save_s": tracer.total("store.save"),
        "service.submit_ms": 1000 * _median_span(tracer, "service.submit"),
        "service.queue_ms": _percentile(queue, 50),
        "service.run_ms": _percentile(run, 50),
        "service.result_ms": 1000 * _median_span(tracer, "service.result"),
        "service.polls_per_job": polls[0] / len(records),
        "service.trials_served": c.get("service.trials_served", 0),
        "service.trials_executed": c.get("service.trials_executed", 0),
        "tracing_overhead": traced_wall - measured["wall_s"],
    }
    metrics.update(latency_metrics([r for p in measured["passes"] for r in p],
                                   sum(measured["pass_times"])))
    return metrics, tracer, failures, measured


def _median_span(tracer: Tracer, name: str) -> float:
    return statistics.median(span.duration for span in tracer.spans if span.name == name)
