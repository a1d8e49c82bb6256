"""The sweep workloads: ``paper-step`` and ``baseline-numpy``.

Each sweep point runs its seeded trial stream through the executor core
(:func:`repro.api.executor.run_trials`, serial, engine ``auto``) for a
quota of interactions (see :mod:`workloads`).  Every trial runs under the
point's step budget and must converge, except the one that would cross
the quota: it is cut at what is left of the quota.  Which trial crosses is
found by an untimed dry run of the stream after set-up, so every timed pass
runs the same fixed task list.  The cut trial's config differs from the
point's config only in ``max_steps``, which is part of the shared-encoder
cache key, so each point compiles one more encoder, during the dry run: a
user's sweep compiles one encoder per point, and that compile belongs to
``setup_s``, not to the timed phase.

The traced run repeats the same trial sequence through the public calls
``execute_trial`` makes (``spec.build_*``, ``shared_encoder``,
``build_simulation``, ``run_until``), wrapping the protocol's
``transition``, the stop predicate and the encoder's ``decode_view`` on the
instances it holds, and checks every traced trial against its untraced
``TrialResult``.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
from typing import Dict, List, Tuple

from timing import measure_passes
from tracing import Tracer, census_transition, clock, timed_call

#: Trial tasks derived per point by the dry run; extended in the unlikely
#: case a stream needs more.
_INITIAL_TASKS = 64


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One trial of a pass: what the correctness gate pins."""

    spec: str
    n: int
    trial: int
    steps: int
    converged: bool
    #: Cut at the rest of the quota rather than run under the budget.
    cut: bool

    def row(self) -> list:
        return [self.spec, self.n, self.trial, self.steps, self.converged]


class Sweep:
    """Set-up state of one sweep workload: per-point configs and trial lists."""

    def __init__(self, inputs: Dict) -> None:
        from repro.api.config import ExperimentConfig
        from repro.api.executor import shared_encoder

        self.inputs = inputs
        self.points = inputs["points"]
        self.configs = [ExperimentConfig(seed=inputs["config_seed"],
                                         max_steps=point["budget"], trials=1)
                        for point in self.points]
        #: Per point, the tasks of one pass (filled by :meth:`plan`).
        self.tasks: List[list] = []
        self.plan_s = 0.0
        #: Seconds and enumerated states of the points' encoder compiles,
        #: which happen here, in set-up (numpy tier only).
        self.encoder_build_s = 0.0
        self.encoder_states = 0
        for point, config in zip(self.points, self.configs):
            started = clock()
            encoder = shared_encoder(point["spec"], point["n"], config)
            self.encoder_build_s += clock() - started
            self.encoder_states += getattr(encoder, "num_states", 0)

    def plan(self) -> None:
        """Dry-run every point's stream once, untimed, to fix its task list:
        trials under the budget while they end inside the quota, then the
        crossing trial cut at the rest of it.  A trial that misses the budget
        ends the list uncut, so every pass repeats the miss."""
        from repro.api.executor import BatchRequest, batch_tasks, run_trials, shared_encoder

        started = clock()
        self.tasks = []
        for index, point in enumerate(self.points):
            request = BatchRequest(spec_name=point["spec"], population_size=point["n"],
                                   config=self.configs[index], family=point["family"],
                                   trials=_INITIAL_TASKS)
            stream = batch_tasks(request)
            tasks = []
            remaining = point["quota"]
            while remaining > 0:
                if len(tasks) == len(stream):
                    request = dataclasses.replace(request, trials=4 * len(stream))
                    stream = batch_tasks(request)
                task = stream[len(tasks)]
                result = run_trials([task])[0]
                if tasks and result.converged and result.steps >= remaining:
                    task = dataclasses.replace(
                        task, config=dataclasses.replace(task.config, max_steps=remaining))
                    shared_encoder(task.spec_name, task.population_size, task.config)
                tasks.append(task)
                if not result.converged:
                    break
                remaining -= result.steps
            self.tasks.append(tasks)
        self.plan_s = clock() - started

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------ #
    # One pass: the trial loop shared by the untraced and traced passes
    # ------------------------------------------------------------------ #
    def _pass(self, execute, probe=None) -> Tuple[float, List[Outcome], list]:
        """Run every point's task list once; returns (timed seconds,
        outcomes, the TrialResults).  ``probe``, when given, is called with
        the clock stopped before every trial."""
        elapsed = 0.0
        outcomes: List[Outcome] = []
        results = []
        for point, tasks in zip(self.points, self.tasks):
            for task in tasks:
                if probe is not None:
                    probe()
                started = clock()
                result = execute(task)
                elapsed += clock() - started
                outcomes.append(Outcome(point["spec"], point["n"], result.trial,
                                        result.steps, result.converged,
                                        task.config.max_steps < point["budget"]))
                results.append(result)
        return elapsed, outcomes, results

    def untraced_pass(self, probe=None) -> Tuple[float, List[Outcome], list]:
        from repro.api.executor import run_trials

        return self._pass(lambda task: run_trials([task])[0], probe)

    # ------------------------------------------------------------------ #
    # Timed phase
    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> Dict:
        """Identical passes for ``seconds`` (see :mod:`timing`), after the
        dry run that fixes them."""
        self.plan()
        measured = measure_passes(lambda probe: _split(self.untraced_pass(probe)), seconds)
        outcomes = [payload[0] for payload in measured["payloads"]]
        measured.update(outcomes=outcomes,
                        results=[payload[1] for payload in measured["payloads"]],
                        steps=sum(o.steps for o in outcomes[0]),
                        attempted=sum(len(pass_outcomes) for pass_outcomes in outcomes),
                        plan_s=self.plan_s)
        return measured

    # ------------------------------------------------------------------ #
    # Traced run
    # ------------------------------------------------------------------ #
    def traced_pass(self, tracer: Tracer, census: Dict) -> Tuple[float, List[Outcome], list]:
        units = itertools.count()
        return self._pass(lambda task: _traced_trial(task, tracer, census,
                                                     f"trial-{next(units)}"))


def _split(outcome: Tuple[float, List[Outcome], list]) -> Tuple[float, tuple]:
    elapsed, outcomes, results = outcome
    return elapsed, (outcomes, results)


def _traced_trial(task, tracer: Tracer, census: Dict, unit: str):
    """``execute_trial``'s public calls, one span per layer boundary."""
    from repro.api.executor import UNSHARED, TrialResult, shared_encoder
    from repro.api.registry import get_spec
    from repro.core.fast_simulator import BatchedSimulation, NumpySimulation
    from repro.core.rng import RandomSource

    spec = get_spec(task.spec_name)
    n = task.population_size
    with tracer.span("trial", unit):
        with tracer.span("registry.trial_setup"):
            protocol = spec.build_protocol(n, task.config)
            population = spec.build_population(n, task.config)
            initial = spec.build_configuration(
                task.family, protocol, n, RandomSource(task.configuration_seed),
                population=population)
            predicate = spec.build_stop_predicate(protocol, population)
        engine = task.config.engine
        encoder = None
        with tracer.span("encoding.shared"):
            if spec.resolve_engine(engine) != "step":
                encoder = shared_encoder(task.spec_name, n, task.config)
                if encoder is UNSHARED:
                    encoder = None
                elif encoder is None and spec.resolve_engine(engine) == "auto":
                    engine = "step"
        if encoder is not None and not encoder.covers(initial.states()):
            tracer.count("encoding.fallbacks")
        transitions = [0, 0.0]
        census_totals = [0, 0.0]
        pairs, states = census.setdefault((task.spec_name, n), (set(), set()))
        protocol.transition = census_transition(protocol.transition, transitions,
                                                census_totals, pairs, states)
        started = clock()
        with tracer.span("engine.build"):
            simulation = spec.build_simulation(
                protocol, population, initial, RandomSource(task.scheduler_seed),
                engine=engine, encoder=encoder)
        predicate_totals = [0, 0.0]
        decode_totals = [0, 0.0]
        simulation_encoder = getattr(simulation, "encoder", None)
        if simulation_encoder is not None:
            simulation_encoder.decode_view = timed_call(
                type(simulation_encoder).decode_view.__get__(simulation_encoder),
                decode_totals)
        if isinstance(simulation, NumpySimulation):
            engine_name = "numpy"
        elif isinstance(simulation, BatchedSimulation):
            engine_name = "batched"
        else:
            engine_name = "step"
        try:
            with tracer.span(f"engine.{engine_name}.run_until") as run_span:
                run = simulation.run_until(
                    timed_call(predicate, predicate_totals),
                    max_steps=task.config.max_steps,
                    check_interval=task.config.check_interval,
                    check_backoff=task.config.check_backoff)
        finally:
            if simulation_encoder is not None:
                del simulation_encoder.decode_view  # the encoder may be shared
        wall_time = clock() - started
        run_span.rollups = {"protocols.transition": transitions,
                            "protocols.census": census_totals,
                            "predicate": predicate_totals,
                            "encoding.decode_view": decode_totals}
    tracer.count(f"engine.{engine_name}.trials")
    tracer.count(f"engine.{engine_name}.steps", run.steps)
    if engine_name == "numpy":
        tracer.count("engine.numpy.bursts", predicate_totals[0] - 1)
    return TrialResult(trial=task.trial, steps=run.steps, converged=run.satisfied,
                       wall_time=wall_time, engine=engine_name,
                       protocol_name=protocol.name)


def trace(sweep: Sweep, seconds: float) -> Tuple[Dict[str, float], Tracer, List[str], Dict]:
    """Untraced passes for ``seconds``, then one traced pass of the same trials.

    Per-layer figures are per pass.  Returns them, the tracer (for the span
    file), the failures of traced trials that disagree with their untraced
    ``TrialResult``, and the untraced measurement.
    """
    measured = sweep.measure(seconds)
    untraced_outcomes = measured["outcomes"][0]
    # Executor overhead of a pass: time in run_trials beyond the trials' own.
    overheads = [elapsed - sum(r.wall_time for r in results)
                 for elapsed, results in zip(measured["pass_times"], measured["results"])]
    tracer = Tracer()
    census: Dict = {}
    traced_wall, traced_outcomes, _ = sweep.traced_pass(tracer, census)
    failures = [f"traced trial {a.row()} != untraced {b.row()}"
                for a, b in zip(traced_outcomes, untraced_outcomes) if a != b]
    if len(traced_outcomes) != len(untraced_outcomes):
        failures.append("traced and untraced passes ran different trial counts")

    calls, transition_s = tracer.rollup("protocols.transition")
    predicate_calls, predicate_s = tracer.rollup("predicate")
    decode_calls, decode_s = tracer.rollup("encoding.decode_view")
    distinct_pairs = sum(len(pairs) for pairs, _ in census.values())
    distinct_states = sum(len(states) for _, states in census.values())
    c = tracer.counters
    metrics = {
        "executor.trials": len(untraced_outcomes),
        "executor.overhead_s": statistics.median(overheads),
        "registry.trial_setup_s": tracer.total("registry.trial_setup"),
        "encoding.build_s": sweep.encoder_build_s,
        "encoding.states": sweep.encoder_states,
        "encoding.fallbacks": c.get("encoding.fallbacks", 0),
        "encoding.decode_calls": decode_calls,
        "encoding.decode_s": decode_s,
        "engine.step.trials": c.get("engine.step.trials", 0),
        "engine.step.steps": c.get("engine.step.steps", 0),
        "engine.step.self_s": tracer.self_time("engine.step.run_until"),
        "engine.numpy.trials": c.get("engine.numpy.trials", 0),
        "engine.numpy.steps": c.get("engine.numpy.steps", 0),
        "engine.numpy.bursts": c.get("engine.numpy.bursts", 0),
        "engine.numpy.self_s": tracer.self_time("engine.numpy.run_until"),
        "protocols.transition_calls": calls,
        "protocols.transition_s": transition_s,
        "protocols.distinct_pairs": distinct_pairs,
        "protocols.distinct_states": distinct_states,
        "protocols.pair_repeat_ratio": 1 - distinct_pairs / calls if calls else 0.0,
        "predicate.calls": predicate_calls,
        "predicate.s": predicate_s,
        "predicate.us_per_call": 1e6 * predicate_s / predicate_calls if predicate_calls else 0.0,
        "tracing_overhead": traced_wall - measured["wall_s"],
    }
    return metrics, tracer, failures, measured
