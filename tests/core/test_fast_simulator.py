"""Cross-check suite: the batched engine must be bit-identical to the step engine.

The contract that makes the batched engine safe to select automatically:
driven by the same arc stream, :class:`BatchedSimulation` produces the same
final configuration, step count, effective-step count, per-agent interaction
counts, and leader count as :class:`Simulation` — for every registered
protocol spec.  Specs whose state space cannot be enumerated (``ppl``) must
fall back to the step engine rather than fail.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentConfig, experiment, get_spec, list_specs, run_spec
from repro.core.encoding import StateEncoder
from repro.core.errors import InvalidParameterError, ScheduleExhaustedError, StateSpaceError
from repro.core.fast_simulator import (
    BatchedSimulation,
    NumpySimulation,
    numpy_available,
)
from repro.core.rng import RandomSource
from repro.core.scheduler import SequenceScheduler
from repro.core.simulator import Simulation
from repro.protocols.baselines.fischer_jiang import OracleSimulation

SIMULATED_SPECS = [spec.name for spec in list_specs() if spec.is_simulated]

#: Arc-stream length for the replay cross-checks: long enough to exercise
#: leader creation, elimination wars, and the converged (no-op) regime.
STREAM_LENGTH = 20_000


def _trial_ingredients(name: str, seed: int = 31):
    """Protocol, population, and initial configuration for one spec."""
    spec = get_spec(name)
    config = ExperimentConfig()
    n = next(k for k in range(8, 20) if spec.supports(k))
    protocol = spec.build_protocol(n, config)
    population = spec.build_population(n)
    initial = spec.build_configuration(
        spec.default_family, protocol, n, RandomSource(seed)
    )
    return spec, protocol, population, initial


@pytest.mark.parametrize("name", SIMULATED_SPECS)
def test_batched_engine_is_bit_identical_on_the_same_arc_stream(name):
    spec, protocol, population, initial = _trial_ingredients(name)
    encoder = StateEncoder.try_build(protocol, initial.states())
    if encoder is None:
        # The enumerate-or-fallback contract: large-state protocols cannot
        # encode, and the auto engine must hand them to the step loop.
        assert name == "ppl", f"{name} unexpectedly failed to encode"
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(1), engine="auto"
        )
        assert isinstance(simulation, Simulation)
        return

    rng = RandomSource(17)
    arcs = [population.sample_arc(rng) for _ in range(STREAM_LENGTH)]
    step_sim = Simulation(protocol, population, initial,
                          scheduler=SequenceScheduler(arcs))
    batched = BatchedSimulation(protocol, population, initial,
                                scheduler=SequenceScheduler(arcs), encoder=encoder)
    step_sim.run_sequence()
    batched.run_sequence()

    assert batched.states() == step_sim.states()
    assert batched.configuration().states() == step_sim.configuration().states()
    assert batched.steps == step_sim.steps == STREAM_LENGTH
    assert batched.metrics == step_sim.metrics  # steps, per-agent, effective
    assert batched.leader_count() == step_sim.leader_count()


@pytest.mark.parametrize("name", [n for n in SIMULATED_SPECS if n != "ppl"])
def test_batched_engine_matches_step_engine_from_the_same_seed(name):
    """The internal block drawing consumes the same randrange stream as
    UniformRandomScheduler, so equal seeds give equal executions."""
    _, protocol, population, initial = _trial_ingredients(name)
    step_sim = Simulation(protocol, population, initial, rng=123)
    batched = BatchedSimulation(protocol, population, initial, rng=123)
    step_sim.run(7_500)
    batched.run(7_500)
    assert batched.states() == step_sim.states()
    assert batched.metrics == step_sim.metrics


def test_run_until_semantics_match_the_step_engine():
    spec, protocol, population, initial = _trial_ingredients("angluin-modk")
    predicate = spec.build_stop_predicate(protocol, population)
    step_run = Simulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=400_000, check_interval=64
    )
    batched_run = BatchedSimulation(protocol, population, initial, rng=5).run_until(
        predicate, max_steps=400_000, check_interval=64
    )
    assert batched_run.satisfied == step_run.satisfied
    assert batched_run.steps == step_run.steps
    assert batched_run.configuration.states() == step_run.configuration.states()


def test_batched_step_reports_state_changes_and_counts():
    _, protocol, population, initial = _trial_ingredients("yokota2021")
    batched = BatchedSimulation(protocol, population, initial, rng=2)
    outcomes = [batched.step() for _ in range(50)]
    assert any(outcomes)
    assert batched.steps == 50
    assert sum(batched.metrics.interactions_per_agent.values()) == 100


def test_batched_sequence_exhaustion_leaves_consistent_counters():
    _, protocol, population, initial = _trial_ingredients("fischer-jiang")
    arcs = [population.sample_arc(RandomSource(9)) for _ in range(75)]
    batched = BatchedSimulation(protocol, population, initial,
                                scheduler=SequenceScheduler(arcs))
    batched.run_sequence()
    assert batched.steps == 75
    with pytest.raises(ScheduleExhaustedError):
        batched.step()
    assert batched.steps == 75  # the failed step was not recorded


def test_fast_draw_callable_consumes_the_same_stream_as_randrange():
    """The batched engine's block draws skip the randrange wrapper; the
    shortcut must consume the seeded generator identically."""
    reference, fast_source = RandomSource(99), RandomSource(99)
    fast = fast_source.randrange_callable()
    assert [reference.randrange(1000) for _ in range(5000)] == \
           [fast(1000) for _ in range(5000)]


def test_batched_engine_keeps_lazy_populations_lazy():
    """The engine must index through arc_by_index on implicit arc sets
    rather than forcing a large complete graph to materialize its arcs."""
    from repro.core.configuration import random_configuration
    from repro.protocols.baselines.fischer_jiang import FischerJiangProtocol
    from repro.topology.complete import CompleteGraph

    protocol = FischerJiangProtocol()
    graph = CompleteGraph(1_500)  # ~2.2M implicit arcs
    initial = random_configuration(protocol, graph.size, RandomSource(4))
    batched = BatchedSimulation(protocol, graph, initial, rng=4)
    batched.run(2_000)
    assert graph._materialized is None
    # Same draws as the step engine's uniformly random scheduler.
    reference = Simulation(protocol, graph, initial, rng=4)
    reference.run(2_000)
    assert graph._materialized is None
    assert batched.states() == reference.states()


def test_batched_engine_rejects_observers():
    _, protocol, population, initial = _trial_ingredients("fischer-jiang")
    batched = BatchedSimulation(protocol, population, initial, rng=1)
    with pytest.raises(InvalidParameterError):
        batched.add_observer(lambda *args: None)


#: Every engine tier installed here, by name.
ENGINE_CLASSES = {"step": Simulation, "batched": BatchedSimulation}
if numpy_available():
    ENGINE_CLASSES["numpy"] = NumpySimulation


@pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
def test_run_sequence_rejects_a_random_source(engine):
    """A simulation drawing from a random source has no end to drain.

    Regression: the step engine used to draw forever here.  The transition
    guard turns such a loop into a failure instead of a hang.
    """
    _, protocol, population, initial = _trial_ingredients("yokota2021")
    simulation = ENGINE_CLASSES[engine](protocol, population, initial, rng=3)
    calls = []

    def bounded(initiator, responder, transition=protocol.transition):
        calls.append(None)
        if len(calls) > 10_000:
            raise RuntimeError("run_sequence kept drawing from the random source")
        return transition(initiator, responder)

    protocol.transition = bounded
    with pytest.raises(InvalidParameterError):
        simulation.run_sequence()
    assert simulation.steps == 0


@pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
def test_run_rejects_a_negative_step_count(engine):
    """Regression: the step engine used to return silently on run(-5)."""
    _, protocol, population, initial = _trial_ingredients("yokota2021")
    simulation = ENGINE_CLASSES[engine](protocol, population, initial, rng=3)
    with pytest.raises(InvalidParameterError):
        simulation.run(-5)
    assert simulation.steps == 0


# ---------------------------------------------------------------------- #
# Engine selection through the spec / executor / builder layers
# ---------------------------------------------------------------------- #
def test_auto_engine_selection_per_spec():
    # 96 declared states: angluin-modk encodes, so auto picks the fastest
    # applicable table tier (numpy when installed, batched otherwise).
    table_tier = NumpySimulation if numpy_available() else BatchedSimulation
    cases = {
        "angluin-modk": table_tier,
        "ppl": Simulation,                  # too many states: falls back
        "fischer-jiang": OracleSimulation,  # custom factory: step engine
    }
    for name, expected_type in cases.items():
        spec, protocol, population, initial = _trial_ingredients(name)
        simulation = spec.build_simulation(
            protocol, population, initial, RandomSource(1), engine="auto"
        )
        assert type(simulation) is expected_type, name


def test_forced_batched_engine_errors_are_loud():
    spec, protocol, population, initial = _trial_ingredients("ppl")
    with pytest.raises(StateSpaceError):
        spec.build_simulation(protocol, population, initial, RandomSource(1),
                              engine="batched")
    fj_spec = get_spec("fischer-jiang")
    with pytest.raises(ValueError):
        fj_spec.resolve_engine("batched")
    with pytest.raises(ValueError):
        spec.resolve_engine("warp")


def test_forced_step_engine_always_applies():
    spec, protocol, population, initial = _trial_ingredients("angluin-modk")
    simulation = spec.build_simulation(
        protocol, population, initial, RandomSource(1), engine="step"
    )
    assert isinstance(simulation, Simulation)


def test_run_spec_results_are_identical_across_engines():
    config = ExperimentConfig(trials=3, max_steps=400_000, check_interval=64)
    step = run_spec("angluin-modk", 9, config, engine="step")
    batched = run_spec("angluin-modk", 9, config, engine="batched")
    auto = run_spec("angluin-modk", 9, config, engine="auto")
    assert step.steps == batched.steps == auto.steps
    assert step.failures == batched.failures == auto.failures
    if numpy_available():
        vectorized = run_spec("angluin-modk", 9, config, engine="numpy")
        assert vectorized.steps == step.steps
        assert vectorized.failures == step.failures


def test_builder_reports_the_engine_that_ran():
    table_tier = "numpy" if numpy_available() else "batched"
    auto = (experiment("angluin-modk").on_ring(9).trials(2)
            .max_steps(400_000).engine("auto").run())
    assert {trial.engine for trial in auto.trials} == {table_tier}
    forced = (experiment("angluin-modk").on_ring(9).trials(2)
              .max_steps(400_000).engine("batched").run())
    assert {trial.engine for trial in forced.trials} == {"batched"}
    fallback = (experiment("ppl").on_ring(8).trials(1)
                .max_steps(400_000).engine("auto").run())
    assert {trial.engine for trial in fallback.trials} == {"step"}
    with pytest.raises(ValueError):
        experiment("fischer-jiang").engine("batched")
    with pytest.raises(ValueError):
        experiment("fischer-jiang").engine("numpy")
