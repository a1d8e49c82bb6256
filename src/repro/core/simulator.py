"""The simulation engines' shared core, and the step engine.

An execution ``Xi_P(C_0, Gamma) = C_0, C_1, ...`` applies the transition
function to the arc the scheduler picks at each step (Section 2).

:class:`EngineCore` is written once for all three engine tiers: the
population-size check, the accessors, the flat step / effective-step /
per-agent counters (and their part of the snapshot), and the run driver —
``run``, ``run_sequence`` and the burst/backoff loop of ``run_until``.  An
engine supplies only what really differs: how it steps a block
(``_advance``), where it draws arcs from when no scheduler is given
(``_random_stream``), how the agent states look from outside (``states`` and
the predicate view ``_view``), and its own part of the snapshot.

:class:`Simulation`, the step engine, keeps a mutable working copy of the
agent states and applies ``protocol.transition`` one interaction at a time
through :meth:`Simulation.step`, the hook that observers and subclasses
(e.g. the oracle-augmented Fischer-Jiang simulation) extend.  The table
tiers live in :mod:`repro.core.fast_simulator`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

from repro.core.configuration import Configuration
from repro.core.errors import (
    ConvergenceError,
    InvalidConfigurationError,
    InvalidParameterError,
    ScheduleExhaustedError,
)
from repro.core.metrics import StepMetrics
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource
from repro.core.scheduler import Scheduler, UniformRandomScheduler
from repro.topology.graph import Population

StateT = TypeVar("StateT")

#: Predicate over the list of agent states, evaluated periodically by run_until.
StatePredicate = Callable[[Sequence[StateT]], bool]
#: Observer invoked after every interaction: (step, initiator, responder, states).
InteractionObserver = Callable[[int, int, int, Sequence[StateT]], None]

#: Default ceiling of the geometric check-interval backoff (see
#: :func:`resolve_check_cap`): long pre-convergence phases stop paying a
#: predicate decode every ``check_interval`` steps, while the worst-case
#: overshoot past the true hitting time stays bounded.
DEFAULT_CHECK_INTERVAL_CAP = 65_536


def resolve_check_cap(check_interval: int, check_backoff: bool,
                      check_interval_cap: Optional[int]) -> int:
    """Validate and resolve the burst ceiling for ``run_until``.

    The burst schedule — and therefore the exact number of scheduler draws
    between predicate checks — depends only on these arguments, so
    cross-engine step counts stay bit-identical whether backoff is on or off.
    """
    if check_interval < 1:
        raise ValueError(f"check_interval must be positive, got {check_interval}")
    if not check_backoff:
        return check_interval
    if check_interval_cap is None:
        return max(check_interval, DEFAULT_CHECK_INTERVAL_CAP)
    if check_interval_cap < check_interval:
        raise ValueError(
            f"check_interval_cap must be >= check_interval "
            f"({check_interval}), got {check_interval_cap}"
        )
    return check_interval_cap


@dataclass
class RunResult(Generic[StateT]):
    """Outcome of :meth:`EngineCore.run_until`."""

    #: True when the stop predicate held before the step budget ran out.
    satisfied: bool
    #: Total number of steps executed by this call.
    steps: int
    #: The configuration at the end of the run.
    configuration: Configuration[StateT]

    def require_satisfied(self) -> "RunResult[StateT]":
        """Raise :class:`ConvergenceError` unless the predicate was reached."""
        if not self.satisfied:
            raise ConvergenceError(
                f"predicate not reached within {self.steps} steps", self.steps
            )
        return self


class EngineCore(Generic[StateT]):
    """Executes one protocol on one population under one arc stream.

    The arc stream is an explicit ``scheduler`` (any :class:`Scheduler`,
    e.g. a ``SequenceScheduler`` for replays and cross-checks) or, when none
    is given, the engine's own uniformly random drawing seeded from ``rng``.
    Every tier consumes the same ``randrange`` draws in the same order, so
    the same seed gives bit-identical runs on every engine.

    Subclasses set :attr:`name` and implement :meth:`_random_stream`,
    :meth:`_advance` and :meth:`states`; they override :meth:`_view` when
    the predicate should see something cheaper than :meth:`states`, and
    extend :meth:`snapshot`/:meth:`restore` with their own run state.
    """

    #: The engine's name across the stack (config, registry, CLI, results).
    name = ""
    #: Upper bound on one :meth:`_advance` call: bounds per-block buffers
    #: regardless of how many steps one run()/run_until() burst asks for.
    _block = 65_536

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler],
        rng: "RandomSource | int | None",
    ) -> None:
        if len(initial) != population.size:
            raise InvalidConfigurationError(
                f"configuration has {len(initial)} agents but the population has "
                f"{population.size}"
            )
        # Shared immutable structure, identical across snapshot/restore.
        # The explicit scheduler (None when the engine draws its own arcs)
        # is only a binding: its position is captured through _stream.
        self._protocol = protocol  # repro: allow[REP006]
        self._population = population  # repro: allow[REP006]
        self._scheduler = scheduler  # repro: allow[REP006]
        self._stream = (scheduler if scheduler is not None
                        else self._random_stream(population, rng))
        self._total_steps = 0
        self._effective_steps = 0
        self._interactions = self._new_counters(population.size)

    # ------------------------------------------------------------------ #
    # What an engine supplies
    # ------------------------------------------------------------------ #
    def _random_stream(self, population: Population,
                       rng: "RandomSource | int | None"):
        """The arc source used when no scheduler is given.

        Must offer ``getstate``/``setstate`` (the stream position is part of
        the snapshot).
        """
        raise NotImplementedError

    def _new_counters(self, size: int):
        """Zeroed per-agent interaction counters (a list, or an array)."""
        return [0] * size

    def _advance(self, count: int) -> None:
        """Execute ``count <= _block`` interactions, updating the counters.

        A mid-block :class:`ScheduleExhaustedError` must leave every counter
        exactly at the executed prefix.
        """
        raise NotImplementedError

    def states(self) -> List[StateT]:
        """The agent states, in agent order."""
        raise NotImplementedError

    def _view(self) -> Sequence[StateT]:
        """What a ``run_until`` predicate sees (read-only for the predicate)."""
        return self.states()

    def _agent_state(self, agent: int) -> StateT:
        """The state of one (in-range) agent, as :meth:`state_of` returns it."""
        return self.states()[agent]

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def protocol(self) -> Protocol[StateT]:
        """The protocol being executed."""
        return self._protocol

    @property
    def population(self) -> Population:
        """The population graph."""
        return self._population

    @property
    def steps(self) -> int:
        """Total number of steps executed so far."""
        return self._total_steps

    @property
    def effective_steps(self) -> int:
        """Steps in which the transition actually changed some state."""
        return self._effective_steps

    @property
    def metrics(self) -> StepMetrics:
        """Step metrics, materialized from the flat counters.

        The returned object is a snapshot: later steps do not update it.
        """
        per_agent = {
            agent: int(count)
            for agent, count in enumerate(self._interactions)
            if count
        }
        return StepMetrics(
            steps=self._total_steps,
            interactions_per_agent=per_agent,
            effective_steps=self._effective_steps,
        )

    def state_of(self, agent: int) -> StateT:
        """Current state of one agent; out-of-range indices raise ``IndexError``."""
        size = self._population.size
        if not 0 <= agent < size:
            raise IndexError(
                f"agent {agent} out of range for a population of {size}"
            )
        return self._agent_state(agent)

    def configuration(self) -> Configuration[StateT]:
        """Immutable snapshot of the current configuration."""
        return Configuration(self.states())

    def leader_count(self) -> int:
        """Number of agents currently outputting the leader symbol."""
        return sum(1 for state in self._view() if self._protocol.is_leader(state))

    def add_observer(self, observer: InteractionObserver) -> None:
        """Register a callback invoked after every interaction.

        Only the step engine supports observers: on the table tiers they
        would reintroduce a Python call per step.
        """
        raise InvalidParameterError(
            f"the {self.name} engine does not support per-interaction observers; "
            "use the step engine (Simulation) for traced runs"
        )

    # ------------------------------------------------------------------ #
    # State capture (the engine snapshot/restore contract)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Capture the full execution state as an opaque mapping.

        The snapshot covers the agent states, the arc stream's position, and
        every counter, so ``snapshot -> restore -> run`` is bit-identical to
        an uninterrupted run.  Together with the fact that repeated
        :meth:`run_until` calls resume where the previous segment stopped,
        this is what lets phased scenarios replay any segment on any engine.
        """
        return {
            "stream": self._stream.getstate(),
            "total_steps": self._total_steps,
            "effective_steps": self._effective_steps,
            "interactions": self._interactions.copy(),
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        self._stream.setstate(snapshot["stream"])
        self._total_steps = snapshot["total_steps"]
        self._effective_steps = snapshot["effective_steps"]
        self._interactions = snapshot["interactions"].copy()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _advance_chunked(self, count: int) -> None:
        """Execute ``count`` interactions in block-bounded chunks."""
        remaining = count
        block = self._block
        while remaining > 0:
            chunk = min(remaining, block)
            self._advance(chunk)
            remaining -= chunk

    def step(self) -> bool:
        """Execute one interaction; return True when some state changed."""
        before = self._effective_steps
        self._advance(1)
        return self._effective_steps != before

    def run(self, steps: int) -> Configuration[StateT]:
        """Execute exactly ``steps`` interactions and return the final snapshot."""
        if steps < 0:
            raise InvalidParameterError(f"steps must be non-negative, got {steps}")
        self._advance_chunked(steps)
        return self.configuration()

    def run_sequence(self) -> Configuration[StateT]:
        """Run until the (deterministic) scheduler is exhausted.

        Only meaningful with a finite explicit scheduler such as a
        :class:`~repro.core.scheduler.SequenceScheduler`; a simulation that
        draws from a random source would never stop, so it is rejected.
        """
        if self._scheduler is None:
            raise InvalidParameterError(
                "run_sequence needs an explicit (finite) scheduler; this "
                "simulation draws from a random source"
            )
        try:
            while True:
                self._advance(self._block)
        except ScheduleExhaustedError:
            pass
        return self.configuration()

    def run_until(
        self,
        predicate: StatePredicate,
        max_steps: int,
        check_interval: int = 1,
        check_backoff: bool = False,
        check_interval_cap: Optional[int] = None,
    ) -> RunResult[StateT]:
        """Run until ``predicate(states)`` holds, checking every ``check_interval`` steps.

        The predicate is evaluated on :meth:`_view` before the first step and
        then after every ``check_interval`` steps, so the reported step count
        overshoots the true hitting time by at most ``check_interval - 1``
        steps.  On the table tiers the view is a zero-copy decoding in which
        agents in equal states share one object, so predicates must treat the
        sequence as read-only (all predicates in this package do).

        ``check_backoff=True`` doubles the interval after every unsatisfied
        check, up to ``check_interval_cap`` (default
        :data:`DEFAULT_CHECK_INTERVAL_CAP`), trading overshoot (bounded by
        the cap) for fewer predicate evaluations during long pre-convergence
        phases.  The schedule is the same on every engine, so step counts
        still agree engine-to-engine for the same arc stream.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        cap = resolve_check_cap(check_interval, check_backoff, check_interval_cap)
        if predicate(self._view()):
            return RunResult(True, 0, self.configuration())
        executed = 0
        interval = check_interval
        while executed < max_steps:
            burst = min(interval, max_steps - executed)
            self._advance_chunked(burst)
            executed += burst
            if predicate(self._view()):
                return RunResult(True, executed, self.configuration())
            if check_backoff and interval < cap:
                interval = min(interval * 2, cap)
        return RunResult(False, executed, self.configuration())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} protocol={self._protocol.name!r} "
            f"population={self._population.name!r} steps={self._total_steps}>"
        )


class Simulation(EngineCore[StateT]):
    """The step engine: one ``protocol.transition`` call per interaction.

    Keeps a mutable working copy of the agent states for speed (the
    convergence experiments run millions of interactions) and works for any
    protocol, enumerable or not.  It is the only tier with per-interaction
    observers (:class:`~repro.core.recorder.TraceRecorder` and friends).
    """

    name = "step"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "RandomSource | int | None" = None,
    ) -> None:
        super().__init__(protocol, population, initial, scheduler, rng)
        self._states: List[StateT] = initial.states()
        # Observers are attachments of the *driver*, not of the simulated
        # run, and deliberately survive a restore un-rewound.
        self._observers: List[InteractionObserver] = []  # repro: allow[REP006]

    def _random_stream(self, population: Population,
                       rng: "RandomSource | int | None") -> Scheduler:
        return UniformRandomScheduler(population, rng)

    def states(self) -> List[StateT]:
        """The live (mutable) list of agent states.

        Callers must treat the returned list as read-only; it is exposed
        without copying because safety predicates are evaluated every few
        steps during long convergence runs.
        """
        return self._states

    def add_observer(self, observer: InteractionObserver) -> None:
        """Register a callback invoked after every interaction."""
        self._observers.append(observer)

    def snapshot(self) -> dict:
        """Capture the full execution state (see :meth:`EngineCore.snapshot`).

        States are deep-copied in both directions: protocols with mutable
        state objects (``PPLState`` and friends) update them in place, so a
        shallow capture would be silently corrupted by further execution.
        """
        snapshot = super().snapshot()
        snapshot["states"] = copy.deepcopy(self._states)
        return snapshot

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        super().restore(snapshot)
        self._states = copy.deepcopy(snapshot["states"])

    def step(self) -> bool:
        """Execute one interaction; return True when some state changed."""
        initiator, responder = self._stream.next_arc()
        states = self._states
        before_initiator = states[initiator]
        before_responder = states[responder]
        after_initiator, after_responder = self._protocol.transition(
            before_initiator, before_responder
        )
        changed = (after_initiator != before_initiator) or (after_responder != before_responder)
        states[initiator] = after_initiator
        states[responder] = after_responder
        self._total_steps += 1
        if changed:
            self._effective_steps += 1
        counts = self._interactions
        counts[initiator] += 1
        counts[responder] += 1
        for observer in self._observers:
            observer(self._total_steps, initiator, responder, states)
        return changed

    def _advance(self, count: int) -> None:
        step = self.step
        for _ in range(count):
            step()
