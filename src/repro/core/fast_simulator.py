"""The table engine tiers: table-driven stepping over integer codes.

Both tiers are :class:`~repro.core.simulator.EngineCore` subclasses: the run
driver, accessors, counters and snapshot contract are the core's, and each
tier here contributes its ``_advance`` kernel, its random arc source, and the
code array its stop predicate is decoded from.

:class:`BatchedSimulation` is a drop-in replacement for
:class:`~repro.core.simulator.Simulation` for protocols whose state space a
:class:`~repro.core.encoding.StateEncoder` can enumerate.  Instead of one
``protocol.transition`` Python call, two state writes, and an observer loop
per interaction, it

* draws scheduler arcs in blocks (one ``randrange`` per step, the same draws
  in the same order as :class:`~repro.core.scheduler.UniformRandomScheduler`,
  so random streams are bit-identical across engines),
* applies each interaction with two list lookups through the compiled
  transition table over an integer state array, and
* tracks ``steps`` / ``effective_steps`` / per-agent interaction counts /
  the leader count incrementally, so metrics cost O(1) per step and
  ``leader_count()`` is O(1) instead of an O(n) scan.

The third tier, :class:`NumpySimulation`, vectorizes the replay itself: arc
indices are recovered from bulk generator words (the exact ``randrange``
stream, see :meth:`~repro.core.rng.RandomSource.randbits_words`), endpoints
come from the population's vectorized ``numpy_endpoints``, and each block is
partitioned into conflict-free layers — within a layer no agent appears
twice, so the table applications commute and run as one gather/scatter —
with all counters updated by vectorized reductions.  ``numpy`` is an
*optional* dependency: nothing here imports it at module load, and
:func:`numpy_available` gates every selection path so the package keeps
working (on the step and batched tiers) without it.

Equivalence contract
--------------------
Driven by the same arc stream (an explicit
:class:`~repro.core.scheduler.SequenceScheduler`, or the internal random
draws from the same seed), a :class:`BatchedSimulation` or
:class:`NumpySimulation` produces **bit-identical** final configurations,
step counts, effective-step counts, and per-agent interaction counts to
:class:`Simulation` — the cross-check suites in
``tests/core/test_fast_simulator.py`` and
``tests/core/test_numpy_simulator.py`` assert this for every registered
protocol spec (the latter over every supported topology too).  What the
table engines do *not* support are per-interaction observers (there is
deliberately no per-step callback on the hot path); use the step engine when
a :class:`~repro.core.recorder.TraceRecorder` or
:class:`~repro.core.recorder.FieldWatcher` is attached.
"""

from __future__ import annotations

import importlib.util
from typing import List, Optional, Tuple, TypeVar

from repro.core.configuration import Configuration
from repro.core.encoding import DEFAULT_MAX_STATES, StateEncoder
from repro.core.errors import InvalidParameterError, ScheduleExhaustedError
from repro.core.protocol import Protocol
from repro.core.rng import RandomSource, ensure_source
from repro.core.scheduler import Scheduler
from repro.core.simulator import EngineCore
from repro.topology.graph import Population

StateT = TypeVar("StateT")

#: The engine names understood across the stack (config, registry, CLI).
ENGINES = ("auto", "step", "batched", "numpy")

#: Block bounds for the numpy engine.  Conflict-layer count grows with
#: ``block / n`` while per-block fixed costs shrink with it, so the block
#: tracks the population size between these clamps.
_MIN_NUMPY_BLOCK = 1_024
_MAX_NUMPY_BLOCK = 32_768

_NUMPY_AVAILABLE: Optional[bool] = None


def numpy_available() -> bool:
    """True when the optional ``numpy`` dependency is importable (cached)."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            _NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None
        except ImportError:  # a meta-path finder may veto the lookup outright
            _NUMPY_AVAILABLE = False
    return _NUMPY_AVAILABLE


def _require_numpy():
    """Import numpy for the vectorized engine, or fail with guidance."""
    if not numpy_available():
        raise InvalidParameterError(
            "the numpy engine requires the optional numpy dependency; "
            "install numpy or use --engine auto/batched/step"
        )
    import numpy

    return numpy


class _TableSimulation(EngineCore[StateT]):
    """What the two table tiers share: the compiled encoder, the state-code
    array, its decoded views, and the O(1) leader count.

    ``encoder`` may be shared across simulations; when omitted, one is built
    from the initial configuration's states (raising
    :class:`~repro.core.errors.StateSpaceError` when the protocol cannot be
    enumerated — the caller is expected to fall back to the step engine).
    Subclasses supply :meth:`codes` (the code array as a list) and
    :meth:`_compiled_tables`.
    """

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler],
        rng: "RandomSource | int | None",
        encoder: "StateEncoder[StateT] | None",
        max_states: int,
    ) -> None:
        super().__init__(protocol, population, initial, scheduler, rng)
        # Shared immutable structure (encoder, compiled tables, layout
        # constants): invariant for the simulation's lifetime, so not part
        # of the run state.
        self._encoder = encoder if encoder is not None else StateEncoder.build(  # repro: allow[REP006]
            protocol, initial.states(), max_states=max_states
        )
        self._initiator_out, self._responder_out, self._changed, self._leader_delta = self._compiled_tables()  # repro: allow[REP006]
        self._width = self._encoder.num_states  # repro: allow[REP006]
        self._num_arcs = population.num_arcs  # repro: allow[REP006]
        self._codes = self._encoder.encode_all(initial.states())
        leader_flags = self._encoder.leader_flags()
        self._leaders = sum(leader_flags[code] for code in self._codes)

    def _compiled_tables(self) -> Tuple[object, object, object, object]:
        """``(initiator_out, responder_out, changed, leader_delta)`` in the
        form this tier's kernel indexes."""
        raise NotImplementedError

    @property
    def encoder(self) -> StateEncoder[StateT]:
        """The compiled state encoder driving this simulation."""
        return self._encoder

    def codes(self) -> List[int]:
        """The integer state array as a list (read-only for callers)."""
        raise NotImplementedError

    def states(self) -> List[StateT]:
        """Snapshot of the agent states (decoded fresh on every call)."""
        return self._encoder.decode_all(self.codes())

    def _view(self) -> List[StateT]:
        return self._encoder.decode_view(self.codes())

    def _agent_state(self, agent: int) -> StateT:
        return self._encoder.decode(self._codes[agent])

    def leader_count(self) -> int:
        """Number of agents currently outputting the leader symbol (O(1))."""
        return self._leaders

    def snapshot(self) -> dict:
        """Capture the full execution state (see :meth:`EngineCore.snapshot`)."""
        snapshot = super().snapshot()
        snapshot["codes"] = self._codes.copy()
        snapshot["leaders"] = self._leaders
        return snapshot

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot` (same simulation)."""
        super().restore(snapshot)
        self._codes = snapshot["codes"].copy()
        self._leaders = snapshot["leaders"]


class BatchedSimulation(_TableSimulation[StateT]):
    """Executes one protocol on one population through a compiled table.

    Parameters mirror :class:`~repro.core.simulator.Simulation`, plus the
    optional shared ``encoder`` (see :class:`_TableSimulation`).
    """

    name = "batched"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "RandomSource | int | None" = None,
        encoder: "StateEncoder[StateT] | None" = None,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        super().__init__(protocol, population, initial, scheduler, rng,
                         encoder, max_states)
        # Index an arc list only when the population already has one; lazy
        # populations (large complete graphs) stay allocation-free via the
        # closed-form arc_by_index path.
        self._arc_list = population.arcs if population.has_materialized_arcs else None  # repro: allow[REP006]

    def _random_stream(self, population: Population,
                       rng: "RandomSource | int | None") -> RandomSource:
        return ensure_source(rng)

    def _compiled_tables(self):
        return self._encoder.tables()

    def codes(self) -> List[int]:
        """The live integer state array (read-only for callers)."""
        return self._codes

    def _advance(self, count: int) -> None:
        """Execute ``count`` interactions through the table (one block).

        The totals are committed in ``finally`` so a mid-block
        :class:`ScheduleExhaustedError` (scheduler mode) leaves the counters
        exactly at the executed prefix, matching the step engine.
        """
        codes = self._codes
        width = self._width
        initiator_out = self._initiator_out
        responder_out = self._responder_out
        changed = self._changed
        leader_delta = self._leader_delta
        counts = self._interactions
        effective = 0
        leaders = self._leaders
        executed = 0
        try:
            if self._scheduler is None:
                # Draw the whole block of arc indices up front (same
                # randrange stream, in the same order, as the uniformly
                # random scheduler), then apply them through the table.
                randrange = self._stream.randrange_callable()
                num_arcs = self._num_arcs
                draws = [randrange(num_arcs) for _ in range(count)]
                arcs = self._arc_list
                if arcs is not None:
                    for index in draws:
                        initiator, responder = arcs[index]
                        qq = codes[initiator] * width + codes[responder]
                        if changed[qq]:
                            codes[initiator] = initiator_out[qq]
                            codes[responder] = responder_out[qq]
                            effective += 1
                            leaders += leader_delta[qq]
                        counts[initiator] += 1
                        counts[responder] += 1
                else:
                    arc_by_index = self._population.arc_by_index
                    for index in draws:
                        initiator, responder = arc_by_index(index)
                        qq = codes[initiator] * width + codes[responder]
                        if changed[qq]:
                            codes[initiator] = initiator_out[qq]
                            codes[responder] = responder_out[qq]
                            effective += 1
                            leaders += leader_delta[qq]
                        counts[initiator] += 1
                        counts[responder] += 1
                executed = count
            else:
                next_arc = self._stream.next_arc
                while executed < count:
                    initiator, responder = next_arc()
                    executed += 1
                    qq = codes[initiator] * width + codes[responder]
                    if changed[qq]:
                        codes[initiator] = initiator_out[qq]
                        codes[responder] = responder_out[qq]
                        effective += 1
                        leaders += leader_delta[qq]
                    counts[initiator] += 1
                    counts[responder] += 1
        finally:
            self._total_steps += executed
            self._effective_steps += effective
            self._leaders = leaders


class _BlockDraws:
    """Vectorized, bit-exact replica of a :class:`RandomSource`'s
    ``randrange(upper)`` stream.

    ``random.Random.randrange`` reduces to ``_randbelow``: take the top
    ``k = upper.bit_length()`` bits of one generator word (two words when
    ``k > 32``, packed low-word-first with the last word right-shifted — the
    ``getrandbits`` layout) and redraw while the value is ``>= upper``.
    Applied to the flat word stream, the rejection rule is a *filter*: the
    ``i``-th accepted candidate equals the ``i``-th ``randrange`` result, and
    the words consumed are exactly those up to that acceptance.  This class
    pulls words in bulk (:meth:`RandomSource.randbits_words`), filters them
    vectorized, and tracks the consumption point so every block of draws is
    identical to per-call ``randrange`` on the same seed.

    The source is owned by this stream once constructed (bulk reads advance
    it past unconsumed buffered words).
    """

    _MIN_REFILL_WORDS = 32_768

    def __init__(self, source: RandomSource) -> None:
        import numpy

        self._numpy = numpy
        self._source = source
        self._buffer = numpy.empty(0, dtype=numpy.uint32)
        # Acceptance filter, recomputed per refill (and on an upper change):
        # accepted randrange values in stream order, the word index of each
        # acceptance (for exact consumption tracking), and a cursor into both.
        self._filter_upper = 0
        self._filter_words_per_draw = 1
        self._accepted = numpy.empty(0, dtype=numpy.int64)
        self._accepted_word = numpy.empty(0, dtype=numpy.int64)
        self._cursor = 0

    def _consumed_words(self) -> int:
        """Words of the current buffer consumed by the draws handed out."""
        if self._cursor == 0:
            return 0
        return (int(self._accepted_word[self._cursor - 1]) + 1) \
            * self._filter_words_per_draw

    def _refilter(self, upper: int, k: int, words_per_draw: int) -> None:
        """Apply the ``_randbelow`` rejection rule to the whole buffer."""
        numpy = self._numpy
        window = self._buffer
        if words_per_draw == 1:
            candidates = window >> numpy.uint32(32 - k)
            mask = candidates < upper
        else:
            pairs = window[:(window.size // 2) * 2].astype(numpy.uint64).reshape(-1, 2)
            candidates = (
                pairs[:, 0]
                | ((pairs[:, 1] >> numpy.uint64(64 - k)) << numpy.uint64(32))
            )
            mask = candidates < upper
        self._accepted_word = numpy.flatnonzero(mask)
        self._accepted = candidates[self._accepted_word].astype(numpy.int64)
        self._cursor = 0
        self._filter_upper = upper
        self._filter_words_per_draw = words_per_draw

    def _refill(self, upper: int, k: int, words_per_draw: int,
                minimum_words: int) -> None:
        numpy = self._numpy
        words = max(minimum_words, self._MIN_REFILL_WORDS)
        fresh = numpy.frombuffer(self._source.randbits_words(words), dtype="<u4")
        leftover = self._buffer[self._consumed_words():]
        self._buffer = numpy.concatenate((leftover, fresh)) if leftover.size else fresh
        self._refilter(upper, k, words_per_draw)

    def block(self, upper: int, count: int):
        """``count`` consecutive ``randrange(upper)`` draws as an ``int64`` array."""
        k = upper.bit_length()
        if not 1 <= k <= 63:
            raise InvalidParameterError(
                f"randrange upper bound out of the vectorized range: {upper}"
            )
        words_per_draw = 1 if k <= 32 else 2
        if upper != self._filter_upper:
            # Re-key the filter on the (rare) upper change, preserving the
            # unconsumed word stream exactly.
            self._buffer = self._buffer[self._consumed_words():]
            self._refilter(upper, k, words_per_draw)
        while self._accepted.size - self._cursor < count:
            # Words for the missing acceptances at rate upper / 2^k (>= 1/2),
            # plus variance margin; a short refill simply loops.
            missing = count - (self._accepted.size - self._cursor)
            estimate = (int(missing * ((1 << k) / upper) * 1.04) + 64) * words_per_draw
            self._refill(upper, k, words_per_draw, estimate)
        cursor = self._cursor
        self._cursor = cursor + count
        return self._accepted[cursor:cursor + count]

    def getstate(self) -> tuple:
        """Snapshot of the draw stream: source state plus buffered filter.

        The buffer/acceptance arrays are only ever *reassigned* (never
        mutated in place) by :meth:`_refill`/:meth:`_refilter`, but copies
        are taken anyway so a held snapshot can never alias live arrays.
        """
        return (
            self._source.getstate(),
            self._buffer.copy(),
            self._filter_upper,
            self._filter_words_per_draw,
            self._accepted.copy(),
            self._accepted_word.copy(),
            self._cursor,
        )

    def setstate(self, state: tuple) -> None:
        """Rewind to a stream position captured by :meth:`getstate`."""
        (source_state, buffer, upper, words_per_draw,
         accepted, accepted_word, cursor) = state
        self._source.setstate(source_state)
        self._buffer = buffer.copy()
        self._filter_upper = upper
        self._filter_words_per_draw = words_per_draw
        self._accepted = accepted.copy()
        self._accepted_word = accepted_word.copy()
        self._cursor = cursor



class NumpySimulation(_TableSimulation[StateT]):
    """The vectorized third engine tier: block replay over ``numpy`` arrays.

    API and semantics mirror :class:`BatchedSimulation` (same constructor,
    same accessors, same equivalence contract with :class:`Simulation`); the
    execution strategy differs:

    * arc indices come from :class:`_BlockDraws` (the exact ``randrange``
      stream, recovered from bulk generator words) or, under an explicit
      scheduler, from per-step ``next_arc`` calls batched into arrays;
    * each block is partitioned into conflict-free layers by iterated
      first-occurrence peeling: a step is ready when no *earlier unapplied*
      step touches either of its agents, so layer members commute and apply
      as one gather through the transition tables plus two scatters;
    * ``steps`` / ``effective_steps`` / per-agent counts / the leader count
      are vectorized reductions (``bincount`` and table-gather sums).

    Construction requires numpy (:class:`InvalidParameterError` otherwise);
    selection paths gate on :func:`numpy_available` first.  When constructed
    from an ``rng``, the simulation owns that source (bulk word reads
    advance it ahead of any per-call consumer), and the stream snapshot
    includes :class:`_BlockDraws`' buffered-but-unconsumed words, so a
    restore resumes the ``randrange`` stream at the exact draw captured.
    """

    name = "numpy"

    def __init__(
        self,
        protocol: Protocol[StateT],
        population: Population,
        initial: Configuration[StateT],
        scheduler: Optional[Scheduler] = None,
        rng: "RandomSource | int | None" = None,
        encoder: "StateEncoder[StateT] | None" = None,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        numpy = _require_numpy()
        super().__init__(protocol, population, initial, scheduler, rng,
                         encoder, max_states)
        # Shared immutable structure (module handle, block size, read-only
        # scratch index vectors): identical across snapshot/restore.
        self._numpy = numpy  # repro: allow[REP006]
        self._codes = numpy.array(self._codes, dtype=numpy.int64)
        size = population.size
        # Half the population size balances conflict-layer count (which
        # grows with block/n) against per-block fixed costs (measured
        # optimum on the ring benchmarks), inside the global clamps.
        self._block = max(_MIN_NUMPY_BLOCK, min(_MAX_NUMPY_BLOCK, size // 2))  # repro: allow[REP006]
        # Scratch arrays reused across blocks (see _apply_block); int32 —
        # they hold in-block positions, never agent indices — to halve the
        # per-pass fill/scatter/gather traffic.  Overwritten before every
        # read, so they carry no run state across a restore.
        self._first_initiator = numpy.empty(size, dtype=numpy.int32)  # repro: allow[REP006]
        self._first_responder = numpy.empty(size, dtype=numpy.int32)  # repro: allow[REP006]
        self._ascending = numpy.arange(self._block, dtype=numpy.int32)  # repro: allow[REP006]
        self._descending = self._ascending[::-1].copy()  # repro: allow[REP006]

    def _random_stream(self, population: Population,
                       rng: "RandomSource | int | None") -> "_BlockDraws":
        return _BlockDraws(ensure_source(rng))

    def _new_counters(self, size: int):
        import numpy

        return numpy.zeros(size, dtype=numpy.int64)

    def _compiled_tables(self):
        tables = self._encoder.numpy_tables()
        return (tables["initiator_out"], tables["responder_out"],
                tables["changed"], tables["leader_delta"])

    def codes(self) -> List[int]:
        """Snapshot of the integer state array as a plain list."""
        return self._codes.tolist()

    def _apply_block(self, initiators, responders) -> None:
        """Apply one block of interactions through the tables, vectorized.

        The block is peeled into conflict-free layers: each pass applies
        every step whose agents' *first occurrence* among the still-unapplied
        steps is the step itself.  Within a layer no agent repeats (a later
        step sharing an agent sees that agent's earlier occurrence), and the
        earliest unapplied step is always ready, so the loop terminates in
        at most max-multiplicity passes.  Per-agent state order — and hence
        the final configuration, effective-step count, and leader count — is
        exactly the sequential one.
        """
        numpy = self._numpy
        block = initiators.shape[0]
        if block == 0:
            return
        codes = self._codes
        width = self._width
        initiator_out = self._initiator_out
        responder_out = self._responder_out
        first_initiator = self._first_initiator
        first_responder = self._first_responder
        ascending = self._ascending
        descending = self._descending
        far = self._block  # larger than any in-layer position
        size = self._interactions.shape[0]
        self._interactions += numpy.bincount(initiators, minlength=size)
        self._interactions += numpy.bincount(responders, minlength=size)
        applied_pairs = []
        while True:
            remaining = initiators.shape[0]
            first_initiator.fill(far)
            first_responder.fill(far)
            # Reversed scatter: last write wins, so each agent slot ends at
            # its smallest position — its first occurrence this pass.
            first_initiator[initiators[::-1]] = descending[self._block - remaining:]
            first_responder[responders[::-1]] = descending[self._block - remaining:]
            earliest = numpy.minimum(first_initiator, first_responder,
                                     out=first_initiator)
            positions = ascending[:remaining]
            ready = (earliest[initiators] == positions) \
                & (earliest[responders] == positions)
            chosen = numpy.flatnonzero(ready)
            layer_initiators = initiators[chosen]
            layer_responders = responders[chosen]
            pair_codes = codes[layer_initiators] * width + codes[layer_responders]
            codes[layer_initiators] = initiator_out[pair_codes]
            codes[layer_responders] = responder_out[pair_codes]
            applied_pairs.append(pair_codes)
            if chosen.shape[0] == remaining:
                break
            deferred = numpy.flatnonzero(~ready)
            initiators = initiators[deferred]
            responders = responders[deferred]
        all_pairs = (numpy.concatenate(applied_pairs)
                     if len(applied_pairs) > 1 else applied_pairs[0])
        self._effective_steps += int(self._changed[all_pairs].sum())
        self._leaders += int(self._leader_delta[all_pairs].sum())
        self._total_steps += block

    def _advance(self, count: int) -> None:
        """Execute ``count <= block`` interactions (one vectorized block)."""
        if self._scheduler is None:
            indices = self._stream.block(self._num_arcs, count)
            initiators, responders = self._population.numpy_endpoints(indices)
            self._apply_block(initiators, responders)
            return
        # Scheduler mode: batch per-step next_arc() calls into one block;
        # on exhaustion apply the executed prefix, then propagate — the
        # counters end exactly at the prefix, matching the other engines.
        numpy = self._numpy
        next_arc = self._stream.next_arc
        arcs = []
        error = None
        try:
            for _ in range(count):
                arcs.append(next_arc())
        except ScheduleExhaustedError as exhausted:
            error = exhausted
        if arcs:
            pairs = numpy.array(arcs, dtype=numpy.int64)
            self._apply_block(numpy.ascontiguousarray(pairs[:, 0]),
                              numpy.ascontiguousarray(pairs[:, 1]))
        if error is not None:
            raise error
