"""Two-hop coloring substrate for ``P_OR`` (Section 5).

Condition (i) of Definition 5.1 asks for a coloring in which any two agents
at distance one or two have different colors; with it, an agent can
distinguish its two neighbors by color alone, which is what ``P_OR``'s
``dir`` variable relies on.

The target paper delegates this to the self-stabilizing protocol of Sudo et
al. [24] and adds the rule "each agent memorizes the two different colors it
observed most recently" to populate ``c1``/``c2``.  Reproducing [24] in full
is out of scope (it is a full paper of its own, designed for arbitrary
graphs), so we substitute a protocol with the same guarantees: a
ring-specialised randomized recoloring protocol that supplies the properties
``P_OR`` consumes:

* **Direct conflicts** (interacting neighbors sharing a color) are repaired
  immediately: the responder redraws a color that avoids everything it knows
  about its neighborhood.
* **Two-hop conflicts** (an agent's two neighbors sharing a color) are not
  locally distinguishable from "I interacted with the same neighbor several
  times in a row" in the anonymous model, so they are repaired
  *probabilistically*: an agent that observes the same color ``streak_limit``
  times in a row asks its current partner to redraw.  Genuine conflicts are
  therefore repaired in ``O(n)`` expected interactions, while false positives
  occur at rate ``2**(-streak_limit)`` per interaction — the resulting
  behaviour is *loosely* stabilizing (the coloring converges quickly and then
  holds for long stretches), in the spirit of the loosely-stabilizing line of
  work the paper cites [20-24].  The strict SS-RO experiments follow the
  paper's own setup and run ``P_OR`` on top of an already proper coloring.

Randomness is supplied by an explicit :class:`RandomSource`; a purist
formulation would extract it from the scheduler as ``EliminateLeaders()``
does, with no observable difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.configuration import Configuration
from repro.core.errors import InvalidParameterError, InvalidStateError
from repro.core.protocol import Protocol, require_in_range
from repro.core.rng import RandomSource, ensure_source

#: Default number of identical consecutive observations before a two-hop repair.
DEFAULT_STREAK_LIMIT = 4


@dataclass(eq=True)
class ColoringState:
    """Color, the memory of the two most recent distinct colors, and a streak counter."""

    __slots__ = ("color", "c1", "c2", "streak_color", "streak")

    color: int
    c1: int
    c2: int
    #: Color currently being observed repeatedly, and how many times in a row.
    streak_color: int
    streak: int

    def copy(self) -> "ColoringState":
        return ColoringState(self.color, self.c1, self.c2, self.streak_color, self.streak)

    def observe(self, seen: int, streak_limit: int) -> None:
        """Record one observation: refresh the distinct-color memory and the streak."""
        if seen != self.c1:
            self.c1, self.c2 = seen, self.c1
        if seen == self.streak_color:
            self.streak = min(self.streak + 1, streak_limit)
        else:
            self.streak_color = seen
            self.streak = 1


class TwoHopColoringProtocol(Protocol[ColoringState]):
    """Randomized recoloring protocol for rings (see module docstring for the contract)."""

    def __init__(self, num_colors: int = 5, streak_limit: int = DEFAULT_STREAK_LIMIT,
                 rng: "RandomSource | int | None" = None) -> None:
        if num_colors < 5:
            raise InvalidParameterError(
                f"random repair on a ring needs a palette of >= 5 colors, got {num_colors}"
            )
        if streak_limit < 2:
            raise InvalidParameterError(f"streak_limit must be >= 2, got {streak_limit}")
        self._num_colors = num_colors
        self._streak_limit = streak_limit
        self._rng = ensure_source(rng)
        self.name = f"TwoHopColoring(xi={num_colors})"

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #
    @property
    def num_colors(self) -> int:
        """Palette size ``xi``."""
        return self._num_colors

    @property
    def streak_limit(self) -> int:
        """Consecutive identical observations that trigger a two-hop repair."""
        return self._streak_limit

    def transition(self, initiator: ColoringState, responder: ColoringState
                   ) -> Tuple[ColoringState, ColoringState]:
        u = initiator.copy()
        v = responder.copy()

        # Direct conflict: interacting neighbors share a color; the responder
        # redraws (roles are scheduler-random, so symmetry cannot persist).
        if u.color == v.color:
            v.color = self._fresh_color(excluding=(u.color, u.c1, u.c2, v.c1, v.c2))

        # Probabilistic two-hop repair: the initiator has observed the
        # responder's color `streak_limit` times in a row, which is what a
        # genuine two-hop conflict around the initiator looks like.
        if (
            v.color == u.streak_color
            and u.streak >= self._streak_limit
            and u.color != v.color
        ):
            v.color = self._fresh_color(excluding=(u.color, v.color, u.c1, u.c2))
            u.streak = 0

        # Memory refresh ("the two different colors observed most recently").
        u.observe(v.color, self._streak_limit)
        v.observe(u.color, self._streak_limit)
        return u, v

    def output(self, state: ColoringState) -> str:
        return str(state.color)

    def random_state(self, rng: RandomSource) -> ColoringState:
        return ColoringState(
            color=rng.randrange(self._num_colors),
            c1=rng.randrange(self._num_colors),
            c2=rng.randrange(self._num_colors),
            streak_color=rng.randrange(self._num_colors),
            streak=rng.randint(0, self._streak_limit),
        )

    def validate(self, state: ColoringState) -> None:
        require_in_range("color", state.color, 0, self._num_colors - 1)
        require_in_range("c1", state.c1, 0, self._num_colors - 1)
        require_in_range("c2", state.c2, 0, self._num_colors - 1)
        require_in_range("streak_color", state.streak_color, 0, self._num_colors - 1)
        require_in_range("streak", state.streak, 0, self._streak_limit)

    def state_space_size(self) -> int:
        """``xi^4 * (streak_limit + 1)`` — constant, independent of ``n``."""
        return self._num_colors ** 4 * (self._streak_limit + 1)

    def canonical_states(self) -> Iterable[ColoringState]:
        yield ColoringState(color=0, c1=1, c2=2, streak_color=1, streak=1)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _fresh_color(self, excluding: Tuple[int, ...]) -> int:
        candidates = [color for color in range(self._num_colors) if color not in excluding]
        if not candidates:
            candidates = list(range(self._num_colors))
        return self._rng.choice(candidates)


# ---------------------------------------------------------------------- #
# Predicates and builders
# ---------------------------------------------------------------------- #
def coloring_is_two_hop_proper(states: Sequence[ColoringState]) -> bool:
    """True when agents at distance one and two all have distinct colors."""
    n = len(states)
    colors = [state.color for state in states]
    return all(
        colors[i] != colors[(i + 1) % n] and colors[i] != colors[(i + 2) % n]
        for i in range(n)
    )


def memories_match_neighbors(states: Sequence[ColoringState]) -> bool:
    """True when every agent's memory holds exactly its two neighbors' colors."""
    n = len(states)
    for i, state in enumerate(states):
        expected = {states[(i - 1) % n].color, states[(i + 1) % n].color}
        if {state.c1, state.c2} != expected:
            return False
    return True


def random_coloring_configuration(n: int, protocol: TwoHopColoringProtocol,
                                  rng: "RandomSource | int | None" = None,
                                  ) -> Configuration[ColoringState]:
    """Adversarial start: every color and memory slot drawn uniformly."""
    source = ensure_source(rng)
    states: List[ColoringState] = [protocol.random_state(source) for _ in range(n)]
    return Configuration(states)
