"""``P_OR`` — the self-stabilizing ring-orientation protocol (Algorithm 6, Section 5).

Removes the directed-ring assumption of ``P_PL``: on an undirected ring where
each agent already knows a two-hop coloring of its neighborhood (variables
``color``, ``c1``, ``c2``; see
:mod:`repro.protocols.orientation.two_hop_coloring`), ``P_OR`` makes every
agent point at one of its neighbors (variable ``dir`` holds that neighbor's
color) such that eventually all agents point the same way around the ring —
a common sense of direction, with ``O(1)`` states and ``O(n^2 log n)`` steps
w.h.p. (Theorem 5.2).

Mechanics: the ring decomposes into *segments* of agents pointing the same
way; at every boundary between a clockwise run and a counter-clockwise run
two segment *heads* point at each other and fight.  The winning head turns
away from its opponent (extending its own segment by one agent), the losing
segment shrinks; when a segment dies its two neighbors merge.  The ``strong``
flag biases consecutive fights at the same boundary toward the same winner,
which is what brings the convergence time down to ``O(n^2 log n)``.

Fidelity note: we implement Algorithm 6 literally.  Operationally the
``strong`` flag marks the *advancing front* of a fight: when exactly one of
the two meeting heads is strong, the weak one is turned away and inherits the
flag, so the boundary between the two segments keeps moving in the same
direction until the losing segment disappears — this is the persistence that
yields the ``O(n^2 log n)`` bound.  The prose's wording about which head
"wins" reads inverted relative to the pseudocode, but the pseudocode is the
self-consistent version (the prose reading produces an oscillating boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.configuration import Configuration
from repro.core.errors import InvalidParameterError, InvalidStateError
from repro.core.protocol import Protocol, require_in_range
from repro.core.rng import RandomSource, ensure_source
from repro.topology.ring import UndirectedRing


@dataclass(eq=True)
class PORState:
    """Per-agent state of ``P_OR``.

    ``color`` is the agent's own (two-hop distinct) color, ``c1``/``c2`` the
    colors of its two neighbors, ``dir`` the color of the neighbor it points
    at, and ``strong`` the fight-bias flag.
    """

    __slots__ = ("color", "c1", "c2", "dir", "strong")

    color: int
    c1: int
    c2: int
    dir: int
    strong: int

    def copy(self) -> "PORState":
        return PORState(self.color, self.c1, self.c2, self.dir, self.strong)

    def other_neighbor_color(self, excluded: int) -> int:
        """The color of the neighbor that is *not* the one colored ``excluded``.

        Falls back to ``c1`` when the memory is corrupt (both slots equal to
        ``excluded``), which can only happen in adversarial configurations
        that violate the two-hop-coloring precondition.
        """
        if self.c1 != excluded:
            return self.c1
        if self.c2 != excluded:
            return self.c2
        return self.c1


class PORProtocol(Protocol[PORState]):
    """Algorithm 6 with the prose-consistent winner rules (see module docstring)."""

    def __init__(self, num_colors: int = 5) -> None:
        if num_colors < 3:
            raise InvalidParameterError(
                f"a two-hop coloring of a ring needs at least 3 colors, got {num_colors}"
            )
        self._num_colors = num_colors
        self.name = f"P_OR(xi={num_colors})"

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #
    @property
    def num_colors(self) -> int:
        """The color palette size ``xi``."""
        return self._num_colors

    def transition(self, initiator: PORState, responder: PORState
                   ) -> Tuple[PORState, PORState]:
        u = initiator.copy()
        v = responder.copy()
        if u.dir == v.color and v.dir == u.color:
            # Two heads point at each other: fight (lines 63-69).  The head
            # that is turned away inherits the strong flag, so the boundary
            # keeps advancing in the same direction at subsequent fights.
            if u.strong == 0 and v.strong == 1:
                # Lines 64-66: the strong head v pushes the weak head u back.
                u.dir = u.other_neighbor_color(v.color)
                u.strong, v.strong = 1, 0
            else:
                # Lines 67-69: every other case pushes the responder v back
                # (the scheduler's role assignment acts as the tie-break coin).
                v.dir = v.other_neighbor_color(u.color)
                u.strong, v.strong = 0, 1
        elif u.dir == v.color:
            # u points at v but v does not point back: u is not a fighting
            # head, so it loses any strength it may carry (lines 70-71).
            u.strong = 0
        elif v.dir == u.color:
            v.strong = 0
        return u, v

    def output(self, state: PORState) -> str:
        """``P_OR`` outputs its orientation variables; encode them as ``color->dir``."""
        return f"{state.color}->{state.dir}"

    def random_state(self, rng: RandomSource) -> PORState:
        """Arbitrary state *within the two-hop-colored precondition's domains*.

        Note: adversarial configurations for ``P_OR`` should normally be
        built with :func:`adversarial_oriented_configuration`, which keeps
        ``color``/``c1``/``c2`` consistent (the paper analyses ``P_OR`` under
        that standing assumption); this method draws every field blindly and
        is only used for state-space accounting and robustness tests.
        """
        return PORState(
            color=rng.randrange(self._num_colors),
            c1=rng.randrange(self._num_colors),
            c2=rng.randrange(self._num_colors),
            dir=rng.randrange(self._num_colors),
            strong=rng.randint(0, 1),
        )

    def validate(self, state: PORState) -> None:
        for field_name in ("color", "c1", "c2", "dir"):
            require_in_range(field_name, getattr(state, field_name), 0, self._num_colors - 1)
        if state.strong not in (0, 1):
            raise InvalidStateError(f"strong must be 0/1, got {state.strong!r}")

    def state_space_size(self) -> int:
        """``xi^4 * 2`` — constant, independent of ``n``."""
        return self._num_colors ** 4 * 2

    def canonical_states(self) -> Iterable[PORState]:
        yield PORState(color=0, c1=1, c2=2, dir=1, strong=0)


# ---------------------------------------------------------------------- #
# Safe configurations (Definition 5.1) and builders
# ---------------------------------------------------------------------- #
def ring_two_hop_coloring(n: int, num_colors: int = 5) -> List[int]:
    """A proper two-hop coloring of the ``n``-ring with at most ``num_colors`` colors.

    Colors ``i mod 4`` work whenever ``4 | n``; otherwise small tail
    adjustments with a fifth color fix the wrap-around, which is why the
    default palette has five colors.
    """
    if n < 3:
        raise InvalidParameterError(f"a ring needs at least 3 agents, got {n}")
    if num_colors < 5 and n % 4 != 0 and n not in (3, 6):
        raise InvalidParameterError(
            "rings whose size is not a multiple of 4 need a 5-color palette"
        )
    if n % 4 == 0:
        return [i % 4 for i in range(n)]
    if n == 3:
        return [0, 1, 2]
    colors = [i % 4 for i in range(n)]
    # Repair the wrap-around window with the spare color so that every agent
    # differs from both agents at distance one and two.
    for index in (n - 1, n - 2):
        neighborhood = {
            colors[(index + delta) % n] for delta in (-2, -1, 1, 2)
        }
        for candidate in range(num_colors):
            if candidate not in neighborhood:
                colors[index] = candidate
                neighborhood = set()
                break
    return colors


def is_two_hop_proper(colors: Sequence[int]) -> bool:
    """Condition (i) of Definition 5.1: agents two apart have different colors."""
    n = len(colors)
    return all(colors[i] != colors[(i + 2) % n] for i in range(n)) and all(
        colors[i] != colors[(i + 1) % n] for i in range(n)
    )


def is_oriented(states: Sequence[PORState]) -> bool:
    """Condition (ii) of Definition 5.1: all agents point the same way around the ring."""
    n = len(states)
    clockwise = all(states[i].dir == states[(i + 1) % n].color for i in range(n))
    counter_clockwise = all(states[i].dir == states[(i - 1) % n].color for i in range(n))
    return clockwise or counter_clockwise


def orientation_direction(states: Sequence[PORState]) -> str:
    """``"clockwise"``, ``"counter-clockwise"`` or ``"mixed"`` for a configuration."""
    n = len(states)
    if all(states[i].dir == states[(i + 1) % n].color for i in range(n)):
        return "clockwise"
    if all(states[i].dir == states[(i - 1) % n].color for i in range(n)):
        return "counter-clockwise"
    return "mixed"


def adversarial_oriented_configuration(ring: UndirectedRing, num_colors: int = 5,
                                       rng: "RandomSource | int | None" = None,
                                       ) -> Configuration[PORState]:
    """Adversarial start for ``P_OR``: proper coloring, arbitrary ``dir``/``strong``.

    Matches the paper's analysis assumption that the two-hop-coloring layer
    has already converged (its own convergence is covered by
    :mod:`repro.protocols.orientation.two_hop_coloring`).
    """
    source = ensure_source(rng)
    n = ring.size
    colors = ring_two_hop_coloring(n, num_colors)
    states: List[PORState] = []
    for agent in range(n):
        left_color = colors[(agent - 1) % n]
        right_color = colors[(agent + 1) % n]
        direction = left_color if source.coin() else right_color
        states.append(
            PORState(
                color=colors[agent],
                c1=left_color,
                c2=right_color,
                dir=direction,
                strong=source.randint(0, 1),
            )
        )
    return Configuration(states)


def oriented_configuration(ring: UndirectedRing, num_colors: int = 5,
                           clockwise: bool = True) -> Configuration[PORState]:
    """A safe (already oriented) configuration — used by closure tests."""
    n = ring.size
    colors = ring_two_hop_coloring(n, num_colors)
    states: List[PORState] = []
    for agent in range(n):
        left_color = colors[(agent - 1) % n]
        right_color = colors[(agent + 1) % n]
        states.append(
            PORState(
                color=colors[agent],
                c1=left_color,
                c2=right_color,
                dir=right_color if clockwise else left_color,
                strong=0,
            )
        )
    return Configuration(states)
