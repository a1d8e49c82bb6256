"""Baseline [11]: Chen & Chen 2019 — constant-state SS-LE with exponential time.

Chen and Chen solved the decade-old open problem of SS-LE on *general* rings
(any size, no oracle, no knowledge) with only ``O(1)`` states per agent.
Their construction embeds a prefix of the Thue–Morse string on the ring
anchored at the leader; cube-freeness of Thue–Morse certifies that a leader
exists, while a leaderless ring eventually exhibits a cube ``www`` and the
discovery of such a cube triggers leader creation.  The price is an
expected convergence time that is super-exponential in ``n``.

Substitution: the full transition table of [11] is far
too intricate to re-derive from the two paragraphs the target paper devotes
to it, and even a faithful re-implementation could not be *run* to
convergence (super-exponential time) for any interesting ``n``.  What Table 1
needs from this baseline is (a) the state count — constant — and (b) the
qualitative convergence behaviour — blows up dramatically with ``n``.  We
therefore reproduce:

* the Thue–Morse / cube-freeness substrate
  (:mod:`repro.protocols.baselines.thue_morse`), property-tested, including
  the two directions the correctness argument needs (an embedded Thue–Morse
  prefix has no cube; a leaderless rotation-symmetric embedding always has
  one), and
* :class:`ChenChenModel`, an analytic stand-in exposing the same reporting
  interface as the executable baselines (``state_space_size`` and a
  convergence-time *model* ``expected_steps(n)``), flagged as analytic in
  every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import InvalidParameterError
from repro.protocols.baselines.thue_morse import first_cube, is_cube_free, thue_morse_prefix


def embedded_ring_string(leader_index: int, bits: Sequence[int]) -> List[int]:
    """The ring's bit string read clockwise starting at the leader.

    This is the string whose cube-freeness the Chen–Chen protocol maintains:
    in a safe configuration it is a Thue–Morse prefix.
    """
    n = len(bits)
    if not 0 <= leader_index < n:
        raise InvalidParameterError(
            f"leader_index {leader_index} outside the ring of {n} agents"
        )
    return [bits[(leader_index + offset) % n] for offset in range(n)]


def has_cube(bits: Sequence[int]) -> bool:
    """True when the (linear) string contains some ``www``."""
    return not is_cube_free(bits)


def cube_positions(bits: Sequence[int]) -> Optional[Tuple[int, int]]:
    """``(start, width)`` of the first cube, or ``None`` when the string is cube-free."""
    return first_cube(bits)


def safe_embedding(n: int, leader_index: int = 0) -> List[int]:
    """The bit assignment of a safe Chen–Chen configuration: a Thue–Morse prefix.

    Rotated so that agent ``leader_index`` holds ``t_0``.
    """
    prefix = thue_morse_prefix(n)
    return [prefix[(offset - leader_index) % n] for offset in range(n)]


def leaderless_embedding_has_cube(bits: Sequence[int]) -> bool:
    """The detection direction of the argument: a leaderless ring shows a cube.

    On a leaderless ring every rotation of the content is observationally
    equivalent, so the protocol effectively scans the circular string
    ``bits * 3``; a cube always exists there (take ``w`` = the full ring
    content).  Exposed as a named helper so the property tests read like the
    paper's argument.
    """
    tripled = list(bits) * 3
    return has_cube(tripled)


@dataclass(frozen=True)
class ChenChenModel:
    """Analytic stand-in for the Chen–Chen protocol in Table-1 reports.

    ``states`` is the constant per-agent state count reported by [11] (the
    exact constant is not given in the target paper; the value here is an
    order-of-magnitude placeholder and is labelled as such in reports).
    ``expected_steps`` is a coarse super-exponential model used only to place
    the baseline qualitatively in scaling plots — it is **not** a measurement.
    """

    states: int = 64

    #: Marker consulted by the experiment harness so reports can say
    #: "analytic model" instead of "measured".
    analytic: bool = True

    name: str = "ChenChen(analytic model)"

    def state_space_size(self) -> int:
        """Constant number of states per agent."""
        return self.states

    def expected_steps(self, n: int) -> float:
        """Coarse super-exponential convergence-time model, ``n^2 * 2^n`` steps."""
        if n < 2:
            raise InvalidParameterError(f"population size must be >= 2, got {n}")
        return float(n * n) * float(2 ** n)
