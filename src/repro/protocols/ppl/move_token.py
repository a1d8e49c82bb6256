"""``MoveToken()`` — Algorithm 3 of the paper (Section 3.2).

Black tokens (``d = 0``) and white tokens (``d = psi``) implement the binary
increment of segment IDs.  A token is generated at a border agent, zig-zags
between two adjacent segments following the trajectory of Figure 2, and either

* *constructs* the next segment's ID (construction mode: it copies its value
  bit into the target agent's ``b``), or
* *checks* it (detection mode: a mismatch between the carried bit and the
  target's ``b`` proves the configuration is not perfect, so the target
  becomes a leader).

Token encoding: ``(pos, b', b'')`` where ``pos`` is the signed relative
position of the token's target (positive = target is ``pos`` agents to the
right, negative = ``|pos|`` agents to the left), ``b'`` the bit being
written/checked and ``b''`` the carry flag of the binary increment.

Pseudocode fidelity note: line 30 of the paper reads
``l.token <- (r.token[1]+1, l.token[2], l.token[3])`` although ``l.token`` may
be absent at that point; we implement the evident intent that a leftward
moving token carries *its own* bits.
"""

from __future__ import annotations

from repro.protocols.ppl.params import MODE_CONSTRUCT, MODE_DETECT, PPLParams
from repro.protocols.ppl.state import PPLState, Token

#: Marker for the black token variable (trajectory anchored at dist = 0 borders).
BLACK = "B"
#: Marker for the white token variable (trajectory anchored at dist = psi borders).
WHITE = "W"


def token_offset(color: str, params: PPLParams) -> int:
    """The paper's ``d``: 0 for black tokens, ``psi`` for white tokens."""
    return 0 if color == BLACK else params.psi


def is_invalid_token(state: PPLState, color: str, params: PPLParams) -> bool:
    """The ``InvalidToken(v, d)`` macro (Definition 3.3).

    A token is invalid when its target, computed from the holder's ``dist``
    and the token's relative position (normalised by ``d`` so that white
    trajectories look like black ones), falls outside the Figure-2 trajectory:
    a right-moving token must land on an agent at normalised distance
    ``[psi, 2*psi - 1]`` (the second segment of its window) and a left-moving
    token on ``[1, psi - 1]`` (the interior of the first segment).

    Fidelity note: Definition 3.3 lists exactly these landing zones but flags
    a token as invalid when the landing falls *inside* them; read literally
    that would delete every token on its legal trajectory (and would keep the
    token alive at its final destination, contradicting the prose "a valid
    token ... disappears" and the role "deleting a token that has reached the
    final destination" attributed to lines 32-33).  We therefore implement the
    evident intent: invalid = landing *outside* the stated zone.
    """
    token = state.token(color)
    if token is None:
        return False
    offset = token_offset(color, params)
    modulus = params.dist_modulus
    psi = params.psi
    position = token[0]
    landing = (state.dist + position + offset) % modulus
    if position > 0 and not psi <= landing <= 2 * psi - 1:
        return True
    if position < 0 and not 1 <= landing <= psi - 1:
        return True
    return False


def move_token(left: PPLState, right: PPLState, color: str, params: PPLParams) -> None:
    """Apply Algorithm 3 for one token color to the interacting pair."""
    psi = params.psi
    offset = token_offset(color, params)

    # Lines 12-13: a border agent of this color that is not in the last
    # segment and holds no token creates one, initialised with the binary
    # increment of its own bit (value 1-b, carry b) and target psi to the
    # right.
    if left.dist == offset and left.last == 0 and left.token(color) is None:
        left.set_token(color, (psi, 1 - left.b, left.b))

    # Lines 14-15: a right-moving token disappears when it bumps into another
    # token of the same color or would enter the last segment.
    if left.token(color) is not None and (right.token(color) is not None or right.last == 1):
        left.set_token(color, None)

    left_token: Token = left.token(color)
    right_token: Token = right.token(color)

    if left_token is not None and left_token[0] == 1:
        # Lines 16-22: the token reaches its rightward target (the responder).
        _, value_bit, carry_bit = left_token
        if right.mode == MODE_DETECT and value_bit != right.b:
            # Line 18: the carried bit contradicts the embedded bit — the
            # configuration cannot be perfect, so create a leader.
            right.become_leader()
        elif right.mode == MODE_CONSTRUCT:
            # Line 20: construction mode simply writes the bit.
            right.b = value_bit
        # Lines 21-22: turn around and head 1-psi agents to the left.
        right.set_token(color, (1 - psi, value_bit, carry_bit))
        left.set_token(color, None)
    elif left_token is not None and left_token[0] >= 2:
        # Lines 23-25: keep moving right, decrementing the remaining distance.
        right.set_token(color, (left_token[0] - 1, left_token[1], left_token[2]))
        left.set_token(color, None)
    elif right_token is not None and right_token[0] == -1:
        # Lines 26-28: the token reaches its leftward target (the initiator);
        # apply one step of the binary increment and head right again.
        carry_bit = right_token[2]
        if carry_bit == 1:
            left.set_token(color, (psi, 1 - left.b, left.b))
        else:
            left.set_token(color, (psi, left.b, 0))
        right.set_token(color, None)
    elif right_token is not None and right_token[0] <= -2:
        # Lines 29-31: keep moving left (carrying the token's own bits; see
        # the fidelity note in the module docstring).
        left.set_token(color, (right_token[0] + 1, right_token[1], right_token[2]))
        right.set_token(color, None)

    # Lines 32-33: tokens in the last segment and invalid tokens are deleted.
    for agent in (left, right):
        if agent.token(color) is not None and (
            agent.last == 1 or is_invalid_token(agent, color, params)
        ):
            agent.set_token(color, None)
