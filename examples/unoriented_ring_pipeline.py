#!/usr/bin/env python3
"""Scenario: leader election on an anonymous ring with no sense of direction.

``P_PL`` assumes a *directed* ring.  Section 5 of the paper removes that
assumption: a constant-state, self-stabilizing ring-orientation protocol
(``P_OR``) gives every agent a common sense of direction, after which the
directed-ring protocol applies.  This example runs the full three-phase
pipeline the library provides:

1. two-hop coloring (so agents can tell their two neighbors apart),
2. ring orientation with ``P_OR`` (Algorithm 6),
3. leader election with ``P_PL`` on the induced directed ring.

Run:  python examples/unoriented_ring_pipeline.py [n]
"""

from __future__ import annotations

import sys

from repro.protocols.orientation import OrientedRingPipeline


def main(n: int = 20, seed: int = 5) -> int:
    pipeline = OrientedRingPipeline(n, num_colors=5, kappa_factor=8, seed=seed)
    print(f"anonymous undirected ring with {n} agents")
    print("phase 1: two-hop coloring  (ring-specialised substitute for [24])")
    print("phase 2: ring orientation  (P_OR, Algorithm 6, Theorem 5.2)")
    print("phase 3: leader election   (P_PL, Algorithms 1-5, Theorem 3.1)")

    result = pipeline.run(max_steps_per_phase=6_000_000)

    print()
    print(f"coloring phase    : {result.coloring_steps} steps")
    print(f"orientation phase : {result.orientation_steps} steps "
          f"(agreed direction: {result.orientation})")
    print(f"election phase    : {result.election_steps} steps "
          f"(leader at agent {result.leader_index})")
    print(f"total             : {result.total_steps} steps")
    return 0


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    raise SystemExit(main(size))
