"""Experiment E6 — ring orientation convergence (Theorem 5.2, Section 5).

``P_OR`` orients any undirected ring within ``O(n^2 log n)`` steps w.h.p.
using ``O(1)`` states.  This experiment measures the steps from adversarial
pointer assignments (on a properly two-hop-colored ring, the paper's standing
assumption) until every agent points the same way, sweeps the ring size, and
fits the growth law; it also reports the constant state count and the
convergence of the two-hop-coloring substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.convergence import measure_convergence
from repro.analysis.stats import ScalingFit, best_growth_law
from repro.api.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.protocols.orientation import (
    PORProtocol,
    TwoHopColoringProtocol,
    adversarial_oriented_configuration,
    coloring_is_two_hop_proper,
    is_oriented,
    memories_match_neighbors,
    random_coloring_configuration,
)
from repro.topology.ring import UndirectedRing


@dataclass(frozen=True)
class OrientationRow:
    """Mean steps to orientation for one ring size."""

    population_size: int
    trials: int
    mean_steps: float
    max_steps: float
    states: int
    all_converged: bool


def measure_orientation(config: ExperimentConfig,
                        sizes: Optional[Sequence[int]] = None) -> List[OrientationRow]:
    """Steps until Definition 5.1's orientation condition holds, per ring size."""
    rows: List[OrientationRow] = []
    protocol = PORProtocol()
    for n in sizes if sizes is not None else config.sizes:
        ring = UndirectedRing(n)
        result = measure_convergence(
            protocol,
            ring,
            lambda rng, size=n, r=ring: adversarial_oriented_configuration(r, rng=rng),
            is_oriented,
            trials=config.trials,
            max_steps=config.max_steps,
            check_interval=max(8, config.check_interval // 8),
            rng=config.rng(f"orientation-{n}"),
        )
        summary = result.summary() if result.steps else None
        rows.append(
            OrientationRow(
                population_size=n,
                trials=config.trials,
                mean_steps=summary.mean if summary else float("inf"),
                max_steps=summary.maximum if summary else float("inf"),
                states=protocol.state_space_size(),
                all_converged=result.all_converged,
            )
        )
    return rows


def measure_coloring(config: ExperimentConfig,
                     sizes: Optional[Sequence[int]] = None) -> List[OrientationRow]:
    """Steps until the two-hop-coloring substrate is proper with populated memories."""
    rows: List[OrientationRow] = []
    for n in sizes if sizes is not None else config.sizes:
        protocol = TwoHopColoringProtocol(rng=config.rng(f"coloring-proto-{n}"))
        ring = UndirectedRing(n)
        result = measure_convergence(
            protocol,
            ring,
            lambda rng, size=n, proto=protocol: random_coloring_configuration(size, proto, rng),
            lambda states: coloring_is_two_hop_proper(states)
            and memories_match_neighbors(states),
            trials=config.trials,
            max_steps=config.max_steps,
            check_interval=max(4, config.check_interval // 16),
            rng=config.rng(f"coloring-{n}"),
        )
        summary = result.summary() if result.steps else None
        rows.append(
            OrientationRow(
                population_size=n,
                trials=config.trials,
                mean_steps=summary.mean if summary else float("inf"),
                max_steps=summary.maximum if summary else float("inf"),
                states=protocol.state_space_size(),
                all_converged=result.all_converged,
            )
        )
    return rows


def orientation_fits(rows: Sequence[OrientationRow]) -> List[ScalingFit]:
    """Growth-law fits of the orientation means (Theorem 5.2 predicts ``n^2 log n``)."""
    sizes = [row.population_size for row in rows]
    means = [row.mean_steps for row in rows]
    return best_growth_law(sizes, means)


def orientation_report(config: Optional[ExperimentConfig] = None) -> str:
    """Text report: P_OR sweep, its growth-law fits, and the coloring substrate sweep."""
    config = config or ExperimentConfig()
    orientation_rows = measure_orientation(config)
    coloring_rows = measure_coloring(config)
    fits = orientation_fits(orientation_rows)
    sections = [
        format_table(
            headers=["n", "trials", "mean steps to orientation", "max steps",
                     "#states", "all trials converged"],
            rows=[
                (row.population_size, row.trials, row.mean_steps, row.max_steps,
                 row.states, row.all_converged)
                for row in orientation_rows
            ],
            title="E6 — ring orientation P_OR (Theorem 5.2)",
        ),
        format_table(
            headers=["growth law", "coefficient", "relative error"],
            rows=[(fit.law, fit.coefficient, fit.relative_error) for fit in fits],
            title="P_OR growth-law fits (best first)",
        ),
        format_table(
            headers=["n", "trials", "mean steps to proper coloring", "max steps",
                     "#states", "all trials converged"],
            rows=[
                (row.population_size, row.trials, row.mean_steps, row.max_steps,
                 row.states, row.all_converged)
                for row in coloring_rows
            ],
            title="two-hop coloring substrate (ring-specialised stand-in for [24])",
        ),
    ]
    return "\n\n".join(sections)
