"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (the
experiment modules under ``repro.experiments`` name which).  The sweep sizes here are deliberately small so
the whole suite runs in minutes on a laptop; pass larger sizes through the
``REPRO_BENCH_SIZES`` environment variable (comma-separated) to reproduce the
shapes at scale.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentConfig


def _sizes_from_env() -> tuple:
    raw = os.environ.get("REPRO_BENCH_SIZES", "")
    if not raw:
        return (8, 12, 16)
    return tuple(int(part) for part in raw.split(",") if part.strip())


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Benchmark-sized experiment configuration (documented in every report)."""
    return ExperimentConfig(
        sizes=_sizes_from_env(),
        trials=2,
        max_steps=2_000_000,
        check_interval=64,
        kappa_factor=4,
        seed=20230515,
    )


@pytest.fixture(scope="session")
def reference_size(bench_config: ExperimentConfig) -> int:
    """The single ring size used by the Table-1 style point measurements."""
    return max(bench_config.sizes)
