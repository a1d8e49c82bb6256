"""The timed phase: identical passes, each timed against the host's speed.

The benchmark's host is shared, and its speed drifts: the same input, run
twice a few minutes apart, took 2.7 and 3.3 s per pass, and a fixed
pure-Python loop timed in 5 s buckets ranged over +-18%, in phases lasting
5-30 s.  A median over the passes of one run cannot remove a phase that
covers the whole run.  So the host's speed is sampled with a fixed reference loop (pure
Python, like the program) before, during (between trials, clock stopped)
and after every pass, and a pass is reported in *refs*: its wall time
divided by the median reference sample of that pass.  On 48
passes of one ``baseline-numpy`` input, the spread of 6-pass medians fell
from 0.285 in seconds to 0.090 in refs.  The raw seconds are kept in the
run's provenance.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

#: Iterations of one reference sample: about 25 ms on a 2-vCPU x86 host.
REFERENCE_ITERATIONS = 250_000
#: Reference samples taken before and after every pass.
BRACKET_SAMPLES = 4
#: A reference sample's duration at the nominal host speed.  ``setup_s``,
#: which must be in seconds, is reported at this speed: its raw seconds
#: times ``NOMINAL_REFERENCE_S`` over the median of the samples taken right
#: after the set-up.
NOMINAL_REFERENCE_S = 0.025


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - started


def at_nominal_speed(raw_seconds: float) -> float:
    """``raw_seconds``, just measured, rescaled to the nominal host speed."""
    samples = [reference_seconds() for _ in range(BRACKET_SAMPLES)]
    return raw_seconds * NOMINAL_REFERENCE_S / statistics.median(samples)


def measure_passes(run_pass: Callable[[Callable[[], None]], Tuple[float, object]],
                   seconds: float) -> Dict:
    """Run identical passes while ``seconds`` has room for one more (at
    least one).

    ``run_pass(probe)`` returns ``(timed seconds, payload)`` and may call
    ``probe()`` with its clock stopped (between trials) to take more
    reference samples.  A pass in refs is its time divided by the median
    of the samples from its start to its end, so the reference tracks the
    host's speed while that pass ran.
    """
    samples: list = []

    def probe() -> None:
        samples.append(reference_seconds())

    def bracket() -> list:
        taken = [reference_seconds() for _ in range(BRACKET_SAMPLES)]
        samples.extend(taken)
        return taken

    times, in_refs, references, payloads = [], [], [], []
    opening = bracket()
    while True:
        samples[:] = opening
        elapsed, payload = run_pass(probe)
        opening = bracket()
        times.append(elapsed)
        in_refs.append(elapsed / statistics.median(samples))
        references.append(list(samples))
        payloads.append(payload)
        if sum(times) + statistics.median(times) > seconds:
            break
    return {"pass_times": times, "reference_s": references, "pass_refs": in_refs,
            "wall_s": statistics.median(times), "wall_ref": statistics.median(in_refs),
            "payloads": payloads}
