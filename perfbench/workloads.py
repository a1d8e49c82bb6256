"""Seeded input generation for the benchmark's workloads.

Every workload's input is produced here, in one place, from the workload
name and the workload seed.  The code under measurement only ever receives
the generated inputs (plain JSON-ready dicts), so the same
``(workload, seed, size)`` always measures the same work.  One input is one
*pass* of work; a run repeats the pass to fill its length, so slow phases
of the host, which last seconds, fall outside the median.

The sweep workloads (``paper-step``, ``baseline-numpy``) are lists of
sweep points.  Each point runs its seeded trial stream for a quota of
interactions.  Every trial runs under the point's step budget, ten quotas,
and must converge, so a protocol that stops converging fails the run on
every seed; only the trial that would cross the quota is cut at what is
left of it.  Each quota lies above every first trial seen at its point over
60 seeds, so a pass does exactly ``quota`` interactions per point whatever
the seed, which keeps wall times comparable across seeds even for
``angluin-modk``, whose convergence times are heavy-tailed.  On a seed
whose first trial runs past the quota, the point does that trial's steps
instead.

The ``service-jobs`` workload is a closed-loop sequence of small jobs, an
exact share of them fresh and the rest verbatim resubmits of earlier fresh
jobs, which the results store serves warm.
"""

from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("paper-step", "baseline-numpy", "service-jobs")

#: Per-point interaction quotas of one pass, each above the longest first
#: trial of 60 seeds at its point (in parentheses): a pass of about 2.5 s
#: on paper-step and 6 s on baseline-numpy on a 2-vCPU x86 host with
#: Python 3.11.
_SWEEP_POINTS = {
    "paper-step": [("ppl", 48, 45_000),  # (30,848)
                   ("ppl", 64, 90_000),  # (74,880)
                   ("yokota2021", 96, 140_000),  # (113,920)
                   ("yokota2021", 128, 200_000)],  # (140,032)
    "baseline-numpy": [("angluin-modk", 97, 1_300_000),  # (1,261,056)
                       ("angluin-modk", 129, 3_000_000)],  # (2,882,560)
}
_TINY_SWEEP_POINTS = {
    "paper-step": [("ppl", 32, 20_000), ("yokota2021", 32, 20_000)],
    "baseline-numpy": [("angluin-modk", 17, 30_000), ("angluin-modk", 33, 60_000)],
}
#: A point's step budget, in quotas: the limit of every trial but the cut one.
BUDGET_QUOTAS = 10

#: Service jobs per pass, and the exact share that is fresh.
_SERVICE_JOBS = 50
_TINY_SERVICE_JOBS = 10
FRESH_SHARE = 0.4
#: Small jobs: (protocol, sizes to draw from).  angluin-modk needs odd n.
_SERVICE_MIX = (("fischer-jiang", (16, 20, 24, 28, 32)),
                ("angluin-modk", (17, 21, 25, 29, 33)))
_TINY_SERVICE_MIX = (("fischer-jiang", (6, 8)), ("angluin-modk", (7, 9)))
#: Four trials per job where a user might ask for two: the executed steps
#: of a pass then vary half as much from seed to seed.
SERVICE_TRIALS = 4
SERVICE_MAX_STEPS = 2_000_000
#: Client poll interval: well below the ~9 ms warm-job latency, so polling
#: does not quantize the measured latencies.
POLL_INTERVAL_S = 0.002


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed goes through sha512, so the stream is stable across
    # interpreter runs and hash randomization.
    return random.Random(f"perfbench:{workload}:{seed}")


def generate(workload: str, seed: int, size: str = "full") -> Dict:
    """The input of one pass of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = _rng(workload, seed)
    if workload == "service-jobs":
        return _service_inputs(rng, seed, size)
    points = (_TINY_SWEEP_POINTS if size == "tiny" else _SWEEP_POINTS)[workload]
    return {
        "workload": workload,
        "seed": seed,
        "config_seed": rng.getrandbits(31),
        "points": [
            {"spec": spec, "n": n, "family": "adversarial", "quota": quota,
             "budget": BUDGET_QUOTAS * quota}
            for spec, n, quota in points
        ],
    }


def _service_inputs(rng: random.Random, seed: int, size: str) -> Dict:
    tiny = size == "tiny"
    count = _TINY_SERVICE_JOBS if tiny else _SERVICE_JOBS
    mix = _TINY_SERVICE_MIX if tiny else _SERVICE_MIX
    fresh_count = round(count * FRESH_SHARE)
    # The first job is fresh (nothing to resubmit yet); the rest of the
    # fresh slots land at seeded positions.
    kinds = ["fresh"] * (fresh_count - 1) + ["warm"] * (count - fresh_count)
    rng.shuffle(kinds)
    kinds.insert(0, "fresh")
    # Every (protocol, n) of the mix gets an equal share of the fresh jobs.
    # Their experiment seeds do not depend on the workload seed, so every
    # workload seed executes the same trials, in its own order: executed
    # steps take little of a pass here, and with seeded trials the seed's
    # step count, not the service, set steps_per_ref (0.13-0.16 spread
    # over ten seeds).
    shapes = [(protocol, n) for protocol, sizes in mix for n in sizes]
    shapes = (shapes * (fresh_count // len(shapes) + 1))[:fresh_count]
    payloads = [{"protocol": protocol, "sizes": [n],
                 "trials": SERVICE_TRIALS, "max_steps": SERVICE_MAX_STEPS,
                 "seed": _rng(f"service-job:{protocol}:{n}", index).getrandbits(31)}
                for index, (protocol, n) in enumerate(shapes)]
    rng.shuffle(payloads)
    jobs: List[Dict] = []
    fresh: List[int] = []
    for index, kind in enumerate(kinds):
        if kind == "fresh":
            jobs.append({"kind": "fresh", "payload": payloads[len(fresh)], "of": index})
            fresh.append(index)
        else:
            original = fresh[rng.randrange(len(fresh))]
            jobs.append({"kind": "warm", "payload": dict(jobs[original]["payload"]),
                         "of": original})
    return {"workload": "service-jobs", "seed": seed, "jobs": jobs,
            "poll_interval_s": POLL_INTERVAL_S, "pool_workers": 1}
