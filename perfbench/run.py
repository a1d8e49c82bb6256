"""Benchmark of the reproduction: the paper's protocols, the numpy tier and
the job service, end to end, with a separate traced run for the per-layer
split.

Run from the root of a checkout (the program is the ``src/`` tree next to
this directory; nothing needs building):

    python3 perfbench/run.py --workload paper-step --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs once untraced and once traced and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it carries the run's provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import timing  # noqa: E402  (this directory; stdlib only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
#: Set-up is measured this many times per run (this process plus fresh
#: subprocesses) and reported as the median.
SETUP_SAMPLES = 5
_SETUP_TIMEOUT_S = 60

#: Metric names and units, as declared in the benchmark's manifest.
MANIFEST = ROOT / "BENCHMARK.json"

#: Per-layer counts that are exact: two traced runs of one input must agree
#: on them, and the default seed's values are pinned.
EXACT_COUNTS = (
    "protocols.transition_calls", "protocols.distinct_pairs", "predicate.calls",
    "encoding.decode_calls", "engine.step.steps", "engine.numpy.bursts",
    "store.hits", "store.misses", "service.trials_served", "service.trials_executed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and exit (used for the set-up samples)")
    parser.add_argument("--record-pins", action="store_true",
                        help="write this input's outcomes and exact counts to pins.json")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Workload dispatch
# ---------------------------------------------------------------------- #
def _workdir(args) -> Path:
    return OUT / f"{args.workload}-{os.getpid()}"


def setup(args, inputs):
    if args.workload == "service-jobs":
        import service_jobs

        return service_jobs.Stack(inputs, _workdir(args) / "pass-0")
    import sweeps

    return sweeps.Sweep(inputs)


def _pin_key(args) -> str:
    return f"seed={args.seed},size={args.size}"


def _load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def _pinned(args):
    return _load_pins().get(args.workload, {}).get(_pin_key(args))


def _save_pin(args, field: str, value) -> None:
    pins = _load_pins()
    pins.setdefault(args.workload, {}).setdefault(_pin_key(args), {})[field] = value
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def check_rows(args, passes) -> list:
    """Failures of the sweep/service outcome rows: the default seed's rows
    are pinned, and every pass of a run must repeat the first."""
    failures = []
    first = passes[0]
    for index, rows in enumerate(passes[1:], start=1):
        if rows != first:
            failures.append(f"pass {index} disagrees with pass 0")
    pinned = _pinned(args)
    if args.record_pins:
        _save_pin(args, "rows", first)
    elif pinned is not None and pinned.get("rows") != first:
        failures.append("outcomes differ from the pinned outcomes")
    return failures


def check_passes(args, inputs, measured) -> list:
    """The correctness gate over every untraced pass of a run."""
    if args.workload == "service-jobs":
        import service_jobs

        expected = service_jobs.expected_results(inputs)
        failures = []
        for records in measured["passes"]:
            failures += service_jobs.check_pass(inputs, records, expected)
        return failures + check_rows(args, [service_jobs.outcome_rows(inputs, records)
                                            for records in measured["passes"]])
    failures = [f"{o.spec} n={o.n} trial {o.trial} missed its step budget"
                for outcomes in measured["outcomes"] for o in outcomes
                if not o.converged and not o.cut]
    return failures + check_rows(args, [[o.row() for o in outcomes]
                                        for outcomes in measured["outcomes"]])


def run_untraced(args, inputs) -> dict:
    state = setup(args, inputs)
    setup_raw = time.perf_counter() - _STARTED
    setup_s = timing.at_nominal_speed(setup_raw)
    if args.workload == "service-jobs":
        import service_jobs

        measured = service_jobs.measure(state, args.seconds)
    else:
        measured = state.measure(args.seconds)
    peak_rss_mb = _peak_rss_mb()
    failures = check_passes(args, inputs, measured)
    setup_samples = [(setup_s, setup_raw)] + [_setup_sample(args)
                                              for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": statistics.median(sample[0] for sample in setup_samples),
        "wall_ref": measured["wall_ref"],
        "steps_per_ref": measured["steps"] / measured["wall_ref"],
        "peak_rss_mb": peak_rss_mb,
    }
    provenance = {"setup_samples_s": [sample[0] for sample in setup_samples],
                  "setup_raw_s": [sample[1] for sample in setup_samples],
                  "plan_s": measured.get("plan_s"),
                  "passes": len(measured["pass_times"]),
                  "pass_times_s": measured["pass_times"],
                  "reference_s": measured["reference_s"], "wall_s": measured["wall_s"],
                  "steps_per_s": measured["steps"] / measured["wall_s"]}
    return _result(metrics, _units("end_to_end"), measured["attempted"], failures,
                   provenance)


def run_traced(args, inputs) -> dict:
    if args.workload == "service-jobs":
        import service_jobs

        metrics, tracer, failures, measured = service_jobs.trace(
            inputs, _workdir(args), args.seconds)
    else:
        import sweeps

        metrics, tracer, failures, measured = sweeps.trace(sweeps.Sweep(inputs),
                                                           args.seconds)
    failures += check_passes(args, inputs, measured)
    attempted = measured["attempted"]
    counts = {name: metrics.get(name, 0) for name in EXACT_COUNTS}
    pinned = _pinned(args)
    if args.record_pins:
        _save_pin(args, "counts", counts)
    elif pinned is not None and pinned.get("counts") not in (None, counts):
        failures.append(f"exact counts {counts} differ from pinned {pinned['counts']}")
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "size": args.size})
    units = _units("per_layer")
    full = {name: metrics.get(name, 0) for name in units}
    return _result(full, units, attempted, failures, {"exact_counts": counts})


def _units(kind: str) -> dict:
    """``{metric name: unit}`` of the manifest's ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"]
            for metric in json.loads(MANIFEST.read_text())[kind]}


def _result(metrics, units, attempted, failures, provenance) -> dict:
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    return {
        "provenance": provenance,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


# ---------------------------------------------------------------------- #
# Measurements around the workload
# ---------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its waited-for children (the pool
    worker on service-jobs), in MiB.  Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _setup_sample(args) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--size", args.size, "--setup-only"]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                               timeout=_SETUP_TIMEOUT_S, check=True)
    sample = json.loads(completed.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["raw_s"]


def provenance(args, inputs) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "poll_interval_s": inputs.get("poll_interval_s"),
        "pool_workers": inputs.get("pool_workers"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "baseline-numpy":
        from repro.core.fast_simulator import numpy_available

        if not numpy_available():
            # engine auto would quietly run the batched tier under this name
            print("baseline-numpy measures the numpy tier, and numpy is not installed",
                  file=sys.stderr)
            return 2

    inputs = workloads.generate(args.workload, args.seed, args.size)
    try:
        return _run(args, inputs)
    finally:
        shutil.rmtree(_workdir(args), ignore_errors=True)


def _run(args, inputs) -> int:
    if args.setup_only:
        state = setup(args, inputs)
        setup_raw = time.perf_counter() - _STARTED
        setup_s = timing.at_nominal_speed(setup_raw)
        state.close()
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
        return 0
    outcome = run_traced(args, inputs) if args.trace else run_untraced(args, inputs)
    outcome["provenance"].update(provenance(args, inputs))
    print(json.dumps({"provenance": outcome["provenance"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
