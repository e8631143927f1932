"""mmsentry benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload stream_inproc --seed 1 --seconds 15 --trace 0

Workloads: stream_inproc, stream_tcp_paced, train_recipe (see README.md).
With --trace 0 the result holds the end-to-end metrics, the same names for
every workload.  With --trace 1 the public functions of mmsentry are
wrapped, every call is kept as a span, the spans go to
perfbench/traces/<workload>-seed<n>.json and the result holds per-function
call counts and self times and the consumer counters instead, again the same
names for every workload (0 for what a workload does not run).

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything else goes to stderr.  The exit code is 0 when every check
passed, 1 when a check failed and 2 when the program cannot be found.
"""

import time

_STARTED = time.perf_counter()  # the first statement, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_inproc", "stream_tcp_paced", "train_recipe")
# One BLAS thread per process keeps the paced workload (consumer plus
# generator) within two cores, and ran steadier than two threads for
# train_recipe on a 2-core host.  Set here, for this process and its children.
BLAS_THREADS = "1"


def _since_process_start() -> float:
    """Seconds the interpreter ran before _STARTED (0 where /proc is absent)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME) - (time.perf_counter() - _STARTED)
        return max(0.0, now - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def _log(message: str):
    print(message, file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mmsentry
    except ImportError as exc:
        _log(f"cannot import mmsentry from {ROOT / 'src'}: {exc}")
        return 2
    if Path(mmsentry.__file__).resolve().parent != ROOT / "src" / "mmsentry":
        _log(f"mmsentry imported from {mmsentry.__file__}, not from {ROOT / 'src'}")
        return 2

    import importlib

    from outcome import END_TO_END_UNITS
    from tracing import NoTracer, Tracer

    tracer = Tracer() if args.trace else NoTracer()
    if args.trace:
        tracer.install()
    workload = importlib.import_module(args.workload)
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        outcome = workload.run(args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = outcome.setup_end - _STARTED + _since_process_start()

    for error in outcome.errors:
        _log(f"CHECK FAILED: {error}")
    _log(json.dumps({"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                     "metrics": outcome.metrics, **outcome.notes}))
    if args.trace:
        from stream_tcp_paced import COUNTER_UNITS

        counters = {name: (0, unit) for name, unit in COUNTER_UNITS.items()}
        counters.update(outcome.counters)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in counters.items()}
        for name, row in tracer.summary().items():
            metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
            metrics[f"{name}.self_ms"] = {"value": row["self_ms"], "unit": "ms"}
            metrics[f"{name}.self_us_p50"] = {"value": row["self_us_p50"], "unit": "us"}
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.dump(HERE / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({name: {"value": outcome.metrics[name], "unit": unit}
                        for name, unit in END_TO_END_UNITS.items()})
    print(json.dumps({"correct": not outcome.errors, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}), flush=True)
    return 0 if not outcome.errors else 1


if __name__ == "__main__":
    sys.exit(main())
