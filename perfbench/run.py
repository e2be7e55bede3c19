"""Host-time benchmark of the simulator stack.

Runs one workload in this process and prints, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics by name and unit.  Run it from the repository root::

    python3 perfbench/run.py --workload serve-overload --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``wall_s``,
``items_per_s``, ``peak_rss_mb``) with no wrapper installed.  ``--trace 1``
installs the timing wrappers of :mod:`tracing` and reports the per-layer
metrics instead, per round; its spans are written under ``.perfbench/``.

A run repeats *rounds* -- one pass of the workload over its seeded inputs,
starting from an empty schedule cache -- until ``--seconds`` have passed.
The last round's outputs are then checked, and every other round must have
produced exactly the same outputs.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

#: listed here as well as in workloads.py, so that arguments are checked
#: before the program is imported
WORKLOAD_NAMES = ("design-sweep", "serve-overload", "autoscale-chaos", "capacity-plan")

#: what differs between runs but not inside the program: hash seeds (set
#: and dict iteration order of str keys), native thread pools, and the
#: program's own environment switches (cache off, on-disk cache, backend)
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
UNSET_ENV = ("REPRO_NO_PLAN_CACHE", "REPRO_PLAN_CACHE_DIR", "REPRO_SIM_BACKEND")

#: set-up is repeated this many times; ``setup_s`` reports the median
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

#: the seconds :func:`reference_work` takes at the speed every reported
#: time is scaled to: a round figure near its time on a 2-vCPU x86-64 VM
#: running Python 3.11 when the host is quiet
REFERENCE_S = 0.1


@dataclass
class _Record:
    key: int
    val: float


def reference_work() -> float:
    """A fixed pure-Python task that measures how fast the host runs now.

    The host's speed drifts by 15-40% over tens of seconds (shared cores),
    far more than the bounds the benchmark must hold, and it drifts for
    this task and the program alike.  Timing this task on both sides of a
    round and scaling the round by ``REFERENCE_S`` over their mean removes
    the drift.

    Two halves of about equal time: an allocating half (tuple building and
    sorting, dict stores, dataclass construction, attribute reads, ``min``
    over a generator) and an arithmetic loop.  The first alone slows down
    more than the simulator when the host is busy, the second alone less;
    their sum tracked the workloads' round times best of the tasks tried.
    """
    rng = random.Random(12345)
    total = 0.0
    # small passes rather than one big one: the task must not raise the
    # process's peak memory, which is itself a reported metric
    for _ in range(6):
        items = [(rng.random(), i, str(i)) for i in range(6000)]
        table = {}
        for value, i, key in items:
            table[key] = value
            total += value * i
        items.sort()
        records = [_Record(i, value) for value, i, _ in items]
        total += min(r.val for r in records)
        total += sum(r.val for r in records if r.key % 3)
    count = 0
    for i in range(700_000):
        count += i * i % 7
    return total + count


def time_reference() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def pin_environment() -> None:
    """Re-execute this script once with :data:`PINNED_ENV` in force."""
    pinned = all(os.environ.get(k) == v for k, v in PINNED_ENV.items())
    if pinned and not any(k in os.environ for k in UNSET_ENV):
        return
    env = dict(os.environ)
    env.update(PINNED_ENV)
    for key in UNSET_ENV:
        env.pop(key, None)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds!r}")
    return args


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: no program to measure: {SRC}/repro is missing")
        return 2
    pin_environment()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import workloads  # imports the program
    from checks import percentile

    if args.trace:
        import tracing
    from repro.perf.cache import schedule_cache

    import_s = time.perf_counter() - _PROCESS_START
    os.makedirs(SCRATCH, exist_ok=True)
    workload = workloads.make(args.workload, SCRATCH)

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = workload.prepare(args.seed)
        prepare_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(prepare_s)

    tracer = tracing.install() if args.trace else None
    walls = []
    references = [time_reference()]
    layer_rounds = []
    prints = []
    items = 0
    phase_start = time.perf_counter()
    while True:
        workload.reset(inputs)
        gc.collect()
        start = time.perf_counter()
        output = workload.run(inputs)
        wall = time.perf_counter() - start
        workload.after(inputs)
        walls.append(wall)
        if tracer is not None:
            layer_rounds.append(tracer.end_round(wall, schedule_cache.stats()))
        prints.append(workload.fingerprint(output))
        items = workload.items(inputs, output)
        references.append(time_reference())
        if time.perf_counter() - phase_start >= args.seconds:
            break
        # no round's output outlives the next round, so peak memory is
        # one round's; the last round's output is kept for the checks
        output = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    # each round is scaled by the host speed measured on both sides of it,
    # set-up by the run's median speed
    scales = [
        2 * REFERENCE_S / (before + after)
        for before, after in zip(references, references[1:])
    ]
    scaled_walls = [w * k for w, k in zip(walls, scales)]
    scale = REFERENCE_S / statistics.median(references)

    # the last round's outputs are checked; every other round must have
    # produced exactly the same outputs
    attempted_per_round, failed_keys = workload.check(inputs, output)
    rounds = len(walls)
    mismatched = sum(1 for p in prints if p != prints[-1])
    attempted = attempted_per_round * rounds
    failed = len(failed_keys) * (rounds - mismatched) + attempted_per_round * mismatched
    for key in sorted(failed_keys, key=repr)[:10]:
        log(f"perfbench: check failed for {key!r}")
    if mismatched:
        log(f"perfbench: {mismatched} round(s) differ from the last, checked one")

    if tracer is None:
        values = {
            "setup_s": setup_s * scale,
            "wall_s": statistics.median(scaled_walls),
            "items_per_s": statistics.median(items / w for w in scaled_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        epochs = tracer.epoch_ms(scales)
        pruned = 0
        if args.workload == "capacity-plan":
            pruned = output["search"]["pruned"]
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "control.epoch_p50_ms":
                value = percentile(epochs, 50)
            elif name == "control.epoch_p99_ms":
                value = percentile(epochs, 99)
            elif name == "capacity.pruned":
                value = pruned
            else:
                value = statistics.median_low(
                    r[name] * (k if unit == "s" else 1)
                    for r, k in zip(layer_rounds, scales)
                )
            metrics[name] = {"value": value, "unit": unit}
        trace_path = os.path.join(
            SCRATCH, f"trace-{args.workload}-seed{args.seed}.json"
        )
        tracer.write(trace_path)
        log(f"perfbench: {len(tracer.spans)} spans, {len(epochs)} epochs -> {trace_path}")

    log(
        f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds of "
        f"{items} items ({workload.item}); host wall per round "
        f"{', '.join(f'{w:.3f}' for w in walls)} s; reference task "
        f"{', '.join(f'{r:.4f}' for r in references)} s"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
