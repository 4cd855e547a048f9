"""skqe benchmark: one workload per process, end-to-end or traced per layer.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in its own process

Run from the repository root; the program is imported from ``src``. The
metric names and units printed in the last line, a JSON object, are those
listed in ``BENCHMARK.json``: its ``end_to_end`` metrics with ``--trace 0``
and its ``per_layer`` metrics with ``--trace 1``. The lines before it give
the same numbers and a few more by name. Every run also writes its record
to ``perfbench/out/``; a traced run adds its spans there as JSON lines.
The exit code is 0 when every output check passed, 1 when one failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("gen_queries", "train_paper", "train_light", "eval_rank")
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONJOIN_NOTE = "only luk reaches an end-to-end metric, through train_*"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="tiny is the self-test shape")
    return parser.parse_args(argv)


def pin_blas_threads() -> dict[str, str]:
    """Cap every BLAS thread-count variable at nproc; numpy is not imported yet."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def source_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skqe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info(args, blas_threads, graph) -> dict:
    import numpy as np
    from workloads import GRAPH_SEED, SIZES

    size = SIZES[args.size]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "commit": source_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "graph": {
            "entities": size.entities, "relations": size.relations,
            "avg_degree": size.degree, "valid_frac": size.valid_frac,
            "test_frac": size.test_frac, "seed": GRAPH_SEED, "triples": len(graph.triples),
            "splits": graph.split_counts(),
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(phase, setup_times, rss_mb, throughput_name) -> tuple[dict, dict]:
    """Contract metrics and the named extras printed beside them."""
    rate = phase.work / phase.seconds if phase.seconds else 0.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "throughput_per_s": rate,
    }
    extras = {
        throughput_name: (rate, "1/s"),
        "failed_frac": (phase.failed / phase.attempted, "ratio"),
        "measured_s": (phase.seconds, "s"),
        "operations": (phase.ops, "count"),
    }
    if throughput_name == "steps_per_s" and phase.op_seconds:
        step_ms = [1000.0 * s for s in phase.op_seconds]
        value, percentile, n = tail(step_ms)
        extras["step_ms_p50"] = (statistics.median(step_ms), "ms")
        extras[f"step_ms_tail (p{percentile:.1f} of {n} steps)"] = (value, "ms")
    return metrics, extras


def run_one(args, blas_threads) -> int:
    import layers
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    size = SIZES[args.size]
    tracer = Tracer() if args.trace else None
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        workload = None  # drop the previous set-up before building the next
        began = time.perf_counter()
        workload = WORKLOADS[args.workload](size, args.seed)
        if tracer and repeat == SETUP_REPEATS - 1:
            # the data layers of train_* and eval_rank run only here
            layers.instrument(tracer)
            try:
                workload.prepare()
            finally:
                tracer.stop()
        else:
            workload.prepare()
        workload.warm_up()
        setup_times.append(time.perf_counter() - began)
        # What the benchmark's own repeated set-ups and warm-up leave behind is
        # collected here; the measured loop below gets no forced collection.
        gc.collect()

    if tracer:
        # Untraced, traced, untraced, half of --seconds each. The first half
        # takes the start of the run (on train_* the resident set grows for
        # about twenty steps); the overhead compares the traced half with
        # the untraced half after it.
        settle = workload.measure(args.seconds / 2)
        layers.instrument(tracer)
        loop = tracer.open(layers.LOOP)
        try:
            with layers.GcWatch() as collections:
                phase = workload.measure(args.seconds / 2)
        finally:
            tracer.close(loop)
            tracer.stop()
        after = workload.measure(args.seconds / 2)
        metrics = layers.layer_metrics(tracer, phase.ops)
        metrics["gc.cyclic_objects"] = collections.collected / max(phase.ops, 1)
        metrics["trace.overhead_frac"] = (
            (phase.seconds / phase.work) / (after.seconds / after.work) - 1.0
            if phase.work and after.work else 0.0)
        metrics.update(layers.conjoin_timings(args.seed))
        extras = {"traced_operations": (phase.ops, "count"),
                  "spans": (len(tracer.spans), "count")}
        for untraced in (settle, after):
            phase.attempted += untraced.attempted
            phase.failed += untraced.failed
            phase.notes.update(untraced.notes)
    else:
        phase = workload.measure(args.seconds)
        rss_mb = peak_rss_mb()  # before the checks allocate

    # A failed output check counts as one more attempted operation that failed.
    failures = workload.check(args.seed)
    phase.attempted += len(failures)
    phase.failed += len(failures)
    if not tracer:
        metrics, extras = end_to_end(phase, setup_times, rss_mb, workload.throughput)
    return report(args, blas_threads, workload, phase, metrics, extras, setup_times,
                  failures, tracer)


def report(args, blas_threads, workload, phase, metrics, extras, setup_times,
           failures, tracer) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in listed}
    result = {
        "correct": not failures,
        "attempted": int(phase.attempted),
        "failed": int(phase.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    meta = machine_info(args, blas_threads, workload.graph)

    print(f"# {json.dumps(meta, sort_keys=True)}")
    for name, unit in units.items():
        note = f"  ({CONJOIN_NOTE})" if "conjoin_" in name and name.endswith("_us.luk") else ""
        print(f"{args.workload:12s} {name:40s} {metrics[name]:14.6g} {unit}{note}")
    for name, (value, unit) in extras.items():
        print(f"{args.workload:12s} {name:40s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} {'setup_s (each)':40s} "
          f"{' '.join(f'{s:.4f}' for s in setup_times)} s")
    for label, got in sorted(phase.notes.items()):
        print(f"{args.workload:12s} shortfall {label:30s} {got}")
    for failure in failures:
        print(f"{args.workload:12s} CHECK FAILED: {failure}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, meta=meta, setup_times=setup_times, shortfall=phase.notes,
                  op_seconds=phase.op_seconds, failures=failures,
                  extras={k: v[0] for k, v in extras.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    print(json.dumps({"correct": worst == 0, "workloads": summary}))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import skqe
    except ImportError as exc:
        print(f"perfbench: cannot import skqe from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(skqe.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: skqe comes from {skqe.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import logging
    logging.getLogger("skqe").setLevel(logging.ERROR)  # shortfalls are reported below
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
