"""Run the benchmark in alternating pairs on a parent checkout and this one.

A change that claims, or must rule out, a move in a benchmark metric shows
it with this script:

    python3 tools/bench_pairs.py PARENT_CHECKOUT --out BENCH_<n>.json --title "..."

Make PARENT_CHECKOUT with ``git worktree add --detach ../parent PARENT``
(and ``git worktree remove ../parent`` afterwards) or with ``git clone``, so
that the JSON names the parent's commit: a ``git archive`` copy has no
``.git``, and its ``commit`` reads null.
For each workload of ``BENCHMARK.json`` (or each ``--workload``) it runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on
the parent and once on this checkout per seed, for ten seeds from
``--first-seed``, with ``T`` the ``run_seconds`` of ``BENCHMARK.json``. The
side that goes first alternates from pair to pair. Every run gets a fresh
copy of its side's ``src``, ``perfbench`` and ``BENCHMARK.json`` in a
temporary directory, so no run sees another's compiled files or outputs.
The JSON it writes has the shape of ``BENCH_18.json`` and ``BENCH_19.json``:
per workload and end-to-end metric, each side's values with their median
and quartiles, the pairs the change wins, the change of the median and the
parent's interquartile range, and the acceptance rule's ``verdict``:
``worse``, ``unresolved`` or ``within`` the metric's bound. A full run of
two workloads takes about twenty minutes on 2 cores. Nothing else should
run on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload {w} --seed {s} --seconds {t:g} --trace 0"
PAIRS = 10
SIDES = ("parent", "change")


def copy_side(checkout: Path, into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(checkout / name, into / name, ignore=ignore)
    shutil.copy2(checkout / "BENCHMARK.json", into / "BENCHMARK.json")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in a fresh copy: (its result line, its machine line)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy_side(checkout, Path(tmp))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {done.returncode}")
    meta = next(json.loads(line[2:]) for line in lines if line.startswith("# "))
    return json.loads(lines[-1]), meta


def git_commit(checkout: Path) -> str | None:
    """HEAD of the checkout, marked when its ``src`` differs from HEAD; None
    where the checkout has no ``.git`` (a ``git archive`` copy)."""
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        return None
    dirty = subprocess.run(["git", "-C", str(checkout), "diff", "--quiet", "HEAD", "--", "src"])
    return head.stdout.strip() + (" with uncommitted changes to src" if dirty.returncode else "")


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def verdict(p: dict, c: dict, higher: bool, bound: float) -> str:
    """The acceptance rule's reading of one metric from the parent's and the
    change's ``summary``, checked in this order: ``worse`` when the change
    median is worse than the parent's by more than ``bound`` times the parent
    median; else ``unresolved`` when the parent's interquartile range exceeds
    ``bound`` times its median, unless every change run beats every parent
    run; else ``within``."""
    worse_by = (p["median"] - c["median"]) if higher else (c["median"] - p["median"])
    if worse_by > bound * p["median"]:
        return "worse"
    parent, change = p["values"], c["values"]
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    if p["q3"] - p["q1"] > bound * p["median"] and not beats_all:
        return "unresolved"
    return "within"


def compare(spec: dict, runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric: both sides' values, wins, the parent's spread,
    the metric's bound and its ``verdict``."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent, change = summary(sides["parent"]), summary(sides["change"])
        wins = sum((c > p) if higher else (c < p) for p, c in zip(*sides.values()))
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "change_wins": wins, "pairs": len(sides["parent"]),
            "median_change_frac": change["median"] / parent["median"] - 1.0,
            "parent_iqr": parent["q3"] - parent["q1"],
            "bound": metric["bound"],
            "verdict": verdict(parent, change, higher, metric["bound"]),
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--title", required=True, help="what the change does, in a line")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": HERE}

    results, metas = {}, {}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        first = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                result, metas[side] = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(result)
                rate = result["metrics"]["throughput_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: {rate:.4g}/s "
                      f"correct {result['correct']}", flush=True)
        results[workload] = {
            "seeds": seeds,
            "first_in_pair": first,
            "correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "metrics": compare(spec, runs),
        }

    meta = metas["change"]
    report = {
        "series": "BENCH_<n>.json: paired benchmark runs of one change against its parent",
        "title": args.title,
        "command": COMMAND.format(w="<w>", s="<seed>", t=seconds),
        "method": (f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}, each pair "
                   "running parent and change one after the other in fresh directories, "
                   "alternating which side runs first; win = the change's value is better "
                   "than the parent's in that pair"),
        **{side: {"commit": git_commit(checkouts[side]),
                  "source_sha256": metas[side]["source_sha256"]} for side in SIDES},
        "machine": {
            "cpu": cpu_name(), "nproc": meta["nproc"], "python": meta["python"],
            "numpy": meta["numpy"], "blas": meta["blas"], "blas_threads": meta["blas_threads"],
            "os": platform.platform(), "graph": meta["graph"], "size": meta["size"],
            "run_seconds": seconds,
        },
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}] -> change "
                  f"{m['change']['median']:.4g} ({100 * m['median_change_frac']:+.1f}%), "
                  f"change wins {m['change_wins']}/{m['pairs']}, {m['verdict']} "
                  f"(bound {100 * m['bound']:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
