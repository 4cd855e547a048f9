"""Self-test of the benchmark at a tiny size; exits non-zero on any failure.

    python3 perfbench/selftest.py

It runs every workload untraced and traced and checks that each prints every
metric ``BENCHMARK.json`` names, with its unit. Then it hands each output
check a deliberately wrong output and checks that the check fails, and that
the same check passes on the untouched output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    expect(len(names) == len(set(names)), "every name is used once")
    expect(all(NAME.match(n) for n in names), "every name is well formed")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(all(UNIT.match(m["unit"]) for m in metrics), "every unit is well formed")
    expect(all(m["better"] in ("higher", "lower") for m in metrics), "every metric says which way is better")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "every bound is in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in s, lower is better, with the largest bound")


def check_runs(spec: dict) -> None:
    from run import WORKLOAD_NAMES

    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES),
           "every listed workload is one run.py knows")
    for workload in WORKLOAD_NAMES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exits 0"
                   + (f" (stderr: {done.stderr.strip()[-300:]})" if done.returncode else ""))
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{label} ends with a JSON result")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result has exactly the contract keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{label} is correct with at least one attempt")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label} prints every listed metric with its unit")
            expect(all(isinstance(m["value"], float) and math.isfinite(m["value"])
                       for m in result["metrics"].values()),
                   f"{label} values are finite numbers")


def check_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import logging

    import numpy as np

    import checks
    from workloads import SIZES, WORKLOADS

    logging.getLogger("skqe").setLevel(logging.ERROR)
    size, seed = SIZES["tiny"], 5

    gen = WORKLOADS["gen_queries"](size, seed)
    gen.prepare()
    gen.warm_up()
    gen.measure(0.0)

    def rng():
        return np.random.default_rng(1)

    expect(not checks.check_datasets(gen.graph, gen.datasets, rng(), 2)
           and not gen.check(seed), "gen_queries: the check passes on the program's datasets")
    first = gen.datasets[0].samples[0]
    both = set(first.answers[:1])
    overlapped = [dataclasses.replace(gen.datasets[0], samples=[dataclasses.replace(
        first, easy=tuple(sorted(set(first.easy) | both)),
        hard=tuple(sorted(set(first.hard) | both)))])]
    expect(any("verify" in f for f in checks.check_datasets(gen.graph, overlapped, rng(), 0)),
           "gen_queries: verify fails on overlapping easy and hard answers")
    extra = [dataclasses.replace(d, samples=[
        dataclasses.replace(s, easy=tuple(sorted(set(s.easy) | {
            next(e for e in range(gen.graph.num_entities) if e not in s.answers)})))
        for s in d.samples]) for d in gen.datasets]
    expect(any("brute force" in f for f in checks.check_datasets(gen.graph, extra, rng(), 1)),
           "gen_queries: the brute-force check fails on a wrong answer set")

    train = WORKLOADS["train_light"](size, seed)
    train.prepare()
    train.warm_up()
    train.measure(0.0)
    program, reference = checks.frozen_batch_losses(train.dataset, train.params, train.config,
                                                    size.frozen_rows, seed)
    expect(not checks.check_training(train.losses, train.params, program, reference)
           and not train.check(seed), "train_*: the check passes on the program's losses")
    expect(bool(checks.check_training(train.losses, train.params, program + 1e-6, reference)),
           "train_*: the check fails on a perturbed frozen-batch loss")
    expect(bool(checks.check_training(train.losses + [math.nan], train.params, program, reference)),
           "train_*: the check fails on a non-finite step loss")
    broken = train.params.copy()
    broken.arrays["entity"][0, 0] = math.inf
    expect(bool(checks.check_training(train.losses, broken, program, reference)),
           "train_*: the check fails on non-finite parameters")

    ev = WORKLOADS["eval_rank"](size, seed)
    ev.prepare()
    ev.warm_up()
    ev.measure(0.0)
    expect(not checks.check_ranking(ev.report, ev.dataset, ev.params, rng(), 1000)
           and not ev.check(seed), "eval_rank: the check passes on the program's ranks")
    shifted = dataclasses.replace(ev.report, ranks={
        s: [r + 1 for r in ranks] for s, ranks in ev.report.ranks.items()})
    expect(bool(checks.check_ranking(shifted, ev.dataset, ev.params, rng(), 1)),
           "eval_rank: the check fails on a corrupted rank list")
    first = next(iter(ev.report.ranks))
    short = dataclasses.replace(ev.report, ranks=dict(ev.report.ranks, **{
        first: ev.report.ranks[first][:-1]}))
    expect(any("hard answers" in f for f in checks.check_ranking(short, ev.dataset, ev.params,
                                                                 rng(), 0)),
           "eval_rank: the check fails on a missing rank")


def main() -> int:
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_runs(spec)
    check_checks()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
