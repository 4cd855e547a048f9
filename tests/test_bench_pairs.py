"""``tools/bench_pairs.py``'s verdict per metric, the acceptance rule's
reading of ten paired runs, on synthetic runs and on ``BENCH_32.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TIGHT = [9.9, 10.0, 10.0, 10.0, 10.1]  # median 10, IQR 0
SPREAD = [6.0, 8.0, 10.0, 12.0, 14.0]  # median 10, IQR 4: 40% of the median


def _compare(parent, change, better="higher", bound=0.25):
    spec = {"end_to_end": [{"name": "m", "unit": "1/s", "better": better, "bound": bound}]}
    runs = {side: [{"metrics": {"m": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pairs.compare(spec, runs)["m"]


@pytest.mark.parametrize("parent,change,better,want", [
    (TIGHT, [7.0] * 5, "higher", "worse"),  # 30% below a tight parent
    (TIGHT, [13.0] * 5, "lower", "worse"),  # 30% above, where lower is better
    (SPREAD, [7.0] * 5, "higher", "worse"),  # worse comes before unresolved
    (SPREAD, [10.0] * 5, "higher", "unresolved"),
    (SPREAD, [14.0, 15, 16, 17, 18], "higher", "unresolved"),  # 14 ties the parent's best
    (SPREAD, [15.0, 16, 17, 18, 19], "higher", "within"),  # every run beats every parent run
    (SPREAD, [1.0, 2, 3, 4, 5], "lower", "within"),
    (TIGHT, [8.0] * 5, "higher", "within"),  # 20% below: inside the bound
    (TIGHT, [10.0] * 5, "lower", "within"),
], ids=["worse", "worse-lower", "worse-over-spread", "unresolved", "unresolved-tie",
        "beats-every-run", "beats-every-run-lower", "within-bound", "within"])
def test_verdict(parent, change, better, want):
    got = _compare(parent, change, better)
    assert got["verdict"] == want and got["bound"] == 0.25


def test_bench_32_train_paper_throughput_is_unresolved():
    """The parent's IQR is 29.8% of its median there, over the 25% bound."""
    stored = json.loads((ROOT / "BENCH_32.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric = stored["workloads"]["train_paper"]["metrics"]["throughput_per_s"]
    got = _compare(metric["parent"]["values"], metric["change"]["values"],
                   bound=next(m["bound"] for m in spec["end_to_end"]
                              if m["name"] == "throughput_per_s"))
    assert got["parent_iqr"] / got["parent"]["median"] == pytest.approx(0.298, abs=1e-3)
    assert got["verdict"] == "unresolved"
