"""Compare the training runs of ``tools/digests.py`` between two checkouts.

A change that declares a rounding-level numeric change to training shows its
size with this script:

    python3 tools/train_diff.py OTHER_CHECKOUT      # about ten seconds on 2 cores

It runs the training runs of ``digests.py`` (same configs, graphs and
datasets, defined by this checkout's ``digests.py``) once with this
checkout's ``src`` and once with the ``src`` of OTHER_CHECKOUT, each side in
its own Python process. For each run it prints the largest absolute
difference of the per-step losses, the largest absolute difference over the
parameters both sides have, and the parameter names only one side has. A
change that keeps training bit-identical prints 0 for both. Like the
digests, the bits depend on the machine's BLAS.

Each run's line also gives its median step time on each side, read from the
run's ``log_every=1`` records. Each side runs once, in sequence, so these
times are indicative only; they are the one place where the point/prod and
min/dm runs' speed shows, since the benchmark trains luk/bounds/dnf only.
"""

from __future__ import annotations

import argparse
import logging
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent

# Imports the chosen side's skqe package before digests.py puts this
# checkout's src on the path. The package root imports no module, but every
# later ``from skqe import m`` finds the package in sys.modules and loads m
# through its ``__path__``, so digests.py runs the chosen side's modules.
_SIDE = """
import sys
sys.path.insert(0, sys.argv[1])
import skqe
sys.path.insert(0, sys.argv[2])
import train_diff
train_diff.dump_runs(sys.argv[3])
"""


def dump_runs(path) -> None:
    """Pickle {run name: (losses, parameter arrays, step seconds)} and the
    path of the ``skqe.training`` module that ran them to ``path``. The step
    seconds are the differences of the records' elapsed times, so every run
    must log every step."""
    import digests
    from skqe import training

    logging.basicConfig(level=logging.ERROR)  # sampler shortfalls are expected here
    runs = {}
    for name, graph, dataset, config in digests.train_runs():
        if config.get("log_every") != 1:
            raise RuntimeError(f"{name}: step times need log_every=1")
        params, records = training.train(graph(), dataset(), training.TrainConfig(**config))
        runs[name] = ([r.loss for r in records], params.arrays,
                      np.diff([0.0] + [r.seconds for r in records]))
    with open(path, "wb") as handle:
        pickle.dump((training.__file__, runs), handle)


def run_side(checkout: Path) -> dict:
    src = (checkout / "src").resolve()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs.pickle"
        subprocess.run([sys.executable, "-c", _SIDE, str(src), str(TOOLS), str(out)],
                       check=True)
        with open(out, "rb") as handle:
            module, runs = pickle.load(handle)
    if Path(module).resolve().parent.parent != src:
        raise RuntimeError(f"expected skqe.training from {src}, imported {module}")
    return runs


def _names(names) -> str:
    return ", ".join(sorted(names)) or "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    args = parser.parse_args(argv)
    here, there = run_side(TOOLS.parent), run_side(args.other)
    for name, (losses, arrays, seconds) in here.items():
        other_losses, other_arrays, other_seconds = there[name]
        if len(losses) != len(other_losses):
            raise RuntimeError(f"{name}: {len(losses)} losses here, {len(other_losses)} there")
        d_loss = float(np.max(np.abs(np.subtract(losses, other_losses))))
        shared = sorted(arrays.keys() & other_arrays.keys())
        d_param = max(float(np.max(np.abs(arrays[k] - other_arrays[k]))) for k in shared)
        print(f"{name}: max |dloss| {d_loss:.3g}, max |dparam| {d_param:.3g}, "
              f"only here: {_names(arrays.keys() - other_arrays.keys())}, "
              f"only there: {_names(other_arrays.keys() - arrays.keys())}, "
              f"median step ms (one run each, indicative) here "
              f"{1e3 * np.median(seconds):.1f}, there {1e3 * np.median(other_seconds):.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
