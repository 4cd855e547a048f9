"""Compare the training runs of ``tools/digests.py`` between two checkouts.

A change that declares a rounding-level numeric change to training shows its
size with this script:

    python3 tools/train_diff.py OTHER_CHECKOUT      # about thirty seconds on 2 cores

OTHER_CHECKOUT is any copy of the other commit's files: ``git worktree add
--detach ../parent PARENT`` (``git worktree remove ../parent`` afterwards),
``git clone`` or ``git archive``.

It runs the training runs of ``digests.py`` (same configs, graphs and
datasets, defined by this checkout's ``digests.py``) with this checkout's
``src`` ("here") and with the ``src`` of OTHER_CHECKOUT ("there"), three
rounds a side, each round in its own Python process, in the order here,
there, there, here, here, there, so that neither side always runs first or
last. It raises if a side's three rounds differ in any loss or parameter
bit, which also checks that training is deterministic across processes.
For each run it prints the largest absolute difference of the per-step
losses, the largest absolute difference over the parameters both sides
have, and the parameter names only one side has. A change that keeps
training bit-identical prints 0 for both. Like the digests, the bits depend
on the machine's BLAS. It prints no step times: the runs are too short to
time.
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
    """Pickle {run name: (losses, parameter arrays)} and the path of the
    ``skqe.training`` module that ran them to ``path``."""
    import digests
    from skqe import training

    logging.basicConfig(level=logging.ERROR)  # sampler shortfalls are expected here
    runs = {}
    for name, graph, dataset, config in digests.train_runs():
        params, records = training.train(graph(), dataset(), training.TrainConfig(**config))
        runs[name] = ([r.loss for r in records], params.arrays)
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


ORDER = ("here", "there", "there", "here", "here", "there")


def check_rounds(side: str, rounds: list[dict]) -> None:
    """Raise unless every round of ``side`` has the first round's losses and
    parameters, bit for bit."""
    first = rounds[0]
    for later in rounds[1:]:
        for name, (losses, arrays) in first.items():
            other_losses, other_arrays = later[name]
            same = (np.array(losses).tobytes() == np.array(other_losses).tobytes()
                    and arrays.keys() == other_arrays.keys()
                    and all(arrays[k].tobytes() == other_arrays[k].tobytes() for k in arrays))
            if not same:
                raise RuntimeError(f"{name}: the {side} rounds differ in a loss or a parameter")


def _names(names) -> str:
    return ", ".join(sorted(names)) or "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    args = parser.parse_args(argv)
    checkouts = {"here": TOOLS.parent, "there": args.other}
    rounds: dict[str, list[dict]] = {"here": [], "there": []}
    for side in ORDER:
        rounds[side].append(run_side(checkouts[side]))
    for side, side_rounds in rounds.items():
        check_rounds(side, side_rounds)
    here, there = rounds["here"][0], rounds["there"][0]
    for name, (losses, arrays) in here.items():
        other_losses, other_arrays = there[name]
        if len(losses) != len(other_losses):
            raise RuntimeError(f"{name}: {len(losses)} losses here, {len(other_losses)} there")
        d_loss = float(np.max(np.abs(np.subtract(losses, other_losses))))
        shared = sorted(arrays.keys() & other_arrays.keys())
        d_param = max(float(np.max(np.abs(arrays[k] - other_arrays[k]))) for k in shared)
        print(f"{name}: max |dloss| {d_loss:.3g}, max |dparam| {d_param:.3g}, "
              f"only here: {_names(arrays.keys() - other_arrays.keys())}, "
              f"only there: {_names(other_arrays.keys() - arrays.keys())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
