"""Print the acceptance digests of plans, datasets, training, ranks, statistics
and the answer-size head.

A change that must keep behaviour byte-identical runs this script on its
parent and on itself and compares the two outputs line by line. The
answer-size head's line goes through the two CLI commands, whose names and
flags stay put when the head's code moves; the ``train small via cli flags``
line goes through ``skqe train``, so it checks how the flags reach
``TrainConfig``. Each line is
``<run>: <digest>``, the digest being the first 16 hex digits of a sha256.
The bits depend on the machine's BLAS, so compare outputs of one machine
only; this is not a test.

    python3 tools/digests.py            # about twenty seconds on 2 cores

It imports ``skqe`` from the ``src`` directory next to this file, so a copy
of the parent checkout gives the parent's digests. Make that copy with
``git worktree add --detach ../parent PARENT`` (``git worktree remove
../parent`` afterwards) or ``git clone``: a ``git archive`` copy works here
too, but it has no ``.git``, so ``tools/bench_pairs.py`` cannot name its
commit. ``tools/train_diff.py`` reuses its training runs (``train_runs``)
with another checkout's ``skqe``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import logging
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from skqe import algebra, cli, evaluation, kg, model, oracle, training  # noqa: E402
from skqe.model import ModelParams  # noqa: E402

SMALL_TRAIN = dict(d=16, h=32, batch_size=64, negatives=32, steps=15, seed=5, log_every=1)
PAPER_TRAIN = dict(d=32, h=128, batch_size=512, negatives=128, steps=30, seed=2, log_every=1)


def _hex(h) -> str:
    return h.hexdigest()[:16]


def dataset_digest(dataset, graph) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "queries.jsonl"
        oracle.write_dataset(dataset, graph, path)
        return _hex(hashlib.sha256(path.read_bytes()))


def write_inputs(graph, dataset, path: Path) -> list[str]:
    """Write ``graph`` as TSV files and ``dataset`` as JSONL under ``path``,
    the dataset stamped with the hash of the graph the files load as;
    returns the ``--kg`` and ``--queries`` flags that name them."""
    kg.write_tsv(graph, path / "kg")
    # the file's ids follow first appearance, so its graph hashes differently
    files_hash = kg.load_tsv_dir(path / "kg").content_hash()
    metadata = {**dataset.metadata, "graph_hash": files_hash}
    oracle.write_dataset(oracle.QueryDataset(dataset.samples, metadata), graph,
                         path / "queries.jsonl")
    return ["--kg", str(path / "kg"), "--queries", str(path / "queries.jsonl")]


def checkpoint_hash(path: Path):
    """A sha256 fed with a checkpoint's arrays in sorted name order."""
    h = hashlib.sha256()
    arrays = ModelParams.load(path).arrays
    for name in sorted(arrays):
        h.update(arrays[name].tobytes())
    return h


def cli_main(argv: list[str]) -> None:
    """``cli.main(argv)`` with its output swallowed; raises unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"skqe {argv[0]} exited with {code}")


def train_digest(graph, dataset, **config) -> str:
    """The losses of every step, then every parameter in sorted name order."""
    params, records = training.train(graph, dataset, training.TrainConfig(**config))
    h = hashlib.sha256(json.dumps([r.loss for r in records]).encode())
    for name in sorted(params.arrays):
        h.update(params.arrays[name].tobytes())
    return _hex(h)


@functools.cache
def big_graph():
    return kg.generate_synthetic(2000, 20, 4.0, 0.1, 0.1, seed=0)


@functools.cache
def small_graph():
    return kg.generate_synthetic(300, 6, 4.0, 0.1, 0.1, seed=1)


@functools.cache
def sampled(graph, structures, per, seed, mode):
    """A dataset of the graph that the thunk ``graph`` builds, made once."""
    return oracle.sample_dataset(graph(), structures, per, seed, mode)


@functools.cache
def seeded_params():
    return ModelParams.initialize(
        training.TrainConfig(d=32, h=128, seed=401).model_config(big_graph()), 401)


def train_runs():
    """(name, graph thunk, dataset thunk, ``TrainConfig`` keywords) of the
    training runs; ``tools/train_diff.py`` runs the same ones."""
    train = algebra.TRAIN_STRUCTURES
    small_train = lambda: sampled(small_graph, train, 20, 3, "train")
    for name, extra in (("bounds/luk", {}),
                        ("point/prod", dict(mode="point", kind="prod")),
                        ("bounds/min", dict(kind="min"))):
        yield f"train small {name}", small_graph, small_train, {**SMALL_TRAIN, **extra}
    yield ("train paper shape", big_graph,
           lambda: sampled(big_graph, train, 100, 2, "train"), PAPER_TRAIN)


def runs():
    """(name, thunk) pairs; graphs and datasets are built on first use."""
    train, every = algebra.TRAIN_STRUCTURES, algebra.STRUCTURE_NAMES
    yield "plans", lambda: _hex(hashlib.sha256(repr(
        [(algebra.structure_plan(s), algebra.plan_branches(s, "dnf"),
          algebra.plan_branches(s, "dm")) for s in every]).encode()))
    for mode, structures, per, seeds in (("generalization", every, 200, (401, 7)),
                                         ("train", train, 100, (401, 7)),
                                         ("train", train, 500, (401, 7)),
                                         ("train", train, 200, (7,)),
                                         ("generalization", every, 100, (7,))):
        for seed in seeds:
            yield (f"dataset {mode} {len(structures)}x{per} seed {seed}",
                   lambda a=(structures, per, seed, mode):
                   dataset_digest(sampled(big_graph, *a), big_graph()))

    for name, graph, dataset, config in train_runs():
        yield name, lambda graph=graph, dataset=dataset, config=config: train_digest(
            graph(), dataset(), **config)

    def train_via_flags():
        """``skqe train`` with ``SMALL_TRAIN``'s settings as flags, through
        ``cli.main`` on files of the small graph and its train set: the
        checkpoint's parameters in sorted name order."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp)
            inputs = write_inputs(small_graph(), sampled(small_graph, train, 20, 3, "train"), path)
            flags = [text for key, value in SMALL_TRAIN.items()
                     for text in (f"--{key.replace('_', '-')}", str(value))]
            cli_main(["train", *inputs, *flags, "--out", str(path / "model.ckpt")])
            return _hex(checkpoint_hash(path / "model.ckpt"))
    yield "train small via cli flags", train_via_flags

    generalization = lambda: sampled(big_graph, every, 200, 401, "generalization")

    def one_query():
        """Each structure's first query embedded alone, as ``skqe answer``
        does: ``model.embed_instance``'s branches, then every node value that
        ``collect`` returns, under dnf and dm."""
        h = hashlib.sha256()
        params, samples = seeded_params(), generalization().by_structure()
        for union in ("dnf", "dm"):
            for structure in every:
                instance = samples[structure][0].instance
                for branch in model.embed_instance(instance, params, union).branches:
                    h.update(branch.tobytes())
                collected = []
                model.ForwardContext(params).embed_instances(
                    structure, [instance.anchors], [instance.relations], union, collected)
                for _, values in collected:
                    for value in values:
                        h.update(value.tobytes())
        return _hex(h)
    yield "one-query embeddings / intermediates dnf+dm", one_query
    def ranks(dataset, union="dnf"):
        report = evaluation.evaluate_ranking(dataset, seeded_params(), union)
        total = sum(len(r) for r in report.ranks.values())
        digest = _hex(hashlib.sha256(json.dumps(report.ranks, sort_keys=True).encode()))
        return f"{digest} ({total} ranks, {report.rescored} rescored)"
    for union in ("dnf", "dm"):
        yield f"ranks {union}", lambda union=union: ranks(generalization(), union)
    # the fit ranks: a train set ranks its easy answers
    yield "ranks train", lambda: ranks(sampled(big_graph, train, 100, 401, "train"))
    for statistic in ("entropy", "width"):
        def stats(statistic=statistic):
            values = evaluation.query_statistics(generalization(), seeded_params(), statistic)
            stats_hex = _hex(hashlib.sha256(values[0].tobytes() + values[1].tobytes()))
            rows = evaluation.uncertainty_correlation(values, statistic).to_rows()
            return f"{stats_hex} / {_hex(hashlib.sha256(json.dumps(rows).encode()))}"
        yield f"{statistic} statistics / rows", stats

    def size_head():
        """``skqe fit-cardinality`` with its default epochs and lr, then
        ``skqe eval-cardinality`` on the fitted checkpoint, both through
        ``cli.main`` on files of the big graph, the generalization set and
        the seeded parameters: the fitted parameters in sorted name order,
        then the ``cardinality_mae_pct`` rows of the metrics file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp)
            inputs = write_inputs(big_graph(), generalization(), path)
            seeded_params().save(path / "seeded.ckpt")
            cli_main(["fit-cardinality", *inputs, "--ckpt", str(path / "seeded.ckpt"),
                      "--out", str(path / "fitted.ckpt")])
            cli_main(["eval-cardinality", *inputs, "--ckpt", str(path / "fitted.ckpt"),
                      "--out", str(path / "metrics.csv")])
            h = checkpoint_hash(path / "fitted.ckpt")
            rows = [line for line in (path / "metrics.csv").read_text().splitlines()
                    if line.split(",")[1] == "cardinality_mae_pct"]
            h.update("\n".join(rows).encode())
            return f"{_hex(h)} ({len(rows)} rows)"
    yield "size head fit-cardinality / eval-cardinality rows", size_head


def main() -> int:
    logging.basicConfig(level=logging.ERROR)  # sampler shortfalls are expected here
    for name, thunk in runs():
        print(f"{name}: {thunk()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
