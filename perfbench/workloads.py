"""The benchmark's four workloads: set-up, closed measuring loop, outputs.

Every workload builds the same synthetic graph, drives skqe through its
public functions with one caller and ``workers=1``, and keeps its last
outputs for its ``check``, which calls the output checks in ``checks.py``. Set-up is ``prepare``
(graph, dataset, parameters) followed by ``warm_up``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from skqe import algebra, evaluation, kg, oracle, training
from skqe.errors import NumericError, SkqeError
from skqe.model import ModelParams
from skqe.oracle import QueryDataset

import checks


@dataclass(frozen=True)
class Size:
    entities: int
    relations: int
    degree: float
    valid_frac: float
    test_frac: float
    train_per_structure: int   # gen_queries, train mode, 10 structures
    gen_per_structure: int     # gen_queries and eval_rank, generalization mode, 14 structures
    train_set_per_structure: int  # train_* dataset; step cost does not depend on it
    batch: int
    d: int
    h: int
    exhaustive_picks: int      # seeded structures per dataset cross-checked by brute force
    rank_checks: int           # seeded queries whose ranks are recomputed
    frozen_rows: int           # frozen-batch queries per structure for the loss check


SIZES = {
    # The graph and training shape of the ROADMAP baseline and the paper.
    "paper": Size(2000, 20, 4.0, 0.1, 0.1, 500, 200, 100, 512, 32, 128, 1, 24, 4),
    # Seconds-long shape for the self-test.
    "tiny": Size(300, 6, 4.0, 0.1, 0.1, 20, 10, 10, 32, 16, 16, 1, 8, 2),
}

NEGATIVES = {"train_paper": 128, "train_light": 4}

# One fixed graph for every run, as the ROADMAP asks; the run's seed drives
# query sampling, parameters, batches and negatives.
GRAPH_SEED = 0


def make_graph(size: Size) -> kg.KnowledgeGraph:
    return kg.generate_synthetic(size.entities, size.relations, size.degree,
                                 size.valid_frac, size.test_frac, GRAPH_SEED)


@dataclass
class Phase:
    """What one measuring loop did."""

    ops: int = 0            # closed-loop operations: dataset passes or train steps
    seconds: float = 0.0    # wall time of those operations
    work: float = 0.0       # what the throughput counts: queries, steps or answers
    attempted: int = 0
    failed: int = 0
    op_seconds: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)  # per-structure sampling shortfall


def check_rng(seed: int) -> np.random.Generator:
    """The generator that picks what the output checks cross-check."""
    return np.random.default_rng([seed, 4])


def run_passes(seconds: float, one_pass, phase: Phase) -> Phase:
    """Repeat whole passes; stop where the run ends closest to ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_pass(phase)
        phase.op_seconds.append(time.perf_counter() - began)
        phase.ops += 1
        phase.seconds = time.perf_counter() - start
        if phase.seconds + phase.op_seconds[-1] / 2 >= seconds:
            return phase


class GenQueries:
    """``sample_dataset`` in train mode, then in generalization mode."""

    throughput = "queries_per_s"

    def __init__(self, size: Size, seed: int):
        self.size, self.seed = size, seed

    def prepare(self) -> None:
        self.graph = make_graph(self.size)
        self.datasets: list[QueryDataset] = []

    def warm_up(self) -> None:
        oracle.sample_dataset(self.graph, ("1p",), 5, self.seed, "train")

    def one_pass(self, phase: Phase) -> None:
        self.datasets = []
        for structures, per_structure, mode in (
                (algebra.TRAIN_STRUCTURES, self.size.train_per_structure, "train"),
                (algebra.STRUCTURE_NAMES, self.size.gen_per_structure, "generalization")):
            requested = per_structure * len(structures)
            phase.attempted += requested
            try:
                dataset = oracle.sample_dataset(self.graph, structures, per_structure,
                                                self.seed, mode)
            except SkqeError:
                phase.failed += requested
                continue
            self.datasets.append(dataset)
            phase.work += len(dataset.samples)
            phase.failed += requested - len(dataset.samples)
            for structure, got in dataset.metadata["counts"].items():
                if got < per_structure:
                    phase.notes[f"{mode}.{structure}"] = f"{got}/{per_structure}"

    def measure(self, seconds: float) -> Phase:
        return run_passes(seconds, self.one_pass, Phase())

    def check(self, seed: int) -> list[str]:
        return checks.check_datasets(self.graph, self.datasets, check_rng(seed),
                                     self.size.exhaustive_picks)


class Train:
    """``training.train`` at a fixed batch shape; one call runs the whole loop."""

    throughput = "steps_per_s"

    def __init__(self, size: Size, seed: int, negatives: int):
        self.size, self.seed, self.negatives = size, seed, negatives

    def prepare(self) -> None:
        size = self.size
        self.graph = make_graph(size)
        self.dataset = oracle.sample_dataset(self.graph, algebra.TRAIN_STRUCTURES,
                                             size.train_set_per_structure, self.seed, "train")
        self.config = training.TrainConfig(
            d=size.d, h=size.h, negatives=self.negatives, batch_size=size.batch,
            steps=2, seed=self.seed, log_every=1, checkpoint_every=1, workers=1,
        )
        self.params = ModelParams.initialize(self.config.model_config(self.graph), self.seed)
        self.losses: list[float] = []

    def warm_up(self) -> None:
        """Two steps; the second sizes the measured loop."""
        _, records = training.train(self.graph, self.dataset, self.config, params=self.params)
        self.step_estimate = records[1].seconds - records[0].seconds

    def measure(self, seconds: float) -> Phase:
        """Run one ``train`` call, as shipped, sized to ``seconds`` from the warm-up step.

        The callback only stamps the time: the loop keeps the program's own
        memory and garbage collection, tape cycles included.
        """
        steps = max(2, round(seconds / self.step_estimate))
        config = dataclasses.replace(self.config, steps=steps)
        stamps: list[float] = []
        phase = Phase()
        start = time.perf_counter()
        try:
            _, records = training.train(
                self.graph, self.dataset, config, params=self.params,
                on_checkpoint=lambda step, params: stamps.append(time.perf_counter()))
            self.losses = [r.loss for r in records]
        except NumericError:
            phase.failed = 1
            self.losses = [float("nan")]
        phase.op_seconds = [end - begin for begin, end in zip([start] + stamps, stamps)]
        phase.ops = phase.work = len(stamps)
        phase.attempted = len(stamps) + phase.failed
        phase.seconds = sum(phase.op_seconds)
        return phase

    def check(self, seed: int) -> list[str]:
        program, reference = checks.frozen_batch_losses(
            self.dataset, self.params, self.config, self.size.frozen_rows, seed)
        return checks.check_training(self.losses, self.params, program, reference)


class EvalRank:
    """``evaluate_ranking`` over the generalization set, DNF, seeded parameters."""

    throughput = "answers_per_s"

    def __init__(self, size: Size, seed: int):
        self.size, self.seed = size, seed

    def prepare(self) -> None:
        size = self.size
        self.graph = make_graph(size)
        self.dataset = oracle.sample_dataset(self.graph, algebra.STRUCTURE_NAMES,
                                             size.gen_per_structure, self.seed,
                                             "generalization")
        config = training.TrainConfig(d=size.d, h=size.h, seed=self.seed)
        self.params = ModelParams.initialize(config.model_config(self.graph), self.seed)
        self.expected = sum(len(s.hard) for s in self.dataset.samples)
        self.report = None

    def warm_up(self) -> None:
        """Rank the first structure once."""
        first = next(iter(self.dataset.by_structure().values()))
        evaluation.evaluate_ranking(QueryDataset(first, {"mode": "generalization"}),
                                    self.params)

    def one_pass(self, phase: Phase) -> None:
        phase.attempted += self.expected
        try:
            self.report = evaluation.evaluate_ranking(self.dataset, self.params, "dnf", workers=1)
        except SkqeError:
            phase.failed += self.expected
            return
        ranked = sum(len(r) for r in self.report.ranks.values())
        phase.work += ranked
        phase.failed += self.expected - ranked

    def measure(self, seconds: float) -> Phase:
        return run_passes(seconds, self.one_pass, Phase())

    def check(self, seed: int) -> list[str]:
        if self.report is None:
            return ["no ranking report produced"]
        return checks.check_ranking(self.report, self.dataset, self.params, check_rng(seed),
                                    self.size.rank_checks)


WORKLOADS = {
    "gen_queries": GenQueries,
    "train_paper": lambda size, seed: Train(size, seed, NEGATIVES["train_paper"]),
    "train_light": lambda size, seed: Train(size, seed, NEGATIVES["train_light"]),
    "eval_rank": EvalRank,
}
