"""Ranking metrics, uncertainty correlations, and answer-size error."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import logic, model as model_mod
from .algebra import EPFO_STRUCTURES, NEGATION_STRUCTURES, STRUCTURE_NAMES, UNION_STRUCTURES
from .errors import DataError, NumericError
from .model import ForwardContext, ModelParams, QueryEmbedding
from .oracle import QueryDataset
from .training import split_by_hash

EVAL_BATCH = 256
SCORE_BLOCK_BYTES = 1 << 20  # budget of one (rows, cols, 2d) scoring tile


@dataclass(frozen=True)
class RankMetrics:
    mrr: float
    hits1: float
    hits3: float
    hits10: float

    def as_tuple(self):
        return (self.mrr, self.hits1, self.hits3, self.hits10)


def mrr_hits(ranks) -> RankMetrics:
    """Mean reciprocal rank and Hits@{1,3,10} of a rank list."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise DataError("cannot aggregate an empty rank list")
    return RankMetrics(
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1)),
        hits3=float(np.mean(ranks <= 3)),
        hits10=float(np.mean(ranks <= 10)),
    )


def rank_answers(scores: np.ndarray, filter_ids, targets) -> list[int]:
    """Filtered rank of each target: 1 + number of non-answer entities scoring
    at least as high (ties count against the target)."""
    allowed = np.ones(scores.shape[0], dtype=bool)
    filter_ids = np.asarray(sorted(filter_ids), dtype=np.int64)
    if filter_ids.size:
        allowed[filter_ids] = False
    ranks = []
    for t in targets:
        target_score = scores[t]
        competitors = (scores >= target_score) & allowed
        competitors[t] = False
        ranks.append(1 + int(np.count_nonzero(competitors)))
    return ranks


def rank_hard_answers(qe: QueryEmbedding, sample, params: ModelParams,
                      entity_matrix: np.ndarray | None = None) -> list[int]:
    """Ranks of the hard answers under the filtered protocol."""
    scores = model_mod.score_entities(qe, params, entity_matrix)
    return rank_answers(scores, set(sample.easy) | set(sample.hard), sample.hard)


@dataclass
class RankingReport:
    per_structure: dict[str, RankMetrics] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    ranks: dict[str, list[int]] = field(default_factory=dict)

    def average(self, structures=None) -> RankMetrics | None:
        names = [s for s in (structures or self.per_structure) if s in self.per_structure]
        if not names:
            return None
        rows = np.array([self.per_structure[s].as_tuple() for s in names])
        return RankMetrics(*np.mean(rows, axis=0))

    def to_rows(self) -> list[tuple[str, str, float, int]]:
        rows = []
        for structure in self.per_structure:
            metrics = self.per_structure[structure]
            count = self.counts[structure]
            for metric, value in zip(("mrr", "hits@1", "hits@3", "hits@10"),
                                     metrics.as_tuple()):
                rows.append((structure, metric, value, count))
        for label, names in (("avg_epfo", EPFO_STRUCTURES),
                             ("avg_negation", NEGATION_STRUCTURES),
                             ("avg_all", STRUCTURE_NAMES)):
            avg = self.average(names)
            if avg is None:
                continue
            count = sum(self.counts[s] for s in names if s in self.counts)
            for metric, value in zip(("mrr", "hits@1", "hits@3", "hits@10"),
                                     avg.as_tuple()):
                rows.append((label, metric, value, count))
        return rows


def _embed_structure_batches(params: ModelParams, samples, union_mode: str):
    """Yield (batch samples, list-of-branch score-ready arrays (B, 2d))."""
    structure = samples[0].instance.structure
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start:start + EVAL_BATCH]
        anchors = np.array([s.instance.anchors for s in chunk], dtype=np.int64)
        relations = np.array([s.instance.relations for s in chunk], dtype=np.int64)
        yield chunk, ForwardContext(params).embed_instances(structure, anchors, relations,
                                                            union_mode)


def _batch_scores(branch_values, entity_matrix: np.ndarray) -> np.ndarray:
    """Satisfiability ``1 - mean|E - v|`` of every entity against every query
    row, best branch first-to-last: a ``(B, N)`` array for ``(B, 2d)`` branch
    values and an ``(N, 2d)`` entity matrix.

    The ``(B, N, 2d)`` difference is never built whole. Rows and entities are
    tiled so that one tile's ``(rows, cols, 2d)`` block fits in
    ``SCORE_BLOCK_BYTES`` (a tile spans at least one row and one entity, and
    at least four rows when the budget allows); one block buffer and one
    ``(rows, cols)`` distance buffer are reused for every tile and branch.
    Peak memory is the ``(B, N)`` result plus about the budget, not
    O(B·N·2d). Each score is still the mean of one contiguous 2d-slot row,
    and the branch maximum is taken in branch order, so the output is
    byte-identical to the one-block formula
    ``max_b (1 - mean(|E[None] - V_b[:, None]|, axis=2))``.
    """
    rows_total = branch_values[0].shape[0]
    count, width = entity_matrix.shape
    dtype = np.result_type(entity_matrix, *branch_values)
    pairs = max(1, SCORE_BLOCK_BYTES // (width * dtype.itemsize))
    cols = max(1, min(count, pairs // 4))
    rows = max(1, min(rows_total, pairs // cols))
    best = np.empty((rows_total, count), dtype=dtype)
    block_buffer = np.empty(rows * cols * width, dtype=dtype)
    dist_buffer = np.empty(rows * cols, dtype=dtype)
    for r0 in range(0, rows_total, rows):
        r1 = min(rows_total, r0 + rows)
        for c0 in range(0, count, cols):
            c1 = min(count, c0 + cols)
            shape = (r1 - r0, c1 - c0)
            block = block_buffer[: shape[0] * shape[1] * width].reshape(*shape, width)
            dist = dist_buffer[: shape[0] * shape[1]].reshape(shape)
            tile = best[r0:r1, c0:c1]
            entities = entity_matrix[None, c0:c1, :]
            for branch, values in enumerate(branch_values):
                np.subtract(entities, values[r0:r1, None, :], out=block)
                np.abs(block, out=block)
                target = tile if branch == 0 else dist
                np.mean(block, axis=2, out=target)
                np.subtract(1.0, target, out=target)
                if branch:
                    np.maximum(tile, dist, out=tile)
    return best


def evaluate_ranking(dataset: QueryDataset, params: ModelParams,
                     union_mode: str = "dnf", workers: int = 1) -> RankingReport:
    """Filtered ranking over the dataset.

    Generalization datasets rank hard answers filtering all known answers;
    entailment-style datasets (no hard answers) rank easy answers filtering
    the other easy answers. Raises NumericError on a non-finite entity or
    query embedding, whose scores would rank every target first.
    """
    entailment = dataset.mode in ("entailment", "train")
    if not entailment and dataset.mode != "generalization":
        raise DataError(f"cannot rank dataset with mode {dataset.mode!r}")
    if not dataset.samples:
        raise DataError("dataset has no queries to rank")
    entity_matrix = model_mod.realize_all_entities(params)
    if not np.all(np.isfinite(entity_matrix)):
        raise NumericError("non-finite entity embeddings")
    report = RankingReport()

    def eval_structure(item):
        structure, samples = item
        ranks: list[int] = []
        for chunk, branch_values in _embed_structure_batches(params, samples, union_mode):
            if not all(np.all(np.isfinite(values)) for values in branch_values):
                raise NumericError(f"{structure}: non-finite query embedding")
            scores = _batch_scores(branch_values, entity_matrix)
            for row, sample in enumerate(chunk):
                if entailment:
                    if sample.hard:
                        raise DataError("entailment dataset contains hard answers")
                    targets, filter_ids = sample.easy, set(sample.easy)
                else:
                    if not sample.hard:
                        raise DataError("generalization query without hard answers")
                    targets = sample.hard
                    filter_ids = set(sample.easy) | set(sample.hard)
                ranks.extend(rank_answers(scores[row], filter_ids, targets))
        return structure, ranks

    items = list(dataset.by_structure().items())
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(eval_structure, items))
    else:
        results = [eval_structure(item) for item in items]
    for structure, ranks in results:
        report.ranks[structure] = ranks
        report.counts[structure] = len(ranks)
        report.per_structure[structure] = mrr_hits(ranks)
    return report


# --- correlation statistics ---------------------------------------------------

def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DataError("pearson needs two equal-length series of length >= 2")
    if np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def rank_with_average_ties(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    rx = rank_with_average_ties(x)
    ry = rank_with_average_ties(y)
    if np.std(rx) == 0 or np.std(ry) == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass(frozen=True)
class CorrelationStats:
    spearman: float
    pearson: float
    count: int
    degenerate: bool  # zero-variance statistic, correlations reported as 0


@dataclass
class UncertaintyReport:
    statistic: str
    per_structure: dict[str, CorrelationStats] = field(default_factory=dict)

    def average(self, structures=None) -> tuple[float, float]:
        names = [s for s in (structures or self.per_structure) if s in self.per_structure]
        if not names:
            raise DataError("no structures to average")
        return (
            float(np.mean([self.per_structure[s].spearman for s in names])),
            float(np.mean([self.per_structure[s].pearson for s in names])),
        )

    def to_rows(self) -> list[tuple[str, str, float, int]]:
        rows = []
        for structure, stats in self.per_structure.items():
            rows.append((structure, f"spearman_{self.statistic}", stats.spearman, stats.count))
            rows.append((structure, f"pearson_{self.statistic}", stats.pearson, stats.count))
        sp, pe = self.average()
        total = sum(s.count for s in self.per_structure.values())
        rows.append(("avg", f"spearman_{self.statistic}", sp, total))
        rows.append(("avg", f"pearson_{self.statistic}", pe, total))
        return rows


def query_statistics(dataset: QueryDataset, params: ModelParams,
                     statistic: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-query uncertainty statistic and answer-set size.

    Union queries are embedded through De Morgan's law so a single embedding
    exists; everything else uses its plan directly.
    """
    if params.config.mode != "bounds":
        raise DataError("uncertainty statistics require bounds mode")
    if statistic not in ("entropy", "width"):
        raise DataError(f"unknown statistic {statistic!r} (want entropy or width)")
    d = params.config.d
    stats, sizes, structures = [], [], []
    for structure, samples in dataset.by_structure().items():
        for chunk, branch_values in _embed_structure_batches(params, samples, "dm"):
            values = branch_values[0]
            if statistic == "entropy":
                per_query = np.sum(logic.entropy_slots(values), axis=1)
            else:
                per_query = np.sum(values[:, d:] - values[:, :d], axis=1)
            stats.extend(per_query.tolist())
            sizes.extend(float(len(s.answers)) for s in chunk)
            structures.extend(structure for _ in chunk)
    return np.asarray(stats), np.asarray(sizes), structures


def uncertainty_correlation(dataset: QueryDataset, params: ModelParams,
                            statistic: str) -> UncertaintyReport:
    """Spearman/Pearson between an uncertainty statistic and answer-set size."""
    stats, sizes, structures = query_statistics(dataset, params, statistic)
    report = UncertaintyReport(statistic)
    for structure in dict.fromkeys(structures):
        mask = np.array([s == structure for s in structures])
        x, y = stats[mask], sizes[mask]
        degenerate = bool(np.std(x) == 0 or np.std(y) == 0)
        report.per_structure[structure] = CorrelationStats(
            spearman=0.0 if degenerate else spearman(x, y),
            pearson=0.0 if degenerate else pearson(x, y),
            count=int(mask.sum()),
            degenerate=degenerate,
        )
    return report


def cardinality_features(params: ModelParams, samples) -> np.ndarray:
    """Entropy vector of each sample's De Morgan embedding, in sample order.

    Queries are embedded in batches per structure; union queries go through
    De Morgan's law, so each query has one embedding.
    """
    if params.config.mode != "bounds":
        raise DataError("cardinality prediction requires bounds mode")
    positions: dict[str, list[int]] = {}
    for i, sample in enumerate(samples):
        positions.setdefault(sample.instance.structure, []).append(i)
    features = np.empty((len(samples), params.config.d))
    for where in positions.values():
        group = [samples[i] for i in where]
        features[where] = np.concatenate([
            logic.entropy_slots(branch_values[0])
            for _, branch_values in _embed_structure_batches(params, group, "dm")
        ])
    return features


def _relative_size_errors(params: ModelParams, samples) -> np.ndarray:
    """|prediction - size| / size of the size head on samples with answers."""
    sizes = np.array([len(s.answers) for s in samples], dtype=np.float64)
    predictions = model_mod.cardinality_forward(cardinality_features(params, samples), params)
    return np.abs(predictions - sizes) / sizes


def _mae_by_structure(samples, errors) -> dict[str, tuple[float, int]]:
    by_structure: dict[str, list[float]] = {}
    for sample, error in zip(samples, errors):
        by_structure.setdefault(sample.instance.structure, []).append(error)
    return {
        structure: (100.0 * float(np.mean(errors)), len(errors))
        for structure, errors in by_structure.items()
    }


def cardinality_mae(dataset: QueryDataset, params: ModelParams,
                    indices: list[int] | None = None) -> dict[str, tuple[float, int]]:
    """Per-structure mean absolute relative error of the size head, in percent.

    ``indices`` restricts scoring to a subset (e.g. the hash-test half);
    zero-answer queries are skipped and counted out.
    """
    samples = dataset.samples if indices is None else [dataset.samples[i] for i in indices]
    kept = [s for s in samples if s.answers]
    return _mae_by_structure(kept, _relative_size_errors(params, kept))


def cardinality_test_half(dataset: QueryDataset, params: ModelParams):
    """MAE on the hash-test half plus the constant-mean-predictor baseline.

    Both skip zero-answer test queries; ``test_count`` counts the rest.
    """
    train_idx, test_idx = split_by_hash(dataset)
    sizes = np.array([len(s.answers) for s in dataset.samples], dtype=np.float64)
    test_idx = [i for i in test_idx if sizes[i] > 0]
    if not test_idx:
        raise DataError("no test-half query with a nonempty answer set")
    test = [dataset.samples[i] for i in test_idx]
    errors = _relative_size_errors(params, test)
    mean_size = float(np.mean(sizes[train_idx]))
    test_sizes = sizes[test_idx]
    baseline = 100.0 * float(np.mean(np.abs(mean_size - test_sizes) / test_sizes))
    return {"test_mae": 100.0 * float(np.mean(errors)), "baseline_mae": baseline,
            "per_structure": _mae_by_structure(test, errors), "test_count": len(test)}


def write_metric_csv(rows: list[tuple[str, str, float, int]], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("structure,metric,value,count\n")
        for structure, metric, value, count in rows:
            handle.write(f"{structure},{metric},{value:.6f},{count}\n")


def write_plot_data(dataset: QueryDataset, params: ModelParams, statistic: str,
                    path) -> None:
    """(answer-size, statistic) pairs per structure for external plotting."""
    stats, sizes, structures = query_statistics(dataset, params, statistic)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("structure,answer_size,statistic\n")
        for structure, size, value in zip(structures, sizes, stats):
            handle.write(f"{structure},{int(size)},{value:.6f}\n")
