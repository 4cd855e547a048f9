"""Ranking metrics, uncertainty correlations, and answer-size error.

Filtered ranking runs in two stages with the same ranks as exact scoring.
``_batch_scores`` screens every entity against a batch of queries in float32;
``rank_answers`` then compares each target's exact score with the screen,
settles every entity whose screen lies further than ``screen_tolerance`` from
it, and rescores the near ties in between with ``model.score_entities``, the
one exact scorer.

Uncertainty statistics and the size head's features come from one De Morgan
pass (``_dm_embeddings``); the hash split of the size head's train and test
halves (``split_by_hash``) lives here too."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import logic, model as model_mod
from .algebra import EPFO_STRUCTURES, NEGATION_STRUCTURES, STRUCTURE_NAMES
from .errors import DataError, NumericError
from .model import ForwardContext, ModelParams, QueryEmbedding
from .oracle import QueryDataset

EVAL_BATCH = 256
SCORE_BLOCK_BYTES = 1 << 20  # scoring budget: a query copy and a difference block, half each


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


def rank_answers(scores: np.ndarray, filter_ids, targets, rescore=None,
                 tolerance: float = 0.0) -> list[int]:
    """Filtered rank of each target: 1 + number of non-answer entities scoring
    at least as high (ties count against the target; a target never counts
    against itself).

    Without ``rescore`` the scores are exact and compared as they are. With
    it, ``scores`` is a screen within ``tolerance`` of the exact scores and
    ``rescore(ids)`` returns the exact scores of the entities ``ids``: it
    gives each target's own score. An entity whose screen is at least that
    score plus ``tolerance`` counts, one below that score minus ``tolerance``
    does not, and each near tie in between is rescored and counts when its
    exact score is at least the target's.
    """
    allowed = np.ones(scores.shape[0], dtype=bool)
    filter_ids = np.asarray(sorted(filter_ids), dtype=np.int64)
    if filter_ids.size:
        allowed[filter_ids] = False
    targets = np.asarray(targets, dtype=np.int64)
    exact = scores[targets] if rescore is None else rescore(targets)
    ranks = []
    for t, target_score in zip(targets, exact):
        competitors = (scores >= target_score + tolerance) & allowed
        competitors[t] = False
        count = np.count_nonzero(competitors)
        if rescore is not None:
            near = (scores >= target_score - tolerance) & allowed & ~competitors
            near[t] = False
            ids = np.flatnonzero(near)
            if ids.size:
                count += np.count_nonzero(rescore(ids) >= target_score)
        ranks.append(1 + int(count))
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
    rescored: int = 0  # near ties the float32 screen left to the exact scorer

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
    """Float32 screen of the satisfiability ``1 - mean|E - v|`` of every
    entity against every query row, best branch first-to-last: a ``(B, N)``
    float32 array for ``(B, 2d)`` branch values and an ``(N, 2d)`` entity
    matrix (float32 in ``evaluate_ranking``; the values are rounded to float32
    as they are copied). Each score lies within ``screen_tolerance`` of the
    exact float64 score of ``model.score_entities``, so it can rank only
    together with an exact recheck of near ties (``rank_answers``).

    The ``(B, N, 2d)`` difference is never built whole. Rows and entities are
    tiled so that a ``(rows, cols, 2d)`` buffer fits in half of
    ``SCORE_BLOCK_BYTES`` (a tile spans at least one row and one entity, and
    at least eight rows when the budget allows). Two such buffers are used:
    for each row block and branch, the branch's values are copied once across
    ``cols`` into the first, and every entity tile of that row block then
    subtracts it from a whole slice of entities into the second, so no
    subtraction broadcasts a query row. One matrix-vector product with a
    vector of ones sums each pair's ``2d`` slots into a ``(rows, cols)``
    buffer. Peak memory is the ``(B, N)`` float32 result plus about the
    budget, not O(B·N·2d).
    """
    rows_total = branch_values[0].shape[0]
    count, width = entity_matrix.shape
    pairs = max(1, SCORE_BLOCK_BYTES // (2 * width * 4))  # 4 bytes per float32
    cols = max(1, min(count, pairs // 8))
    rows = max(1, min(rows_total, pairs // cols))
    best = np.empty((rows_total, count), dtype=np.float32)
    replica = np.empty((rows, cols, width), dtype=np.float32)
    block_buffer = np.empty(rows * cols * width, dtype=np.float32)
    sum_buffer = np.empty(rows * cols, dtype=np.float32)
    ones = np.ones(width, dtype=np.float32)
    for r0 in range(0, rows_total, rows):
        r1 = min(rows_total, r0 + rows)
        queries = replica[: r1 - r0]
        for branch, values in enumerate(branch_values):
            np.copyto(queries, values[r0:r1, None, :])
            for c0 in range(0, count, cols):
                c1 = min(count, c0 + cols)
                shape = (r1 - r0, c1 - c0)
                pair_count = shape[0] * shape[1]
                block = block_buffer[: pair_count * width].reshape(pair_count, width)
                np.subtract(entity_matrix[None, c0:c1], queries[:, : shape[1]],
                            out=block.reshape(*shape, width))
                np.abs(block, out=block)
                distance = sum_buffer[:pair_count]
                np.matmul(block, ones, out=distance)
                distance = distance.reshape(shape)
                distance /= width
                tile = best[r0:r1, c0:c1]
                if branch == 0:
                    np.subtract(1.0, distance, out=tile)
                else:
                    np.subtract(1.0, distance, out=distance)
                    np.maximum(tile, distance, out=tile)
    return best


def screen_tolerance(width: int, magnitude: float) -> float:
    """Bound on |screen - exact score| over ``width`` = W = 2d slots, for a
    ``magnitude`` M >= 1 that bounds every entity and query value.

    Let u = 2^-24, float32's unit roundoff. Rounding e and v to float32 and
    subtracting puts each slot's |e - v| off by at most uM + uM + u·2M = 4uM.
    Summing the W terms in any order adds at most (W - 1)u times their total
    of at most 2MW, which is 2(W - 1)uM on the mean; dividing by W adds
    u·2M, and ``1 - x`` adds u(1 + 2M) <= 3uM (M >= 1 also absorbs float32
    underflow). So |screen - exact| <= (2W + 7)uM, to first order. The
    tolerance 4(W + 1)uM covers that for every W >= 2, with room for the
    float64 score's own error (about W·2^-53·M) and for rounding
    ``target ± tolerance``. Where float32 sums could overflow the tolerance
    is infinite, so every entity is rescored.
    """
    if 4 * width * magnitude >= float(np.finfo(np.float32).max):
        return np.inf
    return 4 * (width + 1) * 2.0 ** -24 * magnitude


def evaluate_ranking(dataset: QueryDataset, params: ModelParams,
                     union_mode: str = "dnf", workers: int = 1) -> RankingReport:
    """Filtered ranking over the dataset.

    Generalization datasets rank hard answers filtering all known answers;
    entailment-style datasets (no hard answers) rank easy answers filtering
    the other easy answers. Each embedded batch is screened once against a
    float32 copy of the entity table (``_batch_scores``, made once per call),
    and each query's targets are ranked by ``rank_answers`` with the exact
    ``model.score_entities`` on gathered rows as the rescorer, so the ranks
    equal those of exact scores; ``RankingReport.rescored`` counts the near
    ties it rescored. Raises NumericError on a non-finite entity or query
    embedding (the latter from ``ForwardContext.embed_instances``), whose
    scores would rank every target first.
    """
    if workers != 1:  # accepted, as 1 only, for perfbench/workloads.py
        raise DataError(f"ranking is serial: workers must be 1, got {workers}")
    entailment = dataset.mode in ("entailment", "train")
    if not entailment and dataset.mode != "generalization":
        raise DataError(f"cannot rank dataset with mode {dataset.mode!r}")
    if not dataset.samples:
        raise DataError("dataset has no queries to rank")
    entity_matrix = model_mod.realize_all_entities(params)
    if not np.all(np.isfinite(entity_matrix)):
        raise NumericError("non-finite entity embeddings")
    screen_entities = entity_matrix.astype(np.float32)
    entity_magnitude = max(1.0, float(np.max(np.abs(entity_matrix))))
    width = entity_matrix.shape[1]
    report = RankingReport()
    for structure, samples in dataset.by_structure().items():
        ranks: list[int] = []
        for chunk, branch_values in _embed_structure_batches(params, samples, union_mode):
            screen = _batch_scores(branch_values, screen_entities)
            tolerance = screen_tolerance(width, max(
                entity_magnitude, *(float(np.max(np.abs(v))) for v in branch_values)))
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
                qe = QueryEmbedding(tuple(values[row] for values in branch_values))
                asked = []

                def rescore(ids):
                    asked.append(len(ids))
                    return model_mod.score_entities(qe, params, entity_matrix[ids])

                ranks.extend(rank_answers(screen[row], filter_ids, targets, rescore, tolerance))
                report.rescored += sum(asked) - len(targets)
            del screen  # free before the next batch's screen is made
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
    """Per-query uncertainty statistic and answer-set size, grouped by structure.

    Union queries are embedded through De Morgan's law so a single embedding
    exists; everything else uses its plan directly.
    """
    if statistic not in ("entropy", "width"):
        raise DataError(f"unknown statistic {statistic!r} (want entropy or width)")
    samples = [s for group in dataset.by_structure().values() for s in group]
    values = _dm_embeddings(params, samples)
    if statistic == "entropy":
        stats = np.sum(logic.entropy_slots(values), axis=1)
    else:
        d = params.config.d
        stats = np.sum(values[:, d:] - values[:, :d], axis=1)
    sizes = np.array([float(len(s.answers)) for s in samples])
    return stats, sizes, [s.instance.structure for s in samples]


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


def _dm_embeddings(params: ModelParams, samples) -> np.ndarray:
    """(len(samples), 2d) De Morgan embeddings in sample order, embedded in
    batches per structure; unions go through De Morgan's law, so each query
    has one embedding. Its interval statistics need bounds mode."""
    if params.config.mode != "bounds":
        raise DataError("entropy and width statistics require bounds mode")
    positions: dict[str, list[int]] = {}
    for i, sample in enumerate(samples):
        positions.setdefault(sample.instance.structure, []).append(i)
    values = np.empty((len(samples), 2 * params.config.d))
    for where in positions.values():
        group = [samples[i] for i in where]
        values[where] = np.concatenate([
            branch_values[0]
            for _, branch_values in _embed_structure_batches(params, group, "dm")
        ])
    return values


def cardinality_features(params: ModelParams, samples) -> np.ndarray:
    """Entropy vector of each sample's De Morgan embedding, in sample order."""
    return logic.entropy_slots(_dm_embeddings(params, samples))


def relative_size_errors(params: ModelParams, samples) -> np.ndarray:
    """|prediction - size| / size of the size head on samples with answers."""
    sizes = np.array([len(s.answers) for s in samples], dtype=np.float64)
    predictions = ForwardContext(params).cardinality(cardinality_features(params, samples))
    return np.abs(predictions - sizes) / sizes


def _mae_by_structure(samples, errors) -> dict[str, tuple[float, int]]:
    by_structure: dict[str, list[float]] = {}
    for sample, error in zip(samples, errors):
        by_structure.setdefault(sample.instance.structure, []).append(error)
    return {
        structure: (100.0 * float(np.mean(errors)), len(errors))
        for structure, errors in by_structure.items()
    }


def query_sort_key(sample) -> str:
    """Stable digest used to split datasets deterministically."""
    inst = sample.instance
    text = f"{inst.structure}|{','.join(map(str, inst.anchors))}|{','.join(map(str, inst.relations))}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def split_by_hash(dataset: QueryDataset) -> tuple[list[int], list[int]]:
    """1:1 train/test split (count-exact to one query) ordered by query hash."""
    order = sorted(range(len(dataset.samples)),
                   key=lambda i: (query_sort_key(dataset.samples[i]), i))
    half = (len(order) + 1) // 2
    return order[:half], order[half:]


def cardinality_halves(dataset: QueryDataset) -> tuple[list[int], list[int]]:
    """The size head's hash split: the train half, and the test half without
    its zero-answer queries. Such a query has no relative error, so the fit
    report and ``cardinality_test_half`` both skip it."""
    train_idx, test_idx = split_by_hash(dataset)
    test_idx = [i for i in test_idx if dataset.samples[i].answers]
    if not test_idx:
        raise DataError("no test-half query with a nonempty answer set")
    return train_idx, test_idx


def cardinality_test_half(dataset: QueryDataset, params: ModelParams):
    """MAE on the hash-test half plus the constant-mean-predictor baseline.

    Both skip zero-answer test queries; ``test_count`` counts the rest.
    """
    train_idx, test_idx = cardinality_halves(dataset)
    sizes = np.array([len(s.answers) for s in dataset.samples], dtype=np.float64)
    test = [dataset.samples[i] for i in test_idx]
    errors = relative_size_errors(params, test)
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
