"""Ranking metrics and uncertainty correlations.

Filtered ranking runs in two stages per embedded batch, with the same ranks
as exact scoring. ``_batch_scores`` screens every entity against the batch's
queries in float32, in the min form ``|E - v| = E + v - 2 min(E, v)``;
``rank_answers`` then ranks all the batch's targets in whole-array passes: it
scores every target exactly in one gathered call, settles every entity whose
screen lies further than ``screen_tolerance`` from its target's score, and
rescores the near ties in between, all through ``model.satisfiability``, the
one exact scoring formula (``model.score_entities`` scores a whole table with
it). Both stages keep their working set within about ``SCORE_BLOCK_BYTES``
besides the ``(B, N)`` screen.

Each uncertainty statistic comes from one De Morgan pass (``dm_embeddings``),
which also feeds the answer-size head's entropy features."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import logic, model as model_mod
from .algebra import EPFO_STRUCTURES, NEGATION_STRUCTURES, STRUCTURE_NAMES
from .errors import DataError, NumericError
from .model import ForwardContext, ModelParams, QueryEmbedding
from .oracle import QueryDataset

EVAL_BATCH = 256
SCORE_BLOCK_BYTES = 1 << 20  # working-set budget of the screen and of ranking
# Ranking's bytes per screen entity of a target: its float32 or float64 screen
# copy and two masks, or later at worst one filtered (row, id) index pair.
RANK_BYTES_PER_ENTITY = 18
# Bytes per rescored near tie: indices, ids, exact scores and comparisons.
RANK_BYTES_PER_NEAR_TIE = 64
STATISTICS = ("entropy", "width")  # the uncertainty statistics of query_statistics


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


def _at_or_above(values: np.ndarray, dtype) -> np.ndarray:
    """The least ``dtype`` number at or above each float64 value: an array of
    ``dtype`` compares with it exactly as with the float64 value."""
    rounded = values.astype(dtype)
    below = rounded < values
    rounded[below] = np.nextafter(rounded[below], np.inf)
    return rounded


def rank_answers(scores: np.ndarray, filters, targets, rescore=None,
                 tolerance: float = 0.0) -> list[int]:
    """Filtered ranks of a batch of queries, row by row and each row's in
    target order: for row b of the ``(B, N)`` ``scores`` and each target t of
    ``targets[b]``, 1 + the number of entities outside ``filters[b]`` and
    other than t scoring at least as high as t (ties count against the
    target; a target never counts against itself, filtered or not).

    Without ``rescore`` the scores are exact and compared as they are. With
    it, ``scores`` is a screen within ``tolerance`` of the exact scores and
    ``rescore(rows, ids)`` returns the exact scores of query row ``rows[i]``
    against entity ``ids[i]``; one call scores every target. An entity whose
    screen is at least its target's score plus ``tolerance`` counts, one
    below that score minus ``tolerance`` does not, and each near tie in
    between is rescored and counts when its exact score is at least the
    target's. Both thresholds are rounded up to the screen's dtype, so a
    float32 screen compares with them as with the float64 thresholds.

    Targets are ranked in chunks of their screen rows. One comparison pass
    over a chunk counts, per target, the entities at or above its upper
    threshold, and one more marks those at or above its lower one; each
    target and its row's filtered ids are cleared from both before anything
    is counted. What is left between the thresholds are the near ties, which
    are rescored in slices. Each stage's temporaries stay within about
    ``SCORE_BLOCK_BYTES`` (``RANK_BYTES_PER_ENTITY``,
    ``RANK_BYTES_PER_NEAR_TIE``), whatever the filters and the ties.
    """
    if rescore is None:
        def rescore(rows, ids):
            return scores[rows, ids]
    count = scores.shape[1]
    sizes = [len(row) for row in targets]
    rows = np.repeat(np.arange(len(sizes)), sizes)
    ids = np.fromiter(itertools.chain.from_iterable(targets), dtype=np.int64, count=rows.size)
    exact = rescore(rows, ids)
    upper = _at_or_above(exact + tolerance, scores.dtype)
    lower = _at_or_above(exact - tolerance, scores.dtype)
    excluded = [np.fromiter(f, dtype=np.int64) for f in filters]
    excluded_sizes = np.array([f.size for f in excluded], dtype=np.int64)
    ranks = np.ones(rows.size, dtype=np.int64)
    step = max(1, SCORE_BLOCK_BYTES // (count * RANK_BYTES_PER_ENTITY))
    tie_step = max(1, SCORE_BLOCK_BYTES // RANK_BYTES_PER_NEAR_TIE)
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        r = rows[part]
        local = np.arange(r.size)
        screen = scores[r]
        above = screen >= upper[part, None]
        band = screen >= lower[part, None]
        del screen
        filter_rows = np.repeat(local, excluded_sizes[r])
        filter_ids = np.concatenate([excluded[b] for b in r.tolist()])
        for mask in (above, band):
            mask[filter_rows, filter_ids] = False
            mask[local, ids[part]] = False
        del filter_rows, filter_ids
        counts = np.count_nonzero(above, axis=1)
        band ^= above  # the near ties: below the upper threshold, not the lower
        del above
        ties = np.flatnonzero(band)  # far faster than a 2-D np.nonzero
        del band
        for tie_start in range(0, ties.size, tie_step):
            flat = ties[tie_start:tie_start + tie_step]
            j = flat // count
            wins = rescore(r[j], flat - j * count) >= exact[part][j]
            counts += np.bincount(j[wins], minlength=r.size)
        ranks[part] += counts
    return ranks.tolist()


def rank_hard_answers(qe: QueryEmbedding, sample, params: ModelParams) -> list[int]:
    """Ranks of the hard answers under the filtered protocol."""
    scores = model_mod.score_entities(qe, params)
    return rank_answers(scores[None, :], [set(sample.easy) | set(sample.hard)], [sample.hard])


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


def _embed_structure_batches(params: ModelParams, samples, union_mode: str,
                             entities: np.ndarray):
    """Yield (batch samples, list-of-branch score-ready arrays (B, 2d)) for
    same-structure ``samples``, ``EVAL_BATCH`` at a time. Every batch's
    inference context gathers its anchors from ``entities``, the realized
    entity table (``model.realize_all_entities``) of ``params``."""
    structure = samples[0].instance.structure
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start:start + EVAL_BATCH]
        anchors = np.array([s.instance.anchors for s in chunk], dtype=np.int64)
        relations = np.array([s.instance.relations for s in chunk], dtype=np.int64)
        yield chunk, ForwardContext(params, entities=entities).embed_instances(
            structure, anchors, relations, union_mode)


def _batch_scores(branch_values, entity_matrix: np.ndarray) -> np.ndarray:
    """Float32 screen of the satisfiability ``1 - mean|E - v|`` of every
    entity against every query row, best branch first-to-last: a ``(B, N)``
    float32 array for ``(B, 2d)`` branch values and an ``(N, 2d)`` entity
    matrix (float32 in ``evaluate_ranking``; the values are rounded to float32
    as they are copied). Each score lies within ``screen_tolerance`` of the
    exact float64 score of ``model.satisfiability``, so it can rank only
    together with an exact recheck of near ties (``rank_answers``).

    Each pair's distance takes the min form ``ΣE + Σv - 2·Σ min(E, v)`` over
    the 2d slots. The entity sums are made once per call and the query sums
    once per row block, both in float64; the only pass over ``2d`` slots per
    pair is one ``np.minimum``, and one matrix-vector product with a vector of
    twos (exact doubling) sums its slots in float32. Each ``(rows, cols)``
    tile then becomes ``1 - (ΣE + Σv - 2·Σ min) / 2d`` in float64 and is
    rounded once into the float32 result.

    The ``(B, N, 2d)`` block is never built whole. Rows and entities are
    tiled so that a ``(rows, cols, 2d)`` buffer fits in half of
    ``SCORE_BLOCK_BYTES`` (a tile spans at least one row and one entity, and
    at least eight rows when the budget allows). Two such buffers are used:
    for each row block and branch, the branch's values are copied once across
    ``cols`` into the first, and every entity tile of that row block then
    takes its minimum with a whole slice of entities into the second, so no
    minimum broadcasts a query row. Peak memory is the ``(B, N)`` float32
    result plus about the budget and the ``N`` entity sums, not O(B·N·2d).
    """
    rows_total = branch_values[0].shape[0]
    count, width = entity_matrix.shape
    pairs = max(1, SCORE_BLOCK_BYTES // (2 * width * 4))  # 4 bytes per float32
    cols = max(1, min(count, pairs // 8))
    rows = max(1, min(rows_total, pairs // cols))
    best = np.empty((rows_total, count), dtype=np.float32)
    replica = np.empty((rows, cols, width), dtype=np.float32)
    block_buffer = np.empty(rows * cols * width, dtype=np.float32)
    mins_buffer = np.empty(rows * cols, dtype=np.float32)
    distance_buffer = np.empty(rows * cols)
    twos = np.full(width, 2.0, dtype=np.float32)
    entity_sums = np.add.reduce(entity_matrix, axis=1, dtype=np.float64)
    for r0 in range(0, rows_total, rows):
        r1 = min(rows_total, r0 + rows)
        queries = replica[: r1 - r0]
        for branch, values in enumerate(branch_values):
            np.copyto(queries, values[r0:r1, None, :])
            query_sums = np.add.reduce(values[r0:r1], axis=1, dtype=np.float64)[:, None]
            for c0 in range(0, count, cols):
                c1 = min(count, c0 + cols)
                shape = (r1 - r0, c1 - c0)
                pair_count = shape[0] * shape[1]
                block = block_buffer[: pair_count * width].reshape(pair_count, width)
                np.minimum(entity_matrix[None, c0:c1], queries[:, : shape[1]],
                           out=block.reshape(*shape, width))
                mins = mins_buffer[:pair_count]
                np.matmul(block, twos, out=mins)
                distance = distance_buffer[:pair_count].reshape(shape)
                np.add(query_sums, entity_sums[c0:c1], out=distance)
                distance -= mins.reshape(shape)
                distance /= width
                np.subtract(1.0, distance, out=distance)
                tile = best[r0:r1, c0:c1]
                if branch == 0:
                    np.copyto(tile, distance)
                else:
                    np.maximum(tile, distance, out=tile)
    return best


def screen_tolerance(width: int, magnitude: float) -> float:
    """Bound on |screen - exact score| over ``width`` = W = 2d slots, for a
    ``magnitude`` M >= 1 that bounds every entity and query value.

    Let u = 2^-24, float32's unit roundoff, and let e', v' be e and v rounded
    to float32, each within uM. The screen takes |e - v| = e + v - 2 min(e, v)
    with e' in the entity sum, v itself in the query sum and min(e', v') in
    the float32 sum. Per slot that is off by at most |e' - e| + 2|min(e', v')
    - min(e, v)| <= 3uM, which is 3uM on the mean. Summing the W terms
    2 min(e', v') in float32, in any order, adds at most (W - 1)u times their
    total of at most 2MW, which is 2(W - 1)uM on the mean. The float64 sums,
    the combination and the division by W add only float64 errors (about
    W·2^-53·M), and rounding the score, of magnitude at most 1 + 2M <= 3M,
    to float32 adds 3uM (M >= 1 also absorbs float32 underflow). So
    |screen - exact| <= (2W + 4)uM, to first order. The tolerance 4(W + 1)uM
    covers that for every W >= 2, with 2W·uM to spare for the float64
    score's own error and for ``target ± tolerance``, which ``rank_answers``
    rounds up to float32 so the screen compares with it as with the float64
    value. Where float32 sums could overflow the tolerance is infinite, so
    every entity is rescored.
    """
    if 4 * width * magnitude >= float(np.finfo(np.float32).max):
        return np.inf
    return 4 * (width + 1) * 2.0 ** -24 * magnitude


def evaluate_ranking(dataset: QueryDataset, params: ModelParams,
                     union_mode: str = "dnf", workers: int = 1) -> RankingReport:
    """Filtered ranking over the dataset, whatever its mode.

    Each query ranks its hard answers, or its easy ones where it has no hard
    answer, each filtering all of the query's other answers. Each embedded
    batch is screened once against a float32 copy of the entity table
    (``_batch_scores``, made once per call), and all its targets are ranked
    by one ``rank_answers`` call, whose rescorer scores gathered (query row,
    entity) pairs exactly (``_pair_scores``), so the ranks equal those of
    exact scores; ``RankingReport.rescored`` counts the near ties it
    rescored. Raises NumericError on a non-finite entity or query embedding
    (the latter from ``ForwardContext.embed_instances``), whose scores would
    rank every target first.
    """
    if workers != 1:  # accepted, as 1 only, for perfbench/workloads.py
        raise DataError(f"ranking is serial: workers must be 1, got {workers}")
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
        for chunk, branch_values in _embed_structure_batches(params, samples, union_mode,
                                                             entity_matrix):
            screen = _batch_scores(branch_values, screen_entities)
            tolerance = screen_tolerance(width, max(
                entity_magnitude, *(float(np.max(np.abs(v))) for v in branch_values)))
            targets = [sample.hard or sample.easy for sample in chunk]
            filters = [(*sample.easy, *sample.hard) for sample in chunk]
            asked = []

            def rescore(rows, ids):
                asked.append(len(ids))
                return _pair_scores(branch_values, entity_matrix, rows, ids)

            ranks.extend(rank_answers(screen, filters, targets, rescore, tolerance))
            report.rescored += sum(asked) - sum(len(t) for t in targets)
            del screen  # free before the next batch's screen is made
        report.ranks[structure] = ranks
        report.counts[structure] = len(ranks)
        report.per_structure[structure] = mrr_hits(ranks)
    return report


def _pair_scores(branch_values, entity_matrix: np.ndarray, rows, ids) -> np.ndarray:
    """Exact float64 scores of query row ``rows[i]`` against entity ``ids[i]``,
    by ``model.satisfiability`` on gathered rows, in slices whose gathers and
    differences stay within ``SCORE_BLOCK_BYTES``."""
    step = max(1, SCORE_BLOCK_BYTES // (4 * entity_matrix.shape[1] * 8))
    out = np.empty(len(ids))
    for start in range(0, len(ids), step):
        part = slice(start, start + step)
        out[part] = model_mod.satisfiability(entity_matrix[ids[part]],
                                             (values[rows[part]] for values in branch_values))
    return out


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
    _, inverse, counts = np.unique(np.asarray(x, dtype=np.float64), return_inverse=True,
                                   return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


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

    def average(self) -> tuple[float, float]:
        if not self.per_structure:
            raise DataError("no structures to average")
        stats = self.per_structure.values()
        return (float(np.mean([s.spearman for s in stats])),
                float(np.mean([s.pearson for s in stats])))

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
    """Per-query uncertainty statistic, answer-set size and structure, grouped
    by structure: the input of ``uncertainty_correlation`` and
    ``write_plot_data``.

    Union queries are embedded through De Morgan's law so a single embedding
    exists; everything else uses its plan directly.
    """
    if statistic not in STATISTICS:
        raise DataError(f"unknown statistic {statistic!r} (want {' or '.join(STATISTICS)})")
    samples = [s for group in dataset.by_structure().values() for s in group]
    values = dm_embeddings(params, samples)
    if statistic == "entropy":
        stats = np.sum(logic.entropy_slots(values), axis=1)
    else:
        d = params.config.d
        stats = np.sum(values[:, d:] - values[:, :d], axis=1)
    sizes = np.array([float(len(s.answers)) for s in samples])
    return stats, sizes, [s.instance.structure for s in samples]


def uncertainty_correlation(statistics: tuple[np.ndarray, np.ndarray, list[str]],
                            statistic: str) -> UncertaintyReport:
    """Spearman/Pearson per structure between the uncertainty statistic named
    ``statistic`` and answer-set size, from ``query_statistics``' output."""
    stats, sizes, structures = statistics
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


def dm_embeddings(params: ModelParams, samples) -> np.ndarray:
    """(len(samples), 2d) De Morgan embeddings in sample order, embedded in
    batches per structure from one realized entity table; unions go through
    De Morgan's law, so each query has one embedding. Its interval statistics
    need bounds mode."""
    if params.config.mode != "bounds":
        raise DataError("entropy and width statistics require bounds mode")
    positions: dict[str, list[int]] = {}
    for i, sample in enumerate(samples):
        positions.setdefault(sample.instance.structure, []).append(i)
    entities = model_mod.realize_all_entities(params)
    values = np.empty((len(samples), 2 * params.config.d))
    for where in positions.values():
        group = [samples[i] for i in where]
        values[where] = np.concatenate([
            branch_values[0]
            for _, branch_values in _embed_structure_batches(params, group, "dm", entities)
        ])
    return values


def write_metric_csv(rows: list[tuple[str, str, float, int]], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("structure,metric,value,count\n")
        for structure, metric, value, count in rows:
            handle.write(f"{structure},{metric},{value:.6f},{count}\n")


def write_plot_data(statistics: tuple[np.ndarray, np.ndarray, list[str]], path) -> None:
    """(answer-size, statistic) pairs per structure, from ``query_statistics``'
    output, for external plotting."""
    stats, sizes, structures = statistics
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("structure,answer_size,statistic\n")
        for structure, size, value in zip(structures, sizes, stats):
            handle.write(f"{structure},{int(size)},{value:.6f}\n")
