"""Margin-loss training of the query model with negative sampling, Adam, and
sparse row updates."""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import InitVar, asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import algebra, autodiff as ad, model as model_mod
from .errors import DataError, NumericError
from .kg import KnowledgeGraph
from .model import ForwardContext, ModelConfig, ModelParams
from .oracle import QueryDataset

log = logging.getLogger(__name__)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DataError(f"{name} must be finite and positive, got {value}")


@dataclass
class TrainConfig:
    d: int = 32
    h: int = 128
    gamma: float = 0.375
    negatives: int = 128
    batch_size: int = 512
    steps: int = 20000
    lr: float = 1e-4
    seed: int = 0
    kind: str = "luk"
    mode: str = "bounds"
    union: str = "dnf"  # accepted, as "dnf" only, for perfbench/checks.py
    filter_negatives: bool = True
    log_every: int = 100
    checkpoint_every: int = 0
    workers: InitVar[int] = 1  # accepted, as 1 only, for perfbench/workloads.py

    def __post_init__(self, workers):
        if workers != 1:
            raise DataError(f"training is serial: workers must be 1, got {workers}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.union != "dnf":  # a training query has one branch
            raise DataError(f"union must be 'dnf', got {self.union!r}")
        for name in ("gamma", "lr"):
            _check_positive(name, getattr(self, name))
        if self.negatives < 1:
            raise DataError("need at least one negative sample")
        for name in ("steps", "batch_size", "log_every"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.checkpoint_every < 0:
            raise DataError(f"checkpoint_every must be at least 0, got {self.checkpoint_every}")

    def model_config(self, graph: KnowledgeGraph) -> ModelConfig:
        return ModelConfig(
            num_entities=graph.num_entities,
            num_relations=graph.num_relations,
            d=self.d,
            h=self.h,
            mode=self.mode,
            kind=self.kind,
        )


@dataclass
class TrainLogRecord:
    step: int
    loss: float
    pos_score: float
    neg_score: float
    repairs: int
    seconds: float


def write_train_log(records: list[TrainLogRecord], path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("step,loss,pos_score,neg_score,repairs,seconds\n")
        for r in records:
            handle.write(
                f"{r.step},{r.loss:.6f},{r.pos_score:.6f},{r.neg_score:.6f},"
                f"{r.repairs},{r.seconds:.3f}\n"
            )


class Adam:
    """Adam with lazy per-row updates for the embedding tables.

    Moment buffers cover full tables but only touched rows are read or
    written, so untouched rows are bit-identical after a step. The moment
    decays and the denominator's epsilon are Adam's published defaults.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def begin_step(self) -> None:
        self.t += 1

    def _state(self, name: str, like: np.ndarray):
        if name not in self._m:
            self._m[name] = np.zeros_like(like)
            self._v[name] = np.zeros_like(like)
        return self._m[name], self._v[name]

    def _apply(self, m, v, grad):
        """Update the moments in place and return the step
        ``(lr * m_hat) / (sqrt(v_hat) + EPS)``, built in two work arrays with
        the operations of the plain expression in their order."""
        step, denom = np.empty_like(grad), np.empty_like(grad)
        m *= self.BETA1
        m += np.multiply(grad, 1.0 - self.BETA1, out=step)
        v *= self.BETA2
        np.multiply(grad, 1.0 - self.BETA2, out=step)
        v += np.multiply(step, grad, out=step)
        np.divide(m, 1.0 - self.BETA1 ** self.t, out=step)
        step *= self.lr
        np.divide(v, 1.0 - self.BETA2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        step /= denom
        return step

    def update_dense(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        m, v = self._state(name, param)
        param -= self._apply(m, v, grad)

    def update_rows(self, name: str, param: np.ndarray, ids: np.ndarray,
                    grads: np.ndarray) -> None:
        m, v = self._state(name, param)
        m_rows, v_rows = m[ids], v[ids]
        step = self._apply(m_rows, v_rows, grads)
        m[ids] = m_rows
        v[ids] = v_rows
        param[ids] -= step


def margin_loss(query: np.ndarray | tuple, positive: np.ndarray,
                negatives: list[np.ndarray], gamma: float) -> float:
    """Plain-numpy contrastive loss: -log s(g - D(y,q)) - mean_j log s(D(z_j,q) - g).

    ``query`` is one vector, or a training query's one-branch tuple
    (``QueryEmbedding.branches``).
    """
    (query,) = query if isinstance(query, tuple) else (query,)

    def dist(x):
        return float(np.mean(np.abs(np.asarray(query) - np.asarray(x))))

    def log_sig(x):
        return float(min(x, 0.0) - np.log1p(np.exp(-abs(x))))

    loss = -log_sig(gamma - dist(positive))
    loss -= sum(log_sig(dist(z) - gamma) for z in negatives) / len(negatives)
    return loss


def sample_negatives(answers, k: int, num_entities: int,
                     rng: np.random.Generator, filter_answers: bool = True) -> np.ndarray:
    """k uniform entity ids, rejecting true answers; falls back to sampling
    with replacement from the non-answers when fewer than k of them exist
    (``train`` warns about such queries once). This is the one-row path of
    ``_draw_negatives``, which a step takes for a structure's rows only when
    one round of 2k candidates per row does not serve them all."""
    if k > num_entities:
        raise DataError(f"cannot draw {k} negatives from {num_entities} entities")
    excluded = np.zeros(num_entities, dtype=bool)
    if filter_answers:
        excluded[np.asarray(answers, dtype=np.int64)] = True
    if num_entities - np.count_nonzero(excluded) < k:
        pool = np.flatnonzero(~excluded)
        if not pool.size:
            pool = np.arange(num_entities)
        return rng.choice(pool, size=k, replace=True)
    out = np.empty(k, dtype=np.int64)
    filled = 0
    while filled < k:
        draw = rng.integers(0, num_entities, size=2 * (k - filled))
        kept = draw[~excluded[draw]][: k - filled]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    return out


def _flat(rows: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The rows concatenated as int64, and their (len(rows) + 1,) offsets."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return np.fromiter(itertools.chain.from_iterable(rows), np.int64, offsets[-1]), offsets


@dataclass
class _StructureGroup:
    structure: str
    anchors: np.ndarray      # (N, num_anchors)
    relations: np.ndarray    # (N, num_relations)
    answers: list[tuple[int, ...]]  # each query's positives; a step reads the flat arrays
    answer_ids: np.ndarray = field(init=False)        # answers, each sorted and distinct
    answer_offsets: np.ndarray = field(init=False)    # (N + 1,) into answer_ids

    def __post_init__(self):
        self.answer_ids, self.answer_offsets = _flat(self.answers)

    @property
    def positives(self) -> list[tuple[int, ...]]:
        """``answers``, under the name ``perfbench/checks.py`` reads."""
        return self.answers


def _prepare_groups(dataset: QueryDataset) -> dict[str, _StructureGroup]:
    """One group per structure. Each query's answers are its positives; they
    are kept as tuples and, for the step's array draws, once more as flat
    int64 arrays with offsets. Raises DataError on a structure outside the
    union-free ``algebra.TRAIN_STRUCTURES`` and on a query with hard answers,
    whatever the dataset's mode: a training query is answered on the train
    graph only, so no held-out answer is fitted."""
    illegal = [s for s in dataset.by_structure() if s not in algebra.TRAIN_STRUCTURES]
    if illegal:
        raise DataError(f"structures {illegal} are evaluation-only and cannot be trained on")
    held_out = sum(bool(s.hard) for s in dataset.samples)
    if held_out:
        raise DataError(f"hard answers in {held_out} of {len(dataset.samples)} queries: they "
                        f"need held-out edges, and a training query is answered on the "
                        f"train graph only")
    groups: dict[str, _StructureGroup] = {}
    for structure, samples in dataset.by_structure().items():
        anchors = np.array([s.instance.anchors for s in samples], dtype=np.int64)
        relations = np.array([s.instance.relations for s in samples], dtype=np.int64)
        answers = [s.answers for s in samples]
        if any(not a for a in answers):
            raise DataError(f"{structure}: query without any answers in dataset")
        groups[structure] = _StructureGroup(structure, anchors, relations, answers)
    return groups


def _group_forward(ctx: ForwardContext, group: _StructureGroup, rows: np.ndarray,
                   pos_ids: np.ndarray, neg_ids: np.ndarray, config: TrainConfig):
    """Build the loss vector for one same-structure slice of a batch, whose
    union-free structure (``_prepare_groups``) gives one (B, 2d) embedding."""
    (query,) = ctx.embed_instances(group.structure, group.anchors[rows], group.relations[rows])
    d_pos = ctx.entity_distance(pos_ids, query)
    d_neg = ctx.entity_distance(neg_ids, query)
    pos_term = -ad.log_sigmoid(config.gamma - d_pos)
    neg_term = -ad.mean_axis(ad.log_sigmoid(d_neg - config.gamma), axis=1)
    loss_vec = pos_term + neg_term
    return loss_vec, d_pos.value, d_neg.value


def _merge_row_grads(touches, table: np.ndarray, touched: np.ndarray) -> None:
    """Fold (ids, grads) touches into ``table`` and mark their ids in ``touched``.

    Each touch is added in touch order: by ``table[ids] += grads`` when its
    ids are strictly increasing (so distinct, as ``entity_distance``'s are),
    else by ``np.add.at``. Either way each id's rows are added one after
    another onto what the table already holds, so folding a step's tasks one
    at a time, in task order, into a zeroed table gives ``np.add.at`` over
    all their touches concatenated, bit for bit."""
    for ids, grads in touches:
        if ids.size < 2 or np.all(ids[1:] > ids[:-1]):
            table[ids] += grads
        else:
            np.add.at(table, ids, grads)
        touched[ids] = True


def _draw_negatives(group: _StructureGroup, rows: np.ndarray, k: int, num_entities: int,
                    rng: np.random.Generator, filter_answers: bool) -> np.ndarray:
    """(len(rows), k) negatives: row i's are ``sample_negatives`` of query
    ``rows[i]``, drawn in row order from the same generator stream.

    Bounded draws consume the generator value by value across calls, so one
    (rows, 2k) draw is every row's first round of 2k candidates, and each row
    keeps its first k non-answers. A draw that answers any of the rows is
    looked up among the sorted (row, answer) keys, so nothing of shape
    (rows, num_entities) is built. When a row has fewer than k non-answers,
    or keeps fewer than k in that round, the generator is put back as it was
    before the draw and the rows go through ``sample_negatives`` one at a
    time, in order."""
    start, stop = group.answer_offsets[rows], group.answer_offsets[rows + 1]
    counts = stop - start if filter_answers else np.zeros_like(rows)
    if np.all(counts <= num_entities - k):
        state = rng.bit_generator.state
        draw = rng.integers(0, num_entities, size=(rows.size, 2 * k))
        ends = np.cumsum(counts)
        answers = group.answer_ids[np.arange(ends[-1]) + np.repeat(start - ends + counts, counts)]
        any_row = np.zeros(num_entities, dtype=bool)
        any_row[answers] = True
        suspects = np.flatnonzero(any_row[draw])
        # keys and probes are row * num_entities + entity
        keys = np.repeat(np.arange(rows.size) * num_entities, counts) + answers
        probes = draw.reshape(-1)[suspects] + suspects // (2 * k) * num_entities
        keep = np.ones(draw.shape, dtype=bool)
        keep.reshape(-1)[suspects] = keys[np.minimum(np.searchsorted(keys, probes),
                                                     keys.size - 1)] != probes
        kept = np.cumsum(keep, axis=1)
        if np.all(kept[:, -1] >= k):
            return draw[keep & (kept <= k)].reshape(rows.size, k)
        rng.bit_generator.state = state
    return np.stack([sample_negatives(group.answer_ids[a:b], k, num_entities, rng, filter_answers)
                     for a, b in zip(start, stop)])


def _build_tasks(groups: dict[str, _StructureGroup], per_structure: dict[str, np.ndarray],
                 config: TrainConfig, num_entities: int, rng: np.random.Generator
                 ) -> list[tuple]:
    """(group, rows, positive ids, negative ids) per structure, drawn in a
    fixed structure order for determinism. Each structure takes one draw
    for its rows' positives, a uniform pick among each query's answers, then
    its negatives (``_draw_negatives``)."""
    tasks = []
    for structure in algebra.STRUCTURE_NAMES:
        rows = np.asarray(per_structure.get(structure, ()), dtype=np.int64)
        if not rows.size:
            continue
        group = groups[structure]
        first = group.answer_offsets[rows]
        pos = group.answer_ids[first + rng.integers(0, group.answer_offsets[rows + 1] - first)]
        neg = _draw_negatives(group, rows, config.negatives, num_entities, rng,
                              config.filter_negatives)
        tasks.append((group, rows, pos, neg))
    return tasks


def _split_picks(picks: np.ndarray, order: list[str], starts: np.ndarray
                 ) -> dict[str, np.ndarray]:
    """Each structure's query rows among a batch's picks, in pick order. The
    picks index the structures' queries laid end to end in ``order``, the
    structure at ``order[i]`` starting at ``starts[i]``."""
    which = np.searchsorted(starts, picks, side="right") - 1
    return {structure: picks[which == i] - starts[i] for i, structure in enumerate(order)}


def _step(params: ModelParams, optimizer: Adam, tasks: list[tuple], config: TrainConfig):
    """One optimizer step: realize the entity table, forward and backward per
    task, folding each task's gradients as it finishes, then the updates.

    The (N, 2d) entity table is realized once (``model._realize_parts``) and
    shared by every task's context, which gathers anchors, positives and
    negatives from it and hands back slot-space gradients per touched row;
    the step keeps the table's sigmoid for the pullback.
    The step's zeroed entity and relation gradient tables and their touched
    masks exist from the start; as each task finishes, in task order,
    ``_merge_row_grads`` folds its touches into them in touch order, dense
    gradients are summed, and the task's gradients are dropped, so the step
    holds one task's gradients besides its tables. One
    ``model._realize_backward`` over the touched entity rows then gives their
    pre-activation gradients. Every gradient is of the mean loss over all
    task rows. Returns the loss summed over the batch, the positive and
    negative scores 1 - D, and the interval-repair count. Each task runs on
    its own tape and hands back only its gradients, so the tape is freed when
    the task returns. Raises NumericError on a non-finite loss; ``begin_step`` and
    every update come after the last task, so nothing has been updated then.
    """
    batch_size = sum(len(rows) for _, rows, _, _ in tasks)
    mode = params.config.mode
    sig, entities = model_mod._realize_parts(params.arrays["entity"], mode)
    tables = {name: np.zeros_like(params.arrays[name]) for name in ("entity", "relation")}
    touched = {name: np.zeros(len(table), dtype=bool) for name, table in tables.items()}

    def run_task(task):
        group, rows, pos, neg = task
        ctx = ForwardContext(params, train=True, entities=entities)
        loss_vec, d_pos, d_neg = _group_forward(ctx, group, rows, pos, neg, config)
        total = ad.sum_all(loss_vec)
        loss = float(total.value)
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite loss at step {optimizer.t + 1} "
                f"(structures in batch: {sorted(t[0].structure for t in tasks)})"
            )
        ad.backward(total * (1.0 / batch_size))
        dense = {name: t.grad for name, t in ctx._dense.items() if t.grad is not None}
        entity = [(ids, t.grad) for ids, t in ctx.entity_touches if t.grad is not None]
        relation = [(ids, t.grad) for ids, t in ctx.relation_touches if t.grad is not None]
        return loss, d_pos, d_neg, ctx.repair_count, dense, entity, relation

    loss, repairs, pos_dists, neg_dists = 0, 0, [], []
    dense_grads: dict[str, np.ndarray] = {}
    for task_loss, d_pos, d_neg, task_repairs, dense, entity, relation in map(run_task, tasks):
        loss += task_loss
        repairs += task_repairs
        pos_dists.append(d_pos)
        neg_dists.append(d_neg.reshape(-1))
        for name, grad in dense.items():
            dense_grads[name] = dense_grads[name] + grad if name in dense_grads else grad
        _merge_row_grads(entity, tables["entity"], touched["entity"])
        _merge_row_grads(relation, tables["relation"], touched["relation"])
        del dense, entity, relation  # free before the next task's result is made

    optimizer.begin_step()
    for name, grad in dense_grads.items():
        optimizer.update_dense(name, params.arrays[name], grad)
    for name, table in tables.items():  # every task touches both tables
        ids = np.flatnonzero(touched[name])
        grads = table[ids]
        if name == "entity":
            grads = model_mod._realize_backward(grads, sig[ids], mode)
        optimizer.update_rows(name, params.arrays[name], ids, grads)
    return loss, 1.0 - np.concatenate(pos_dists), 1.0 - np.concatenate(neg_dists), repairs


def train(graph: KnowledgeGraph, dataset: QueryDataset, config: TrainConfig,
          params: ModelParams | None = None, on_checkpoint=None
          ) -> tuple[ModelParams, list[TrainLogRecord]]:
    """Optimize model parameters on a query dataset.

    A dataset of any mode may only hold the ten training structures, and
    queries without hard answers (``_prepare_groups``): a training query has
    one branch, its answers are its positives, and the held-out forms, unions
    among them, and the held-out edges stay unseen. Deterministic for a fixed
    seed. The dataset, the negative count against the entity count, and given
    ``params`` against ``config``, are checked before any write. Raises
    NumericError on a non-finite loss or final query embedding.
    """
    if not dataset.samples:
        raise DataError("empty training dataset")
    groups = _prepare_groups(dataset)
    if config.negatives > graph.num_entities:
        raise DataError(f"cannot draw {config.negatives} negatives from "
                        f"{graph.num_entities} entities")

    model_config = config.model_config(graph)
    if params is None:
        params = ModelParams.initialize(model_config, config.seed)
    elif params.config != model_config:
        raise DataError(f"parameters of {params.config} cannot train under {model_config}")
    params.extra["train_config"] = asdict(config)
    params.extra["graph_hash"] = graph.content_hash()

    if config.filter_negatives:
        short = sum(np.count_nonzero(graph.num_entities - np.diff(group.answer_offsets)
                                     < config.negatives) for group in groups.values())
        if short:
            log.warning("%d queries have fewer than %d non-answer entities; "
                        "sampling their negatives with replacement", short, config.negatives)
    order = [s for s in algebra.STRUCTURE_NAMES if s in groups]
    starts = np.cumsum([0] + [len(groups[s].anchors) for s in order])

    rng = np.random.default_rng([config.seed, 1])
    optimizer = Adam(config.lr)
    records: list[TrainLogRecord] = []
    started = time.perf_counter()

    for step in range(1, config.steps + 1):
        picks = rng.integers(0, starts[-1], size=config.batch_size)
        tasks = _build_tasks(groups, _split_picks(picks, order, starts), config,
                             graph.num_entities, rng)
        loss, pos_scores, neg_scores, repairs = _step(params, optimizer, tasks, config)

        if step % config.log_every == 0 or step == config.steps or step == 1:
            records.append(TrainLogRecord(
                step=step,
                loss=loss / config.batch_size,
                pos_score=float(np.mean(pos_scores)),
                neg_score=float(np.mean(neg_scores)),
                repairs=repairs,
                seconds=time.perf_counter() - started,
            ))
        if on_checkpoint and config.checkpoint_every and step % config.checkpoint_every == 0:
            on_checkpoint(step, params)

    ctx = ForwardContext(params)  # a finite loss can leave non-finite parameters
    for group in groups.values():
        ctx.embed_instances(group.structure, group.anchors[:1], group.relations[:1])
    return params, records
