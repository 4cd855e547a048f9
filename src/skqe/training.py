"""Margin-loss training with negative sampling, Adam, and sparse row updates."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import InitVar, dataclass, asdict

import numpy as np

from . import algebra, autodiff as ad, model as model_mod
from .errors import DataError, NumericError
from .evaluation import cardinality_features, cardinality_halves, relative_size_errors
from .kg import KnowledgeGraph
from .model import ForwardContext, ModelConfig, ModelParams
from .oracle import QueryDataset

log = logging.getLogger(__name__)

DENSE_PARAMS = ("F1", "F1b", "F2", "F2b", "F3", "F3b", "G1", "G1b", "G2", "G2b")


@dataclass
class TrainConfig:
    d: int = 32
    h: int = 128
    gamma: float = 0.375
    negatives: int = 128
    batch_size: int = 512
    steps: int = 20000
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    kind: str = "luk"
    attention: bool = True
    mode: str = "bounds"
    union: str = "dnf"
    filter_negatives: bool = True
    log_every: int = 100
    checkpoint_every: int = 0
    workers: InitVar[int] = 1  # accepted, as 1 only, for perfbench/workloads.py

    def __post_init__(self, workers):
        if workers != 1:
            raise DataError(f"training is serial: workers must be 1, got {workers}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        for name in ("gamma", "lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be finite and positive, got {value}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise DataError(f"{name} must be in [0, 1), got {getattr(self, name)}")
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
            attention=self.attention,
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
    written, so untouched rows are bit-identical after a step.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        ``(lr * m_hat) / (sqrt(v_hat) + eps)``, built in two work arrays with
        the operations of the plain expression in their order."""
        step, denom = np.empty_like(grad), np.empty_like(grad)
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=step)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=step)
        v += np.multiply(step, grad, out=step)
        np.divide(m, 1.0 - self.beta1 ** self.t, out=step)
        step *= self.lr
        np.divide(v, 1.0 - self.beta2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
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

    ``query`` may be a tuple of branch vectors; distances then take the best
    (minimum) branch.
    """
    branches = query if isinstance(query, tuple) else (query,)

    def dist(x):
        return min(float(np.mean(np.abs(np.asarray(b) - np.asarray(x)))) for b in branches)

    def log_sig(x):
        return float(min(x, 0.0) - np.log1p(np.exp(-abs(x))))

    loss = -log_sig(gamma - dist(positive))
    loss -= sum(log_sig(dist(z) - gamma) for z in negatives) / len(negatives)
    return loss


def sample_negatives(answers, k: int, num_entities: int,
                     rng: np.random.Generator, filter_answers: bool = True) -> np.ndarray:
    """k uniform entity ids, rejecting true answers; falls back to sampling
    with replacement from the non-answers when fewer than k of them exist
    (``train`` warns about such queries once)."""
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


@dataclass
class _StructureGroup:
    structure: str
    anchors: np.ndarray      # (N, num_anchors)
    relations: np.ndarray    # (N, num_relations)
    positives: list[tuple[int, ...]]
    answers: list[tuple[int, ...]]


def _prepare_groups(dataset: QueryDataset) -> dict[str, _StructureGroup]:
    groups: dict[str, _StructureGroup] = {}
    for structure, samples in dataset.by_structure().items():
        anchors = np.array([s.instance.anchors for s in samples], dtype=np.int64)
        relations = np.array([s.instance.relations for s in samples], dtype=np.int64)
        positives = [s.easy if s.easy else s.hard for s in samples]
        answers = [s.answers for s in samples]
        if any(not p for p in positives):
            raise DataError(f"{structure}: query without any answers in dataset")
        groups[structure] = _StructureGroup(structure, anchors, relations, positives, answers)
    return groups


def _group_forward(ctx: ForwardContext, group: _StructureGroup, rows: np.ndarray,
                   pos_ids: np.ndarray, neg_ids: np.ndarray, config: TrainConfig):
    """Build the loss vector for one same-structure slice of a batch."""
    branches = ctx.embed_instances(
        group.structure, group.anchors[rows], group.relations[rows], config.union
    )
    d_pos = ctx.entity_distance(pos_ids, branches)
    d_neg = ctx.entity_distance(neg_ids, branches)
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


def _build_tasks(groups: dict[str, _StructureGroup], per_structure: dict[str, list[int]],
                 config: TrainConfig, num_entities: int, rng: np.random.Generator
                 ) -> list[tuple]:
    """(group, rows, positive ids, negative ids) per structure, drawn in a
    fixed structure order for determinism."""
    tasks = []
    for structure in algebra.STRUCTURE_NAMES:
        locals_ = per_structure.get(structure)
        if not locals_:
            continue
        group = groups[structure]
        pos = np.array([
            group.positives[i][int(rng.integers(len(group.positives[i])))]
            for i in locals_
        ], dtype=np.int64)
        neg = np.stack([
            sample_negatives(group.answers[i], config.negatives, num_entities,
                             rng, config.filter_negatives)
            for i in locals_
        ])
        tasks.append((group, np.asarray(locals_, dtype=np.int64), pos, neg))
    return tasks


def _step(params: ModelParams, optimizer: Adam, tasks: list[tuple], config: TrainConfig):
    """One optimizer step: realize the entity table, forward and backward per
    task, folding each task's gradients as it finishes, then the updates.

    The (N, 2d) entity table is realized once (``model._realize_parts``) and
    shared by every task's context, which gathers anchors, positives and
    negatives from it and hands back slot-space gradients per touched row.
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
    entities = model_mod._realize_parts(params.arrays["entity"], mode)
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
        ad.backward(ad.scale(total, 1.0 / batch_size))
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
    for name in DENSE_PARAMS:
        if name in dense_grads:
            optimizer.update_dense(name, params.arrays[name], dense_grads[name])
    for name, table in tables.items():  # every task touches both tables
        ids = np.flatnonzero(touched[name])
        grads = table[ids]
        if name == "entity":
            grads = model_mod._realize_backward(grads, entities[0][ids], mode)
        optimizer.update_rows(name, params.arrays[name], ids, grads)
    return loss, 1.0 - np.concatenate(pos_dists), 1.0 - np.concatenate(neg_dists), repairs


def train(graph: KnowledgeGraph, dataset: QueryDataset, config: TrainConfig,
          params: ModelParams | None = None, on_checkpoint=None
          ) -> tuple[ModelParams, list[TrainLogRecord]]:
    """Optimize model parameters on a query dataset.

    Datasets generated for generalization runs (modes ``train`` and
    ``generalization``) may only contain the ten training structures; the
    held-out compositional forms stay unseen. Deterministic for a fixed seed.
    """
    structures = dataset.structures()
    if dataset.mode in ("train", "generalization"):
        illegal = [s for s in structures if s not in algebra.TRAIN_STRUCTURES]
        if illegal:
            raise DataError(
                f"structures {illegal} are evaluation-only and cannot be trained "
                f"on in {dataset.mode} mode"
            )
    if not dataset.samples:
        raise DataError("empty training dataset")

    if params is None:
        params = ModelParams.initialize(config.model_config(graph), config.seed)
    params.extra.setdefault("train_config", asdict(config))
    params.extra["graph_hash"] = graph.content_hash()

    groups = _prepare_groups(dataset)
    if config.filter_negatives:
        short = sum(graph.num_entities - len(answers) < config.negatives
                    for group in groups.values() for answers in group.answers)
        if short:
            log.warning("%d queries have fewer than %d non-answer entities; "
                        "sampling their negatives with replacement", short, config.negatives)
    order = [s for s in algebra.STRUCTURE_NAMES if s in groups]
    group_offsets: list[tuple[str, int]] = []
    for structure in order:
        group_offsets.extend((structure, i) for i in range(len(groups[structure].positives)))

    rng = np.random.default_rng([config.seed, 1])
    optimizer = Adam(config.lr, config.beta1, config.beta2, config.eps)
    records: list[TrainLogRecord] = []
    started = time.perf_counter()

    for step in range(1, config.steps + 1):
        picks = rng.integers(0, len(group_offsets), size=config.batch_size)
        per_structure: dict[str, list[int]] = {}
        for pick in picks:
            structure, local = group_offsets[pick]
            per_structure.setdefault(structure, []).append(local)
        tasks = _build_tasks(groups, per_structure, config, graph.num_entities, rng)
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

    return params, records


def _cardinality_loss(ctx: ForwardContext, features: np.ndarray,
                      targets: np.ndarray) -> ad.Tensor:
    """Mean absolute relative error of the size head on (B, d) entropy features."""
    return ad.mean_all(ad.absolute(ctx.cardinality(features) - targets) / targets)


def train_cardinality_head(params: ModelParams, dataset: QueryDataset,
                           epochs: int = 250, lr: float = 1e-4
                           ) -> tuple[ModelParams, dict]:
    """Fit the answer-size head on the hash-train half, base model frozen.

    Minimizes the mean absolute relative error between the size prediction
    and |easy + hard|. Union queries contribute through their De Morgan
    embedding, which is single-branch. Each epoch runs a fresh training context.
    The report's test MAE and count are those of ``cardinality_test_half``.
    """
    train_idx, test_idx = cardinality_halves(dataset)

    features = cardinality_features(params, dataset.samples)
    targets = np.array([max(1, len(s.answers)) for s in dataset.samples], dtype=np.float64)

    params = params.copy()
    optimizer = Adam(lr)
    h_train = features[train_idx]
    y_train = targets[train_idx]
    for _ in range(epochs):
        ctx = ForwardContext(params, train=True)
        loss = _cardinality_loss(ctx, h_train, y_train)
        if not np.isfinite(loss.value):
            raise NumericError("non-finite cardinality loss")
        ad.backward(loss)
        optimizer.begin_step()
        for name, leaf in ctx._dense.items():
            if leaf.grad is not None:
                optimizer.update_dense(name, params.arrays[name], leaf.grad)

    predictions = ForwardContext(params).cardinality(features)
    report = {
        "train_mae": float(np.mean(np.abs(predictions[train_idx] - y_train) / y_train)),
        "test_mae": float(np.mean(relative_size_errors(
            params, [dataset.samples[i] for i in test_idx]))),
        "train_count": len(train_idx),
        "test_count": len(test_idx),
        "epochs": epochs,
    }
    return params, report
