"""Margin-loss training with negative sampling, Adam, and sparse row updates."""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import algebra, autodiff as ad, model as model_mod
from .errors import DataError, NumericError
from .kg import KnowledgeGraph
from .model import ForwardContext, ModelConfig, ModelParams
from .oracle import QueryDataset

log = logging.getLogger(__name__)

DENSE_PARAMS = ("F1", "F1b", "F2", "F2b", "F3", "F3b", "G1", "G1b", "G2", "G2b")
HEAD_PARAMS = ("H1", "H1b", "H2", "H2b", "H3", "H3b")


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
    workers: int = 1

    def __post_init__(self):
        for name in ("gamma", "lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be finite and positive, got {value}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise DataError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.negatives < 1:
            raise DataError("need at least one negative sample")
        for name in ("steps", "batch_size", "workers", "log_every"):
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
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** self.t)
        v_hat = v / (1.0 - self.beta2 ** self.t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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


def _merge_row_grads(touches) -> tuple[np.ndarray, np.ndarray] | None:
    """Sum the gradient rows of (ids, grads) touches per id; ids come back sorted.
    Each id's rows are added in touch order (``model.sum_rows``), as
    ``np.add.at`` adds them, so the sums match it bit for bit."""
    if not touches:
        return None
    unique, inverse = np.unique(np.concatenate([ids for ids, _ in touches]),
                                return_inverse=True)
    grads = np.concatenate([grad for _, grad in touches], axis=0)
    return unique, model_mod.sum_rows(inverse, grads, unique.size)


def _build_tasks(groups: dict[str, _StructureGroup], per_structure: dict[str, list[int]],
                 config: TrainConfig, num_entities: int, rng: np.random.Generator,
                 first_positive: bool = False) -> list[tuple]:
    """(group, rows, positive ids, negative ids) per structure, drawn in a
    fixed structure order for determinism."""
    tasks = []
    for structure in algebra.STRUCTURE_NAMES:
        locals_ = per_structure.get(structure)
        if not locals_:
            continue
        group = groups[structure]
        pos = np.array([
            group.positives[i][0 if first_positive else int(rng.integers(len(group.positives[i])))]
            for i in locals_
        ], dtype=np.int64)
        neg = np.stack([
            sample_negatives(group.answers[i], config.negatives, num_entities,
                             rng, config.filter_negatives)
            for i in locals_
        ])
        tasks.append((group, np.asarray(locals_, dtype=np.int64), pos, neg))
    return tasks


def _step(params: ModelParams, optimizer: Adam, tasks: list[tuple], config: TrainConfig,
          batch_size: int, pool: ThreadPoolExecutor | None = None):
    """One optimizer step: realize the entity table, forward and backward per
    task, then the updates.

    The (N, 2d) entity table is realized once (``model._realize_parts``) and
    shared by every task's context, which gathers anchors, positives and
    negatives from it and hands back slot-space gradients per touched row.
    After the merge one ``model._realize_backward`` over the touched rows
    gives their pre-activation gradients. Returns the loss summed over the
    batch, the positive and negative scores 1 - D, and the interval-repair
    count. Each task runs on its own tape and hands back only its gradients,
    so the tape is freed when the task returns. Raises NumericError on a
    non-finite loss, before anything is updated.
    """
    mode = params.config.mode
    entities = model_mod._realize_parts(params.arrays["entity"], mode)

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

    if pool is not None and len(tasks) > 1:
        results = list(pool.map(run_task, tasks))
    else:
        results = [run_task(t) for t in tasks]

    dense_grads: dict[str, np.ndarray] = {}
    entity_touches, relation_touches = [], []
    for _, _, _, _, dense, entity, relation in results:
        for name, grad in dense.items():
            dense_grads[name] = dense_grads[name] + grad if name in dense_grads else grad
        entity_touches.extend(entity)
        relation_touches.extend(relation)

    optimizer.begin_step()
    for name in DENSE_PARAMS:
        if name in dense_grads:
            optimizer.update_dense(name, params.arrays[name], dense_grads[name])
    merged = _merge_row_grads(entity_touches)
    if merged is not None:
        ids, slot_grads = merged
        optimizer.update_rows("entity", params.arrays["entity"], ids,
                              model_mod._realize_backward(slot_grads, entities[0][ids], mode))
    merged = _merge_row_grads(relation_touches)
    if merged is not None:
        optimizer.update_rows("relation", params.arrays["relation"], *merged)
    return (sum(r[0] for r in results),
            1.0 - np.concatenate([r[1] for r in results]),
            1.0 - np.concatenate([r[2].reshape(-1) for r in results]),
            sum(r[3] for r in results))


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

    with (ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1
          else contextlib.nullcontext()) as pool:
        for step in range(1, config.steps + 1):
            picks = rng.integers(0, len(group_offsets), size=config.batch_size)
            per_structure: dict[str, list[int]] = {}
            for pick in picks:
                structure, local = group_offsets[pick]
                per_structure.setdefault(structure, []).append(local)
            tasks = _build_tasks(groups, per_structure, config, graph.num_entities, rng)
            loss, pos_scores, neg_scores, repairs = _step(
                params, optimizer, tasks, config, config.batch_size, pool)

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


def train_step_on_batch(graph: KnowledgeGraph, dataset: QueryDataset,
                        config: TrainConfig, params: ModelParams,
                        batch: list[int], optimizer: Adam,
                        rng: np.random.Generator) -> float:
    """Run one optimizer step on a fixed list of dataset indices; returns the loss.

    Positives are the first easy answer of each query, so repeated calls on
    the same batch differ only in their negative draws. Exposed for
    convergence checks on a frozen batch.
    """
    groups = _prepare_groups(dataset)
    local_index: dict[str, int] = {}
    locator: list[tuple[str, int]] = []
    for sample in dataset.samples:
        structure = sample.instance.structure
        locator.append((structure, local_index.get(structure, 0)))
        local_index[structure] = local_index.get(structure, 0) + 1

    per_structure: dict[str, list[int]] = {}
    for i in batch:
        structure, local = locator[i]
        per_structure.setdefault(structure, []).append(local)

    tasks = _build_tasks(groups, per_structure, config, graph.num_entities, rng,
                         first_positive=True)
    return _step(params, optimizer, tasks, config, len(batch))[0] / len(batch)


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


def train_cardinality_head(params: ModelParams, dataset: QueryDataset,
                           epochs: int = 250, lr: float = 1e-4
                           ) -> tuple[ModelParams, dict]:
    """Fit the answer-size head on the hash-train half, base model frozen.

    Minimizes the mean absolute relative error between the size prediction
    and |easy + hard|. Union queries contribute through their De Morgan
    embedding, which is single-branch.
    """
    if params.config.mode != "bounds":
        raise DataError("cardinality head requires bounds mode")
    if not dataset.samples:
        raise DataError("empty dataset")
    train_idx, test_idx = split_by_hash(dataset)
    if not train_idx or not test_idx:
        raise DataError("dataset too small to split 1:1")

    from .evaluation import cardinality_features  # evaluation imports this module

    features = cardinality_features(params, dataset.samples)
    targets = np.array([max(1, len(s.answers)) for s in dataset.samples], dtype=np.float64)

    params = params.copy()
    optimizer = Adam(lr)
    h_train = features[train_idx]
    y_train = targets[train_idx]
    for _ in range(epochs):
        tape = ad.Tape()
        leaves = {name: tape.leaf(params.arrays[name]) for name in HEAD_PARAMS}
        z1 = ad.relu(ad.matmul(h_train, leaves["H1"]) + leaves["H1b"])
        z2 = ad.relu(ad.matmul(z1, leaves["H2"]) + leaves["H2b"])
        s = ad.scale(ad.sigmoid(ad.matmul(z2, leaves["H3"]) + leaves["H3b"]),
                     params.config.rho)
        errors = ad.absolute(ad.reshape(s, (len(train_idx),)) - y_train) / y_train
        loss = ad.mean_all(errors)
        if not np.isfinite(loss.value):
            raise NumericError("non-finite cardinality loss")
        ad.backward(loss)
        optimizer.begin_step()
        for name in HEAD_PARAMS:
            if leaves[name].grad is not None:
                optimizer.update_dense(name, params.arrays[name], leaves[name].grad)

    predictions = model_mod.cardinality_forward(features, params)
    report = {
        "train_mae": float(np.mean(np.abs(predictions[train_idx] - y_train) / y_train)),
        "test_mae": float(np.mean(
            np.abs(predictions[test_idx] - targets[test_idx]) / targets[test_idx])),
        "train_count": len(train_idx),
        "test_count": len(test_idx),
        "epochs": epochs,
    }
    return params, report
