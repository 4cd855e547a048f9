"""The answer-size head, after BetaE's answer-size analysis: an MLP over the
six ``H*`` arrays of ``model.param_shapes`` that estimates a query's answer
count from the entropy rows of ``evaluation.query_statistics``' records. It is
fitted on one half of a hash split with the query model frozen and reported on
both halves."""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad, training
from .errors import DataError, NumericError
from .model import ForwardContext, ModelParams, Slots
from .oracle import QueryDataset

SCALE = 1000.0  # upper bound of the head's answer-size estimates


def predict(ctx: ForwardContext, h: Slots) -> Slots:
    """Answer-size estimates in (0, SCALE), shape (B,), of (B, d) entropy
    vectors: a three-layer MLP whose sigmoid output is scaled by SCALE."""
    z1 = ad.relu(ad.matmul(h, ctx.dense("H1")) + ctx.dense("H1b"))
    z2 = ad.relu(ad.matmul(z1, ctx.dense("H2")) + ctx.dense("H2b"))
    s = ad.sigmoid(ad.matmul(z2, ctx.dense("H3")) + ctx.dense("H3b")) * SCALE
    return ad.reshape(s, s.shape[:1])


def split(dataset: QueryDataset) -> tuple[list[int], list[int]]:
    """Train and test sample indices: samples sorted by the sha256 of their
    structure, anchors and relations (ties by position), the first half,
    rounded up, to train, and the rest but its zero-answer queries, which
    have no relative error, to test."""
    def key(i):
        inst = dataset.samples[i].instance
        text = "|".join([inst.structure, ",".join(map(str, inst.anchors)),
                         ",".join(map(str, inst.relations))])
        return hashlib.sha256(text.encode("ascii")).hexdigest(), i

    order = sorted(range(len(dataset.samples)), key=key)
    half = (len(order) + 1) // 2
    test = [i for i in order[half:] if dataset.samples[i].answers]
    if not test:
        raise DataError("no test-half query with a nonempty answer set")
    return order[:half], test


def _floored(counts: np.ndarray) -> np.ndarray:
    return np.maximum(counts, 1).astype(np.float64)


def fit(params: ModelParams, dataset: QueryDataset, records: np.ndarray,
        epochs: int = 250, lr: float = 1e-4) -> ModelParams:
    """A copy of ``params`` whose head is fitted to the train half's answer
    counts, floored at 1, by ``epochs`` full-batch Adam steps on the mean
    absolute relative error, for ``records = query_statistics(dataset, params)``.
    Raises DataError unless ``lr`` is finite and positive."""
    training._check_positive("lr", lr)
    train_idx, _ = split(dataset)
    h_train = records["entropy"][train_idx]
    y_train = _floored(records["easy"] + records["hard"])[train_idx]
    params = params.copy()
    optimizer = training.Adam(lr)
    for _ in range(epochs):
        ctx = ForwardContext(params, train=True)
        loss = ad.sum_all(ad.absolute(predict(ctx, h_train) - y_train) / y_train) / len(y_train)
        if not np.isfinite(loss.value):
            raise NumericError("non-finite cardinality loss")
        ad.backward(loss)
        optimizer.begin_step()
        for name, leaf in ctx._dense.items():
            if leaf.grad is not None:
                optimizer.update_dense(name, params.arrays[name], leaf.grad)
    return params


def _mae_pct(estimates, sizes: np.ndarray) -> float:
    return 100.0 * float(np.mean(np.abs(estimates - sizes) / sizes))


def report(params: ModelParams, dataset: QueryDataset, records: np.ndarray) -> dict:
    """Mean relative errors in percent against answer counts floored at 1, as
    in ``fit``: the head's on both halves and per test structure, then two
    test-half baselines. The best constant minimizes the train half's error:
    it is the least train size at which the sorted sizes' cumulative weight
    1/size reaches half its total. The other is each query's easy-answer
    count. ``records`` is as in ``fit``. Raises NumericError on a non-finite
    estimate, which no error can rate, and where every estimate is exactly 0
    or exactly ``SCALE``: a saturated sigmoid passes no gradient, so such a
    head is stuck, whatever its error."""
    train_idx, test_idx = split(dataset)
    sizes = _floored(records["easy"] + records["hard"])
    train, test = sizes[train_idx], sizes[test_idx]
    ctx = ForwardContext(params)
    train_estimates = predict(ctx, records["entropy"][train_idx])
    estimates = predict(ctx, records["entropy"][test_idx])
    if not (np.all(np.isfinite(train_estimates)) and np.all(np.isfinite(estimates))):
        raise NumericError("non-finite answer-size estimate")
    if all(np.all((e == 0) | (e == SCALE)) for e in (train_estimates, estimates)):
        raise NumericError(f"saturated answer-size head: every estimate is 0 or {SCALE:g}")
    structures = records["structure"][test_idx]
    ordered = np.sort(train)
    weights = np.cumsum(1.0 / ordered)
    constant = float(ordered[np.searchsorted(weights, weights[-1] / 2)])
    return {
        "train_mae_pct": _mae_pct(train_estimates, train),
        "train_count": len(train_idx),
        "test_mae_pct": _mae_pct(estimates, test),
        "test_count": len(test_idx),
        "per_structure": {s: (_mae_pct(estimates[structures == s], test[structures == s]),
                              int(np.count_nonzero(structures == s)))
                          for s in dict.fromkeys(structures.tolist())},
        "constant": constant,
        "constant_mae_pct": _mae_pct(constant, test),
        "easy_mae_pct": _mae_pct(_floored(records["easy"][test_idx]), test),
    }
