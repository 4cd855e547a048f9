"""Truth-bound logic kernel: negation, weighted t-norms, entropy.

An embedding is d interval pairs [l_i, u_i] in [0,1] stored flat as
[l_1..l_d, u_1..u_d]; interval width encodes uncertainty. In point mode the
2d slots are independent point truths instead.

The slot operators ``negate_slots``, ``conjoin_slots`` and ``entropy_slots``
are the one definition of the logic, over flat (..., 2d) slot arrays. Built
on the array-generic ``autodiff`` primitives, they run on numpy arrays and on
tape tensors alike: the model calls them in training and in inference.
``conjoin_slots`` holds the three weighted t-norms: Łukasiewicz
max(0, 1 - sum w (1 - t)), product prod t^w, and the smooth minimum
sum t w e^(at) / sum w e^(at); the last raises ValueError where all weights
are 0. With unit weights each is the plain t-norm (the smooth minimum for
min). ``conjoin_bounds`` applies it to ``TruthBounds`` values. All float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

TNORM_KINDS = ("min", "prod", "luk")
SMOOTHMIN_ALPHA = -10.0  # temperature a of the smooth minimum
ENTROPY_EPS = 1e-9


@dataclass(frozen=True)
class TruthBounds:
    """d interval pairs flat-packed as [l_1..l_d, u_1..u_d] with 0 <= l <= u <= 1."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size % 2 != 0:
            raise ValueError("expected a flat array of 2d values")
        d = values.size // 2
        lower, upper = values[:d], values[d:]
        if np.any(lower < 0) or np.any(upper > 1) or np.any(lower > upper):
            raise ValueError("bounds must satisfy 0 <= l <= u <= 1")

    @classmethod
    def from_pairs(cls, lower, upper) -> "TruthBounds":
        return cls(np.concatenate([np.asarray(lower, float), np.asarray(upper, float)]))

    @property
    def dim(self) -> int:
        return self.values.size // 2


def negate_slots(x, mode: str):
    """Involute negation of (..., 2d) slots: [l, u] -> [1-u, 1-l] in bounds
    mode, t -> 1-t in point mode."""
    if mode == "point":
        return 1.0 - x
    d = x.shape[-1] // 2
    lower = ad.slice_last(x, 0, d)
    upper = ad.slice_last(x, d, 2 * d)
    return ad.concat_last([1.0 - upper, 1.0 - lower])


def conjoin_slots(kind: str, xs: list, ws: list, mode: str):
    """Weighted conjunction of k slot arrays; returns (value, repairs).

    ``ws`` holds one weight array per input, of its shape; a weight of 0
    removes an input. The three t-norms, each composed here from tape
    primitives and defined nowhere else:

    - luk, Łukasiewicz: max(0, 1 - sum_j w_j (1 - t_j));
    - prod, product: prod_j t_j^w_j;
    - min, the smooth Gödel minimum: sum_j t_j s_j / sum_j s_j with
      s_j = w_j e^(a t_j) and a = SMOOTHMIN_ALPHA, the sums taken in input
      order. It raises ValueError where every weight of a slot is 0, since
      all its inputs are then removed and the quotient is 0/0.

    In bounds mode the slots are (..., 2d) intervals, and crossed ones (l > u),
    which only the non-monotonic smooth minimum produces, collapse to their
    midpoint; ``repairs`` counts them. Point mode repairs nothing.
    """
    if kind == "luk":
        deficit = ws[0] * (1.0 - xs[0])
        for w, x in zip(ws[1:], xs[1:]):
            deficit = deficit + w * (1.0 - x)
        out = ad.relu(1.0 - deficit)
    elif kind == "prod":
        out = ad.pow_elem(xs[0], ws[0])
        for x, w in zip(xs[1:], ws[1:]):
            out = out * ad.pow_elem(x, w)
    elif kind == "min":
        scores = [w * ad.exp(SMOOTHMIN_ALPHA * x) for x, w in zip(xs, ws)]
        numer, denom = xs[0] * scores[0], scores[0]
        for x, s in zip(xs[1:], scores[1:]):
            numer = numer + x * s
            denom = denom + s
        if np.any(ad.value_of(denom) == 0.0):
            raise ValueError("min: all inputs removed (zero smooth-minimum denominator)")
        out = numer / denom
    else:
        raise ValueError(f"unknown t-norm kind {kind!r}")
    if mode != "bounds":
        return out, 0
    value = ad.value_of(out)
    d = value.shape[-1] // 2
    crossed = value[..., :d] > value[..., d:]
    count = int(np.count_nonzero(crossed))
    if count == 0:
        return out, 0
    lower = ad.slice_last(out, 0, d)
    upper = ad.slice_last(out, d, 2 * d)
    mask = crossed.astype(np.float64)
    keep = 1.0 - mask
    mid = 0.5 * (lower + upper)
    return ad.concat_last([keep * lower + mask * mid, keep * upper + mask * mid]), count


def entropy_slots(x: np.ndarray) -> np.ndarray:
    """Per-dimension differential entropy log(u - l) of (..., 2d) bounds,
    clamped at log(ENTROPY_EPS)."""
    d = x.shape[-1] // 2
    return np.log(np.maximum(x[..., d:] - x[..., :d], ENTROPY_EPS))


def conjoin_bounds(kind: str, inputs: list[TruthBounds],
                   weights: list[np.ndarray]) -> TruthBounds:
    """Per-dimension ``conjoin_slots`` of lowers and uppers, with midpoint
    repair.

    ``weights`` is one per-dimension weight vector per input, shared by its
    lowers and uppers; unit weights give the plain t-norm for prod and luk.
    Only the non-monotonic smooth minimum can cross bounds; the repair is a
    no-op for the monotone kinds.
    """
    if not inputs:
        raise ValueError("need at least one input")
    d = inputs[0].dim
    if any(b.dim != d for b in inputs):
        raise ValueError("dimension mismatch between conjunction inputs")
    if len(weights) != len(inputs):
        raise ValueError("one weight vector per input required")
    w = np.stack([np.asarray(v, float) for v in weights])
    if w.shape != (len(inputs), d):
        raise ValueError(f"weight shape {w.shape} != ({len(inputs)}, {d})")
    value, _ = conjoin_slots(kind, [b.values for b in inputs],
                             [np.concatenate([v, v]) for v in w], "bounds")
    return TruthBounds(value)
