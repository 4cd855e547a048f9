"""Truth-bound logic kernel: negation, weighted t-norms, entropy.

An embedding is d interval pairs [l_i, u_i] in [0,1] stored flat as
[l_1..l_d, u_1..u_d]; interval width encodes uncertainty. In point mode the
2d slots are independent point truths instead.

The slot operators ``negate_slots``, ``conjoin_slots`` and ``entropy_slots``
are the one definition of the logic, over flat (..., 2d) slot arrays. Built
on the array-generic ``autodiff`` primitives, they run on numpy arrays and on
tape tensors alike: the model calls them in training and in inference.
``conjoin_slots`` holds the three weighted t-norms: Łukasiewicz
max(0, 1 - sum w (1 - t)), product prod t^w, and Gödel 1 - max w (1 - t).
With unit weights each is the plain t-norm. Each is monotone in every input,
so intervals whose lower and upper share a weight stay ordered.
``conjoin_bounds`` applies it to ``TruthBounds`` values. All float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

TNORM_KINDS = ("min", "prod", "luk")
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


def conjoin_slots(kind: str, xs: list, ws: list):
    """Weighted conjunction of k slot arrays.

    ``ws`` holds one weight array per input, of its shape; a weight of 0
    removes an input. The three t-norms, each composed here from tape
    primitives and defined nowhere else:

    - luk, Łukasiewicz: max(0, 1 - sum_j w_j (1 - t_j));
    - prod, product: prod_j t_j^w_j;
    - min, Gödel: 1 - max_j w_j (1 - t_j), which is 1 where every weight
      of a slot is 0.

    Each is monotone in every input, so in bounds mode, where a dimension's
    lower and upper share one weight, the conjoined lower never exceeds the
    conjoined upper.
    """
    if kind == "luk":
        deficit = ws[0] * (1.0 - xs[0])
        for w, x in zip(ws[1:], xs[1:]):
            deficit = deficit + w * (1.0 - x)
        return ad.relu(1.0 - deficit)
    if kind == "prod":
        out = ad.pow_elem(xs[0], ws[0])
        for x, w in zip(xs[1:], ws[1:]):
            out = out * ad.pow_elem(x, w)
        return out
    if kind == "min":
        deficit = ws[0] * (1.0 - xs[0])
        for w, x in zip(ws[1:], xs[1:]):
            deficit = ad.maximum(deficit, w * (1.0 - x))
        return 1.0 - deficit
    raise ValueError(f"unknown t-norm kind {kind!r}")


def entropy_slots(x: np.ndarray) -> np.ndarray:
    """Per-dimension differential entropy log(u - l) of (..., 2d) bounds,
    clamped at log(ENTROPY_EPS)."""
    d = x.shape[-1] // 2
    return np.log(np.maximum(x[..., d:] - x[..., :d], ENTROPY_EPS))


def conjoin_bounds(kind: str, inputs: list[TruthBounds],
                   weights: list[np.ndarray]) -> TruthBounds:
    """Per-dimension ``conjoin_slots`` of lowers and uppers.

    ``weights`` is one per-dimension weight vector per input, shared by its
    lowers and uppers; unit weights give the plain t-norm.
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
    return TruthBounds(conjoin_slots(kind, [b.values for b in inputs],
                                     [np.concatenate([v, v]) for v in w]))
