"""Truth-bound logic kernel: negation, t-norms, weighted t-norms, dissimilarity.

An embedding is d interval pairs [l_i, u_i] in [0,1] stored flat as
[l_1..l_d, u_1..u_d]; interval width encodes uncertainty. In point mode the
2d slots are independent point truths instead.

The slot operators ``negate_slots``, ``conjoin_slots`` and ``entropy_slots``
are the one definition of the logic, over flat (..., 2d) slot arrays. Built
on the array-generic ``autodiff`` primitives, they run on numpy arrays and on
tape tensors alike: the model calls them in training and in inference, and
the ``TruthBounds`` API wraps them. All float64, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

TNORM_KINDS = ("min", "prod", "luk")
DEFAULT_ALPHA = -10.0
ENTROPY_EPS = 1e-9


@dataclass(frozen=True)
class TNormKind:
    """A conjunction family plus the smoothing constant for the weighted minimum."""

    name: str
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.name not in TNORM_KINDS:
            raise ValueError(f"unknown t-norm kind {self.name!r}")
        if self.alpha >= 0:
            raise ValueError("smoothing constant must be negative")


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

    @property
    def lower(self) -> np.ndarray:
        return self.values[: self.dim]

    @property
    def upper(self) -> np.ndarray:
        return self.values[self.dim:]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


def negate_slots(x, mode: str):
    """Involute negation of (..., 2d) slots: [l, u] -> [1-u, 1-l] in bounds
    mode, t -> 1-t in point mode."""
    if mode == "point":
        return 1.0 - x
    d = x.shape[-1] // 2
    lower = ad.slice_last(x, 0, d)
    upper = ad.slice_last(x, d, 2 * d)
    return ad.concat_last([1.0 - upper, 1.0 - lower])


def conjoin_slots(kind: str, xs: list, ws: list, alpha: float, mode: str):
    """Weighted conjunction of k slot arrays; returns (value, repairs).

    ``ws`` holds one weight array per input, of its shape; a weight of 0
    removes an input. luk is max(0, 1 - sum(w_j (1 - t_j))), prod is
    prod(t_j^w_j), and min is the smooth minimum sum(t w e^(at)) / sum(w e^(at)).
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
        out = ad.smoothmin_weighted(xs, ws, alpha)
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


def entropy_slots(x: np.ndarray, eps: float = ENTROPY_EPS) -> np.ndarray:
    """Per-dimension differential entropy log(u - l) of (..., 2d) bounds,
    clamped at log(eps)."""
    d = x.shape[-1] // 2
    return np.log(np.maximum(x[..., d:] - x[..., :d], eps))


def _name_and_alpha(kind: str | TNormKind, alpha: float | None) -> tuple[str, float]:
    if isinstance(kind, TNormKind):
        return kind.name, kind.alpha if alpha is None else alpha
    return kind, DEFAULT_ALPHA if alpha is None else alpha


def negate(bounds: TruthBounds) -> TruthBounds:
    """Involute negation: [l, u] -> [1-u, 1-l]."""
    return TruthBounds(negate_slots(bounds.values, "bounds"))


def tnorm(kind: str | TNormKind, truths) -> np.ndarray:
    """Unweighted conjunction of k truth arrays stacked on axis 0.

    min is the hard minimum; prod the product; luk the Lukasiewicz form
    max(0, 1 - sum(1 - t_j)).
    """
    name = kind.name if isinstance(kind, TNormKind) else kind
    t = np.asarray(truths, dtype=np.float64)
    if t.shape[0] < 1:
        raise ValueError("need at least one input")
    if name == "min":
        return np.min(t, axis=0)
    if name == "prod":
        return np.prod(t, axis=0)
    if name == "luk":
        return np.maximum(0.0, 1.0 - np.sum(1.0 - t, axis=0))
    raise ValueError(f"unknown t-norm kind {name!r}")


def weighted_tnorm(kind: str | TNormKind, weights, truths,
                   alpha: float | None = None) -> np.ndarray:
    """Weighted conjunction (``conjoin_slots``) of truths stacked on axis 0;
    weights in [0,1]. min uses the smooth minimum even at all-ones weights, so
    it only approximates the hard minimum there.
    """
    name, alpha = _name_and_alpha(kind, alpha)
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if w.shape != t.shape:
        raise ValueError(f"weight shape {w.shape} != truth shape {t.shape}")
    return conjoin_slots(name, list(t), list(w), alpha, "point")[0]


def conjoin_bounds(kind: str | TNormKind, inputs: list[TruthBounds],
                   weights: list[np.ndarray] | None = None,
                   alpha: float | None = None) -> TruthBounds:
    """Per-dimension conjunction of lowers and uppers, with midpoint repair.

    ``weights`` is one per-dimension weight vector per input; None means the
    unweighted t-norm. Only the non-monotonic weighted minimum can cross
    bounds; the repair is a no-op for the monotone kinds.
    """
    if not inputs:
        raise ValueError("need at least one input")
    d = inputs[0].dim
    if any(b.dim != d for b in inputs):
        raise ValueError("dimension mismatch between conjunction inputs")
    if weights is None:
        return TruthBounds(tnorm(kind, np.stack([b.values for b in inputs])))
    if len(weights) != len(inputs):
        raise ValueError("one weight vector per input required")
    w = np.stack([np.asarray(v, float) for v in weights])
    if w.shape != (len(inputs), d):
        raise ValueError(f"weight shape {w.shape} != ({len(inputs)}, {d})")
    name, alpha = _name_and_alpha(kind, alpha)
    value, _ = conjoin_slots(name, [b.values for b in inputs],
                             [np.concatenate([v, v]) for v in w], alpha, "bounds")
    return TruthBounds(value)


def disjoin_bounds(kind: str | TNormKind, inputs: list[TruthBounds],
                   weights: list[np.ndarray] | None = None,
                   alpha: float | None = None) -> TruthBounds:
    """Disjunction via De Morgan: not(conjoin(not inputs))."""
    negated = [negate(b) for b in inputs]
    return negate(conjoin_bounds(kind, negated, weights, alpha))


def dissimilarity(a, b) -> float:
    """Mean L1 distance over bound slots: sum(|l-l'| + |u-u'|) / (2d).

    Accepts TruthBounds or raw slot arrays (the point-truth layout); the
    satisfiability of a candidate against a query embedding is 1 minus this.
    """
    x = a.values if isinstance(a, TruthBounds) else np.asarray(a, float)
    y = b.values if isinstance(b, TruthBounds) else np.asarray(b, float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.mean(np.abs(x - y)))


def entropy_vector(bounds: TruthBounds, eps: float = ENTROPY_EPS) -> np.ndarray:
    """Per-dimension differential entropy log(u - l), clamped at log(eps)."""
    return entropy_slots(bounds.values, eps)
