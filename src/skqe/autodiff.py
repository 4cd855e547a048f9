"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

One tape per worker; forward values are recorded in creation order, which is
already a topological order, and ``backward`` walks it in reverse. Only the
primitives needed by the model and loss are provided. Tensors support numpy
broadcasting in the elementwise binaries; gradients are summed back down to
the operand shapes.

Ownership and lifetime: a ``Tape`` holds its tensors strongly and each tensor
holds its parents, but a tensor refers back to its tape only through a weak
proxy that the tape creates once, and a backward closure captures its
primitive's inputs, never its output. Nothing forms a reference cycle, so a tape
and every array on it are freed by reference counting as soon as the caller
drops the tape (usually with the ``ForwardContext`` that owns it); no
garbage-collector pass is needed. Whoever builds tensors must keep the tape
alive while they are used: an op on a tensor whose tape is gone raises
``ReferenceError``.

A tensor's first gradient is stored as it arrives, without a copy. It may be
shared with a sibling operand or be a read-only view, so later gradients are
added out of place and no gradient array is ever written in place.
"""

from __future__ import annotations

import weakref

import numpy as np

POW_LOG_CLAMP = 1e-12


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "parents", "backward_fn", "tape", "index")

    def __init__(self, tape: "Tape", value: np.ndarray, parents=(), backward_fn=None,
                 requires_grad: bool | None = None):
        self.tape = tape.proxy
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self.parents)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.index = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        self.grad = g if self.grad is None else self.grad + g

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_ensure(self.tape, other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_ensure(self.tape, other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of primitive applications; not shared across threads."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.proxy = weakref.proxy(self)  # tensors hold this, never the tape itself

    def leaf(self, value) -> Tensor:
        return Tensor(self, value, requires_grad=True)

    def const(self, value) -> Tensor:
        return Tensor(self, value, requires_grad=False)


def _ensure(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return tape.const(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(name, a, b, forward, da, db) -> Tensor:
    a = _ensure(a.tape if isinstance(a, Tensor) else b.tape, a)
    b = _ensure(a.tape, b)
    try:
        value = forward(a.value, b.value)
    except ValueError:
        raise ValueError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        a._accumulate(_unbroadcast(da(g, a.value, b.value, value), a.shape))
        b._accumulate(_unbroadcast(db(g, a.value, b.value, value), b.shape))

    return Tensor(a.tape, value, (a, b), backward)


def add(a, b):
    return _binary("add", a, b, np.add,
                   lambda g, av, bv, out: g,
                   lambda g, av, bv, out: g)


def sub(a, b):
    return _binary("sub", a, b, np.subtract,
                   lambda g, av, bv, out: g,
                   lambda g, av, bv, out: -g)


def mul(a, b):
    return _binary("mul", a, b, np.multiply,
                   lambda g, av, bv, out: g * bv,
                   lambda g, av, bv, out: g * av)


def div(a, b):
    return _binary("div", a, b, np.divide,
                   lambda g, av, bv, out: g / bv,
                   lambda g, av, bv, out: -g * av / (bv * bv))


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first operand."""
    return _binary("maximum", a, b, np.maximum,
                   lambda g, av, bv, out: g * (av >= bv),
                   lambda g, av, bv, out: g * (av < bv))


def minimum(a, b):
    """Elementwise min; ties route the gradient to the first operand."""
    return _binary("minimum", a, b, np.minimum,
                   lambda g, av, bv, out: g * (av <= bv),
                   lambda g, av, bv, out: g * (av > bv))


def pow_elem(base: Tensor, exponent) -> Tensor:
    """Elementwise base**exponent; the base is clamped inside the exponent
    gradient's logarithm so zero truths cannot produce non-finite gradients."""
    return _binary(
        "pow", base, exponent, np.power,
        lambda g, bv, ev, out: g * ev * np.power(np.maximum(bv, POW_LOG_CLAMP), ev - 1.0),
        lambda g, bv, ev, out: g * out * np.log(np.maximum(bv, POW_LOG_CLAMP)),
    )


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        a._accumulate(g * c)

    return Tensor(a.tape, a.value * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    value = a.value @ b.value

    def backward(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    return Tensor(a.tape, value, (a, b), backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("concat: need at least one part")
    widths = [p.shape[-1] for p in parts]
    value = np.concatenate([p.value for p in parts], axis=-1)

    def backward(g):
        offset = 0
        for part, width in zip(parts, widths):
            part._accumulate(g[..., offset:offset + width])
            offset += width

    return Tensor(parts[0].tape, value, tuple(parts), backward)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g):
        buf = np.zeros_like(a.value)
        buf[..., start:stop] = g
        a._accumulate(buf)

    return Tensor(a.tape, a.value[..., start:stop], (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return Tensor(a.tape, a.value.reshape(shape), (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0  # subgradient 0 at the kink

    def backward(g):
        a._accumulate(g * mask)

    return Tensor(a.tape, a.value * mask, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    value = 0.5 * (1.0 + np.tanh(0.5 * a.value))

    def backward(g):
        a._accumulate(g * value * (1.0 - value))

    return Tensor(a.tape, value, (a,), backward)


def log_sigmoid(a: Tensor) -> Tensor:
    x = a.value
    value = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    sig = 0.5 * (1.0 + np.tanh(0.5 * x))

    def backward(g):
        a._accumulate(g * (1.0 - sig))

    return Tensor(a.tape, value, (a,), backward)


def exp(a: Tensor) -> Tensor:
    value = np.exp(a.value)

    def backward(g):
        a._accumulate(g * value)

    return Tensor(a.tape, value, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.value)  # sign(0) = 0 convention

    def backward(g):
        a._accumulate(g * sign)

    return Tensor(a.tape, np.abs(a.value), (a,), backward)


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.shape[axis]

    def backward(g):
        g = g if keepdims else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / n)

    return Tensor(a.tape, a.value.mean(axis=axis, keepdims=keepdims), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full(a.shape, float(g)))

    return Tensor(a.tape, np.asarray(a.value.sum()), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size

    def backward(g):
        a._accumulate(np.full(a.shape, float(g) / n))

    return Tensor(a.tape, np.asarray(a.value.mean()), (a,), backward)


def smoothmin_weighted(truths: list[Tensor], weights: list[Tensor], alpha: float) -> Tensor:
    """Weighted smooth minimum over k same-shape inputs:
    sum_j t_j w_j e^(a t_j) / sum_j w_j e^(a t_j)."""
    if len(truths) != len(weights) or not truths:
        raise ValueError("smoothmin: need matching non-empty truth and weight lists")
    exps = [np.exp(alpha * t.value) for t in truths]
    scores = [w.value * e for w, e in zip(weights, exps)]
    denom = np.zeros_like(scores[0])
    numer = np.zeros_like(scores[0])
    for t, s in zip(truths, scores):
        denom = denom + s
        numer = numer + t.value * s
    if np.any(denom == 0.0):
        raise ValueError("smoothmin: all inputs removed (zero denominator)")
    value = numer / denom

    def backward(g):
        for t, w, e, s in zip(truths, weights, exps, scores):
            t._accumulate(g * s * (1.0 + alpha * t.value - alpha * value) / denom)
            w._accumulate(g * e * (t.value - value) / denom)

    return Tensor(truths[0].tape, value, tuple(truths) + tuple(weights), backward)


def backward(output: Tensor) -> None:
    """Accumulate gradients of a scalar output into every contributing tensor."""
    if output.value.size != 1:
        raise ValueError(f"backward: output must be scalar, got shape {output.shape}")
    output.grad = np.ones_like(output.value)
    for node in reversed(output.tape.nodes[: output.index + 1]):
        if node.grad is None or node.backward_fn is None or not node.requires_grad:
            continue
        node.backward_fn(node.grad)
