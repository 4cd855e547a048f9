"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

One tape per training forward pass; values are recorded in creation order,
which is already a topological order, and ``backward`` walks it in reverse.
The primitives are generic array operations, one per operation, and only
those that another ``skqe`` module calls. No logic formula lives here: the
t-norms are composed from these primitives in ``logic.conjoin_slots``.
Tensors support numpy broadcasting in the elementwise binaries; gradients are
summed back down to the operand shapes.

Constants are plain arrays. A primitive with no tensor among its inputs
returns a plain array and records nothing; otherwise it records a ``Tensor``
on that input's tape and sends gradients only to tensor inputs, so inference
runs the training code on arrays. ``Tensor.__array_ufunc__`` is None so that
``ndarray <op> Tensor`` defers to the tensor; ``value_of`` reads either kind.

Ownership and lifetime: a ``Tape`` holds its tensors strongly, but a tensor
refers back to its tape only through a weak proxy that the tape creates once,
and a backward closure captures its primitive's inputs, never its output.
Nothing forms a reference cycle, so a tape and every array on it are freed by
reference counting as soon as the caller drops the tape (usually with the
``ForwardContext`` that owns it); no garbage-collector pass is needed. Whoever
builds tensors must keep the tape alive while they are used: an op on a
tensor whose tape is gone raises ``ReferenceError``.

A tensor's first gradient is stored as it arrives, without a copy. It may be
shared with a sibling operand or be a read-only view, so later gradients are
added out of place and no gradient array is ever written in place.
"""

from __future__ import annotations

import weakref

import numpy as np

POW_LOG_CLAMP = 1e-12


class Tensor:
    __slots__ = ("value", "grad", "backward_fn", "tape", "index")
    __array_ufunc__ = None  # ``ndarray <op> Tensor`` defers to the Tensor operators

    def __init__(self, tape: "Tape", value: np.ndarray, backward_fn=None):
        self.tape = tape.proxy
        self.value = np.asarray(value, dtype=np.float64)
        self.backward_fn = backward_fn
        self.grad: np.ndarray | None = None
        self.index = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)


class Tape:
    """Ordered record of one forward pass's primitive applications."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.proxy = weakref.proxy(self)  # tensors hold this, never the tape itself

    def leaf(self, value) -> Tensor:
        return Tensor(self, value)


def value_of(x) -> np.ndarray:
    """The float64 array behind a tensor, an array or a scalar."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _record(value: np.ndarray, backward_fn, *inputs):
    """A tensor on the first tensor input's tape, or the plain value when no
    input is a tensor (then nothing is recorded)."""
    for x in inputs:
        if isinstance(x, Tensor):
            return Tensor(x.tape, value, backward_fn)
    return value


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(name, a, b, forward, da, db):
    av, bv = value_of(a), value_of(b)
    try:
        value = forward(av, bv)
    except ValueError:
        raise ValueError(f"{name}: incompatible shapes {av.shape} and {bv.shape}") from None

    def backward(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(da(g, av, bv, value), av.shape))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(db(g, av, bv, value), bv.shape))

    return _record(value, backward, a, b)


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


def pow_elem(base, exponent):
    """Elementwise base**exponent; the base is clamped inside the exponent
    gradient's logarithm so zero truths cannot produce non-finite gradients."""
    return _binary(
        "pow", base, exponent, np.power,
        lambda g, bv, ev, out: g * ev * np.power(np.maximum(bv, POW_LOG_CLAMP), ev - 1.0),
        lambda g, bv, ev, out: g * out * np.log(np.maximum(bv, POW_LOG_CLAMP)),
    )


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")

    def backward(g):
        if isinstance(a, Tensor):
            a._accumulate(g @ bv.T)
        if isinstance(b, Tensor):
            b._accumulate(av.T @ g)

    return _record(av @ bv, backward, a, b)


def concat_last(parts: list):
    if not parts:
        raise ValueError("concat: need at least one part")
    values = [value_of(p) for p in parts]
    widths = [v.shape[-1] for v in values]

    def backward(g):
        offset = 0
        for part, width in zip(parts, widths):
            if isinstance(part, Tensor):
                part._accumulate(g[..., offset:offset + width])
            offset += width

    return _record(np.concatenate(values, axis=-1), backward, *parts)


def slice_last(a, start: int, stop: int):
    av = value_of(a)

    def backward(g):
        buf = np.zeros_like(av)
        buf[..., start:stop] = g
        a._accumulate(buf)

    return _record(av[..., start:stop], backward, a)


def reshape(a, shape: tuple[int, ...]):
    av = value_of(a)

    def backward(g):
        a._accumulate(g.reshape(av.shape))

    return _record(av.reshape(shape), backward, a)


def relu(a):
    av = value_of(a)
    mask = av > 0  # subgradient 0 at the kink

    def backward(g):
        a._accumulate(g * mask)

    return _record(av * mask, backward, a)


def sigmoid(a):
    value = 0.5 * (1.0 + np.tanh(0.5 * value_of(a)))

    def backward(g):
        a._accumulate(g * value * (1.0 - value))

    return _record(value, backward, a)


def log_sigmoid(a):
    x = value_of(a)
    value = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        a._accumulate(g * (1.0 - 0.5 * (1.0 + np.tanh(0.5 * x))))

    return _record(value, backward, a)


def exp(a):
    value = np.exp(value_of(a))

    def backward(g):
        a._accumulate(g * value)

    return _record(value, backward, a)


def absolute(a):
    av = value_of(a)

    def backward(g):
        a._accumulate(g * np.sign(av))  # sign(0) = 0 convention

    return _record(np.abs(av), backward, a)


def mean_axis(a, axis: int):
    av = value_of(a)

    def backward(g):
        a._accumulate(np.broadcast_to(np.expand_dims(g, axis), av.shape) / av.shape[axis])

    return _record(av.mean(axis=axis), backward, a)


def sum_all(a):
    av = value_of(a)

    def backward(g):
        a._accumulate(np.full(av.shape, float(g)))

    return _record(np.asarray(av.sum()), backward, a)


def backward(output: Tensor) -> None:
    """Accumulate gradients of a scalar output into every contributing tensor."""
    if output.value.size != 1:
        raise ValueError(f"backward: output must be scalar, got shape {output.shape}")
    output.grad = np.ones_like(output.value)
    for node in reversed(output.tape.nodes[: output.index + 1]):
        if node.grad is None or node.backward_fn is None:
            continue
        node.backward_fn(node.grad)
