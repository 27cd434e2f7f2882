"""Reverse-mode autodiff over a small fixed op vocabulary.

Values are float64 numpy arrays recorded on a tape of `Tensor` nodes.
Every op validates that its output is finite; NaN/Inf anywhere is a bug
in the caller, not something we propagate.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """An op produced (or was fed) NaN or Inf."""


def _is_basic_index(idx) -> bool:
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, (int, np.integer, slice)) or p is None or p is Ellipsis
               for p in parts)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b`, with the leading axes of an N-d `a` folded into one GEMM when
    `b` is a single matrix; numpy would run one small GEMM per leading index."""
    if a.ndim > 2 and b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return a @ b


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node on the autodiff tape.

    `value` is a float64 ndarray; `grad` is lazily allocated with the same
    shape. Leaf tensors created with requires_grad=True are parameters.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "name")

    # numpy defers binary operators to Tensor (`array - tensor` is a Tensor)
    __array_ufunc__ = None

    def __init__(self, value, requires_grad: bool = False, _parents=(), _backward=None, name: str | None = None):
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise NonFiniteError(f"non-finite values produced by op '{name or 'tensor'}'")
        self.value = value
        self.grad: np.ndarray | None = None
        requires_grad = bool(requires_grad)
        if not requires_grad:
            for p in _parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = tuple(_parents)
        self._backward = _backward
        self.name = name

    # -- basic introspection ------------------------------------------------

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(grad, self.value.shape), dtype=np.float64)
        else:
            self.grad += grad

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)

        def back(g, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.value.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.value.shape))

        return Tensor(self.value + other.value, _parents=(self, other), _backward=back, name="add")

    __radd__ = __add__

    def __neg__(self):
        def back(g, a=self):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor(-self.value, _parents=(self,), _backward=back, name="neg")

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        other = _lift(other)

        def back(g, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.value, a.value.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.value, b.value.shape))

        return Tensor(self.value * other.value, _parents=(self, other), _backward=back, name="mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return self * other.reciprocal()
        return self * (1.0 / float(other))

    def reciprocal(self):
        out_val = 1.0 / self.value

        def back(g, a=self, ov=out_val):
            if a.requires_grad:
                a._accumulate(-g * ov * ov)

        return Tensor(out_val, _parents=(self,), _backward=back, name="reciprocal")

    def __matmul__(self, other):
        """numpy matmul: 1-D operands are promoted, leading axes broadcast."""
        other = _lift(other)

        def back(g, a=self, b=other):
            av, bv = a.value, b.value
            a2 = av[None, :] if av.ndim == 1 else av
            b2 = bv[:, None] if bv.ndim == 1 else bv
            g2 = np.asarray(g)
            if bv.ndim == 1:
                g2 = np.expand_dims(g2, -1)
            if av.ndim == 1:
                g2 = np.expand_dims(g2, -2)
            if a.requires_grad:
                ga = _matmul(g2, np.swapaxes(b2, -1, -2))
                a._accumulate(_unbroadcast(ga, a2.shape).reshape(av.shape))
            if b.requires_grad:
                if b2.ndim == 2:  # one weight shared by every leading index
                    gb = a2.reshape(-1, a2.shape[-1]).T @ g2.reshape(-1, g2.shape[-1])
                else:
                    gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g2, b2.shape)
                b._accumulate(gb.reshape(bv.shape))

        return Tensor(_matmul(self.value, other.value), _parents=(self, other), _backward=back,
                      name="matmul")

    def __getitem__(self, idx):
        def back(g, a=self, idx=idx):
            if a.requires_grad:
                full = np.zeros_like(a.value)
                if _is_basic_index(idx):  # a view: no entry repeats
                    full[idx] = g
                else:
                    np.add.at(full, idx, g)
                a._accumulate(full)

        return Tensor(self.value[idx], _parents=(self,), _backward=back, name="index")

    # -- reductions ---------------------------------------------------------

    def sum(self, axis: int | None = None):
        """Sum over `axis`, or over every axis when it is None."""
        def back(g, a=self, axis=axis):
            if a.requires_grad:
                if axis is not None:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g, a.value.shape))

        return Tensor(self.value.sum(axis=axis), _parents=(self,), _backward=back, name="sum")

    def mean(self, axis: int | None = None, mask=None):
        """Mean over `axis`, or over every axis when it is None.

        `mask` (0/1, broadcastable to the value) keeps only the entries
        where it is 1; a slice with no kept entry means to 0.
        """
        if mask is None:
            out_val = self.value.mean(axis=axis)
            weights = np.size(out_val) / self.value.size
        else:
            mask = np.broadcast_to(np.asarray(mask, dtype=np.float64), self.value.shape)
            weights = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            out_val = (self.value * weights).sum(axis=axis)

        def back(g, a=self, axis=axis, w=weights):
            if a.requires_grad:
                if axis is not None:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g * w, a.value.shape))

        return Tensor(out_val, _parents=(self,), _backward=back, name="mean")

    # -- shape --------------------------------------------------------------

    def reshape(self, *shape):
        shape = shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape

        def back(g, a=self):
            if a.requires_grad:
                a._accumulate(g.reshape(a.value.shape))

        return Tensor(self.value.reshape(shape), _parents=(self,), _backward=back, name="reshape")

    def swapaxes(self, axis1: int, axis2: int):
        def back(g, a=self):
            if a.requires_grad:
                a._accumulate(np.swapaxes(g, axis1, axis2))

        return Tensor(np.swapaxes(self.value, axis1, axis2), _parents=(self,), _backward=back,
                      name="swapaxes")

    # -- nonlinearities -----------------------------------------------------

    def relu(self):
        mask = self.value > 0

        def back(g, a=self, mask=mask):
            if a.requires_grad:
                a._accumulate(g * mask)

        return Tensor(np.maximum(self.value, 0.0), _parents=(self,), _backward=back, name="relu")

    def sigmoid(self):
        out_val = stable_sigmoid(self.value)

        def back(g, a=self, ov=out_val):
            if a.requires_grad:
                a._accumulate(g * ov * (1.0 - ov))

        return Tensor(out_val, _parents=(self,), _backward=back, name="sigmoid")

    def square(self):
        def back(g, a=self):
            if a.requires_grad:
                a._accumulate(g * 2.0 * a.value)

        return Tensor(self.value ** 2, _parents=(self,), _backward=back, name="square")

    def sqrt(self):
        out_val = np.sqrt(self.value)

        def back(g, a=self, ov=out_val):
            if a.requires_grad:
                a._accumulate(g * 0.5 / ov)

        return Tensor(out_val, _parents=(self,), _backward=back, name="sqrt")

    def softmax(self, axis: int = -1):
        shifted = self.value - self.value.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_val = e / e.sum(axis=axis, keepdims=True)

        def back(g, a=self, ov=out_val, axis=axis):
            if a.requires_grad:
                dot = (g * ov).sum(axis=axis, keepdims=True)
                a._accumulate(ov * (g - dot))

        return Tensor(out_val, _parents=(self,), _backward=back, name="softmax")

    def dot(self, other: "Tensor") -> "Tensor":
        return (self * other).sum()

    # -- backward -----------------------------------------------------------

    def backward(self):
        if self.value.ndim != 0:
            raise ValueError("backward requires a scalar loss node")
        if not np.isfinite(self.value):
            raise NonFiniteError("loss is not finite")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.array(1.0))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; exact to float64 for |x| up to ~700."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [_lift(t) for t in tensors]
    bounds = np.cumsum([t.value.shape[axis] for t in tensors])[:-1]

    def back(g, ts=tensors, bounds=bounds, axis=axis):
        for t, part in zip(ts, np.split(g, bounds, axis=axis)):
            if t.requires_grad:
                t._accumulate(part)

    value = np.concatenate([t.value for t in tensors], axis=axis)
    return Tensor(value, _parents=tuple(tensors), _backward=back, name="concat")


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack same-shape tensors into a new leading axis."""
    tensors = [_lift(t) for t in tensors]

    def back(g, ts=tensors):
        for k, t in enumerate(ts):
            if t.requires_grad:
                t._accumulate(g[k])

    value = np.stack([t.value for t in tensors])
    return Tensor(value, _parents=tuple(tensors), _backward=back, name="stack")
