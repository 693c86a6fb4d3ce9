"""Dense float64 tensors with taped reverse-mode differentiation.

Every operation records itself on an implicit tape: each result Tensor
keeps its parent Tensors plus a closure that knows how to push gradients
back to them.  ``backward(loss)`` replays the tape in reverse topological
order.  Leaf tensors (no parents) accumulate gradients across backward
calls until explicitly zeroed; intermediate nodes get a fresh gradient
buffer on every call.

Every value is tested for NaN/Inf.  A leaf is tested when it is built.
A recorded value is queued and tested, together with everything queued
since, before it leaves the tape: at the end of ``decoder.step``, at the
start of ``backward``, in ``Tensor.item()`` or at an explicit
``check_recorded()``.  So one check covers a whole decoder step instead
of each of its ops, and a failure names the first op, in recording
order, that went non-finite.

Tensors must be treated as immutable once another recorded operation has
consumed them.  A recording (one forward pass) is single-threaded.
Independent recordings on disjoint tensors could run concurrently if it
were not for the queue of values awaiting the check, which is shared by
the whole module; nothing in salcap records from two threads.
"""

from collections import OrderedDict

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


# Recorded tensors whose values have not been tested yet.
_PENDING = []
# A recording that never reaches a check point is tested once the queue
# holds this many tensors, so the queue cannot grow without bound.
_PENDING_LIMIT = 4096


def check_recorded():
    """Test every queued recorded value for NaN/Inf, then empty the queue.

    Raises ValueError naming the first op, in recording order, whose
    output is not finite, and the dims of that output.
    """
    if not _PENDING:
        return
    pending = _PENDING[:]
    _PENDING.clear()
    if np.isfinite(np.concatenate([t.data for t in pending], axis=None)).all():
        return
    for tensor in pending:
        if not np.isfinite(tensor.data).all():
            fn = tensor._backward_fn  # the op's closure: "log.<locals>._bw" names log
            op = fn.__qualname__.split(".")[0] if fn is not None else "recorded op"
            raise ValueError("non-finite value from %s, output dims %r" % (op, tensor.dims))


class Tensor:
    """Row-major float64 array plus its place in the recorded graph."""

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(self, data, parents=(), backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if parents:
            if len(_PENDING) >= _PENDING_LIMIT:
                check_recorded()
            _PENDING.append(self)
        elif not np.isfinite(arr).all():
            raise ValueError("non-finite value in tensor of dims %r" % (list(arr.shape),))
        self.data = arr
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def dims(self):
        return list(self.data.shape)

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() on tensor of dims %r" % (self.dims,))
        check_recorded()
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return "Tensor(dims=%r%s)" % (self.dims, ", recorded" if self._parents else "")


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class ParamSlot:
    """Named learned parameter: a leaf value tensor plus its running gradient."""

    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = as_tensor(value)
        if self.value.grad is None:
            self.value.grad = np.zeros_like(self.value.data)

    @property
    def grad(self):
        return self.value.grad

    def zero_grad(self):
        self.value.grad[...] = 0.0

    def __repr__(self):
        return "ParamSlot(%r, dims=%r)" % (self.name, self.value.dims)


class ParamStore:
    """Ordered registry of uniquely named ParamSlots."""

    def __init__(self):
        self._slots = OrderedDict()

    def add(self, name, array):
        if name in self._slots:
            raise ValueError("duplicate parameter name %r" % name)
        slot = ParamSlot(name, array)
        self._slots[name] = slot
        return slot.value

    def __getitem__(self, name):
        return self._slots[name]

    def __contains__(self, name):
        return name in self._slots

    def slots(self):
        return list(self._slots.values())

    def zero_grads(self):
        for slot in self._slots.values():
            slot.zero_grad()


def _toposort(root):
    """Iterative postorder over the recorded graph rooted at ``root``."""
    order = []
    visited = set()  # Tensor hashes by identity
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in visited:
                stack.append((parent, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every reachable leaf tensor.

    Intermediate node gradients are reset per call; leaf gradients
    accumulate, so repeated calls without zeroing double parameter grads.
    Every queued recorded value is checked first (see ``check_recorded``).
    """
    check_recorded()
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss, got dims %r" % (loss.dims,))
    order = _toposort(loss)
    for node in order:
        if node._parents or node.grad is None:
            node.grad = np.zeros(node.data.shape)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# recorded operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product a[m,k] @ b[k,n]; b may also be a k-vector."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2) or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            "matmul: incompatible operands %r x %r" % (list(a.data.shape), list(b.data.shape))
        )
    out = Tensor(a.data @ b.data, parents=(a, b))

    def _bw(g):
        if b.data.ndim == 2:
            a.grad += g @ b.data.T
            b.grad += a.data.T @ g
        else:
            a.grad += np.outer(g, b.data)
            b.grad += a.data.T @ g

    out._backward_fn = _bw
    return out


def transpose(a):
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("transpose needs a matrix, got dims %r" % (a.dims,))
    out = Tensor(a.data.T, parents=(a,))

    def _bw(g):
        a.grad += g.T

    out._backward_fn = _bw
    return out


def _require_same_dims(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(
            "%s: mismatched dims %r vs %r" % (op, list(a.data.shape), list(b.data.shape))
        )


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _require_same_dims("add", a, b)
    out = Tensor(a.data + b.data, parents=(a, b))

    def _bw(g):
        a.grad += g
        b.grad += g

    out._backward_fn = _bw
    return out


def hadamard(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _require_same_dims("hadamard", a, b)
    out = Tensor(a.data * b.data, parents=(a, b))

    def _bw(g):
        a.grad += g * b.data
        b.grad += g * a.data

    out._backward_fn = _bw
    return out


def scale(a, c):
    """Multiply by a plain float constant (not recorded as a tensor)."""
    a = as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c, parents=(a,))

    def _bw(g):
        a.grad += g * c

    out._backward_fn = _bw
    return out


def sigmoid(x):
    x = as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y, parents=(x,))

    def _bw(g):
        x.grad += g * y * (1.0 - y)

    out._backward_fn = _bw
    return out


def tanh(x):
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y, parents=(x,))

    def _bw(g):
        x.grad += g * (1.0 - y * y)

    out._backward_fn = _bw
    return out


def relu(x):
    x = as_tensor(x)
    out = Tensor(np.maximum(0.0, x.data), parents=(x,))

    def _bw(g):
        x.grad += g * (x.data > 0.0)

    out._backward_fn = _bw
    return out


def softmax_vec(e):
    """Max-shifted softmax over a vector; output sums to 1."""
    e = as_tensor(e)
    if e.data.ndim != 1 or e.data.size == 0:
        raise ValueError("softmax_vec needs a non-empty vector, got dims %r" % (e.dims,))
    shifted = e.data - e.data.max()
    ex = np.exp(shifted)
    y = ex / ex.sum()
    out = Tensor(y, parents=(e,))

    def _bw(g):
        e.grad += y * (g - np.dot(g, y))

    out._backward_fn = _bw
    return out


def tsum(x):
    """Sum of all elements, as a scalar tensor."""
    x = as_tensor(x)
    out = Tensor(np.sum(x.data), parents=(x,))

    def _bw(g):
        x.grad += g

    out._backward_fn = _bw
    return out


def log(x):
    x = as_tensor(x)
    out = Tensor(np.log(x.data), parents=(x,))

    def _bw(g):
        x.grad += g / x.data

    out._backward_fn = _bw
    return out


def pick(x, index):
    """Scalar element x[index] of a vector."""
    x = as_tensor(x)
    if x.data.ndim != 1:
        raise ShapeError("pick needs a vector, got dims %r" % (x.dims,))
    i = int(index)
    if not 0 <= i < x.data.size:
        raise IndexError("pick index %d out of range for length %d" % (i, x.data.size))
    out = Tensor(x.data[i], parents=(x,))

    def _bw(g):
        x.grad[i] += g

    out._backward_fn = _bw
    return out


def row(m, index):
    """Row m[index, :] of a matrix, as a vector."""
    m = as_tensor(m)
    if m.data.ndim != 2:
        raise ShapeError("row needs a matrix, got dims %r" % (m.dims,))
    i = int(index)
    if not 0 <= i < m.data.shape[0]:
        raise IndexError("row index %d out of range for %d rows" % (i, m.data.shape[0]))
    out = Tensor(m.data[i], parents=(m,))

    def _bw(g):
        m.grad[i] += g

    out._backward_fn = _bw
    return out


def add_rowvec(m, v):
    """Add vector v to every row of matrix m."""
    m, v = as_tensor(m), as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ShapeError(
            "add_rowvec: incompatible dims %r + %r" % (list(m.data.shape), list(v.data.shape))
        )
    out = Tensor(m.data + v.data, parents=(m, v))

    def _bw(g):
        m.grad += g
        v.grad += g.sum(axis=0)

    out._backward_fn = _bw
    return out
