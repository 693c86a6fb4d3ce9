"""Dense float64 tensors with taped reverse-mode differentiation.

Every operation records itself on an implicit tape: each result Tensor
keeps its parent Tensors plus a closure that knows how to push gradients
back to them.  ``backward(loss)`` replays the tape: it collects the
recorded tensors reachable from the loss and calls their closures in
reverse recording order, a reverse topological order because an op's
parents always exist before its output.  Parameters accumulate
gradients across backward calls until explicitly zeroed.  Intermediate
nodes start every call with no gradient buffer: the first contribution
becomes the buffer, and later ones are added into it.  A recorded tensor
gives its gradient up once its closure has used it, so after
``backward`` only parameters hold gradients.  The graph itself stays, so
a second ``backward`` over it adds the same gradients again.

A closure owns the gradient it is handed: nothing else holds that array
once the closure returns.  So a pass-through may hand it on without a
copy: ``add`` gives its first operand g itself and ``transpose`` gives
its operand g^T, a view of g.  ``add``'s second operand, if it already
holds a buffer, adds g into it; only when g would become its new buffer
does it get a copy, since its first operand may hold g.  Where the second
operand is a vector added to every row of a matrix (the attention score,
the feature projection), it gets the column sums of g.  ``add`` takes no
other pair of shapes.  ``matmul``, ``add`` and ``hadamard`` raise a
ShapeError naming both operands' dims, so the layers above check only
what comes from outside the program: raw features against the
checkpoint, saliency against the features, a checkpoint's config and dims.

At desk sizes an op's time goes to numpy's fixed cost per call more than
to arithmetic.  So products call ``ndarray.dot``, not ``@``, outer
products broadcast ``g[:, None] * x``, not ``np.outer``, and the deferred
terms are stacked by ``np.array``, not ``np.stack``: each reaches the
same BLAS call or C loop, with the same bits, at a fraction of the cost.
Python's cost per call counts too, so the closures of ``matmul``,
``transpose``, ``add``, ``hadamard``, ``sigmoid`` and ``tanh``, which
run most often, apply ``_accumulate``'s rule inline.  ``matmul``, ``add``
and ``hadamard`` read each operand's ``.data`` once and test shapes by
plain comparison, building an error message only on a mismatch; an
array's ``.shape`` is a new tuple at every read, so ``matmul`` compares
ranks alone and turns the ValueError of ``ndarray.dot``, which tests
the inner dims anyway, into its ShapeError.  The three append their
output to the check queue inline, under ``_queued``'s bound.
``sigmoid`` computes 1 / (1 + exp(-x)) in its one output buffer: the
same four steps in the same order, so the same bits.  A 0-d operand
takes the formula as written, since numpy hands its steps back as
scalars, which have no buffer.

A value joins the tape one way.  ``Tensor(x)`` makes a leaf from
anything ``np.asarray`` takes, and only an op makes a recorded tensor.
Ops take Tensors and never convert their inputs.  A leaf gets a gradient
only if it holds a buffer, as a ``ParamSlot``'s leaf does.  A
``ParamStore``, built once from its named arrays, keeps every parameter
value in one flat arena and every gradient in another, the slots'
spans packed end to end.  A slot's value and gradient are views of its
span, so ``optim.optimizer_step`` updates all parameters in one pass
over the arenas and ``zero_grads`` is one fill.  Any other leaf (the raw
features, h0 and c0, the saliency weights s and 1 - s, the loss
normaliser -1/T) is a constant: ``matmul`` and ``hadamard`` skip its
product.  The 11 recorded ops are ``matmul``, ``transpose``, ``add``,
``hadamard``, ``sigmoid``, ``tanh``, ``relu``, ``softmax_vec``, ``tsum``,
``log`` and ``pick``.

A closure may defer work to the end of ``backward``.  ``matmul`` of a
parameter matrix by a vector (the LSTM, output and ``W_he`` attention
weights) keeps the upstream gradient g and the vector x; ``backward``
ends by adding G^T X over the stacked pairs, one GEMM per parameter for
the whole call, not one outer product per decoder step.
The deferred terms are dropped if any closure raises.

Every value is tested for NaN/Inf where one can arise.  A leaf is tested
when it is built, and ``optim.optimizer_step`` tests the value arena
after its update.  Of the recorded ops, only ``matmul``, ``add``,
``hadamard``, ``log`` and ``tsum`` can turn finite inputs into a
non-finite output, by overflow or by the log of 0, so only their outputs
are queued for the check.  The other six give finite output for finite
input: ``transpose`` and ``pick`` copy values, ``relu`` keeps a finite
value or gives 0, ``sigmoid`` stays in [0, 1] even where ``exp``
overflows, ``tanh`` stays in [-1, 1], and ``softmax_vec`` divides by a
sum of at least 1, since its max-shifted largest term is exp(0).  Their
inputs are leaves or outputs of ops that are queued or finite by the
same rule.  A queued value is tested, together with everything queued
since, before it leaves the tape: at the end of ``decoder.step``, at the
start of ``backward``, in ``Tensor.item()`` or at an explicit
``check_recorded()``.  So one check covers a whole decoder step instead
of each of its ops, and a failure names the first queued op, in
recording order, that went non-finite.

The tape holds no reference cycles.  A recorded tensor refers to its
parents and its closure, the closure to the op's inputs and plain arrays,
and nothing refers back to an output.  So reference counting frees a
whole tape once its last tensor is dropped (training drops each batch's
tape before the next batch records), and CPython's cyclic
collector, which runs every few hundred allocations and scans every live
tracked object, finds nothing to free.  With about five tracked objects
per recorded op, those scans cost over a tenth of a training epoch.
``collector_paused`` turns the collector off for the four calls that
both build tapes and drop them: ``optim.train_epoch``,
``optim.finite_difference_check``, ``inference.greedy_decode`` and
``inference.trace_attention``.  ``optim.caption_loss`` and
``optim.forward_caption`` are not paused: their tape outlives the call,
and the first tracked allocation after the collector comes back (the
caller's ``item()`` copies the pending queue) would start a scan of it.

Tensors must be treated as immutable once another recorded operation has
consumed them.  A recording (one forward pass) is single-threaded.
Independent recordings on disjoint tensors could run concurrently if it
were not for the queue of values awaiting the check and the deferred
gradient terms, which are shared by the whole module; nothing in salcap
records from two threads.
"""

import functools
import gc
import itertools
from operator import attrgetter

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


# Outputs of the queued ops whose values have not been tested yet.
_PENDING = []
# A recording that never reaches a check point is tested once the queue
# holds this many tensors, so the queue cannot grow without bound.
_PENDING_LIMIT = 4096
# Creation order of tensors; ``backward`` sorts the tape by it.
_SEQ = itertools.count()
# parameter -> [(upstream gradient, vector), ...]: the parameter-matrix x vector
# products of the running ``backward`` whose gradient is added at its end.
_DEFERRED = {}


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
            op = tensor._backward_fn.__qualname__.split(".")[0]  # "log.<locals>._bw" names log
            raise ValueError("non-finite value from %s, output dims %r" % (op, tensor.dims))


def collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector off, for acyclic tapes.

    The collector is enabled again when ``fn`` returns or raises.  If the
    caller had already disabled it, nothing changes, so nested use is safe.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class Tensor:
    """Row-major float64 array plus its place in the recorded graph.

    A leaf takes anything ``np.asarray`` does; a recorded op passes its
    float64 result as it is, its parents as a tuple and its closure.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, parents=(), backward_fn=None):
        if not parents:
            data = np.asarray(data, dtype=np.float64)
            if not np.isfinite(data).all():
                raise ValueError("non-finite value in tensor of dims %r" % (list(data.shape),))
        self.data = data
        self.grad = None
        self._parents = parents
        self._backward_fn = backward_fn
        self._seq = next(_SEQ)

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


class ParamSlot:
    """Named learned parameter: a leaf value tensor and its running gradient,
    each a view of the slot's span in its ``ParamStore``'s arenas."""

    __slots__ = ("name", "value")

    def __init__(self, name, value, grad):
        self.name = name
        self.value = Tensor(value)
        self.value.grad = grad

    @property
    def grad(self):
        return self.value.grad

    def __repr__(self):
        return "ParamSlot(%r, dims=%r)" % (self.name, self.value.dims)


class ParamStore:
    """Uniquely named ParamSlots, in the order given, over two flat arenas.

    ``values`` holds every parameter and ``grads`` every gradient; each
    slot's ``value.data`` and ``grad`` are reshaped views of its span, so
    a write through either is a write into the arena.  The spans tile each
    arena in slot order, each starting where the one before it ends.  The
    store is built once, from its ``(name, array)`` pairs, each array
    copied into its span.
    """

    def __init__(self, pairs):
        pairs = [(name, np.asarray(array)) for name, array in pairs]
        spans, end = [], 0
        for _, array in pairs:
            spans.append(slice(end, end + array.size))
            end += array.size
        self.values = np.zeros(end)
        self.grads = np.zeros(end)
        self._slots = {}
        for (name, array), span in zip(pairs, spans):
            if name in self._slots:
                raise ValueError("duplicate parameter name %r" % name)
            value = self.values[span].reshape(array.shape)
            value[...] = array
            self._slots[name] = ParamSlot(name, value, self.grads[span].reshape(array.shape))

    def __getitem__(self, name):
        return self._slots[name]

    def __contains__(self, name):
        return name in self._slots

    def slots(self):
        return list(self._slots.values())

    def zero_grads(self):
        self.grads.fill(0.0)


def _recording_order(root):
    """The recorded tensors reachable from ``root``, latest first."""
    seen = {root} if root._parents else set()  # Tensor hashes by identity; no leaf enters
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent._parents and parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return sorted(seen, key=attrgetter("_seq"), reverse=True)


def _accumulate(t, g):
    """Add ``g`` into t's gradient unless t is a constant.  A first
    contribution becomes the buffer, so nothing else may hold ``g``."""
    if t.grad is not None:
        t.grad += g
    elif t._parents:
        t.grad = g


def backward(loss):
    """Accumulate d(loss)/d(p) into every reachable parameter p.

    Closures run latest recorded first.  Intermediate gradients are reset
    per call, to no buffer until the first contribution, and dropped once
    their closure has run.  Parameter gradients accumulate and the graph
    is kept, so repeated calls without zeroing double them.  The deferred
    parameter gradients are added last, one GEMM each.  Every queued
    recorded value is checked first (see ``check_recorded``).
    """
    check_recorded()
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss, got dims %r" % (loss.dims,))
    order = _recording_order(loss)
    for node in order:
        node.grad = None
    _accumulate(loss, np.ones_like(loss.data))
    try:
        for node in order:
            node._backward_fn(node.grad)
            node.grad = None
        for leaf, terms in _DEFERRED.items():
            g, x = zip(*terms)
            _accumulate(leaf, np.array(g).T.dot(np.array(x)))
    finally:
        _DEFERRED.clear()


# ---------------------------------------------------------------------------
# recorded operations
# ---------------------------------------------------------------------------

def _queued(t):
    """``t``, queued for the check; a full queue is tested first."""
    if len(_PENDING) >= _PENDING_LIMIT:
        check_recorded()
    _PENDING.append(t)
    return t


def _product_error(ad, bd):
    return ShapeError("matmul: incompatible operands %r x %r" % (list(ad.shape), list(bd.shape)))


def matmul(a, b):
    """Matrix product a[m,k] @ b[k,n]; b may also be a k-vector."""
    ad = a.data
    bd = b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2):
        raise _product_error(ad, bd)
    try:
        product = ad.dot(bd)
    except ValueError:  # a's columns do not match b's rows
        raise _product_error(ad, bd) from None

    def _bw(g):
        if b.data.ndim == 2:
            if a.grad is not None:
                a.grad += g.dot(b.data.T)
            elif a._parents:
                a.grad = g.dot(b.data.T)
        elif a._parents:
            if a.grad is not None:
                a.grad += g[:, None] * b.data
            else:
                a.grad = g[:, None] * b.data
        elif a.grad is not None:  # a parameter's rank-1 terms: one GEMM at the end of backward
            _DEFERRED.setdefault(a, []).append((g, b.data))
        if b.grad is not None:
            b.grad += a.data.T.dot(g)
        elif b._parents:
            b.grad = a.data.T.dot(g)

    out = Tensor(product, (a, b), _bw)
    if len(_PENDING) >= _PENDING_LIMIT:
        check_recorded()
    _PENDING.append(out)
    return out


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError("transpose needs a matrix, got dims %r" % (a.dims,))

    def _bw(g):
        if a.grad is not None:
            a.grad += g.T
        elif a._parents:
            a.grad = g.T

    return Tensor(a.data.T, (a,), _bw)


def _require_same_dims(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(
            "%s: mismatched dims %r vs %r" % (op, list(a.data.shape), list(b.data.shape))
        )


def add(a, b):
    """a + b, where b has a's dims or, if a is a matrix, is a row added to every row."""
    ad = a.data
    bd = b.data
    row = ad.shape != bd.shape
    if row and (ad.ndim != 2 or bd.shape != ad.shape[1:]):
        _require_same_dims("add", a, b)

    def _bw(g):
        if a.grad is not None:
            a.grad += g
        elif a._parents:
            a.grad = g
        if b.grad is not None:
            b.grad += g.sum(axis=0) if row else g
        elif b._parents:  # b's new buffer must not be a's
            b.grad = g.sum(axis=0) if row else g.copy()

    out = Tensor(ad + bd, (a, b), _bw)
    if len(_PENDING) >= _PENDING_LIMIT:
        check_recorded()
    _PENDING.append(out)
    return out


def hadamard(a, b):
    ad = a.data
    bd = b.data
    if ad.shape != bd.shape:
        _require_same_dims("hadamard", a, b)

    def _bw(g):
        if a.grad is not None:
            a.grad += g * b.data
        elif a._parents:
            a.grad = g * b.data
        if b.grad is not None:
            b.grad += g * a.data
        elif b._parents:
            b.grad = g * a.data

    out = Tensor(ad * bd, (a, b), _bw)
    if len(_PENDING) >= _PENDING_LIMIT:
        check_recorded()
    _PENDING.append(out)
    return out


def sigmoid(x):
    y = np.negative(x.data)
    if y.ndim:  # 1 / (1 + exp(-x)), its four steps in order in y's one buffer
        np.exp(y, y)
        y += 1.0
        np.divide(1.0, y, y)
    else:  # a 0-d operand's negation is a numpy scalar, which has no buffer
        y = 1.0 / (1.0 + np.exp(y))

    def _bw(g):
        g = g * y * (1.0 - y)
        if x.grad is not None:
            x.grad += g
        elif x._parents:
            x.grad = g

    return Tensor(y, (x,), _bw)


def tanh(x):
    y = np.tanh(x.data)

    def _bw(g):
        g = g * (1.0 - y * y)
        if x.grad is not None:
            x.grad += g
        elif x._parents:
            x.grad = g

    return Tensor(y, (x,), _bw)


def relu(x):
    def _bw(g):
        _accumulate(x, g * (x.data > 0.0))

    return Tensor(np.maximum(0.0, x.data), (x,), _bw)


def softmax_vec(e):
    """Max-shifted softmax over a vector; output sums to 1."""
    if e.data.ndim != 1 or e.data.size == 0:
        raise ValueError("softmax_vec needs a non-empty vector, got dims %r" % (e.dims,))
    shifted = e.data - e.data.max()
    ex = np.exp(shifted)
    y = ex / ex.sum()

    def _bw(g):
        _accumulate(e, y * (g - g.dot(y)))

    return Tensor(y, (e,), _bw)


def tsum(x):
    """Sum of all elements, as a scalar tensor."""
    def _bw(g):
        _accumulate(x, np.full(x.data.shape, g))

    return _queued(Tensor(x.data.sum(), (x,), _bw))


def log(x):
    def _bw(g):
        _accumulate(x, g / x.data)

    return _queued(Tensor(np.log(x.data), (x,), _bw))


def pick(x, index):
    """Entry x[index] along the first axis: a scalar of a vector, a row of a matrix."""
    if x.data.ndim not in (1, 2):
        raise ShapeError("pick needs a vector or a matrix, got dims %r" % (x.dims,))
    i = int(index)
    n = x.data.shape[0]
    if not 0 <= i < n:
        raise IndexError("pick index %d out of range for length %d" % (i, n))

    def _bw(g):
        if x.grad is None and x._parents:
            x.grad = np.zeros(x.data.shape)
        if x.grad is not None:
            x.grad[i] += g

    return Tensor(x.data[i], (x,), _bw)

