"""A frozen copy of the per-step gradient accumulation that ``numerics``
replaced with one GEMM per leaf and lazily made buffers.

``backward`` walks the graph by an iterative postorder, gives every node a
zero buffer and adds each closure's contributions into it; the buffers it
made for constant leaves are dropped at the end, since a constant such as
``SaliencyGrid.s_leaf`` outlives the call and a buffer would make it take
gradients in every later ``backward``.  ``matmul``
adds one outer product per leaf-matrix x vector product at the moment its
closure runs.  The closures of every other op are the library's: with
every buffer already made they add into it as before.  The equivalence
tests patch both functions into ``numerics`` to get the reference
gradients.
"""

import numpy as np

from salcap import numerics as nm


def _toposort(root):
    order = []
    visited = set()
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
    nm.check_recorded()
    order = _toposort(loss)
    constants = [node for node in order if not node._parents and node.grad is None]
    for node in order:
        if node._parents or node.grad is None:
            node.grad = np.zeros(node.data.shape)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
    for node in constants:
        node.grad = None


def matmul(a, b):
    out = nm.Tensor(a.data @ b.data, (a, b))

    def _bw(g):
        if b.data.ndim == 2:
            a.grad += g @ b.data.T
            b.grad += a.data.T @ g
        else:
            a.grad += np.outer(g, b.data)
            b.grad += a.data.T @ g

    out._backward_fn = _bw
    return out


def patch(monkeypatch):
    """Make ``numerics`` accumulate per step for the rest of the test."""
    monkeypatch.setattr(nm, "backward", backward)
    monkeypatch.setattr(nm, "matmul", matmul)
