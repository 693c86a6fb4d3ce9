"""Taped reverse-mode differentiation in a few strokes.

Every salcap operation records itself on an implicit tape; calling
backward() on a scalar walks the tape in reverse and accumulates
gradients into the parameters.  A leaf made with Tensor(x) is a
constant and gets no gradient.
"""

import numpy as np

from salcap import numerics as nm
from salcap.numerics import ParamStore, Tensor

# A tiny expression: loss = sum(sigmoid(W @ x))
rng = np.random.default_rng(0)
store = ParamStore()
w = store.add("W", rng.normal(size=(3, 4)))
x = Tensor(rng.normal(size=4))

loss = nm.tsum(nm.sigmoid(nm.matmul(w, x)))
print("loss:", loss.item())

nm.backward(loss)
print("dL/dW:\n", store["W"].grad)

# The well-known special point: sigmoid'(0) = 0.25
z = store.add("z", np.zeros(5))
nm.backward(nm.tsum(nm.sigmoid(z)))
print("\ngradient of sum(sigmoid(0)):", store["z"].grad)  # 0.25 everywhere
print("gradient of the constant x:", x.grad)  # None

# Gradients accumulate until zeroed, so a second backward doubles them
store.zero_grads()
loss = nm.tsum(nm.hadamard(w, w))
nm.backward(loss)
first = store["W"].grad.copy()
nm.backward(loss)
print("\naccumulation factor (should be 2):", np.mean(store["W"].grad / first))

# Verify one entry against central finite differences
store.zero_grads()
nm.backward(nm.tsum(nm.sigmoid(nm.matmul(w, x))))
h = 1e-4
saved = w.data[0, 0]
w.data[0, 0] = saved + h
f_plus = nm.tsum(nm.sigmoid(nm.matmul(w, x))).item()
w.data[0, 0] = saved - h
f_minus = nm.tsum(nm.sigmoid(nm.matmul(w, x))).item()
w.data[0, 0] = saved
numeric = (f_plus - f_minus) / (2 * h)
print("\nanalytic %.10f vs finite-difference %.10f" % (store["W"].grad[0, 0], numeric))
