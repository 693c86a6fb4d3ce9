"""Taped reverse-mode differentiation in a few strokes.

Every salcap operation records itself on an implicit tape; calling
backward() on a scalar walks the tape in reverse and accumulates
gradients into the parameters.  A leaf made with Tensor(x) is a
constant and gets no gradient.
"""

import numpy as np

from salcap import numerics as nm
from salcap.numerics import ParamStore, Tensor

# A tiny expression: loss = sum(sigmoid(W @ x)).  The parameters W and z
# live in a ParamStore, built once from named arrays: their values and
# gradients are views of two flat arenas, store.values and store.grads.
rng = np.random.default_rng(0)
store = ParamStore([("W", rng.normal(size=(3, 4))), ("z", np.zeros(5))])
w, z = store["W"].value, store["z"].value
x = Tensor(rng.normal(size=4))

loss = nm.tsum(nm.sigmoid(nm.matmul(w, x)))
print("loss:", loss.item())

nm.backward(loss)
print("dL/dW:\n", store["W"].grad)

# The well-known special point: sigmoid'(0) = 0.25
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
