import zlib

import numpy as np
import numpy.testing as npt
import pytest

from salcap import numerics as nm
from salcap.numerics import ParamStore, ShapeError, Tensor


def matmul_oracle(a, b):
    """Element-by-element triple loop."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def fd_grad(f, x, h=1e-4):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = f()
        flat[i] = saved - h
        fm = f()
        flat[i] = saved
        gf[i] = (fp - fm) / (2 * h)
    return g


def param(x):
    """A leaf that gets a gradient: the one parameter of a new store."""
    return ParamStore([("p", x)])["p"].value


def assert_grads_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    worst = np.max(np.abs(analytic - numeric) / denom)
    assert worst < tol, "max relative error %g" % worst


class TestMatmul:
    def test_identity(self):
        out = nm.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(np.eye(2)))
        npt.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_dot_product(self):
        out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        npt.assert_allclose(nm.matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-12)

    def test_random_sizes_against_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            npt.assert_allclose(
                nm.matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-12
            )

    def test_shape_error_names_operands(self):
        with pytest.raises(ShapeError, match=r"\[2, 3\].*\[2, 2\]"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_matrix_vector(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        npt.assert_allclose(nm.matmul(Tensor(a), Tensor(v)).data, a @ v, atol=1e-12)


class TestShapeErrors:
    @pytest.mark.parametrize("op,a,b,message", [
        (nm.matmul, np.ones((2, 3)), np.float64(2.0), r"\[2, 3\] x \[\]$"),
        (nm.matmul, np.ones((2, 3)), np.ones((3, 3, 2)), r"\[2, 3\] x \[3, 3, 2\]$"),
        (nm.matmul, np.ones(3), np.ones((3, 2)), r"\[3\] x \[3, 2\]$"),
        (nm.matmul, np.ones((2, 3)), np.ones(2), r"\[2, 3\] x \[2\]$"),
        (nm.add, np.ones((2, 3)), np.ones(2), r"^add: mismatched dims \[2, 3\] vs \[2\]$"),
    ], ids=["matrix_x_0d", "matrix_x_3d", "vector_x_matrix", "matrix_x_short_vector",
            "matrix_plus_short_row"])
    def test_names_both_dims(self, op, a, b, message):
        """A ShapeError, not numpy's ValueError or an IndexError, names both operands' dims."""
        with pytest.raises(ShapeError, match=message):
            op(Tensor(a), Tensor(b))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert nm.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_equals_the_formula_bit_for_bit(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 0.375, -2.5, 17.0, -709.0])
        assert nm.sigmoid(Tensor(x)).data.tobytes() == (1.0 / (1.0 + np.exp(-x))).tobytes()
        x = np.array([800.0, -800.0])
        with np.errstate(over="ignore"):  # exp(800) overflows to inf, so sigmoid(-800) is 0
            assert nm.sigmoid(Tensor(x)).data.tobytes() == (1.0 / (1.0 + np.exp(-x))).tobytes()

    def test_sigmoid_of_a_0d_operand(self):
        x = np.array(-2.5)
        assert nm.sigmoid(Tensor(x)).data.tobytes() == (1.0 / (1.0 + np.exp(-x))).tobytes()

    def test_tanh_at_zero(self):
        assert nm.tanh(Tensor([0.0])).data[0] == 0.0

    def test_hadamard(self):
        out = nm.hadamard(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0]))
        npt.assert_array_equal(out.data, [4.0, 10.0, 18.0])

    def test_relu(self):
        npt.assert_array_equal(nm.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_mismatched_dims(self):
        with pytest.raises(ShapeError):
            nm.add(Tensor([1.0]), Tensor([1.0, 2.0]))
        for a, b in [(np.ones((3, 2)), np.ones(3)),  # a vector as long as a column
                     (np.ones(2), np.ones((3, 2))),  # a vector plus a matrix
                     (np.ones((3, 2)), np.ones((2, 2)))]:
            with pytest.raises(ShapeError, match=r"^add: mismatched dims"):
                nm.add(Tensor(a), Tensor(b))
        with pytest.raises(ShapeError, match=r"hadamard: mismatched dims \[1\] vs \[2\]"):
            nm.hadamard(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestSoftmax:
    def test_uniform(self):
        npt.assert_allclose(nm.softmax_vec(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3, atol=1e-15)

    def test_log_inputs(self):
        out = nm.softmax_vec(Tensor(np.log([1.0, 2.0, 3.0])))
        npt.assert_allclose(out.data, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = rng.normal(size=7)
            c = rng.normal()
            npt.assert_allclose(
                nm.softmax_vec(Tensor(e)).data, nm.softmax_vec(Tensor(e + c)).data, atol=1e-12
            )

    def test_simplex_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = nm.softmax_vec(Tensor(rng.normal(size=rng.integers(1, 12)) * 10)).data
            assert abs(y.sum() - 1.0) < 1e-9
            assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_large_logits_equal_the_shifted_formula(self):
        """Logits near +-1000 overflow ``exp`` unless the max is taken off first."""
        e = np.array([1000.0, 999.0, 1001.5, 998.25])
        for logits in (e, -e):
            shifted = np.exp(logits - logits.max())
            npt.assert_array_equal(nm.softmax_vec(Tensor(logits)).data, shifted / shifted.sum())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nm.softmax_vec(Tensor(np.zeros(0)))


class TestPick:
    def test_vector_entry_and_matrix_row(self):
        assert nm.pick(Tensor([4.0, 5.0]), 1).data == 5.0
        npt.assert_array_equal(nm.pick(Tensor(np.arange(6.0).reshape(3, 2)), 2).data, [4.0, 5.0])

    @pytest.mark.parametrize("value,index,error,message", [
        (np.float64(1.0), 0, ShapeError, r"pick needs a vector or a matrix, got dims \[\]"),
        (np.zeros((2, 3, 4)), 0, ShapeError, r"pick needs .*, got dims \[2, 3, 4\]"),
        (np.zeros(3), -1, IndexError, r"pick index -1 out of range for length 3"),
        (np.zeros(3), 3, IndexError, r"pick index 3 out of range for length 3"),
        (np.zeros((4, 2)), -1, IndexError, r"pick index -1 out of range for length 4"),
        (np.zeros((4, 2)), 4, IndexError, r"pick index 4 out of range for length 4"),
    ], ids=["0d", "3d", "vector_below", "vector_at_length", "matrix_below", "matrix_at_length"])
    def test_rejects(self, value, index, error, message):
        with pytest.raises(error, match=message):
            nm.pick(Tensor(value), index)


class TestBackward:
    def test_sigmoid_sum_at_zero(self):
        x = param(np.zeros(5))
        nm.backward(nm.tsum(nm.sigmoid(x)))
        npt.assert_allclose(x.grad, 0.25 * np.ones(5), atol=1e-15)

    def test_matmul_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        w = param(rng.normal(size=(3, 4)))
        x = rng.normal(size=4)
        nm.backward(nm.tsum(nm.matmul(w, Tensor(x))))
        numeric = fd_grad(lambda: np.sum(w.data @ x), w.data)
        assert_grads_close(w.grad, numeric)

    def test_accumulation_doubles(self):
        x = param(np.ones(3))
        loss = nm.tsum(nm.hadamard(x, x))
        nm.backward(loss)
        first = x.grad.copy()
        nm.backward(loss)
        npt.assert_array_equal(x.grad, 2 * first)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            nm.backward(Tensor([1.0, 2.0]))

    def test_reused_operand(self):
        x = param([3.0])
        nm.backward(nm.tsum(nm.hadamard(x, x)))  # d(x^2)/dx = 2x
        npt.assert_allclose(x.grad, [6.0], atol=1e-12)


def _random_composite_cases():
    """(name, builder) pairs; builder(rng) -> (leaf list, loss closure)."""

    def unary(op):
        def build(rng):
            x = param(rng.normal(size=rng.integers(1, 5)))
            return [x], lambda: nm.tsum(op(x))

        return build

    def binary(op):
        def build(rng):
            n = rng.integers(1, 5)
            x, y = param(rng.normal(size=n)), param(rng.normal(size=n))
            return [x, y], lambda: nm.tsum(op(x, y))

        return build

    def build_matmul(rng):
        m, k, n = rng.integers(1, 4, size=3)
        a, b = param(rng.normal(size=(m, k))), param(rng.normal(size=(k, n)))
        return [a, b], lambda: nm.tsum(nm.matmul(a, b))

    def build_softmax(rng):
        x = param(rng.normal(size=rng.integers(1, 6)))
        w = rng.normal(size=x.data.size)
        return [x], lambda: nm.tsum(nm.hadamard(nm.softmax_vec(x), Tensor(w)))

    def build_log_pick(rng):
        x = param(rng.uniform(0.5, 2.0, size=4))
        i = int(rng.integers(0, 4))
        return [x], lambda: nm.log(nm.pick(x, i))

    def build_pick_row(rng):
        m = param(rng.normal(size=(3, 4)))
        i = int(rng.integers(0, 3))
        return [m], lambda: nm.tsum(nm.tanh(nm.pick(m, i)))

    def build_add_row(rng):
        m = param(rng.normal(size=(3, 2)))
        v = param(rng.normal(size=2))
        return [m, v], lambda: nm.tsum(nm.sigmoid(nm.add(m, v)))

    def build_hadamard_by_constant(rng):
        x = param(rng.normal(size=rng.integers(1, 5)))
        c = Tensor(rng.uniform(-2.0, 2.0, size=x.data.size))
        return [x], lambda: nm.tsum(nm.tanh(nm.hadamard(x, c)))

    def build_hadamard_by_scalar(rng):  # the loss normaliser's form
        x = param(rng.normal())
        return [x], lambda: nm.tanh(nm.hadamard(x, Tensor(1.7)))

    def build_transpose(rng):
        m = param(rng.normal(size=(2, 3)))
        return [m], lambda: nm.tsum(nm.matmul(nm.transpose(m), m))

    return [
        ("sigmoid", unary(nm.sigmoid)),
        ("tanh", unary(nm.tanh)),
        ("hadamard_by_scalar", build_hadamard_by_scalar),
        ("hadamard_by_constant", build_hadamard_by_constant),
        ("add", binary(nm.add)),
        ("hadamard", binary(nm.hadamard)),
        ("matmul", build_matmul),
        ("softmax", build_softmax),
        ("log_pick", build_log_pick),
        ("pick_row", build_pick_row),
        ("add_row", build_add_row),
        ("transpose", build_transpose),
    ]


@pytest.mark.parametrize("name,builder", _random_composite_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_gradients_match_finite_differences(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(200):
        leaves, loss_fn = builder(rng)
        nm.backward(loss_fn())
        for leaf in leaves:
            analytic = leaf.grad.copy()
            numeric = fd_grad(lambda: loss_fn().item(), leaf.data)
            assert_grads_close(analytic, numeric)


class TestCheckedMode:
    def test_rejects_nan_when_checked(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([np.nan])

    @staticmethod
    def _log_of_zero():
        """A recorded op whose output is -inf; recording it does not raise."""
        nm.check_recorded()
        with np.errstate(divide="ignore"):
            return nm.log(Tensor([0.0]))

    def test_recorded_value_checked_at_item(self):
        y = self._log_of_zero()
        with pytest.raises(ValueError, match=r"non-finite value from log, output dims \[1\]"):
            y.item()

    def test_recorded_value_checked_at_backward(self):
        y = self._log_of_zero()
        with np.errstate(invalid="ignore"):
            loss = nm.tsum(nm.hadamard(y, Tensor([2.0])))
        with pytest.raises(ValueError, match="non-finite value from log"):
            nm.backward(loss)

    def test_recorded_value_checked_explicitly(self):
        self._log_of_zero()
        with pytest.raises(ValueError, match="non-finite value from log"):
            nm.check_recorded()
        nm.check_recorded()  # the failed check emptied the queue

    def test_first_non_finite_op_is_named(self):
        x = Tensor([1.0, 2.0])
        nm.check_recorded()
        with np.errstate(divide="ignore", invalid="ignore"):
            nm.sigmoid(nm.log(nm.hadamard(x, Tensor([0.0, 0.0]))))
        with pytest.raises(ValueError, match="from log"):
            nm.check_recorded()

    @pytest.mark.parametrize("op", ["matmul", "add", "hadamard"])
    def test_queue_is_bounded(self, op):
        y = self._log_of_zero()
        x = Tensor(np.ones((2, 2)))
        queue = self.QUEUED[op]
        with pytest.raises(ValueError, match="from log"):
            for _ in range(10_000):
                queue(x)
                assert len(nm._PENDING) <= nm._PENDING_LIMIT
        for _ in range(10_000):
            queue(x)
            assert len(nm._PENDING) <= nm._PENDING_LIMIT
        nm.check_recorded()
        assert y.data[0] == -np.inf

    EXEMPT = {
        "transpose": nm.transpose,
        "pick": lambda x: nm.pick(x, 0),
        "relu": nm.relu,
        "sigmoid": nm.sigmoid,
        "tanh": nm.tanh,
        "softmax_vec": lambda x: nm.softmax_vec(nm.pick(x, 1)),
    }
    QUEUED = {
        "matmul": lambda x: nm.matmul(x, x),
        "add": lambda x: nm.add(x, x),
        "hadamard": lambda x: nm.hadamard(x, x),
        "log": lambda x: nm.log(nm.hadamard(x, x)),
        "tsum": nm.tsum,
    }

    @pytest.mark.parametrize("op", sorted(EXEMPT))
    def test_exempt_ops_queue_nothing(self, op):
        """An op that gives finite output for finite input leaves the queue as it was."""
        x = param(np.array([[0.5, -1.0], [2.0, 0.25]]))
        nm.check_recorded()
        self.EXEMPT[op](x)
        assert nm._PENDING == []

    @pytest.mark.parametrize("op", sorted(QUEUED))
    def test_queued_ops_queue_their_outputs(self, op):
        x = param(np.array([[0.5, -1.0], [2.0, 0.25]]))
        nm.check_recorded()
        out = self.QUEUED[op](x)
        assert nm._PENDING[-1] is out
        assert len(nm._PENDING) == (2 if op == "log" else 1)
        nm.check_recorded()


class TestParamStore:
    PAIRS = [("w", np.arange(12.0).reshape(3, 4)), ("b", np.ones(5)), ("s", np.float64(2.0)),
             ("t", -np.arange(12.0).reshape(2, 2, 3))]

    def test_slot_grad_shape_and_zero(self):
        store = ParamStore([("w", np.ones((2, 3)))])
        slot = store["w"]
        assert slot.grad.shape == (2, 3)
        slot.grad[...] = 1.0
        store.zero_grads()
        npt.assert_array_equal(slot.grad, np.zeros((2, 3)))

    def test_slots_view_the_arenas(self):
        store = ParamStore(self.PAIRS)
        assert [slot.name for slot in store.slots()] == [name for name, _ in self.PAIRS]
        for (name, array), slot in zip(self.PAIRS, store.slots()):
            assert np.shares_memory(slot.value.data, store.values), name
            assert np.shares_memory(slot.grad, store.grads), name
            npt.assert_array_equal(slot.value.data, array)
            assert slot.grad.shape == np.shape(array)
        assert not store.grads.any()

    def test_spans_tile_the_arenas_in_slot_order(self):
        store = ParamStore(self.PAIRS)
        for arena, views in ((store.values, [s.value.data for s in store.slots()]),
                             (store.grads, [s.grad for s in store.slots()])):
            end = 0
            for view in views:  # each span starts where the one before it ends
                assert view.flags.c_contiguous
                assert view.ctypes.data - arena.ctypes.data == 8 * end
                end += view.size
            assert end == arena.size
        npt.assert_array_equal(store.values,
                               np.concatenate([np.ravel(array) for _, array in self.PAIRS]))

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamStore([("w", np.zeros(2)), ("w", np.zeros(3))])

    def test_backward_accumulates_into_slots(self):
        store = ParamStore([("w", np.ones(4))])
        w = store["w"].value
        nm.backward(nm.tsum(nm.hadamard(w, w)))
        npt.assert_allclose(store["w"].grad, 2 * np.ones(4))
        store.zero_grads()
        npt.assert_array_equal(store["w"].grad, np.zeros(4))


def rel_err(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


class TestDeferredWeightGradient:
    """matmul(leaf matrix, vector) adds its weight gradient at the end of backward."""

    @staticmethod
    def _unrolled(rng, steps=7, m=5, k=4):
        w = param(rng.normal(size=(m, k)))
        xs = [rng.normal(size=k) for _ in range(steps)]
        cs = [rng.normal(size=m) for _ in range(steps)]
        loss = None
        for x, c in zip(xs, cs):
            term = nm.tsum(nm.hadamard(nm.matmul(w, Tensor(x)), Tensor(c)))
            loss = term if loss is None else nm.add(loss, term)
        expected = np.zeros((m, k))
        for x, c in zip(xs, cs):
            expected += np.outer(c, x)
        return w, loss, expected

    def test_sum_of_outer_products(self):
        w, loss, expected = self._unrolled(np.random.default_rng(10))
        nm.backward(loss)
        assert rel_err(w.grad, expected) <= 1e-12
        assert not nm._DEFERRED

    def test_second_backward_doubles(self):
        w, loss, _ = self._unrolled(np.random.default_rng(11))
        nm.backward(loss)
        first = w.grad.copy()
        nm.backward(loss)
        npt.assert_array_equal(w.grad, 2 * first)

    def test_raising_closure_leaves_nothing_deferred(self, monkeypatch):
        rng = np.random.default_rng(12)
        w0, x0 = rng.normal(size=(3, 4)), rng.normal(size=4)

        def graph():
            w = param(w0)
            hidden = nm.tanh(Tensor(x0))  # its closure runs after matmul's
            return w, hidden, nm.tsum(nm.matmul(w, hidden))

        w, hidden, loss = graph()

        def fail(g):
            raise RuntimeError("closure failed")

        monkeypatch.setattr(hidden, "_backward_fn", fail)
        with pytest.raises(RuntimeError, match="closure failed"):
            nm.backward(loss)
        assert not nm._DEFERRED
        monkeypatch.undo()
        w.grad[...] = 0.0
        nm.backward(loss)
        fresh_w, _, fresh_loss = graph()
        nm.backward(fresh_loss)
        npt.assert_array_equal(w.grad, fresh_w.grad)


class TestProductsKeepTheirBits:
    """``matmul``, its backward and the deferred GEMM call ``ndarray.dot``
    and build outer products by broadcasting; each result equals the plain
    ``@`` / ``np.outer`` / ``np.stack`` formula kept here, bit for bit, at
    desk sizes and at the published ones (L=300 locations, D=512 features,
    hidden 1024, vocabulary 5000)."""

    @pytest.mark.parametrize("m, k, n", [(25, 32, 32), (300, 512, 512)], ids=["desk", "published"])
    def test_matrix_times_transposed_parameter(self, m, k, n):
        """score_path's a @ W_ae^T and both of its backward products."""
        rng = np.random.default_rng(20)
        a = nm.tanh(Tensor(rng.normal(size=(m, k))))  # recorded: takes its gradient as a buffer
        w_t = nm.transpose(param(rng.normal(size=(n, k))))
        out = nm.matmul(a, w_t)
        npt.assert_array_equal(out.data, a.data @ w_t.data)
        g = rng.normal(size=(m, n))
        out._backward_fn(g)
        npt.assert_array_equal(a.grad, g @ w_t.data.T)
        npt.assert_array_equal(w_t.grad, a.data.T @ g)

    @pytest.mark.parametrize("m, k", [(32, 25), (512, 300)], ids=["desk", "published"])
    def test_recorded_matrix_times_vector(self, m, k):
        """attend's a^T alpha: the recorded matrix's gradient is an outer product."""
        rng = np.random.default_rng(21)
        a_t = nm.transpose(nm.tanh(Tensor(rng.normal(size=(k, m)))))
        alpha = nm.softmax_vec(Tensor(rng.normal(size=k)))
        out = nm.matmul(a_t, alpha)
        npt.assert_array_equal(out.data, a_t.data @ alpha.data)
        g = rng.normal(size=m)
        out._backward_fn(g)
        npt.assert_array_equal(a_t.grad, np.outer(g, alpha.data))
        npt.assert_array_equal(alpha.grad, a_t.data.T @ g)

    @pytest.mark.parametrize("m, k", [(32, 32), (64, 32), (1024, 512), (5000, 1024)],
                             ids=["desk_square", "desk", "lstm_published", "output_published"])
    def test_parameter_times_vector(self, m, k):
        """A parameter matrix by a vector at each of 13 steps: the products,
        each vector's gradient and the parameter's one 13-term GEMM."""
        rng = np.random.default_rng(22)
        w = param(rng.normal(size=(m, k)))
        xs = [param(rng.normal(size=k)) for _ in range(13)]
        cs = [rng.normal(size=m) for _ in range(13)]
        loss = None
        for x, c in zip(xs, cs):
            out = nm.matmul(w, x)
            npt.assert_array_equal(out.data, w.data @ x.data)
            term = nm.tsum(nm.hadamard(out, Tensor(c)))  # hands c on as the upstream gradient
            loss = term if loss is None else nm.add(loss, term)
        nm.backward(loss)
        for x, c in zip(xs, cs):
            npt.assert_array_equal(x.grad, w.data.T @ c)
        latest_first = slice(None, None, -1)  # the order in which backward meets the terms
        npt.assert_array_equal(
            w.grad, np.stack(cs[latest_first]).T @ np.stack([x.data for x in xs][latest_first]))

    @pytest.mark.parametrize("n", [25, 300], ids=["desk", "published"])
    def test_softmax_backward_and_tsum(self, n):
        rng = np.random.default_rng(23)
        e = nm.tanh(Tensor(rng.normal(size=n)))
        y = nm.softmax_vec(e)
        g = rng.normal(size=n)
        y._backward_fn(g)
        npt.assert_array_equal(e.grad, y.data * (g - np.dot(g, y.data)))
        assert nm.tsum(e).data == np.sum(e.data)


class TestLazyBuffers:
    def test_shared_subgraph_does_not_leak(self):
        rng = np.random.default_rng(13)
        w0, x0 = rng.normal(size=(3, 4)), rng.normal(size=4)

        def graph():
            w, x = param(w0), param(x0)
            shared = nm.tanh(nm.matmul(w, x))
            two = Tensor(np.full(3, 2.0))
            return w, x, nm.tsum(nm.hadamard(shared, two)), nm.tsum(nm.hadamard(shared, shared))

        w, x, first, second = graph()
        nm.backward(first)
        w.grad[...] = x.grad[...] = 0.0
        nm.backward(second)
        fresh_w, fresh_x, fresh_first, fresh_second = graph()
        nm.backward(fresh_second)
        npt.assert_array_equal(w.grad, fresh_w.grad)
        npt.assert_array_equal(x.grad, fresh_x.grad)
        for loss in (first, second, fresh_first, fresh_second):
            recorded = nm._recording_order(loss)  # tsum, hadamard, tanh, matmul
            assert len(recorded) == 4 and all(t.grad is None for t in recorded)

    @pytest.mark.parametrize(
        "op", ["add", "add_row", "transpose", "matmul", "hadamard", "sigmoid", "tanh", "pick"]
    )
    def test_constant_operand_gets_no_gradient(self, op):
        """A leaf without a gradient buffer is a constant, in either operand slot."""
        rng = np.random.default_rng(15)
        p = param(rng.normal(size=(2, 3)))
        ones = np.ones((2, 3))
        if op == "add":
            constants = [Tensor(rng.normal(size=(2, 3)))]
            outs, expected = [nm.add(p, constants[0]), nm.add(constants[0], p)], 2 * ones
        elif op == "add_row":
            constants = [Tensor(rng.normal(size=3))]
            outs, expected = [nm.add(p, constants[0])], ones
        elif op == "transpose":
            constants = [Tensor(rng.normal(size=(3, 2)))]
            outs, expected = [nm.add(p, nm.transpose(constants[0]))], ones
        elif op == "matmul":  # a constant matrix times p or a row of p; p times a constant vector
            c, v, r = (Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=3)),
                       Tensor(rng.normal(size=(4, 3))))
            constants = [c, v, r]
            outs = [nm.matmul(c, p), nm.matmul(p, v), nm.matmul(r, nm.pick(p, 1))]
            expected = c.data.T @ np.ones((4, 3)) + np.outer(np.ones(2), v.data)
            expected[1] += r.data.sum(axis=0)
        elif op == "hadamard":
            constants = [Tensor(rng.normal(size=(2, 3)))]
            outs = [nm.hadamard(p, constants[0]), nm.hadamard(constants[0], p)]
            expected = 2 * constants[0].data
        elif op in ("sigmoid", "tanh"):  # p times the op of a constant
            constants = [Tensor(rng.normal(size=(2, 3)))]
            squashed = getattr(nm, op)(constants[0])
            outs = [nm.hadamard(p, squashed)]
            expected = squashed.data
        else:  # a row of a constant matrix times a row of p
            constants = [Tensor(rng.normal(size=(4, 3)))]
            outs = [nm.hadamard(nm.pick(constants[0], 1), nm.pick(p, 0))]
            expected = np.zeros((2, 3))
            expected[0] = constants[0].data[1]
        loss = nm.tsum(outs[0])
        for out in outs[1:]:
            loss = nm.add(loss, nm.tsum(out))
        nm.backward(loss)
        assert all(c.grad is None for c in constants)
        assert all(out.grad is None for out in outs)
        assert rel_err(p.grad, expected) <= 1e-12

    @pytest.mark.parametrize("row", [False, True], ids=["same_dims", "row"])
    def test_add_hands_on_the_gradient_it_owns(self, row):
        def recorded(x):  # a recorded operand takes its first contribution as its buffer
            return nm.tanh(Tensor(x))

        a, b = recorded(np.ones((2, 3))), recorded(np.ones(3) if row else np.ones((2, 3)))
        out = nm.add(a, b)
        g = np.arange(6.0).reshape(2, 3)
        out._backward_fn(g)
        assert a.grad is g
        npt.assert_array_equal(b.grad, g.sum(axis=0) if row else g)
        assert not np.shares_memory(b.grad, g)
        if not row:
            x = recorded(np.ones((2, 3)))
            nm.add(x, x)._backward_fn(g.copy())
            npt.assert_array_equal(x.grad, 2 * g)

    @pytest.mark.parametrize("recorded", [False, True], ids=["param", "recorded"])
    def test_row_and_matmul_contributions_sum(self, recorded):
        """pick's row and matmul's outer product meet in one buffer: a
        parameter's (the product deferred) or an intermediate's, which the
        first contribution makes and an ``add`` hands on to the parameter."""
        rng = np.random.default_rng(14)
        table, v, c1, c2 = (rng.normal(size=(4, 3)), rng.normal(size=3),
                            rng.normal(size=3), rng.normal(size=4))
        p = ParamStore([("emb", table)])["emb"].value
        emb = nm.add(p, Tensor(np.zeros((4, 3)))) if recorded else p
        loss = nm.add(nm.tsum(nm.hadamard(nm.pick(emb, 2), Tensor(c1))),
                      nm.tsum(nm.hadamard(nm.matmul(emb, Tensor(v)), Tensor(c2))))
        nm.backward(loss)
        expected = np.outer(c2, v)
        expected[2] += c1
        assert rel_err(p.grad, expected) <= 1e-12

    @pytest.mark.parametrize("op", ["add", "transpose"])
    def test_parameter_gets_exactly_g_added(self, op):
        """A bias after ``add`` adds g itself, a matrix after ``transpose`` g^T."""
        rng = np.random.default_rng(16)
        if op == "add":
            p = param(rng.normal(size=3))
            out = nm.add(nm.tanh(Tensor(rng.normal(size=3))), p)
            g = rng.normal(size=3)
            expected_step = g
        else:
            p = param(rng.normal(size=(2, 3)))
            out = nm.transpose(p)
            g = rng.normal(size=(3, 2))
            expected_step = g.T
        p.grad[...] = rng.normal(size=p.grad.shape)
        expected = p.grad + expected_step
        buffer = p.grad
        out._backward_fn(g.copy())
        assert p.grad is buffer
        npt.assert_array_equal(p.grad, expected)

    def test_recorded_second_operand_gets_its_own_buffer(self):
        """In p + q, q's buffer is not p's: p's later contributions are
        added into p's buffer in place."""
        rng = np.random.default_rng(17)
        wq, wp = param(rng.normal(size=4)), param(rng.normal(size=4))
        q = nm.tanh(wq)
        p = nm.tanh(wp)
        square = nm.hadamard(p, p)  # its closure adds into p's buffer after add's has run
        loss = nm.tsum(nm.add(nm.add(p, q), square))
        nm.backward(loss)
        npt.assert_allclose(wq.grad, 1.0 - q.data ** 2, rtol=1e-15)
        npt.assert_allclose(wp.grad, (1.0 + 2.0 * p.data) * (1.0 - p.data ** 2), rtol=1e-15)
