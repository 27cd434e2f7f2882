import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from econ.kernel import (
    NonFiniteError,
    ParamStore,
    Tensor,
    adam_step,
    attention_params,
    concat,
    cosine_sim,
    cosine_sim_node,
    finite_diff_check,
    multi_head_attention,
    stack,
)
from econ.kernel.params import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, CHECKPOINT_VERSION

import loop_reference as ref


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTensorOps:
    def test_add_broadcast_gradients(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_matmul_vector_matrix(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]), requires_grad=True)
        (x @ w).sum().backward()
        np.testing.assert_allclose(x.grad, w.value.sum(axis=1))
        np.testing.assert_allclose(w.grad, np.outer(x.value, np.ones(3)))

    def test_getitem_scatter(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        (x[1] * 2.0).sum().backward()
        expected = np.zeros((3, 2))
        expected[1] = 2.0
        np.testing.assert_allclose(x.grad, expected)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.backward()

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError), np.errstate(divide="ignore"):
            Tensor(0.0).reciprocal()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, [1.0, np.nan], [[0.0], [np.inf]]])
    def test_nonfinite_construction_rejected(self, value):
        with pytest.raises(NonFiniteError, match="'tensor'"):
            Tensor(value)

    @pytest.mark.parametrize("op, build", [
        ("reciprocal", lambda: Tensor(np.array([2.0, 0.0])).reciprocal()),
        ("sqrt", lambda: Tensor(np.array([4.0, -1.0])).sqrt()),
        ("matmul", lambda: Tensor(np.full((2, 2), 1e200)) @ Tensor(np.full((2, 2), 1e200))),
    ])
    def test_nonfinite_op_output_rejected(self, op, build):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=f"'{op}'"):
                build()

    def test_requires_grad_inherited_from_second_parent(self):
        a, b = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
        for out in (a + b, a * b, a @ b, concat([a, b]), stack([a, b])):
            assert out.requires_grad
        assert not (a + a).requires_grad

    def test_diamond_graph_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert x.grad == pytest.approx(2 * 2.0 + 3.0)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng().normal(size=(4, 5)))
        np.testing.assert_allclose(x.softmax().value.sum(axis=1), np.ones(4))

    def test_concat_and_stack_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        concat([a, b]).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(2))
        np.testing.assert_allclose(b.grad, np.ones(3))
        c = Tensor(np.ones(2), requires_grad=True)
        (stack([Tensor(a.value), c]) * 2.0).sum().backward()
        np.testing.assert_allclose(c.grad, np.full(2, 2.0))

    def test_composite_gradient_matches_finite_difference(self):
        store = ParamStore()
        store.create("w1", (5, 4), rng(1), fan_in=5)
        store.create("b1", (4,), rng(2))
        store.create("w2", (4,), rng(3), fan_in=4)
        x = rng(4).normal(size=5)

        def loss():
            h = (Tensor(x) @ store["w1"] + store["b1"]).relu()
            z = h.dot(store["w2"]).sigmoid()
            return (z - 0.3).square()

        assert finite_diff_check(loss, store) < 1e-6


class TestArrayOps:
    """Finite-difference checks of the ops that batch over array axes."""

    def _store(self, **shapes):
        store = ParamStore()
        for k, (name, shape) in enumerate(shapes.items()):
            store.create(name, shape, rng(100 + k))
        return store

    def test_batched_matmul(self):
        store = self._store(x=(2, 3, 4), w=(4, 5), v=(4,), b=(1, 5, 2), y=(4,))

        def loss():
            x, w, v, b, y = (store[n] for n in ("x", "w", "v", "b", "y"))
            return (((x @ w) @ b).square().sum()                 # (2,3,4)@(4,5)@(1,5,2)
                    + (x @ v).square().sum()                     # (2,3,4)@(4,)
                    + (y @ x.swapaxes(1, 2)).square().sum()      # (4,)@(2,4,3)
                    + y @ v)                                     # (4,)@(4,)

        assert finite_diff_check(loss, store) < 1e-6

    def test_reshape_swapaxes_and_slices(self):
        store = self._store(x=(2, 3, 4), w=(7, 4))

        def loss():
            x = store["x"].swapaxes(0, 2).reshape(4, 6)
            return ((x @ store["w"][1:]) * store["w"][0]).square().sum()

        assert finite_diff_check(loss, store) < 1e-6

    def test_concat_along_axis(self):
        store = self._store(a=(2, 3), b=(2, 1), c=(2, 2))
        weights = rng(7).normal(size=(2, 6))

        def loss():
            return (concat([store["a"], store["b"], store["c"]], axis=1).square()
                    * weights).sum()

        assert finite_diff_check(loss, store) < 1e-6

    def test_sum_and_mean_over_axis(self):
        store = self._store(x=(3, 4, 2))
        weights = rng(8).normal(size=(3, 2))

        def loss():
            x = store["x"]
            return ((x.sum(axis=1) * weights).square().sum()
                    + (x.mean(axis=-2) * weights).sum() + x.mean(axis=0).square().sum())

        assert finite_diff_check(loss, store) < 1e-6

    def test_masked_mean(self):
        store = self._store(x=(3, 4, 2))
        mask = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]], float)[:, :, None]
        out = store["x"].mean(axis=1, mask=mask)
        x = store["x"].value
        np.testing.assert_allclose(out.value[0], x[0, :2].mean(axis=0))
        np.testing.assert_array_equal(out.value[1], np.zeros(2))  # nothing kept
        np.testing.assert_allclose(out.value[2], x[2].mean(axis=0))

        weights = rng(9).normal(size=(3, 2))

        def loss():
            return (store["x"].mean(axis=1, mask=mask).square() * weights).sum()

        assert finite_diff_check(loss, store) < 1e-6


class TestScalarHelpers:
    def test_sigmoid_known_values(self):
        out = Tensor(np.array([0.0, 710.0, -710.0])).sigmoid().value
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.0)

    def test_cosine_sim_basics(self):
        assert cosine_sim([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_sim([1, 2], [2, 4]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cosine_sim([1, 0], [1, 0, 0])
        with pytest.warns(RuntimeWarning):
            assert cosine_sim([0, 0], [1, 0]) == 0.0

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8),
           st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    def test_cosine_sim_bounded(self, u, v):
        n = min(len(u), len(v))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = cosine_sim(u[:n], v[:n])
        assert -1.0 <= s <= 1.0

    def test_cosine_sim_node_gradient(self):
        store = ParamStore()
        store.create("u", (4,), rng(5))
        v = rng(6).normal(size=4)

        def loss():
            return (1.0 - cosine_sim_node(store["u"], Tensor(v))).square()

        assert finite_diff_check(loss, store) < 1e-6

    def test_cosine_sim_node_rows(self):
        store = ParamStore()
        store.create("u", (3, 4), rng(10))
        v = rng(11).normal(size=4)

        def loss():
            return (1.0 - cosine_sim_node(store["u"], Tensor(v))).square().sum()

        assert finite_diff_check(loss, store) < 1e-6
        # a zero row gives the scalar helper's 0 and no gradient
        store["u"].value[1] = 0.0
        with pytest.warns(RuntimeWarning):
            rows = cosine_sim_node(store["u"], Tensor(v))
        with pytest.warns(RuntimeWarning):
            expected = [cosine_sim(u, v) for u in store["u"].value]
        np.testing.assert_allclose(rows.value, expected, rtol=0, atol=1e-15)
        rows.sum().backward()
        np.testing.assert_array_equal(store["u"].grad[1], np.zeros(4))

    def test_softmax_stability_and_errors(self):
        out = Tensor(np.array([1000.0, 1000.0])).softmax().value
        np.testing.assert_allclose(out, [0.5, 0.5])
        with pytest.raises(ValueError):
            Tensor(np.zeros(0)).softmax()


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_fused_init_matches_per_head_layout(self, heads):
        # the (role, head) column blocks of w_qkv are the per-head matrices
        # that head-by-head creation draws from the same seed, bit for bit
        fused, per_head = ParamStore(), ParamStore()
        attention_params(fused, "enc", rng(3), in_dim=5, heads=heads, model_dim=8)
        ref.attention_params(per_head, "enc", rng(3), in_dim=5, heads=heads, model_dim=8)
        assert [name for name, _ in fused.items()] == ["enc.w_qkv", "enc.w_o"]
        w_qkv = fused["enc.w_qkv"].value
        assert w_qkv.shape == (5, 24)
        head_dim = 8 // heads
        for r, role in enumerate("qkv"):
            for h in range(heads):
                col = r * 8 + h * head_dim
                np.testing.assert_array_equal(w_qkv[:, col:col + head_dim],
                                              per_head[f"enc.w_{role}{h}"].value)
        np.testing.assert_array_equal(fused["enc.w_o"].value, per_head["enc.w_o"].value)

    def test_one_head_sharp_softmax_selects_value(self):
        # identity query/key projections and large inputs: each slot's
        # attention weight on itself approaches 1, so it returns its own value
        store = ParamStore()
        store.add("a.w_qkv", np.hstack([np.eye(2), np.eye(2), np.diag([0.1, 0.14])]))
        store.add("a.w_o", np.eye(2))
        x = Tensor(50.0 * np.eye(2))
        out = multi_head_attention(x, store, heads=1, prefix="a")
        np.testing.assert_allclose(out.value, [[5.0, 0.0], [0.0, 7.0]], atol=1e-9)

    def test_shapes_and_gradient(self):
        store = ParamStore()
        attention_params(store, "enc", rng(7), in_dim=6, heads=2, model_dim=8)
        x = rng(8).normal(size=(3, 6))

        def loss():
            return multi_head_attention(Tensor(x), store, heads=2, prefix="enc").square().sum()

        assert finite_diff_check(loss, store) < 1e-5

    def test_leading_axes_match_head_loop(self):
        store = ParamStore()
        attention_params(store, "enc", rng(12), in_dim=5, heads=3, model_dim=6)
        x = rng(13).normal(size=(2, 3, 4, 5))
        batched = multi_head_attention(Tensor(x), store, heads=3, prefix="enc").value
        assert batched.shape == (2, 3, 4, 6)
        for idx in np.ndindex(2, 3):
            expected = ref.attention(Tensor(x[idx]), store, 3, "enc").value
            np.testing.assert_allclose(batched[idx], expected, rtol=0, atol=1e-12)

    def test_mismatched_inputs_error(self):
        store = ParamStore()
        attention_params(store, "enc", rng(9), in_dim=4, heads=1, model_dim=4)
        with pytest.raises(ValueError, match="w_qkv"):
            multi_head_attention(Tensor(np.ones((2, 3))), store, heads=1, prefix="enc")
        with pytest.raises(ValueError, match="w_qkv"):
            multi_head_attention(Tensor(np.ones(4)), store, heads=1, prefix="enc")


class TestOptimizer:
    def test_adam_first_step_size(self):
        # with bias correction the first step is ~lr in the gradient direction
        store = ParamStore()
        store.add("w", np.array([1.0]))
        store["w"].grad = np.array([0.5])
        adam_step(store, 0.1)
        assert store["w"].value[0] == pytest.approx(0.9, abs=1e-6)
        assert store.step_count == 1
        assert store["w"].grad is None

    def test_missing_grad_is_zero(self):
        store = ParamStore()
        store.add("w", np.array([2.0]))
        adam_step(store, 0.001)
        assert store["w"].value[0] == pytest.approx(2.0)

    def test_nan_grad_rejected(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        store["w"].grad = np.array([np.nan])
        with pytest.raises(ValueError, match="'w'"):
            adam_step(store, 0.001)

    def test_untouched_parameter_is_skipped_bit_exactly(self):
        lr, b1, b2, eps = 0.1, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        store = ParamStore()
        store.create("w", (3, 2), rng(15))
        store.create("frozen", (4,), rng(16))
        values = {n: t.value.copy() for n, t in store.items()}
        moments = {n: (np.zeros_like(t.value), np.zeros_like(t.value)) for n, t in store.items()}
        for step in (1, 2):
            grad = rng(20 + step).normal(size=(3, 2))
            store["w"].grad = grad.copy()
            adam_step(store, lr)
            # the full update for every parameter, untouched ones at zero gradient
            bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for name in values:
                g = grad if name == "w" else np.zeros_like(values[name])
                m, v = moments[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + eps)
                values[name] -= lr * update
        for name, t in store.items():
            assert t.value.tobytes() == values[name].tobytes()
            for got, want in zip(store.moments(name), moments[name]):
                assert got.tobytes() == want.tobytes()

    def test_learning_rate_must_be_positive(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        store["w"].grad = np.array([0.5])
        with pytest.raises(ValueError, match="learning_rate"):
            adam_step(store, 0.0)
        assert store.step_count == 0 and store["w"].value[0] == 1.0

    def test_descends_quadratic(self):
        store = ParamStore()
        store.add("w", np.array([3.0, -2.0]))
        for _ in range(500):
            loss = store["w"].square().sum()
            store.zero_grads()
            loss.backward()
            adam_step(store, 0.05)
        assert np.abs(store["w"].value).max() < 1e-2


class TestParamStore:
    def test_checkpoint_round_trip(self, tmp_path):
        store = ParamStore()
        store.create("a.w", (3, 2), rng(11), fan_in=3)
        store.add("a.b", np.zeros(2))
        store.step_count = 7
        path = tmp_path / "ckpt.json"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.checksum() == store.checksum()
        assert loaded.step_count == 7

    def test_version_gate(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "other", "params": {}, "step_count": 0}))
        with pytest.raises(ValueError, match="version"):
            ParamStore.load(path)
        assert CHECKPOINT_VERSION == "econ-ckpt-v1"

    def test_checksum_tracks_values(self):
        store = ParamStore()
        store.add("w", np.ones(3))
        before = store.checksum()
        store["w"].value[0] = 2.0
        assert store.checksum() != before

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(KeyError):
            store.add("w", np.ones(1))

    def test_clone_is_independent(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        other = store.clone()
        other["w"].value[0] = 5.0
        assert store["w"].value[0] == 1.0
