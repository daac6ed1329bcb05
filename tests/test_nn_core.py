import ctypes
import math
import zlib

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent.autodiff import Parameter, Tensor, backward
from kusent.gradcheck import grad_check
from kusent.optim import AdamState, adam_step

RNG = np.random.default_rng(42)


def fparam(name, shape, rng=None, lo=-1.0, hi=1.0):
    # crc32, not hash(): str hashes change with PYTHONHASHSEED from run to run
    rng = rng or np.random.default_rng(zlib.crc32(name.encode()))
    return Parameter(name, rng.uniform(lo, hi, size=shape).astype(np.float64))


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor(np.array([0.0, 0.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_relu_definition(self):
        out = ad.relu(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_cross_entropy_uniform_logits(self):
        loss = ad.cross_entropy(Tensor(np.zeros((1, 3))), np.array([1]))
        assert abs(loss.item() - math.log(3)) < 1e-12

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.zeros((2, 3)))
        loss = ad.cross_entropy(logits, np.array([1, -100]))
        assert abs(loss.item() - math.log(3)) < 1e-12

    def test_cross_entropy_all_ignored_is_zero(self):
        logits = Parameter("w", np.ones((2, 3)))
        loss = ad.cross_entropy(logits, np.array([-100, -100]))
        assert loss.item() == 0.0
        backward(loss)
        assert not logits.grad.any()

    def test_gelu_reference_values(self):
        # reference: 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715*x^3))) evaluated directly
        for x in (-2.0, -0.5, 0.0, 0.3, 1.7):
            expected = 0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
            got = ad.gelu(Tensor(np.array([x]))).data[0]
            assert abs(got - expected) < 1e-12

    def test_gelu_values_on_all_negative_inputs(self):
        xs = -np.geomspace(1e-3, 8.0, 40)
        expected = np.array(
            [0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3))) for x in xs]
        )
        np.testing.assert_allclose(ad.gelu(Tensor(xs)).data, expected, rtol=1e-12, atol=1e-15)
        got32 = ad.gelu(Tensor(xs.astype(np.float32))).data
        assert got32.dtype == np.float32
        # 1 + tanh(.) cancels for large negative x, so float32 keeps only |x| * 2^-24 absolute
        np.testing.assert_allclose(got32, expected, rtol=1e-5, atol=1e-6)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_shape_error_names_op(self):
        with pytest.raises(ValueError, match="add"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_embedding_rejects_out_of_range(self):
        table = Parameter("emb", np.zeros((4, 2)))
        with pytest.raises(ValueError, match="id 7"):
            ad.embedding_lookup(table, np.array([1, 7]))


class TestBackward:
    def test_sum_of_squares(self):
        x = Parameter("x", np.array([1.0, 2.0]))
        backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_unreachable_param_zero_grad(self):
        x = Parameter("x", np.array([1.0]))
        y = Parameter("y", np.array([3.0]))
        backward(ad.reduce_sum(ad.mul(x, x)))
        assert y.grad == 0.0

    def test_double_backward_rejected(self):
        x = Parameter("x", np.array([1.0]))
        loss = ad.reduce_sum(ad.mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="rerun the forward pass"):
            backward(loss)

    def test_grad_accumulates_until_zeroed(self):
        x = Parameter("x", np.array([3.0]))
        backward(ad.reduce_sum(ad.mul(x, x)))
        backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [12.0])
        x.zero_grad()
        assert x.grad[0] == 0.0

    def test_diamond_graph_accumulates(self):
        x = Parameter("x", np.array([2.0]))
        y = ad.mul(x, x)
        loss = ad.reduce_sum(ad.add(y, y))
        backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        x = Parameter("x", np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            backward(ad.mul(x, x))


class TestFusedAndBlockedOps:
    """Bias fused into matmul and the block-by-block elementwise chains give
    the plain expressions' results bit for bit."""

    @pytest.mark.parametrize("a_shape, b_shape, bias_shape", [
        ((5, 3), (3, 4), (4,)),
        ((2, 5, 3), (3, 4), (4,)),
        ((2, 3, 5, 6), (2, 3, 6, 5), (2, 1, 1, 5)),  # an attention mask on the scores
    ])
    def test_matmul_bias_equals_add_bit_for_bit(self, a_shape, b_shape, bias_shape):
        rng = np.random.default_rng(20)

        def params():
            r = np.random.default_rng(21)
            return [Parameter(n, r.normal(size=sh).astype(np.float32))
                    for n, sh in (("a", a_shape), ("b", b_shape), ("bias", bias_shape))]

        g = Tensor(rng.normal(size=np.broadcast_shapes(a_shape[:-1] + b_shape[-1:], bias_shape))
                   .astype(np.float32))
        fused, plain = params(), params()
        out_fused = ad.matmul(*fused)
        out_plain = ad.add(ad.matmul(plain[0], plain[1]), plain[2])
        np.testing.assert_array_equal(out_fused.data, out_plain.data)
        backward(ad.reduce_sum(ad.mul(out_fused, g)))
        backward(ad.reduce_sum(ad.mul(out_plain, g)))
        for f, p in zip(fused, plain):
            np.testing.assert_array_equal(f.grad, p.grad)

    def test_matmul_constant_bias_gets_no_gradient(self):
        a, b = fparam("a", (2, 3, 4)), fparam("b", (4, 5))
        mask = Tensor(np.zeros((2, 1, 5)))
        backward(ad.reduce_sum(ad.matmul(a, b, mask)))
        assert mask.grad is None
        assert a.grad.any() and b.grad.any()

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)),
                                                  ((2, 2, 3, 4), (2, 2, 4, 5))])
    def test_matmul_bias_gradcheck(self, a_shape, b_shape):
        a, b, bias = fparam("a", a_shape), fparam("b", b_shape), fparam("bias", (b_shape[-1],))
        w = Tensor(np.random.default_rng(22).normal(size=a_shape[:-1] + b_shape[-1:]))
        check(lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b, bias), w)), [a, b, bias])

    def test_matmul_bias_that_does_not_broadcast_rejected(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError, match=r"bias \(3,\) does not broadcast"):
            ad.matmul(a, b, Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="does not broadcast"):
            ad.matmul(a, b, Tensor(np.zeros((5, 2, 4))))

    def test_blocked_ops_equal_whole_array_expressions(self):
        # 210 rows of 500 values: several blocks, the last one short
        rng = np.random.default_rng(23)
        x = rng.normal(scale=3.0, size=(3, 70, 500)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        gain = rng.normal(size=500).astype(np.float32)
        shift = rng.normal(size=500).astype(np.float32)
        c = math.sqrt(2.0 / math.pi)

        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        out = ad.gelu(Parameter("x", x))
        np.testing.assert_array_equal(out.data, 0.5 * x * (1.0 + t))
        dinner = c * (1.0 + 3 * 0.044715 * x**2)
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        np.testing.assert_array_equal(out._backward(g)[0], g * dx)

        shifted = x - x.max(axis=-1, keepdims=True)
        s = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        out = ad.softmax(Parameter("x", x))
        np.testing.assert_array_equal(out.data, s)
        np.testing.assert_array_equal(
            out._backward(g)[0], (g - (g * s).sum(axis=-1, keepdims=True)) * s
        )

        centered = x - x.mean(axis=-1, keepdims=True)
        xhat = centered * (1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-12))
        out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(shift))
        np.testing.assert_array_equal(out.data, xhat * gain + shift)

    def test_blocked_ops_gradcheck_with_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "_BLOCK_VALUES", 1)
        x, gain, shift = fparam("x", (2, 3, 5)), fparam("g", (5,)), fparam("s", (5,))
        w = Tensor(np.random.default_rng(24).normal(size=(2, 3, 5)))
        check(lambda: ad.reduce_sum(ad.mul(ad.gelu(x), w)), [x])
        check(lambda: ad.reduce_sum(ad.mul(ad.softmax(x), w)), [x])
        check(lambda: ad.reduce_sum(ad.mul(ad.layer_norm(x, gain, shift), w)), [x, gain, shift])

    def test_dropout_mask_equals_one_draw_over_the_whole_array(self):
        x = np.random.default_rng(26).normal(size=(3, 70, 500)).astype(np.float32)
        out = ad.dropout(Parameter("x", x), 0.1, np.random.default_rng(27), train=True)
        keep = np.random.default_rng(27).random(x.shape) >= 0.1
        np.testing.assert_array_equal(out.data, x * keep.astype(np.float32) * (1.0 / 0.9))
        g = np.ones_like(x)
        np.testing.assert_array_equal(out._backward(g)[0], g * keep * (1.0 / 0.9))

    def test_cross_entropy_never_reads_ignored_rows(self):
        rng = np.random.default_rng(25)
        logits = Parameter("logits", rng.normal(size=(4, 6)))
        logits.data[1] = np.inf
        logits.data[3] = np.nan
        targets = np.array([2, -100, 5, -100])
        loss = ad.cross_entropy(logits, targets)
        kept = ad.cross_entropy(Tensor(logits.data[[0, 2]]), targets[[0, 2]])
        assert loss.item() == kept.item() and math.isfinite(loss.item())
        backward(loss)
        assert not logits.grad[[1, 3]].any()
        assert np.isfinite(logits.grad).all()


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


def test_freed_activations_stay_in_the_process():
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc's mallinfo2")
    mallinfo2.restype = _MallInfo2
    ad.add(Tensor(np.ones(2)), Tensor(np.ones(2)))  # the first graph node sets the policy
    before = mallinfo2()
    block = np.ones(24 << 18, dtype=np.float32)  # 24 MiB, an activation-sized array
    during = mallinfo2()
    del block
    after = mallinfo2()
    # from the heap, not a private mapping, and not handed back when freed
    assert during.hblks == before.hblks
    assert after.arena == during.arena


def check(loss_fn, params, tol=1e-4):
    report = grad_check(loss_fn, params, tolerance=tol)
    assert report.passed, str(report)


class TestGradCheckPerOp:
    def test_matmul(self):
        a, b = fparam("a", (3, 4)), fparam("b", (4, 2))
        w = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        check(lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)), [a, b])

    def test_batched_matmul_broadcast(self):
        a, b = fparam("a", (2, 3, 4)), fparam("b", (4, 5))
        w = Tensor(np.random.default_rng(1).normal(size=(2, 3, 5)))
        check(lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)), [a, b])

    def test_four_d_matmul_two_d_weight(self):
        a, b = fparam("a", (2, 3, 2, 4)), fparam("b", (4, 3))
        w = Tensor(np.random.default_rng(9).normal(size=(2, 3, 2, 3)))
        check(lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)), [a, b])

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (4, 5)), ((2, 3, 2, 4), (4, 5))])
    def test_two_d_gemm_grads_equal_batched_unbroadcast(self, a_shape, b_shape):
        rng = np.random.default_rng(10)
        a, b = Parameter("a", rng.normal(size=a_shape)), Parameter("b", rng.normal(size=b_shape))
        g = rng.normal(size=a_shape[:-1] + b_shape[-1:])
        backward(ad.reduce_sum(ad.mul(ad.matmul(a, b), Tensor(g))))
        # the rule before the 2-D path: batched products summed down by _unbroadcast
        old_ga = ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a_shape)
        old_gb = ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b_shape)
        np.testing.assert_allclose(a.grad, old_ga, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, old_gb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ad.matmul(a, b).data, a.data @ b.data, rtol=0, atol=1e-12)

    def test_broadcast_add(self):
        a, b = fparam("a", (3, 4)), fparam("b", (4,))
        w = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        check(lambda: ad.reduce_sum(ad.mul(ad.add(a, b), w)), [a, b])

    def test_sub_and_scale(self):
        a, b = fparam("a", (2, 3)), fparam("b", (2, 3))
        check(lambda: ad.reduce_sum(ad.scale(ad.sub(a, b), 1.7)), [a, b])

    def test_relu_away_from_kink(self):
        a = fparam("a", (4, 4))
        a.data += np.where(a.data >= 0, 0.5, -0.5)  # keep |x| > 0.4
        check(lambda: ad.reduce_sum(ad.relu(a)), [a])

    def test_gelu(self):
        a = fparam("a", (3, 5))
        check(lambda: ad.reduce_sum(ad.gelu(a)), [a])

    def test_gelu_all_negative(self):
        a = fparam("a", (4, 6), lo=-4.0, hi=-0.05)
        check(lambda: ad.reduce_sum(ad.gelu(a)), [a])

    def test_tanh_sigmoid(self):
        a = fparam("a", (3, 3))
        check(lambda: ad.reduce_sum(ad.mul(ad.tanh(a), ad.sigmoid(a))), [a])

    def test_softmax(self):
        a = fparam("a", (4, 5))
        w = Tensor(np.random.default_rng(3).normal(size=(4, 5)))
        check(lambda: ad.reduce_sum(ad.mul(ad.softmax(a), w)), [a])

    def test_layer_norm(self):
        x, g, s = fparam("x", (4, 6)), fparam("g", (6,)), fparam("s", (6,))
        w = Tensor(np.random.default_rng(4).normal(size=(4, 6)))
        check(lambda: ad.reduce_sum(ad.mul(ad.layer_norm(x, g, s), w)), [x, g, s])

    def test_dropout_fixed_seed(self):
        a = fparam("a", (6, 6))
        check(
            lambda: ad.reduce_sum(
                ad.dropout(a, 0.4, np.random.default_rng(11), train=True)
            ),
            [a],
        )

    def test_embedding_lookup(self):
        table = fparam("emb", (7, 3))
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        w = Tensor(np.random.default_rng(5).normal(size=(2, 3, 3)))
        check(lambda: ad.reduce_sum(ad.mul(ad.embedding_lookup(table, ids), w)), [table])

    def test_cross_entropy(self):
        logits = fparam("logits", (6, 4))
        targets = np.array([0, 3, -100, 2, 1, -100])
        check(lambda: ad.cross_entropy(logits, targets), [logits])

    def test_concat_stack_narrow(self):
        a, b = fparam("a", (2, 3)), fparam("b", (2, 3))

        def loss_fn():
            c = ad.concat([a, b], axis=1)
            s = ad.stack([a, b], axis=0)
            n = ad.narrow(c, 1, 2, 3)
            return ad.add(ad.reduce_sum(n), ad.reduce_mean(s))

        check(loss_fn, [a, b])

    def test_reshape_transpose(self):
        a = fparam("a", (2, 3, 4))
        w = Tensor(np.random.default_rng(6).normal(size=(4, 6)))
        check(
            lambda: ad.reduce_sum(
                ad.mul(ad.reshape(ad.transpose(a, (2, 0, 1)), (4, 6)), w)
            ),
            [a],
        )

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(8)
        w1, b1 = fparam("w1", (5, 8)), fparam("b1", (8,))
        w2, b2 = fparam("w2", (8, 3)), fparam("b2", (3,))
        x = Tensor(rng.normal(size=(10, 5)))
        targets = rng.integers(0, 3, size=10)

        def loss_fn():
            h = ad.relu(ad.add(ad.matmul(x, w1), b1))
            logits = ad.add(ad.matmul(h, w2), b2)
            return ad.cross_entropy(logits, targets)

        check(loss_fn, [w1, b1, w2, b2])

    def test_corrupted_backward_fails(self):
        a = fparam("a", (3, 3))

        def bad_square(x):
            out = Tensor(x.data**2, requires_grad=True)
            out._parents = (x,)
            out._backward = lambda g: (g * 3.0 * x.data,)  # wrong rule on purpose
            return out

        report = grad_check(lambda: ad.reduce_sum(bad_square(a)), [a])
        assert not report.passed

    def test_float32_params_rejected(self):
        a = Parameter("a", np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: ad.reduce_sum(a), [a])


class TestAdam:
    def test_single_step_matches_hand_recurrences(self):
        # independently evaluate m/v/bias-correction for one step
        lr, b1, b2, eps, g0, x0 = 1e-5, 0.9, 0.999, 1e-8, 0.5, 1.0
        m = (1 - b1) * g0
        v = (1 - b2) * g0 * g0
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = x0 - lr * m_hat / (math.sqrt(v_hat) + eps)

        p = Parameter("p", np.array([x0]))
        p.grad[:] = g0
        state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
        adam_step([p], state)
        np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)
        assert state.step_count == 1
        assert p.grad[0] == 0.0

    def test_two_steps_match_hand_recurrences(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        grads = [0.5, -0.3]
        x = 1.0
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

        p = Parameter("p", np.array([1.0]))
        state = AdamState(lr=lr)
        for g in grads:
            p.grad[:] = g
            adam_step([p], state)
        np.testing.assert_allclose(p.data, [x], rtol=0, atol=1e-15)

    def test_in_place_update_matches_plain_expression_bit_for_bit(self):
        rng = np.random.default_rng(21)
        shapes = [(7, 5), (5,), (3, 4, 2)]
        params = [Parameter(f"p{i}", rng.normal(size=s).astype(np.float32)) for i, s in enumerate(shapes)]
        state = AdamState(lr=3e-3)
        ref = {p.name: p.data.copy() for p in params}
        ref_m = {p.name: np.zeros_like(p.data) for p in params}
        ref_v = {p.name: np.zeros_like(p.data) for p in params}
        b1, b2, eps = state.beta1, state.beta2, state.eps
        for t in range(1, 6):
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for p in params:
                g = rng.normal(size=p.shape).astype(np.float32)
                p.grad[...] = g
                m, v = ref_m[p.name], ref_v[p.name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                ref[p.name] -= (state.lr / bc1) * m / (np.sqrt(v / bc2) + eps)
            adam_step(params, state)
            for p in params:
                assert p.data.tobytes() == ref[p.name].tobytes()
                assert state.m[p.name].tobytes() == ref_m[p.name].tobytes()
                assert state.v[p.name].tobytes() == ref_v[p.name].tobytes()
                assert not p.grad.any()

    def test_zero_grad_is_fixed_point(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        state = AdamState(lr=0.1)
        adam_step([p], state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_identical_models_stay_identical(self):
        rng_a = np.random.default_rng(1)
        pa = Parameter("p", rng_a.normal(size=(4, 4)))
        pb = Parameter("p", pa.data.copy())
        sa, sb = AdamState(lr=1e-2), AdamState(lr=1e-2)
        for step in range(5):
            g = np.random.default_rng(100 + step).normal(size=(4, 4))
            pa.grad[:] = g
            pb.grad[:] = g
            adam_step([pa], sa)
            adam_step([pb], sb)
        np.testing.assert_array_equal(pa.data, pb.data)


class TestProperties:
    def test_softmax_rows_sum_to_one_and_positive(self):
        x = Tensor(np.random.default_rng(0).normal(scale=5, size=(50, 17)))
        s = ad.softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(50), atol=1e-6)
        assert (s > 0).all()

    def test_layer_norm_statistics(self):
        h = 64
        x = Tensor(np.random.default_rng(1).normal(loc=3.0, scale=2.0, size=(40, h)))
        gain = Tensor(np.ones(h))
        shift = Tensor(np.zeros(h))
        out = ad.layer_norm(x, gain, shift).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-5
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_dropout_eval_identity(self):
        x = Tensor(np.random.default_rng(2).normal(size=(100,)))
        out = ad.dropout(x, 0.5, None, train=False)
        assert out is x

    def test_dropout_drop_fraction(self):
        n = 200_000
        x = Tensor(np.ones(n))
        for rate in (0.1, 0.3, 0.5):
            out = ad.dropout(x, rate, np.random.default_rng(3), train=True).data
            dropped = float((out == 0).mean())
            assert abs(dropped - rate) < 0.01
            kept = out[out != 0]
            np.testing.assert_allclose(kept, 1.0 / (1.0 - rate))

    def test_training_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            w = Parameter("w", rng.normal(size=(5, 3)).astype(np.float32))
            x = Tensor(rng.normal(size=(20, 5)).astype(np.float32))
            targets = rng.integers(0, 3, size=20)
            state = AdamState(lr=1e-2)
            losses = []
            for _ in range(10):
                loss = ad.cross_entropy(ad.matmul(x, w), targets)
                backward(loss)
                adam_step([w], state)
                losses.append(loss.item())
            return losses, w.data.copy()

        la, wa = run()
        lb, wb = run()
        assert la == lb
        np.testing.assert_array_equal(wa, wb)
