import ctypes
import math
import threading
import weakref
import zlib

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent.autodiff import Parameter, Tensor, backward
from kusent.optim import AdamState, adam_step

from gradcheck import grad_check

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
        shared = ad.mul(x, x)
        loss = ad.reduce_sum(shared)
        backward(loss)
        with pytest.raises(RuntimeError, match="rerun the forward pass"):
            backward(loss)
        # a new loss over the consumed graph raises too, before touching any gradient
        with pytest.raises(RuntimeError, match="rerun the forward pass"):
            backward(ad.reduce_sum(ad.add(shared, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_backward_frees_every_closure(self):
        rng = np.random.default_rng(28)
        w, gain, shift = fparam("w", (4, 6)), fparam("g", (6,)), fparam("s", (6,))
        x = Tensor(rng.normal(size=(3, 4)))
        hidden = ad.layer_norm(ad.gelu(ad.matmul(x, w)), gain, shift)
        loss = ad.cross_entropy(ad.dropout(hidden, 0.2, rng), np.array([0, 5, 2]))
        nodes = ad._topo_order(loss._node)
        inner = [node for node in nodes if node.inputs]
        assert len(inner) == 5
        backward(loss)
        assert all(node.rule is None and node.inputs == () for node in nodes)
        assert all(np.any(p.grad != 0) for p in (w, gain, shift))

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


class DrawLog:
    """A generator that logs the number of values of each ``integers`` draw."""

    def __init__(self, rng: np.random.Generator):
        self.bit_generator = rng.bit_generator
        self.rng = rng
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(int(np.prod(size)))
        return self.rng.integers(low, high, size=size, dtype=dtype)


def keep_words(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """The documented keep-mask rule: 16-bit words of one draw against round(rate * 2**16)."""
    return rng.integers(0, 2**16, size=shape, dtype=np.uint16) >= round(rate * 2**16)


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
        np.testing.assert_array_equal(out._node.rule(g)[0], g * dx)

        shifted = x - x.max(axis=-1, keepdims=True)
        s = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        out = ad.softmax(Parameter("x", x))
        np.testing.assert_array_equal(out.data, s)
        np.testing.assert_array_equal(
            out._node.rule(g)[0], (g - (g * s).sum(axis=-1, keepdims=True)) * s
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
        out = ad.dropout(Parameter("x", x), 0.1, np.random.default_rng(27))
        keep = keep_words(np.random.default_rng(27), x.shape, 0.1)
        np.testing.assert_array_equal(out.data, x * keep.astype(np.float32) * (1.0 / 0.9))
        g = np.ones_like(x)
        np.testing.assert_array_equal(out._node.rule(g)[0], g * keep * (1.0 / 0.9))

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("block_values", [ad._BLOCK_VALUES, 12])
    def test_keep_mask_is_one_draw_over_the_masked_array(self, monkeypatch, bits, block_values):
        # dropout's keep mask is integers(0, 2**16, x.shape, uint16) >= round(rate * 2**16);
        # attention's is the same rule on (G, A, r, L) for each group in turn, on its
        # probabilities. Each mask is one draw, whatever the elementwise blocks are.
        monkeypatch.setattr(ad, "_BLOCK_VALUES", block_values)
        rate, factor = 0.3, 1.0 / 0.7
        rng = np.random.default_rng(28)
        x = rng.normal(size=(5, 3, 4)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        got_rng, want_rng = DrawLog(np.random.Generator(bits(29))), np.random.Generator(bits(29))
        out = ad.dropout(Parameter("x", x), rate, got_rng)
        keep = keep_words(want_rng, x.shape, rate)
        np.testing.assert_array_equal(out.data, (x * keep) * np.float32(factor))
        np.testing.assert_array_equal(out._node.rule(g)[0], (g * keep) * np.float32(factor))
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert got_rng.sizes == [x.size]

        # attended counts 33, 45, 33 (two holes in a row of 35) and 56: three groups, the
        # first of rows 0 and 2
        mask = (np.arange(56) < np.array([[33], [45], [35], [56]])).astype(np.int64)
        mask[2, [3, 17]] = 0
        rows = np.flatnonzero(mask)
        groups = ad._attention_groups(mask)
        assert [(list(batch_rows), index.shape[1]) for batch_rows, index, _ in groups] == \
            [([0, 2], 33), ([1], 45), ([3], 56)]
        assert all(query_index is index for _, index, query_index in groups)
        q, k, v = (Parameter(name, rng.normal(size=(len(rows), 4))) for name in "qkv")
        got_rng.sizes.clear()
        out = ad.attention(q, k, v, 2, mask, rate, got_rng)
        packed = np.full(mask.shape, -1)
        packed.flat[rows] = np.arange(len(rows))
        want = np.zeros((len(rows), 4))
        for batch_rows, index, _ in groups:
            length = index.shape[1]
            keep = keep_words(want_rng, (len(batch_rows), 2, length, length), rate)
            for j, b in enumerate(batch_rows):
                src = packed[b][mask[b] == 1]
                qh, kh, vh = (a.data[src].reshape(-1, 2, 2).transpose(1, 0, 2) for a in (q, k, v))
                s = (qh / math.sqrt(2)) @ kh.transpose(0, 2, 1)
                probs = np.exp(s - s.max(axis=-1, keepdims=True))
                probs /= probs.sum(axis=-1, keepdims=True)
                want[src] = (((probs * keep[j]) * factor) @ vh).transpose(1, 0, 2).reshape(-1, 4)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert got_rng.sizes == [2 * 2 * 33 * 33, 2 * 45 * 45, 2 * 56 * 56]

        # the words use every bit of the generator's outputs: MT19937 returns 32-bit outputs
        # in 64-bit words, which a raw view as 32-bit integers would half fill with zeros
        kept = ad._keep_mask((1000, 1000), rate, np.random.Generator(bits(30))).mean()
        assert abs(kept - (1 - rate)) < 0.002

    # attended counts 5, 8, 5 (a hole in a row of 6), 1, 8 and 3: rows 0 and 2, and 1 and 4,
    # share a group
    PROBS_MASK = (np.arange(8) < np.array([[5], [8], [6], [1], [8], [3]])).astype(np.int64)
    PROBS_MASK[2, 2] = 0

    def _probs_case(self):
        """float32 Q and K of ``PROBS_MASK``'s rows in 3 heads of 8, and V whose row at a
        batch row's j-th attended position is e_j in every head."""
        mask, n = self.PROBS_MASK, np.count_nonzero(self.PROBS_MASK)
        packed = np.full(mask.shape, -1)
        packed.flat[np.flatnonzero(mask)] = np.arange(n)
        srcs = [packed[b][mask[b] == 1] for b in range(len(mask))]
        rng = np.random.default_rng(70)
        q, k = (rng.normal(scale=2.0, size=(n, 24)).astype(np.float32) for _ in "qk")
        v = np.zeros((n, 3, 8), np.float32)
        for src in srcs:
            v[src, :, np.arange(len(src))] = 1
        return mask, srcs, q, k, v.reshape(n, 24)

    @pytest.mark.parametrize("train", [False, True])
    def test_attention_output_is_each_rows_softmax(self, train):
        # with e_j values, query i's context in a head is row i of its (dropped out)
        # probabilities over the row's L attended keys, then zeros
        rate, head_dim = 0.3, 8
        mask, srcs, q, k, v = self._probs_case()
        got_rng, want_rng = np.random.default_rng(71), np.random.default_rng(71)
        # a generator is what makes the op drop out
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 3, mask, rate, got_rng if train else None).data
        # the keep masks as documented: one (G, A, L, L) draw per count L, ascending
        counts = mask.sum(axis=1)
        keep = {}
        if train:
            for length in np.unique(counts):
                rows = np.flatnonzero(counts == length)
                keep.update(zip(rows, keep_words(want_rng, (len(rows), 3, length, length), rate)))
        # the test oracle's expressions (tests/test_bert.py)
        scaled_q = ad.scale(Tensor(q), 1.0 / math.sqrt(head_dim))
        for b, src in enumerate(srcs):
            def row_heads(a):
                return ad.transpose(ad.reshape(ad.gather_rows(a, src), (len(src), 3, head_dim)), (1, 0, 2))

            probs = ad.softmax(ad.matmul(row_heads(scaled_q), ad.transpose(row_heads(Tensor(k)), (0, 2, 1))))
            if train:
                probs = ad.scale(ad.mul(probs, Tensor(keep[b])), 1.0 / (1.0 - rate))
            got = out[src].reshape(len(src), 3, head_dim).transpose(1, 0, 2)
            np.testing.assert_array_equal(got[..., :len(src)], probs.data)
            assert not got[..., len(src):].any()
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)

    @pytest.mark.parametrize("train", [False, True])
    def test_attention_row_reads_no_other_rows_keys_or_values(self, train):
        mask, srcs, q, k, v = self._probs_case()

        def run(k, v):
            return ad.attention(Tensor(q), Tensor(k), Tensor(v), 3, mask, 0.3,
                                np.random.default_rng(72) if train else None).data

        base = run(k, v)
        noise = np.random.default_rng(73)
        for changed in srcs:
            k2, v2 = k.copy(), v.copy()
            k2[changed] += noise.normal(size=(len(changed), 24)).astype(np.float32)
            v2[changed] += noise.normal(size=(len(changed), 24)).astype(np.float32)
            out = run(k2, v2)
            others = np.setdiff1d(np.arange(len(q)), changed)
            assert out[others].tobytes() == base[others].tobytes()
            assert (out[changed] != base[changed]).any()

    @pytest.mark.parametrize("train", [False, True])
    def test_attention_query_subset_is_the_full_ops_rows(self, train):
        # rows 0, 2 and 4 query 2, 1 and 3 of their positions; rows 1, 3 and 5 query nothing
        rate, factor = 0.3, 1.0 / 0.7
        mask, srcs, q, k, v = self._probs_case()
        picked = {0: [0, 3], 2: [4], 4: [1, 2, 7]}
        queries = np.concatenate([srcs[b][picked[b]] for b in sorted(picked)])
        groups = ad._attention_groups(mask, queries)
        # in ascending (attended count, query count): (5, 1), (5, 2), (8, 3)
        assert [(list(rows), index.shape[1], query_index.tolist()) for rows, index, query_index in groups] == \
            [([2], 5, [[2]]), ([0], 5, [[0, 1]]), ([4], 8, [[3, 4, 5]])]
        got_rng, want_rng = np.random.default_rng(74), np.random.default_rng(74)
        out = ad.attention(Tensor(q[queries]), Tensor(k), Tensor(v), 3, mask, rate, got_rng if train else None,
                           queries)
        # with e_j values, each query's context is its probabilities, as the full op gives them
        want = ad.attention(Tensor(q), Tensor(k), Tensor(v), 3, mask).data[queries]
        if train:
            for b in (2, 0, 4):
                keep = keep_words(want_rng, (1, 3, len(picked[b]), len(srcs[b])), rate)[0]
                at = np.isin(queries, srcs[b])
                heads = want[at].reshape(-1, 3, 8).transpose(1, 0, 2)
                heads[..., : len(srcs[b])] *= keep
                want[at] = (heads * np.float32(factor)).transpose(1, 0, 2).reshape(-1, 24)
        # float32 rounding only: the scores of fewer queries are other GEMMs
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-7)
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)

    @pytest.mark.parametrize("queries, q_rows, message", [
        ([3, 1], 2, "strictly ascending"),
        ([1, 1], 2, "strictly ascending"),
        ([0, 5], 2, "strictly ascending"),
        ([-1, 2], 2, "strictly ascending"),
        ([[0, 1]], 2, "strictly ascending"),
        ([0, 2], 3, r"q \(3, 4\) does not hold one row of width 4 per query"),
    ])
    def test_attention_rejects_bad_queries(self, queries, q_rows, message):
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
        kv = Parameter("kv", np.zeros((5, 4)))
        with pytest.raises(ValueError, match=message):
            ad.attention(Parameter("q", np.zeros((q_rows, 4))), kv, kv, 2, mask, queries=np.array(queries))

    @pytest.mark.parametrize("mask", [[[1, 1, 1, 0], [1, 0, 0, 0]], [[1, 1, 1, 1], [1, 1, 0, 0]]])
    def test_attention_rejects_rows_that_are_not_the_masks(self, mask):
        q = Parameter("q", np.zeros((5, 4)))
        with pytest.raises(ValueError, match=r"attention: .* are not the mask's rows in 2 heads"):
            ad.attention(q, q, q, 2, np.array(mask))

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


def _no_grad_case(name: str, rng: np.random.Generator) -> Tensor:
    """Op ``name`` on fixed float32 parameters; ``rng`` feeds the ops that draw."""
    r = np.random.default_rng(61)

    def p(label, *shape):
        return Parameter(label, r.normal(size=shape).astype(np.float32))

    a, b, w, bias = p("a", 3, 4), p("b", 3, 4), p("w", 4, 5), p("bias", 5)
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
    rows = np.flatnonzero(mask)
    q, k, v = p("q", len(rows), 4), p("k", len(rows), 4), p("v", len(rows), 4)
    lstm_weights = [p(f"lstm{i}", *shape) for i, shape in enumerate([(3, 2), (2, 2), (2,)] * 8)]
    cases = {
        "add": lambda: ad.add(a, b),
        "sub": lambda: ad.sub(a, b),
        "mul": lambda: ad.mul(a, b),
        "scale": lambda: ad.scale(a, 0.3),
        "matmul": lambda: ad.matmul(a, w),
        "matmul_bias": lambda: ad.matmul(a, w, bias),
        "linear": lambda: ad.linear(a, p("wt", 5, 4), bias),
        "relu": lambda: ad.relu(a),
        "gelu": lambda: ad.gelu(a),
        "tanh": lambda: ad.tanh(a),
        "sigmoid": lambda: ad.sigmoid(a),
        "softmax": lambda: ad.softmax(a),
        "layer_norm": lambda: ad.layer_norm(a, p("gain", 4), p("shift", 4)),
        "dropout_train": lambda: ad.dropout(a, 0.4, rng),
        "embedding_lookup": lambda: ad.embedding_lookup(a, np.array([2, 0, 2])),
        "gather_rows": lambda: ad.gather_rows(a, np.array([2, 0])),
        "scatter_rows": lambda: ad.scatter_rows(a, np.array([4, 0, 2]), 6),
        "attention": lambda: ad.attention(q, k, v, 2, mask),
        "attention_train": lambda: ad.attention(q, k, v, 2, mask, 0.4, rng),
        "attention_queries": lambda: ad.attention(p("q2", 2, 4), k, v, 2, mask, 0.4, rng,
                                                  np.array([0, 4])),
        "lstm_layer": lambda: ad.lstm_layer(p("x", 4, 2, 3), lstm_weights, mask, 2),
        "cross_entropy": lambda: ad.cross_entropy(a, np.array([3, -100, 0])),
        "concat": lambda: ad.concat([a, b], axis=1),
        "stack": lambda: ad.stack([a, b], axis=0),
        "narrow": lambda: ad.narrow(a, 1, 1, 2),
        "reshape": lambda: ad.reshape(a, (4, 3)),
        "transpose": lambda: ad.transpose(a, (1, 0)),
        "reduce_sum": lambda: ad.reduce_sum(a),
        "reduce_mean": lambda: ad.reduce_mean(a),
    }
    return cases[name]()


NO_GRAD_CASES = [
    "add", "sub", "mul", "scale", "matmul", "matmul_bias", "linear", "relu", "gelu", "tanh", "sigmoid", "softmax",
    "layer_norm", "dropout_train", "embedding_lookup", "gather_rows", "scatter_rows",
    "attention", "attention_train", "attention_queries", "lstm_layer", "cross_entropy", "concat", "stack",
    "narrow", "reshape", "transpose", "reduce_sum", "reduce_mean",
]


class TestNoGrad:
    """Under ``no_grad`` every op computes the same array and records no graph."""

    @pytest.mark.parametrize("name", NO_GRAD_CASES)
    def test_same_bits_same_draws_and_no_graph(self, name):
        rng = np.random.default_rng(62)
        graphed = _no_grad_case(name, rng)
        with ad.no_grad():
            bare_rng = np.random.default_rng(62)
            bare = _no_grad_case(name, bare_rng)
        assert graphed._node is not None and graphed._node.inputs
        assert bare._node is None and not bare.requires_grad
        assert bare.dtype == graphed.dtype and bare.shape == graphed.shape
        assert bare.data.tobytes() == graphed.data.tobytes()
        assert bare_rng.bit_generator.state == rng.bit_generator.state

    def test_nesting_and_exceptions_restore_the_outer_setting(self):
        x = Parameter("x", np.array([1.0, -2.0]))

        def records() -> bool:
            return ad.mul(x, x)._node is not None

        with ad.no_grad():
            with ad.no_grad():
                assert not records()
            assert not records()
            with pytest.raises(KeyError):
                with ad.no_grad():
                    raise KeyError("inside the inner block")
            assert not records()
        assert records()
        with pytest.raises(ValueError):
            with ad.no_grad():
                raise ValueError("inside the block")
        # ops after the block record graphs again, and backward runs through them
        backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])

    def test_setting_belongs_to_the_thread_that_made_it(self):
        x = Parameter("x", np.ones(2))
        seen = []
        with ad.no_grad():
            worker = threading.Thread(target=lambda: seen.append(ad.mul(x, x)._node is not None))
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive() and seen == [True]

    def test_backward_of_a_bare_result_touches_no_gradient(self):
        x = Parameter("x", np.array([1.0, -2.0]))
        with ad.no_grad():
            loss = ad.reduce_sum(ad.mul(x, x))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def _held_case(name: str, x: Tensor, leaf) -> Tensor:
    """Op ``name`` with the intermediate ``x`` as one input and leaves from ``leaf(label, *shape)``
    as the others; ``HELD_CASES[name]`` gives ``x``'s shape."""
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
    lstm_mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
    rng = np.random.default_rng(64)
    b = leaf("b", 5, 4)
    cases = {
        "add": lambda: ad.add(x, b),
        "sub": lambda: ad.sub(b, x),
        "mul": lambda: ad.mul(x, b),
        "scale": lambda: ad.scale(x, 0.3),
        "matmul": lambda: ad.matmul(x, leaf("w", 4, 3)),
        "matmul_3d": lambda: ad.matmul(ad.reshape(x, (5, 1, 4)), leaf("w", 4, 3), leaf("bias", 3)),
        "matmul_batched": lambda: ad.matmul(leaf("a", 2, 3, 5), ad.reshape(x, (1, 5, 4))),
        "linear_x": lambda: ad.linear(x, leaf("w", 3, 4), leaf("bias", 3)),
        "linear_w": lambda: ad.linear(leaf("a", 2, 4), x, leaf("bias", 5)),
        "relu": lambda: ad.relu(x),
        "gelu": lambda: ad.gelu(x),
        "tanh": lambda: ad.tanh(x),
        "sigmoid": lambda: ad.sigmoid(x),
        "softmax": lambda: ad.softmax(x),
        "layer_norm": lambda: ad.layer_norm(x, leaf("gain", 4), leaf("shift", 4)),
        "dropout": lambda: ad.dropout(x, 0.4, rng),
        "embedding_lookup": lambda: ad.embedding_lookup(x, np.array([[2, 0, 2], [4, 2, 1]])),
        "gather_rows": lambda: ad.gather_rows(x, np.array([3, 0, 4])),
        "scatter_rows": lambda: ad.scatter_rows(x, np.array([6, 0, 2, 3, 5]), 7),
        "attention_q": lambda: ad.attention(x, leaf("k", 5, 4), leaf("v", 5, 4), 2, mask, 0.4, rng),
        "attention_k": lambda: ad.attention(leaf("q", 5, 4), x, leaf("v", 5, 4), 2, mask, 0.4, rng),
        "attention_v": lambda: ad.attention(leaf("q", 5, 4), leaf("k", 5, 4), x, 2, mask, 0.4, rng),
        "attention_queries": lambda: ad.attention(ad.narrow(x, 0, 0, 2), leaf("k", 5, 4), leaf("v", 5, 4),
                                                  2, mask, 0.4, rng, np.array([1, 3])),
        "lstm_layer": lambda: ad.lstm_layer(
            ad.reshape(x, (4, 2, 3)),
            [leaf(f"lstm{i}", *shape) for i, shape in enumerate([(3, 2), (2, 2), (2,)] * 8)], lstm_mask, 2),
        "cross_entropy": lambda: ad.cross_entropy(x, np.array([3, -100, 0, 1, -100])),
        "concat": lambda: ad.concat([b, x], axis=1),
        "stack": lambda: ad.stack([x, b], axis=0),
        "narrow": lambda: ad.narrow(x, 1, 1, 2),
        "reshape": lambda: ad.reshape(x, (4, 5)),
        "transpose": lambda: ad.transpose(x, (1, 0)),
        "reduce_sum": lambda: ad.reduce_sum(x),
        "reduce_mean": lambda: ad.reduce_mean(x),
    }
    return cases[name]()


# op -> (the intermediate input's shape, whether the op's rule reads that input's array)
HELD_CASES = {
    "add": ((5, 4), False), "sub": ((5, 4), False), "mul": ((5, 4), True), "scale": ((5, 4), False),
    "matmul": ((5, 4), True), "matmul_3d": ((5, 4), True), "matmul_batched": ((5, 4), True),
    "linear_x": ((5, 4), True), "linear_w": ((5, 4), True),
    "relu": ((5, 4), False), "gelu": ((5, 4), True), "tanh": ((5, 4), False), "sigmoid": ((5, 4), False),
    "softmax": ((5, 4), False), "layer_norm": ((5, 4), False), "dropout": ((5, 4), False),
    "embedding_lookup": ((5, 4), False), "gather_rows": ((5, 4), False), "scatter_rows": ((5, 4), False),
    "attention_q": ((5, 4), False), "attention_k": ((5, 4), False), "attention_v": ((5, 4), False),
    "attention_queries": ((5, 4), False), "lstm_layer": ((8, 3), False), "cross_entropy": ((5, 4), False),
    "concat": ((5, 4), False), "stack": ((5, 4), False), "narrow": ((5, 4), False),
    "reshape": ((5, 4), False), "transpose": ((5, 4), False), "reduce_sum": ((5, 4), False),
    "reduce_mean": ((5, 4), False),
}


class TestGraphHoldsOnlyWhatRulesRead:
    """The graph holds nodes and leaves, and each rule only what it reads: an intermediate
    input dies once the caller drops it, while the loss still holds the graph. Its array dies
    too unless the rule reads it. The gradients are the same either way."""

    @staticmethod
    def _run(name: str, drop: bool):
        r = np.random.default_rng(63)
        leaves = []

        def leaf(label, *shape):
            leaves.append(Parameter(label, r.normal(size=shape)))
            return leaves[-1]

        shape, reads = HELD_CASES[name]
        x = ad.scale(leaf("source", *shape), 1.0)  # an intermediate with an array of its own
        out = _held_case(name, x, leaf)
        weights = Tensor(np.random.default_rng(65).normal(size=out.shape))
        loss = ad.reduce_sum(ad.mul(ad.scale(out, 1.0), weights))
        refs = weakref.ref(x), weakref.ref(x.data)
        if drop:
            del x, out
            assert loss._node is not None and not loss._node.consumed
            assert refs[0]() is None, "the dropped input is still alive"
            assert (refs[1]() is None) is not reads, "its array lives on" if not reads else "its array died"
        backward(loss)
        return [p.grad for p in leaves]

    @pytest.mark.parametrize("name", list(HELD_CASES))
    def test_dropped_input_dies_and_gradients_stay(self, name):
        kept, dropped = self._run(name, drop=False), self._run(name, drop=True)
        assert any(g.any() for g in kept)
        for k, d in zip(kept, dropped):
            assert k.tobytes() == d.tobytes()


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
                ad.dropout(a, 0.4, np.random.default_rng(11))
            ),
            [a],
        )

    def test_attention_query_subset(self):
        # rows of 4, 6 (a hole in 7) and 3 attended positions, packed as 0-3, 4-9 and 10-12:
        # rows 0 and 2 query 3 and 2 positions, row 1 none, so its keys and values get zeros
        mask = (np.arange(7) < np.array([[4], [7], [3]])).astype(np.int64)
        mask[1, 2] = 0
        queries = np.array([0, 2, 3, 10, 12])
        q, k, v = fparam("q", (5, 4)), fparam("k", (13, 4)), fparam("v", (13, 4))
        w = Tensor(np.random.default_rng(32).normal(size=(5, 4)))

        def loss_fn():
            out = ad.attention(q, k, v, 2, mask, 0.3, np.random.default_rng(33), queries)
            return ad.reduce_sum(ad.mul(out, w))

        check(loss_fn, [q, k, v])
        backward(loss_fn())
        assert not k.grad[4:10].any() and not v.grad[4:10].any()
        assert k.grad[:4].any() and v.grad[10:].any()

    def test_embedding_lookup(self):
        table = fparam("emb", (7, 3))
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        w = Tensor(np.random.default_rng(5).normal(size=(2, 3, 3)))
        check(lambda: ad.reduce_sum(ad.mul(ad.embedding_lookup(table, ids), w)), [table])
        # a table that is not a leaf gets its rows as a dense gradient
        check(lambda: ad.reduce_sum(ad.mul(ad.embedding_lookup(ad.scale(table, 1.5), ids), w)), [table])

    def test_embedding_lookup_sums_repeats_in_order_into_the_rows_it_read(self):
        # in float32, 1e8 + 1 - 1e8 is 0 in that order and 1 in another: the repeats of id 2 sum as
        # np.add.at sums them into a zero table, and the rows no id names stay zero
        table = Parameter("emb", np.zeros((5, 1), np.float32))
        ids = np.array([2, 4, 2, 2])
        g = np.array([[1e8], [3.0], [1.0], [-1e8]], np.float32)
        want = np.zeros((5, 1), np.float32)
        np.add.at(want, ids, g)
        backward(ad.reduce_sum(ad.mul(ad.embedding_lookup(table, ids), Tensor(g))))
        assert table.grad.tobytes() == want.tobytes() and table.grad[2, 0] == 0.0

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_linear(self, with_bias):
        x, w, bias = fparam("x", (5, 4)), fparam("w", (3, 4)), fparam("bias", (3,))
        g = Tensor(np.random.default_rng(34).normal(size=(5, 3)))
        params = [x, w, bias] if with_bias else [x, w]
        check(lambda: ad.reduce_sum(ad.mul(ad.linear(x, w, bias if with_bias else None), g)), params)

    def test_linear_is_matmul_by_the_transpose(self):
        rng = np.random.default_rng(35)

        def params():
            r = np.random.default_rng(36)
            return [Parameter(n, r.normal(size=sh).astype(np.float32))
                    for n, sh in (("x", (6, 5)), ("w", (7, 5)), ("bias", (7,)))]

        g = Tensor(rng.normal(size=(6, 7)).astype(np.float32))
        lin, mm = params(), params()
        out_lin = ad.linear(*lin)
        out_mm = ad.matmul(mm[0], ad.transpose(mm[1], (1, 0)), mm[2])
        assert out_lin.data.tobytes() == out_mm.data.tobytes()
        backward(ad.reduce_sum(ad.mul(out_lin, g)))
        backward(ad.reduce_sum(ad.mul(out_mm, g)))
        for a, b in zip(lin, mm):
            # the weight's gradient is another GEMM, gᵀ @ x in place of (xᵀ @ g)ᵀ
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-6, atol=1e-6)
        with pytest.raises(ValueError, match=r"linear: x \(6, 5\) and w \(5, 7\)"):
            ad.linear(lin[0], Tensor(np.zeros((5, 7))))
        with pytest.raises(ValueError, match=r"linear: bias \(6,\) does not broadcast"):
            ad.linear(lin[0], lin[1], Tensor(np.zeros(6)))

    def test_gather_and_scatter_rows(self):
        x = fparam("x", (5, 3))
        rows = np.array([0, 2, 3, 7])
        w = Tensor(np.random.default_rng(30).normal(size=(9, 3)))
        v = Tensor(np.random.default_rng(31).normal(size=(4, 3)))
        # rows 1..4 of x placed at rows of 9, then taken back with the pad rows
        check(lambda: ad.reduce_sum(ad.mul(ad.scatter_rows(ad.narrow(x, 0, 1, 4), rows, 9), w)), [x])
        check(lambda: ad.reduce_sum(ad.mul(ad.gather_rows(x, np.array([4, 0, 2, 1])), v)), [x])
        scattered = ad.scatter_rows(Tensor(x.data[:4]), rows, 9)
        np.testing.assert_array_equal(scattered.data[rows], x.data[:4])
        assert not np.delete(scattered.data, rows, axis=0).any()

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
            return ad._record(x.data**2, (x,), lambda g: (g * 3.0 * x.data,))  # wrong rule on purpose

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

    @pytest.mark.parametrize("block_values", [None, 7])
    def test_blocked_update_matches_whole_array_expression_bit_for_bit(self, monkeypatch, block_values):
        # (300, 384) spans two blocks of the default size, the 1-D tensor is one row longer than a
        # block, and 7 values per block cuts every tensor into many blocks with a short last one
        if block_values is not None:
            monkeypatch.setattr(ad, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(22)
        shapes = [(300, 384), (70_001,), (13, 5), (3, 4, 2)]
        params = [Parameter(f"p{i}", rng.normal(size=s).astype(np.float32)) for i, s in enumerate(shapes)]
        state = AdamState(lr=3e-3)
        whole = {p.name: p.data.copy() for p in params}
        whole_m = {p.name: np.zeros_like(p.data) for p in params}
        whole_v = {p.name: np.zeros_like(p.data) for p in params}
        for t in range(1, 6):
            bc1, bc2 = 1.0 - state.beta1**t, 1.0 - state.beta2**t
            for p in params:
                g = rng.normal(size=p.shape).astype(np.float32)
                p.grad[...] = g
                # the unblocked in-place expression, over the whole array at once
                m, v = whole_m[p.name], whole_v[p.name]
                buf = np.multiply(g, 1.0 - state.beta1)
                m *= state.beta1
                m += buf
                np.multiply(g, g, out=g)
                g *= 1.0 - state.beta2
                v *= state.beta2
                v += g
                np.divide(v, bc2, out=g)
                np.sqrt(g, out=g)
                g += state.eps
                np.multiply(m, state.lr / bc1, out=buf)
                buf /= g
                whole[p.name] -= buf
            adam_step(params, state)
            for p in params:
                assert p.data.tobytes() == whole[p.name].tobytes()
                assert state.m[p.name].tobytes() == whole_m[p.name].tobytes()
                assert state.v[p.name].tobytes() == whole_v[p.name].tobytes()
                assert not p.grad.any()

    def test_non_contiguous_data_is_updated(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4).T  # a transposed view
        p = Parameter("p", data)
        p.grad[...] = 1.0
        adam_step([p], AdamState(lr=0.5))
        np.testing.assert_allclose(p.data, data - 0.5, rtol=0, atol=1e-6)

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
        out = ad.dropout(x, 0.5, None)
        assert out is x

    def test_dropout_drop_fraction(self):
        n = 200_000
        x = Tensor(np.ones(n))
        for rate in (0.1, 0.3, 0.5):
            out = ad.dropout(x, rate, np.random.default_rng(3)).data
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
