"""Autodiff core: forward oracles, backward semantics, tape bookkeeping."""
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrep.nn.tensor as T
from seqrep.nn import (
    NonFiniteError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    grad_check,
)


def arrays(draw, shape):
    vals = draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(vals, dtype=np.float64).reshape(shape)


def test_tensor_wraps_float64_contiguous():
    t = Tensor(np.arange(4, dtype=np.int32).reshape(2, 2)[:, ::-1])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_scalar_stays_zero_dim():
    t = Tensor(np.float64(2.5))
    assert t.data.shape == ()
    with Tape():
        s = T.reduce_sum(Tensor(np.ones((2, 3)), requires_grad=True))
    assert s.data.shape == ()
    assert float(s.data) == 6.0


FORWARD_CASES = [
    ("add", lambda a, b: T.add(a, b), lambda a, b: a + b),
    ("subtract", lambda a, b: T.subtract(a, b), lambda a, b: a - b),
    ("multiply", lambda a, b: T.multiply(a, b), lambda a, b: a * b),
    ("maximum", lambda a, b: T.maximum(a, b), np.maximum),
]


@pytest.mark.parametrize("name,op,ref", FORWARD_CASES)
def test_binary_forward_matches_numpy(name, op, ref, rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    np.testing.assert_array_equal(op(a, b).data, ref(a.data, b.data))


def test_broadcasting_matches_numpy(rng):
    a = Tensor(rng.normal(size=(3, 1, 4)))
    b = Tensor(rng.normal(size=(5, 1)))
    np.testing.assert_array_equal(T.add(a, b).data, a.data + b.data)
    np.testing.assert_array_equal(T.multiply(a, b).data, a.data * b.data)


def test_unary_forward_matches_numpy(rng):
    x = rng.normal(size=(4, 3))
    pos = np.abs(x) + 0.5
    np.testing.assert_array_equal(T.tanh(Tensor(x)).data, np.tanh(x))
    np.testing.assert_array_equal(T.relu(Tensor(x)).data, np.maximum(x, 0.0))
    np.testing.assert_array_equal(T.sqrt(Tensor(pos)).data, np.sqrt(pos))
    np.testing.assert_allclose(
        T.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)


def test_sigmoid_is_stable_at_extremes():
    x = Tensor(np.array([-800.0, 800.0]))
    out = T.sigmoid(x).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(1.0)


def test_sigmoid_bits_match_the_two_branch_formula(rng):
    def two_branch(x):
        z = np.exp(-np.abs(x))
        q = 1.0 + z
        return np.where(x >= 0, 1.0 / q, z / q)

    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-17,
                      -1e-17, 1.0, -1.0, 36.7, -36.7, 709.0, -709.0, 745.2,
                      -745.2, 800.0, -800.0, np.inf, -np.inf])
    x = np.concatenate([edges, rng.normal(scale=10.0, size=20_000),
                        rng.uniform(-750.0, 750.0, size=20_000)])
    got = T._sigmoid(x)
    assert got.view(np.int64).tolist() == two_branch(x).view(np.int64).tolist()


def test_matmul_and_transpose(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)))
    b = Tensor(rng.normal(size=(2, 4, 5)))
    np.testing.assert_allclose(T.matmul(a, b).data, a.data @ b.data, rtol=1e-15)
    np.testing.assert_array_equal(
        T.transpose(a, (2, 0, 1)).data, a.data.transpose(2, 0, 1))


def test_reductions_match_numpy(rng):
    x = rng.normal(size=(3, 5))
    for axis in (None, 0, 1):
        np.testing.assert_allclose(
            T.reduce_sum(Tensor(x), axis=axis).data, np.sum(x, axis=axis))
        np.testing.assert_allclose(
            T.reduce_max(Tensor(x), axis=axis).data, np.max(x, axis=axis))


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(4, 7)) * 10)
    out = T.softmax_op(x).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-12)
    ls = T.log_softmax(x).data
    np.testing.assert_allclose(np.exp(ls), out, rtol=1e-12)


def test_gather_concat_slice_reshape(rng):
    table = Tensor(rng.normal(size=(6, 3)))
    idx = np.array([[0, 5], [2, 2]])
    np.testing.assert_array_equal(T.gather(table, idx).data, table.data[idx])
    a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(1, 3)))
    np.testing.assert_array_equal(
        T.concat([a, b], axis=0).data, np.concatenate([a.data, b.data]))
    x = Tensor(rng.normal(size=(4, 5)))
    np.testing.assert_array_equal(
        T.take_slice(x, (slice(1, 3), slice(None, None, 2))).data,
        x.data[1:3, ::2])
    np.testing.assert_array_equal(
        T.reshape(x, (2, 10)).data, x.data.reshape(2, 10))


def test_layer_norm_zero_mean_unit_var(rng):
    x = Tensor(rng.normal(size=(3, 8)) * 4 + 2)
    out = T.layer_norm(x).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), np.ones(3), rtol=1e-3)


def test_backward_simple_chain():
    with Tape() as tape:
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = T.reduce_sum(T.multiply(x, x))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x.node_id_on(tape)], 2 * x.data)


def test_backward_unreachable_leaf_gets_zeros():
    with Tape() as tape:
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        xid = x.node_id_on(tape)
        yid = y.node_id_on(tape)
        loss = T.reduce_sum(x)
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[yid], np.zeros(3))
    np.testing.assert_array_equal(grads[xid], np.ones(3))


def test_backward_accumulates_over_reuse():
    with Tape() as tape:
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = T.reduce_sum(T.add(T.multiply(x, x), x))
    g = backward(tape, loss)[x.node_id_on(tape)]
    np.testing.assert_allclose(g, np.array([5.0]))


def test_backward_requires_loss_on_tape():
    with Tape():
        x = Tensor(np.ones(2), requires_grad=True)
        loss = T.reduce_sum(x)
    with Tape() as other:
        with pytest.raises(TapeError):
            backward(other, loss)


def test_backward_is_bit_deterministic(rng):
    def run():
        r = np.random.default_rng(7)
        with Tape() as tape:
            a = Tensor(r.normal(size=(8, 8)), requires_grad=True)
            b = Tensor(r.normal(size=(8, 8)), requires_grad=True)
            h = T.tanh(T.matmul(a, b))
            loss = T.reduce_sum(T.multiply(h, h))
        grads = backward(tape, loss)
        return grads[a.node_id_on(tape)].copy(), grads[b.node_id_on(tape)].copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_nonfinite_forward_raises():
    with pytest.raises(NonFiniteError):
        T.sqrt(Tensor(np.array([-1.0])))
    with pytest.raises(NonFiniteError):
        T.divide(Tensor(np.ones(2)), Tensor(np.zeros(2)))


def test_no_tape_means_no_tracking():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.relu(x)
    assert y._tape is None and y._node_id is None


def test_maybe_node_id_distinguishes_tapes():
    with Tape() as t1:
        x = Tensor(np.ones(2), requires_grad=True)
        xid = x.node_id_on(t1)
    assert x.maybe_node_id(t1) == xid
    with Tape() as t2:
        assert x.maybe_node_id(t2) is None


def test_nested_tapes_restore_outer():
    with Tape() as outer:
        x = Tensor(np.ones(2), requires_grad=True)
        with Tape() as inner:
            y = T.relu(Tensor(np.ones(2), requires_grad=True))
            assert y._tape is inner
        z = T.relu(x)
        assert z._tape is outer


def test_concat_empty_list_rejected():
    with pytest.raises(ShapeError):
        T.concat([])


def test_grad_check_passes_composite():
    def fn(a, b):
        return T.reduce_sum(T.multiply(T.sigmoid(T.matmul(a, b)), a))

    r = np.random.default_rng(3)
    err = grad_check(fn, [r.normal(size=(3, 3)), r.normal(size=(3, 3))])
    assert err < 1e-6


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ValueError):
        grad_check(lambda a: T.relu(a), [np.ones((2, 2))])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_add_multiply_grads_match_fd(data):
    shape = data.draw(st.sampled_from([(2, 3), (1, 4), (3, 1)]))
    a = data.draw(st.builds(lambda: None).map(lambda _: None))
    r = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    x = r.normal(size=shape)
    y = r.normal(size=shape)

    def fn(tx, ty):
        return T.reduce_sum(T.multiply(T.add(tx, ty), tx))

    assert grad_check(fn, [x, y]) < 1e-7


def _draw_117():
    r = np.random.default_rng(117)
    return r.normal(size=(2, 3)), r.normal(size=(2, 3))


def _add_times_x(tx, ty):
    return T.reduce_sum(T.multiply(T.add(tx, ty), tx))


def test_grad_check_near_zero_gradient_within_rounding():
    """x[0, 0] = -3.8e-5 makes d/dy that small; the central difference's
    rounding (bound 3.2e-10) exceeds the actual error (4.7e-11), and counted
    as error it read 1.23e-6 against the 1e-7 tolerance above."""
    x, y = _draw_117()
    assert abs(x[0, 0]) < 1e-4
    assert grad_check(_add_times_x, [x, y]) < 1e-7


def test_grad_check_flags_small_wrong_gradient(monkeypatch):
    """Discounting rounding does not hide an error far above it."""
    x, y = _draw_117()
    exact = T._VJP["multiply"]

    def off_by_1e8(g, saved, params, shapes):
        return tuple(gi + 1e-8 for gi in exact(g, saved, params, shapes))

    monkeypatch.setitem(T._VJP, "multiply", off_by_1e8)
    assert grad_check(_add_times_x, [x, y]) > 1e-4


def test_mixed_infinities_raise_without_a_runtime_warning():
    # [inf, -inf] sums to NaN; the screen must run where numpy is silenced.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="'multiply'"):
            T.multiply(Tensor(np.array([1e300, -1e300])), Tensor(np.full(2, 1e10)))


# ------------------------------------------------------- tape lifetime

def test_records_keep_shapes_not_outputs():
    with Tape() as tape:
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = T.add(x, x)
        y_data = weakref.ref(y.data)
        T.reduce_sum(y)
    del y
    # Neither add nor reduce_sum's adjoint reads the sum itself.
    assert y_data() is None
    assert [r.shape for r in tape.records] == [(2, 3), ()]


def test_backward_frees_each_record_once_replayed(monkeypatch):
    with Tape() as tape:
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.sigmoid(T.tanh(x))
        loss = T.reduce_sum(y)
    saved_by_sigmoid = weakref.ref(y.data)
    del y
    freed = []
    exact = T._VJP["tanh"]

    def spy(g, saved, params, shapes):
        freed.append(saved_by_sigmoid() is None)
        return exact(g, saved, params, shapes)

    monkeypatch.setitem(T._VJP, "tanh", spy)
    backward(tape, loss)
    assert freed == [True]


def test_second_backward_on_a_tape_is_rejected():
    with Tape() as tape:
        x = Tensor(np.ones(3), requires_grad=True)
        loss = T.reduce_sum(T.tanh(x))
    backward(tape, loss)
    assert tape.records == []
    with pytest.raises(TapeError, match="consumed"):
        backward(tape, loss)


# ------------------------------------------------------- fused attention

def composed_attention(q, k, v, mask, c):
    """The six primitives `attention` replaces, as the transformer used them."""
    scores = T.scalar_multiply(T.matmul(q, T.transpose(k, (0, 2, 1))), c)
    return T.matmul(T.softmax_op(T.add(scores, Tensor(mask))), v)


def attention_and_grads(fn, q, k, v, mask, c, r):
    with Tape() as tape:
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = fn(*ts, mask, c)
        loss = T.reduce_sum(T.multiply(out, Tensor(r)))
    grads = backward(tape, loss)
    return out.data, [grads[t.node_id_on(tape)] for t in ts]


def attention_case(lengths, heads):
    rng = np.random.default_rng((len(lengths), heads))
    b, s, dh = len(lengths), max(lengths) + 1, 3
    # Slot 0 is the CLS position; keys past each row's length are padding.
    valid = np.zeros((b, 1, s))
    valid[:, 0, 1:] = np.where(np.arange(s - 1)[None, :] >= np.array(lengths)[:, None],
                               -1e30, 0.0)
    mask = np.repeat(valid, heads, axis=0)
    q, k, v = (1.5 * rng.normal(size=(b * heads, s, dh)) for _ in range(3))
    r = rng.normal(size=(b * heads, s, dh))
    return q, k, v, mask, 1.0 / np.sqrt(dh), r


ATTENTION_CASES = [([7, 4, 1], 4), ([7, 4, 1], 1), ([5], 1), ([5], 4), ([3, 3], 4)]


def check_attention_against_composition(lengths, heads):
    q, k, v, mask, c, r = attention_case(lengths, heads)
    out, grads = attention_and_grads(T.attention, q, k, v, mask, c, r)
    ref_out, ref_grads = attention_and_grads(composed_attention, q, k, v, mask, c, r)
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


@pytest.mark.parametrize("lengths, heads", ATTENTION_CASES)
def test_attention_matches_its_composition_bit_for_bit(lengths, heads):
    check_attention_against_composition(lengths, heads)


@pytest.mark.parametrize("per_chunk", [5, 1])
@pytest.mark.parametrize("lengths, heads", ATTENTION_CASES)
def test_attention_in_chunks_matches_its_composition_bit_for_bit(lengths, heads,
                                                                 per_chunk, monkeypatch):
    """At budgets of 5 or 1 whole matrices per chunk (12 matrices split
    5 + 5 + 2), the output and the gradients still equal the composition."""
    s = max(lengths) + 1
    monkeypatch.setattr(T, "ATTENTION_CHUNK_BYTES", per_chunk * 8 * s * s + 7)
    check_attention_against_composition(lengths, heads)


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_attention_in_blocks_of_query_rows_agrees_to_rounding(rows, monkeypatch):
    """A matrix over the budget is scored in blocks of query rows, and its
    key and value gradients summed over the blocks."""
    q, k, v, mask, c, r = attention_case([7, 4, 1], 2)
    ref_out, ref_grads = attention_and_grads(composed_attention, q, k, v, mask, c, r)
    monkeypatch.setattr(T, "ATTENTION_CHUNK_BYTES", rows * 8 * q.shape[1])
    assert len(T._attention_chunks(*q.shape[:2], k.shape[1])) == len(q) * -(-8 // rows)
    out, grads = attention_and_grads(T.attention, q, k, v, mask, c, r)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)


def test_attention_records_once_and_passes_no_gradient_to_the_mask(rng):
    with Tape() as tape:
        q, k, v = (Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
                   for _ in range(3))
        mask = Tensor(np.zeros((2, 1, 3)), requires_grad=True)
        loss = T.reduce_sum(T.attention(q, k, v, mask, 0.5))
    assert [r.op for r in tape.records] == ["attention", "reduce_sum"]
    # The record keeps q, k^T, v and the mask; the weights are recomputed.
    assert [a.shape for a in tape.records[0].saved] == [(2, 3, 2), (2, 2, 3), (2, 3, 2),
                                                         (2, 1, 3)]
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[mask.node_id_on(tape)], np.zeros((2, 1, 3)))


def test_attention_rejects_mismatched_shapes(rng):
    q = Tensor(rng.normal(size=(2, 3, 2)))
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, Tensor(rng.normal(size=(2, 3, 4))), q, np.zeros((2, 1, 3)), 1.0)
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, q, Tensor(rng.normal(size=(2, 4, 2))), np.zeros((2, 1, 3)), 1.0)


def test_attention_overflow_names_the_primitive(rng):
    k = Tensor(1e10 * rng.normal(size=(1, 2, 2)))
    v = Tensor(rng.normal(size=(1, 2, 2)))
    mask = np.zeros((1, 1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="'attention'"):
            T.attention(Tensor(np.full((1, 2, 2), 1e300)), k, v, mask, 1.0)
        # One -inf score would vanish in the softmax and leave the output
        # finite; the composed matmul raised on it, and so does the screen.
        big = Tensor(np.full((1, 2, 2), 1e160))
        keys = Tensor(np.array([[[-1e160, -1e160], [1e-3, 0.0]]]))
        with pytest.raises(NonFiniteError, match="'attention'"):
            T.attention(big, keys, v, mask, 1.0)
