"""Dense float64 tensors with a reverse-mode tape.

Forward primitives run as plain numpy when no tape is active (inference
mode). With an active tape, any primitive touching a grad-requiring input
is recorded and `backward` replays the records in reverse. A record keeps
its output's shape and only the arrays its adjoint reads, and `backward`
consumes the tape, dropping each record once replayed, so an intermediate
array lives no longer than the last adjoint that needs it. Everything is
64-bit and single-threaded per tape, so repeated passes are bit-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "apply_primitive",
    "attention",
    "backward",
    "softmax",
    "add",
    "subtract",
    "multiply",
    "scalar_multiply",
    "divide",
    "matmul",
    "tanh",
    "sigmoid",
    "relu",
    "sqrt",
    "maximum",
    "concat",
    "take_slice",
    "gather",
    "reduce_sum",
    "reduce_max",
    "transpose",
    "reshape",
    "softmax_op",
    "log_softmax",
    "layer_norm",
    "gru_scan",
    "gru_scan_time_major",
]


class ShapeError(ValueError):
    """Raised when primitive inputs have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when a forward primitive produces NaN or infinity."""


class TapeError(RuntimeError):
    """Raised on malformed tape usage (no active tape, bad loss node, ...)."""


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense float64 array, optionally tracked on the active tape.

    Data is stored row-major and treated as immutable once wrapped; training
    code mutates parameter arrays only between tapes (inside optimizer steps).
    """

    __slots__ = ("data", "requires_grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d inputs to shape (1,).
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._node_id = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def node_id_on(self, tape: "Tape") -> int:
        """Node id of this tensor on `tape`, registering a leaf if needed."""
        if self._tape is tape and self._node_id is not None:
            return self._node_id
        nid = tape.register_leaf(self)
        self._tape = tape
        self._node_id = nid
        return nid

    def maybe_node_id(self, tape: "Tape") -> Optional[int]:
        """Node id on `tape` if this tensor participated, else None."""
        if self._tape is tape and self._node_id is not None:
            return self._node_id
        return None

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class Record:
    """One applied primitive: enough to run its adjoint."""

    op: str
    input_ids: tuple[int, ...]
    output_id: int
    params: dict
    saved: tuple
    shape: tuple[int, ...]


@dataclass
class Tape:
    """Append-only record of primitive applications, in execution order.

    `backward` empties `records` as it replays them and marks the tape
    consumed; a consumed tape cannot be replayed again.
    """

    records: list[Record] = field(default_factory=list)
    _next_id: int = 0
    leaf_values: dict[int, np.ndarray] = field(default_factory=dict)
    leaf_requires: dict[int, bool] = field(default_factory=dict)
    consumed: bool = False

    def new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def register_leaf(self, tensor: Tensor) -> int:
        nid = self.new_id()
        self.leaf_values[nid] = tensor.data
        self.leaf_requires[nid] = tensor.requires_grad
        return nid

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape stack corrupted: exiting a non-active tape")
        stack.pop()


# Each primitive: forward(params, *arrays) -> (out, saved)
#                 vjp(grad_out, saved, params, input_shapes) -> per-input grads
_FORWARD: dict[str, Callable] = {}
_VJP: dict[str, Callable] = {}


def _register(name: str, forward: Callable, vjp: Callable) -> None:
    _FORWARD[name] = forward
    _VJP[name] = vjp


def _check_finite(op: str, out: np.ndarray) -> None:
    # Cheap screen first: the sum is NaN/inf iff some element is, or the
    # magnitudes are already blowing up, which deserves the same abort.
    s = out.sum()
    if np.isfinite(s):
        return
    if not np.all(np.isfinite(out)):
        bad = int(np.count_nonzero(~np.isfinite(out)))
        raise NonFiniteError(
            f"primitive '{op}' produced {bad} non-finite value(s) "
            f"in output of shape {out.shape}"
        )
    raise NonFiniteError(f"primitive '{op}' output overflowed (sum not finite)")


def apply_primitive(op: str, *inputs: Tensor, **params) -> Tensor:
    """Run one primitive, recording it on the active tape when grads flow."""
    fwd = _FORWARD.get(op)
    if fwd is None:
        raise KeyError(f"unknown primitive '{op}'")
    arrays = tuple(t.data for t in inputs)
    # Non-finite outputs become NonFiniteError below; silence the interim
    # numpy warnings so the typed error is the only signal.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out_data, saved = fwd(params, *arrays)
        _check_finite(op, out_data)

    tape = active_tape()
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if tape is not None and needs:
        input_ids = tuple(t.node_id_on(tape) for t in inputs)
        out_id = tape.new_id()
        out._tape = tape
        out._node_id = out_id
        tape.records.append(
            Record(op, input_ids, out_id, params, saved, out_data.shape)
        )
    return out


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every requires-grad leaf on `tape`.

    Returns a map node-id -> gradient array. Leaves unreachable from the
    loss get explicit zeros. Iteration order is the reverse record order,
    so repeated passes are bit-identical.

    The replay consumes the tape: each record is dropped once its adjoint
    has run, which frees the arrays it saved, and a second `backward` on
    the same tape raises TapeError.
    """
    if loss._tape is not tape or loss._node_id is None:
        raise TapeError("loss tensor is not a node on this tape")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape.consumed:
        raise TapeError("tape already consumed by an earlier backward")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {
        loss._node_id: np.ones_like(loss.data)
    }
    shapes: dict[int, tuple[int, ...]] = {
        nid: v.shape for nid, v in tape.leaf_values.items()
    }
    for rec in tape.records:
        shapes[rec.output_id] = rec.shape

    records = tape.records
    while records:
        rec = records.pop()
        g = grads.pop(rec.output_id, None)
        if g is None:
            continue
        in_shapes = tuple(shapes[i] for i in rec.input_ids)
        contribs = _VJP[rec.op](g, rec.saved, rec.params, in_shapes)
        for nid, contrib in zip(rec.input_ids, contribs):
            if contrib is None:
                continue
            acc = grads.get(nid)
            if acc is None:
                grads[nid] = contrib
            else:
                grads[nid] = acc + contrib

    out: dict[int, np.ndarray] = {}
    for nid, req in tape.leaf_requires.items():
        if not req:
            continue
        g = grads.get(nid)
        if g is None:
            g = np.zeros_like(tape.leaf_values[nid])
        out[nid] = g
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- arithmetic

def _fw_add(params, a, b):
    return a + b, ()


def _vjp_add(g, saved, params, shapes):
    return _unbroadcast(g, shapes[0]), _unbroadcast(g, shapes[1])


def _fw_subtract(params, a, b):
    return a - b, ()


def _vjp_subtract(g, saved, params, shapes):
    return _unbroadcast(g, shapes[0]), _unbroadcast(-g, shapes[1])


def _fw_multiply(params, a, b):
    return a * b, (a, b)


def _vjp_multiply(g, saved, params, shapes):
    a, b = saved
    return _unbroadcast(g * b, shapes[0]), _unbroadcast(g * a, shapes[1])


def _fw_scalar_multiply(params, a):
    return a * params["c"], ()


def _vjp_scalar_multiply(g, saved, params, shapes):
    return (g * params["c"],)


def _fw_divide(params, a, b):
    return a / b, (a, b)


def _vjp_divide(g, saved, params, shapes):
    a, b = saved
    ga = _unbroadcast(g / b, shapes[0])
    gb = _unbroadcast(-g * a / (b * b), shapes[1])
    return ga, gb


def _fw_matmul(params, a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return np.matmul(a, b), (a, b)


def _matmul_unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


def _vjp_matmul(g, saved, params, shapes):
    a, b = saved
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    return _matmul_unbroadcast(ga, shapes[0]), _matmul_unbroadcast(gb, shapes[1])


# ------------------------------------------------------------- nonlinearities

def _fw_tanh(params, x):
    y = np.tanh(x)
    return y, (y,)


def _vjp_tanh(g, saved, params, shapes):
    (y,) = saved
    return (g * (1.0 - y * y),)


def _sigmoid_into(x: np.ndarray, e: np.ndarray, pos: np.ndarray) -> None:
    """Sigmoid written over float64 x, with e (float64) and pos (bool) of
    x's shape as scratch."""
    # exp of -|x| only, so large magnitudes cannot overflow. z is in (0, 1],
    # so the maximum picks 1 (x >= 0) or z exactly: 1 / q or z / q, no branch.
    np.greater_equal(x, 0.0, out=pos)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, pos, out=x)
    e += 1.0
    x /= e


def _sigmoid(x: np.ndarray) -> np.ndarray:
    y = np.array(x, dtype=np.float64)
    _sigmoid_into(y, np.empty_like(y), np.empty(y.shape, dtype=bool))
    return y


def _fw_sigmoid(params, x):
    y = _sigmoid(x)
    return y, (y,)


def _vjp_sigmoid(g, saved, params, shapes):
    (y,) = saved
    return (g * y * (1.0 - y),)


def _fw_relu(params, x):
    # The output, not the input: y > 0 exactly where x > 0, and the product
    # that follows a relu saves y already.
    y = np.maximum(x, 0.0)
    return y, (y,)


def _vjp_relu(g, saved, params, shapes):
    (y,) = saved
    return (g * (y > 0.0),)


def _fw_sqrt(params, x):
    y = np.sqrt(x)
    return y, (y,)


def _vjp_sqrt(g, saved, params, shapes):
    (y,) = saved
    return (g * 0.5 / y,)


def _fw_maximum(params, a, b):
    return np.maximum(a, b), (a, b)


def _vjp_maximum(g, saved, params, shapes):
    a, b = saved
    take_a = a >= b  # ties route to the first argument, deterministically
    ga = _unbroadcast(g * take_a, shapes[0])
    gb = _unbroadcast(g * (~take_a), shapes[1])
    return ga, gb


# ------------------------------------------------------------ shape movement

def _fw_concat(params, *arrays):
    axis = params["axis"]
    return np.concatenate(arrays, axis=axis), tuple(a.shape[axis] for a in arrays)


def _vjp_concat(g, saved, params, shapes):
    axis = params["axis"]
    sizes = saved
    out = []
    start = 0
    for sz in sizes:
        idx = [slice(None)] * g.ndim
        idx[axis] = slice(start, start + sz)
        out.append(g[tuple(idx)])
        start += sz
    return tuple(out)


def _fw_slice(params, x):
    return x[params["key"]], ()


def _vjp_slice(g, saved, params, shapes):
    z = np.zeros(shapes[0], dtype=np.float64)
    z[params["key"]] = g
    return (z,)


def _fw_gather(params, table):
    idx = params["indices"]
    if table.ndim != 2:
        raise ShapeError(f"gather expects a 2-d table, got {table.shape}")
    return table[idx], ()


def _vjp_gather(g, saved, params, shapes):
    z = np.zeros(shapes[0], dtype=np.float64)
    np.add.at(z, params["indices"], g)
    return (z,)


def _fw_reduce_sum(params, x):
    return np.sum(x, axis=params["axis"], keepdims=params["keepdims"]), (x.shape,)


def _vjp_reduce_sum(g, saved, params, shapes):
    (in_shape,) = saved
    if params["axis"] is not None and not params["keepdims"]:
        g = np.expand_dims(g, params["axis"])
    return (np.broadcast_to(g, in_shape).copy(),)


def _fw_reduce_max(params, x):
    return np.max(x, axis=params["axis"], keepdims=params["keepdims"]), (x,)


def _vjp_reduce_max(g, saved, params, shapes):
    (x,) = saved
    axis = params["axis"]
    keepdims = params["keepdims"]
    if axis is None:
        mask = np.zeros(x.shape, dtype=np.float64)
        mask.reshape(-1)[int(np.argmax(x))] = 1.0
        return (mask * g,)
    idx = np.argmax(x, axis=axis)
    mask = np.zeros(x.shape, dtype=np.float64)
    np.put_along_axis(mask, np.expand_dims(idx, axis), 1.0, axis=axis)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return (mask * g,)


def _fw_transpose(params, x):
    return np.transpose(x, params["axes"]).copy(), ()


def _vjp_transpose(g, saved, params, shapes):
    axes = params["axes"]
    if axes is None:
        return (np.transpose(g).copy(),)
    inv = np.argsort(axes)
    return (np.transpose(g, inv).copy(),)


def _fw_reshape(params, x):
    return np.reshape(x, params["shape"]).copy(), ()


def _vjp_reshape(g, saved, params, shapes):
    return (np.reshape(g, shapes[0]).copy(),)


# -------------------------------------------------------- softmax, layer norm

def _softmax_last(x: np.ndarray) -> np.ndarray:
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _fw_softmax(params, x):
    y = _softmax_last(x)
    return y, (y,)


def _vjp_softmax(g, saved, params, shapes):
    (y,) = saved
    dot = np.sum(g * y, axis=-1, keepdims=True)
    return (y * (g - dot),)


def _fw_log_softmax(params, x):
    z = x - np.max(x, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    y = z - lse
    return y, (np.exp(y),)


def _vjp_log_softmax(g, saved, params, shapes):
    (sm,) = saved
    return (g - sm * np.sum(g, axis=-1, keepdims=True),)


def _fw_layer_norm(params, x):
    eps = params["eps"]
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat, (xhat, inv)


def _vjp_layer_norm(g, saved, params, shapes):
    xhat, inv = saved
    n = xhat.shape[-1]
    gm = np.mean(g, axis=-1, keepdims=True)
    gx = np.mean(g * xhat, axis=-1, keepdims=True)
    return ((g - gm - xhat * gx) * inv,)


# ---------------------------------------------------------- masked attention
#
# softmax(q @ k^T * c + mask) @ v as one record that keeps q, k^T, v and the
# mask, not the weights. Forward and adjoint work through the (n, s_q, s_k)
# weights a chunk at a time: as many whole matrices as fit
# ATTENTION_CHUNK_BYTES, or, for one matrix over it, blocks of query rows.
# The adjoint recomputes each chunk's weights with the forward's ops. Both
# repeat, op for op, what the composition transpose, matmul,
# scalar_multiply, add, softmax, matmul computes; numpy's stacked matmul
# makes one product per matrix, so chunks of whole matrices match it bit for
# bit. Blocks of query rows agree with it to rounding, since BLAS may round a
# product row by the number of rows. Training at the default `train.max_len`
# of 100 never makes them; they keep one long history's weights within the
# budget at inference.

ATTENTION_CHUNK_BYTES = 1 << 20


def _attention_chunks(n: int, s_q: int, s_k: int) -> list[tuple[slice, slice]]:
    """(matrices, query rows) slices whose weights fit ATTENTION_CHUNK_BYTES."""
    per_matrix = max(8 * s_q * s_k, 1)
    if per_matrix <= ATTENTION_CHUNK_BYTES:
        step = ATTENTION_CHUNK_BYTES // per_matrix
        return [(slice(lo, lo + step), slice(None)) for lo in range(0, n, step)]
    rows = max(1, ATTENTION_CHUNK_BYTES // (8 * s_k))
    return [(slice(i, i + 1), slice(lo, lo + rows))
            for i in range(n) for lo in range(0, s_q, rows)]


def _attention_weights(q, k_t, mask, c, screen_shape=None):
    """softmax(q @ k_t * c + mask) over one chunk, in one buffer updated in
    place. With `screen_shape`, non-finite scores raise first: a -inf score
    would vanish in the softmax and leave the output finite."""
    w = np.matmul(q, k_t)
    w *= c
    w += mask
    if screen_shape is not None and not np.isfinite(w.sum()):
        raise NonFiniteError(
            f"primitive 'attention' produced non-finite scores of shape {screen_shape}")
    w -= np.max(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.sum(w, axis=-1, keepdims=True)
    return w


def _fw_attention(params, q, k, v, mask):
    if (q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or k.shape[0] != q.shape[0]
            or k.shape[2] != q.shape[2] or v.shape[:2] != k.shape[:2]):
        raise ShapeError(
            f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    n, s_q, s_k = q.shape[0], q.shape[1], k.shape[1]
    k_t = np.transpose(k, (0, 2, 1)).copy()
    scores_mask = np.broadcast_to(mask, (n, s_q, s_k))
    out = np.empty((n, s_q, v.shape[2]))
    for mats, rows in _attention_chunks(n, s_q, s_k):
        w = _attention_weights(q[mats, rows], k_t[mats], scores_mask[mats, rows],
                               params["c"], screen_shape=(n, s_q, s_k))
        out[mats, rows] = np.matmul(w, v[mats])
    return out, (q, k_t, v, mask)


def _vjp_attention(g, saved, params, shapes):
    q, k_t, v, mask = saved
    n, s_q, s_k = q.shape[0], q.shape[1], k_t.shape[2]
    c = params["c"]
    scores_mask = np.broadcast_to(mask, (n, s_q, s_k))
    gq, gk_t, gv = np.empty_like(q), np.empty_like(k_t), np.empty_like(v)
    for mats, rows in _attention_chunks(n, s_q, s_k):
        w = _attention_weights(q[mats, rows], k_t[mats], scores_mask[mats, rows], c)
        g_rows = g[mats, rows]
        gw = np.matmul(g_rows, np.swapaxes(v[mats], -1, -2))
        gv_part = np.matmul(np.swapaxes(w, -1, -2), g_rows)
        # Softmax adjoint w * (gw - dot), then the scale, in the same order.
        dot = np.sum(gw * w, axis=-1, keepdims=True)
        gw -= dot
        gw *= w
        gw *= c
        gq[mats, rows] = np.matmul(gw, np.swapaxes(k_t[mats], -1, -2))
        gk_t_part = np.matmul(np.swapaxes(q[mats, rows], -1, -2), gw)
        # Blocks of query rows sum their key and value gradients.
        if not rows.start:
            gv[mats], gk_t[mats] = gv_part, gk_t_part
        else:
            gv[mats] += gv_part
            gk_t[mats] += gk_t_part
    return gq, np.transpose(gk_t, (0, 2, 1)).copy(), gv, None


# ------------------------------------------------------------------ GRU scan
#
# The whole recurrence h_t = (1 - z) * h_{t-1} + z * h_tilde. The kernel runs
# on time-major (L, B, d) projections, so each step reads and writes
# contiguous (B, d) slabs, and it computes into buffers allocated once per
# call. Forward and backward repeat, op for op, what the per-step
# composition of the primitives above computes and the order in which
# `backward` accumulates its records, so both match it bit for bit.

def _screen_gru_inputs(arrays, batch_axis: int) -> None:
    xz, xr, xh, h0, u_z, u_r, u_h = arrays
    if (xz.ndim != 3 or xr.shape != xz.shape or xh.shape != xz.shape
            or h0.shape != (xz.shape[batch_axis], xz.shape[2])
            or any(u.shape != (xz.shape[2],) * 2 for u in (u_z, u_r, u_h))):
        raise ShapeError(
            f"gru_scan shapes disagree: x {xz.shape} {xr.shape} {xh.shape}, "
            f"h0 {h0.shape}, u {u_z.shape} {u_r.shape} {u_h.shape}")
    # An inf that saturates a gate leaves the output finite and the gradients
    # NaN, so the inputs are screened too, as each per-step op's would be.
    for name, a in zip(("xz", "xr", "xh", "h0", "u_z", "u_r", "u_h"), arrays):
        if not np.isfinite(a.sum()):
            raise NonFiniteError(f"primitive 'gru_scan' input {name} is not finite")


def swap_time(a: np.ndarray) -> np.ndarray:
    """(B, L, d) <-> (L, B, d), contiguous."""
    return np.ascontiguousarray(a.transpose(1, 0, 2))


def _gru_forward(xz, xr, xh, h0, u_z, u_r, u_h, save: bool):
    """States (L, B, d) from time-major projections, and with `save` the
    per-step gates z|r (L, 2, B, d), candidates and r * h for the backward."""
    length, b, d = xz.shape
    out = np.empty((length, b, d))
    if save:
        zr_all, ht_all, rh_all = (np.empty((length, 2, b, d)),
                                  np.empty((length, b, d)), np.empty((length, b, d)))
    else:
        zr_all = ht_all = rh_all = None
        zr, h_tilde, rh = np.empty((2, b, d)), np.empty((b, d)), np.empty((b, d))
    e, pos, tmp = np.empty((2, b, d)), np.empty((2, b, d), dtype=bool), np.empty((b, d))
    h = h0
    for t in range(length):
        if save:
            zr, h_tilde, rh = zr_all[t], ht_all[t], rh_all[t]
        z, r = zr
        # Two products, not one (d, 2d): a one-row product goes through the
        # matrix-vector routine, which rounds a fused width differently.
        np.matmul(h, u_z, out=z)
        np.matmul(h, u_r, out=r)
        z += xz[t]
        r += xr[t]
        _sigmoid_into(zr, e, pos)
        np.multiply(r, h, out=rh)
        np.matmul(rh, u_h, out=h_tilde)
        h_tilde += xh[t]
        np.tanh(h_tilde, out=h_tilde)
        h_next = out[t]
        np.subtract(1.0, z, out=h_next)
        h_next *= h
        np.multiply(z, h_tilde, out=tmp)
        h_next += tmp
        h = h_next
    return out, (zr_all, ht_all, rh_all)


def _gru_backward(g, out, steps, h0, u_z, u_r, u_h):
    """Time-major gradients of the projections, then those of h0 and u."""
    zr_all, ht_all, rh_all = steps
    length, b, d = g.shape
    # The per-step factors that depend on no gradient, for all steps at once.
    one_minus_zr = 1.0 - zr_all
    one_minus_ht2 = 1.0 - ht_all * ht_all
    gxz, gxr, gxh = (np.empty((length, b, d)) for _ in range(3))
    gz, g_rh, tmp = (np.empty((b, d)) for _ in range(3))
    step = np.empty((d, d))
    gh = gu_z = gu_r = gu_h = None
    for t in range(length - 1, -1, -1):
        (z, r), (one_z, one_r), h_tilde, rh = (zr_all[t], one_minus_zr[t], ht_all[t],
                                               rh_all[t])
        h_prev = out[t - 1] if t else h0
        # The output's own gradient arrives after the next step's.
        if gh is None:
            gh = g[t].copy()
        else:
            gh += g[t]
        # gz = gh * h_tilde + (-(gh * h_prev)); a + (-b) is a - b exactly.
        np.multiply(gh, h_tilde, out=gz)
        np.multiply(gh, h_prev, out=tmp)
        gz -= tmp
        g_ah = gxh[t]
        np.multiply(gh, z, out=g_ah)
        g_ah *= one_minus_ht2[t]
        np.matmul(g_ah, u_h.T, out=g_rh)
        g_ar = gxr[t]
        np.multiply(g_rh, h_prev, out=g_ar)
        g_ar *= r
        g_ar *= one_r
        g_az = gxz[t]
        np.multiply(gz, z, out=g_az)
        g_az *= one_z
        if gu_z is None:
            gu_z, gu_r, gu_h = h_prev.T @ g_az, h_prev.T @ g_ar, rh.T @ g_ah
        else:
            for acc, a, ga in ((gu_z, h_prev, g_az), (gu_r, h_prev, g_ar),
                               (gu_h, rh, g_ah)):
                np.matmul(a.T, ga, out=step)
                acc += step
        # Into h_prev in reverse record order: (1 - z) * h, r * h, @ u_r, @ u_z.
        gh *= one_z
        np.multiply(g_rh, r, out=tmp)
        gh += tmp
        np.matmul(g_ar, u_r.T, out=tmp)
        gh += tmp
        np.matmul(g_az, u_z.T, out=tmp)
        gh += tmp
    return gxz, gxr, gxh, gh, gu_z, gu_r, gu_h


# The tape primitive takes batch-major (B, L, d) projections, as the batched
# input matmuls produce them, and moves them to time-major inside.

def _fw_gru_scan(params, xz, xr, xh, h0, u_z, u_r, u_h):
    arrays = (xz, xr, xh, h0, u_z, u_r, u_h)
    _screen_gru_inputs(arrays, batch_axis=0)
    save = params["save"]
    out, steps = _gru_forward(swap_time(xz), swap_time(xr), swap_time(xh),
                              h0, u_z, u_r, u_h, save)
    return swap_time(out), ((out, steps, h0, u_z, u_r, u_h) if save else None)


def _vjp_gru_scan(g, saved, params, shapes):
    grads = _gru_backward(swap_time(g), *saved)
    return tuple(swap_time(a) for a in grads[:3]) + grads[3:]


def gru_scan_time_major(xz: np.ndarray, xr: np.ndarray, xh: np.ndarray,
                        h0: np.ndarray, u_z: np.ndarray, u_r: np.ndarray,
                        u_h: np.ndarray) -> np.ndarray:
    """Untaped GRU states (L, B, d) from time-major projections (L, B, d).

    The inference entry to the same kernel as `gru_scan`, with the same
    shape and finiteness screens; nothing is saved and nothing is recorded.
    """
    arrays = (xz, xr, xh, h0, u_z, u_r, u_h)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _screen_gru_inputs(arrays, batch_axis=1)
        out, _ = _gru_forward(xz, xr, xh, h0, u_z, u_r, u_h, save=False)
    _check_finite("gru_scan", out)
    return out


for _name, _f, _v in [
    ("add", _fw_add, _vjp_add),
    ("subtract", _fw_subtract, _vjp_subtract),
    ("multiply", _fw_multiply, _vjp_multiply),
    ("scalar_multiply", _fw_scalar_multiply, _vjp_scalar_multiply),
    ("divide", _fw_divide, _vjp_divide),
    ("matmul", _fw_matmul, _vjp_matmul),
    ("tanh", _fw_tanh, _vjp_tanh),
    ("sigmoid", _fw_sigmoid, _vjp_sigmoid),
    ("relu", _fw_relu, _vjp_relu),
    ("sqrt", _fw_sqrt, _vjp_sqrt),
    ("maximum", _fw_maximum, _vjp_maximum),
    ("concat", _fw_concat, _vjp_concat),
    ("slice", _fw_slice, _vjp_slice),
    ("gather", _fw_gather, _vjp_gather),
    ("reduce_sum", _fw_reduce_sum, _vjp_reduce_sum),
    ("reduce_max", _fw_reduce_max, _vjp_reduce_max),
    ("transpose", _fw_transpose, _vjp_transpose),
    ("reshape", _fw_reshape, _vjp_reshape),
    ("softmax", _fw_softmax, _vjp_softmax),
    ("log_softmax", _fw_log_softmax, _vjp_log_softmax),
    ("layer_norm", _fw_layer_norm, _vjp_layer_norm),
    ("attention", _fw_attention, _vjp_attention),
    ("gru_scan", _fw_gru_scan, _vjp_gru_scan),
]:
    _register(_name, _f, _v)


# ------------------------------------------------------------ friendly fronts

def add(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("add", _as_tensor(a), _as_tensor(b))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("subtract", _as_tensor(a), _as_tensor(b))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("multiply", _as_tensor(a), _as_tensor(b))


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    return apply_primitive("scalar_multiply", a, c=float(c))


def divide(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("divide", _as_tensor(a), _as_tensor(b))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("matmul", a, b)


def tanh(x: Tensor) -> Tensor:
    return apply_primitive("tanh", x)


def sigmoid(x: Tensor) -> Tensor:
    return apply_primitive("sigmoid", x)


def relu(x: Tensor) -> Tensor:
    return apply_primitive("relu", x)


def sqrt(x: Tensor) -> Tensor:
    return apply_primitive("sqrt", x)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("maximum", a, b)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty list")
    return apply_primitive("concat", *tensors, axis=int(axis))


def take_slice(x: Tensor, key) -> Tensor:
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, (slice, int)) and k is not Ellipsis:
            raise ShapeError("slice supports basic indexing only")
    return apply_primitive("slice", x, key=key)


def gather(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    return apply_primitive("gather", table, indices=idx)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return apply_primitive("reduce_sum", x, axis=axis, keepdims=keepdims)


def reduce_max(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return apply_primitive("reduce_max", x, axis=axis, keepdims=keepdims)


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is not None:
        axes = tuple(int(a) for a in axes)
    return apply_primitive("transpose", x, axes=axes)


def reshape(x: Tensor, shape) -> Tensor:
    return apply_primitive("reshape", x, shape=tuple(int(s) for s in shape))


def softmax_op(x: Tensor) -> Tensor:
    return apply_primitive("softmax", x)


def log_softmax(x: Tensor) -> Tensor:
    return apply_primitive("log_softmax", x)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    return apply_primitive("layer_norm", x, eps=float(eps))


def attention(q: Tensor, k: Tensor, v: Tensor, mask, c: float) -> Tensor:
    """softmax(q @ k^T * c + mask) @ v over (n, s, dh) heads; the additive
    mask broadcasts against the (n, s, s) scores and gets no gradient."""
    return apply_primitive("attention", q, k, v, _as_tensor(mask), c=float(c))


def gru_scan(xz: Tensor, xr: Tensor, xh: Tensor, h0: Tensor,
             u_z: Tensor, u_r: Tensor, u_h: Tensor) -> Tensor:
    """GRU hidden states (B, L, d) from input projections x @ w + b, each
    (B, L, d), the initial state h0 (B, d) and the recurrent weights (d, d).

    The scan itself runs time-major (see `gru_scan_time_major`). Per-step
    activations are kept for the backward pass only when the call is
    recorded on a tape.
    """
    inputs = (xz, xr, xh, h0, u_z, u_r, u_h)
    save = active_tape() is not None and any(t.requires_grad for t in inputs)
    return apply_primitive("gru_scan", *inputs, save=save)


def softmax(v: np.ndarray) -> np.ndarray:
    """Plain-array softmax over the last axis (shift invariant)."""
    return _softmax_last(np.asarray(v, dtype=np.float64))
