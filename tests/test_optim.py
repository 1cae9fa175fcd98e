"""Adam: bias correction against a handwritten reference, API contracts."""
import numpy as np
import pytest

from seqrep.nn import Adam, ShapeError, Tensor


def reference_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with bias correction, fully in numpy."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_seq, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            mhat = m[i] / (1 - beta1 ** t)
            vhat = v[i] / (1 - beta2 ** t)
            params[i] = params[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return params


def test_adam_matches_reference_over_steps(rng):
    shapes = [(3, 4), (5,), (2, 2, 2)]
    init = [rng.normal(size=s) for s in shapes]
    grads_seq = [[rng.normal(size=s) for s in shapes] for _ in range(7)]

    tensors = [Tensor(p.copy(), requires_grad=True) for p in init]
    opt = Adam(tensors, lr=0.01)
    for grads in grads_seq:
        opt.step(grads)

    expected = reference_adam(init, grads_seq, lr=0.01)
    for t, e in zip(tensors, expected):
        np.testing.assert_allclose(t.data, e, rtol=1e-12, atol=1e-15)


def test_first_step_size_is_about_lr(rng):
    p = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([p], lr=0.05)
    opt.step([np.array([1.0, -1.0, 2.0, -0.5])])
    np.testing.assert_allclose(np.abs(p.data), np.full(4, 0.05), rtol=1e-6)


def test_zero_grad_leaves_param_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.step([np.zeros(2)])
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0]))


def test_adam_step_rejects_mismatched_grads():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([p], lr=0.1)
    with pytest.raises(ShapeError, match="1 params but 2 grads"):
        opt.step([np.zeros(3), np.zeros(2)])
    with pytest.raises(ShapeError, match="does not match"):
        opt.step([np.zeros(2)])
    # A rejected step changes neither the parameter nor the step count.
    np.testing.assert_array_equal(p.data, np.ones(3))
    assert opt.t == 0


def test_adam_is_deterministic(rng):
    def run():
        r = np.random.default_rng(11)
        p = Tensor(r.normal(size=(4, 4)), requires_grad=True)
        opt = Adam([p], lr=0.003)
        for _ in range(10):
            opt.step([r.normal(size=(4, 4))])
        return p.data.copy()

    assert np.array_equal(run(), run())
