"""Tests for AdamW, LARS, SGD, schedules, and gradient clipping."""

import tracemalloc

import numpy as np
import pytest

from repro.models.module import Parameter
from repro.optim import LARS, AdamW, CosineWithWarmup
from tests.test_optim.grad_clip import clip_grad_norm, global_grad_norm
from tests.test_optim.sgd import SGD


def _param(rng, shape=(4, 3)) -> Parameter:
    p = Parameter(rng.standard_normal(shape))
    p.grad[...] = rng.standard_normal(shape)
    return p


class TestOptimizerBase:
    def test_requires_params(self):
        with pytest.raises(ValueError, match="at least one"):
            SGD([], lr=0.1)

    def test_negative_lr_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            SGD([_param(rng)], lr=-1)

    def test_zero_grad(self, rng):
        p = _param(rng)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert np.all(p.grad == 0)

    def test_state_bytes(self, rng):
        p = _param(rng, (10,))
        opt = AdamW([p])
        opt.step()
        # Two moments at float64.
        assert opt.state_bytes() == 2 * 10 * 8


class TestSGD:
    def test_vanilla_update(self, rng):
        p = _param(rng)
        data0, grad = p.data.copy(), p.grad.copy()
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, data0 - 0.1 * grad)

    def test_momentum_accumulates(self, rng):
        p = _param(rng, (3,))
        p.data[...] = 0.0
        p.grad[...] = 1.0
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # mu = 1 -> p = -1
        opt.step()  # mu = 1.9 -> p = -2.9
        np.testing.assert_allclose(p.data, -2.9)

    def test_weight_decay_coupled(self, rng):
        p = _param(rng, (3,))
        p.data[...] = 2.0
        p.grad[...] = 0.0
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0)


class TestAdamW:
    def test_first_step_is_signed_lr(self, rng):
        """With bias correction, step 1 moves ~lr in the -sign(g) direction."""
        p = _param(rng, (5,))
        g = p.grad.copy()
        data0 = p.data.copy()
        AdamW([p], lr=1e-2, weight_decay=0.0).step()
        np.testing.assert_allclose(
            p.data, data0 - 1e-2 * np.sign(g), atol=1e-6
        )

    def test_decoupled_weight_decay(self, rng):
        p = _param(rng, (3,))
        p.data[...] = 4.0
        p.grad[...] = 0.0
        AdamW([p], lr=0.1, weight_decay=0.5).step()
        # Pure decay: p *= (1 - lr*wd); no Adam movement for zero grad.
        np.testing.assert_allclose(p.data, 4.0 * (1 - 0.1 * 0.5))

    def test_matches_reference_implementation(self, rng):
        """Cross-check several steps against a literal PyTorch-AdamW port."""
        p = Parameter(rng.standard_normal(6))
        ref = p.data.copy()
        m = np.zeros(6)
        v = np.zeros(6)
        lr, b1, b2, eps, wd = 1e-3, 0.9, 0.95, 1e-8, 0.05
        opt = AdamW([p], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        for t in range(1, 6):
            g = rng.standard_normal(6)
            p.grad[...] = g
            opt.step()
            ref *= 1 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref -= lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(p.data, ref, atol=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scratch_update_equals_the_allocating_expression(
        self, rng, dtype, weight_decay
    ):
        """``_update`` runs its temporaries through two scratch rows; the
        operations and their order are the textbook expression's, so the
        bits are too — slots of every rank, mixed sizes, 5 steps."""
        shapes = [(), (1,), (7,), (3, 5), (2, 3, 4), (1, 1)]
        ps = [Parameter(rng.standard_normal(sh).astype(dtype)) for sh in shapes]
        refs = [p.data.copy() for p in ps]
        ms = [np.zeros_like(r) for r in refs]
        vs = [np.zeros_like(r) for r in refs]
        lr, b1, b2, eps = 1e-3, 0.9, 0.95, 1e-8
        opt = AdamW(ps, lr=lr, betas=(b1, b2), eps=eps, weight_decay=weight_decay)
        for t in range(1, 6):
            for p, ref, m, v in zip(ps, refs, ms, vs):
                g = rng.standard_normal(p.shape).astype(dtype)
                p.grad[...] = g
                if weight_decay:
                    ref *= 1.0 - lr * weight_decay
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                step = lr / (1.0 - b1**t)
                ref -= step * m / (np.sqrt(v / (1.0 - b2**t)) + eps)
            opt.step()
            for p, ref, slot, m, v in zip(ps, refs, opt.state, ms, vs):
                assert p.data.dtype == dtype
                np.testing.assert_array_equal(p.data, ref)
                np.testing.assert_array_equal(slot["m"], m)
                np.testing.assert_array_equal(slot["v"], v)

    def test_warmed_step_allocates_no_slot_sized_temporaries(self, rng):
        ps = [_param(rng, shape) for shape in [(64, 64), (4096,), (32, 16)]]
        opt = AdamW(ps)
        opt.step()  # moments and scratch are laid down here
        nbytes = opt.state_bytes()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4096  # the smallest slot alone is 4 KiB
        # Scratch is not optimizer state.
        assert opt.state_bytes() == nbytes == 2 * sum(p.data.nbytes for p in ps)
        assert set(opt.state_dict()) == {"t", "lr", "slots"}
        assert all(set(slot) == {"m", "v"} for slot in opt.state_dict()["slots"])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            AdamW([_param(rng)], betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            AdamW([_param(rng)], eps=0.0)
        with pytest.raises(ValueError):
            AdamW([_param(rng)], weight_decay=-1)


class TestLARS:
    def test_matrix_params_get_trust_scaling(self, rng):
        p = _param(rng, (4, 4))
        w_norm = np.linalg.norm(p.data)
        g_norm = np.linalg.norm(p.grad)
        expected = p.data - 0.1 * (0.001 * w_norm / g_norm) * p.grad
        LARS([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, expected)

    def test_vector_params_bypass_scaling(self, rng):
        p = _param(rng, (4,))
        expected = p.data - 0.1 * p.grad
        LARS([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, expected)

    def test_zero_weight_no_scaling_blowup(self, rng):
        p = Parameter(np.zeros((3, 3)))
        p.grad[...] = 1.0
        LARS([p], lr=0.1).step()
        assert np.isfinite(p.data).all()

    def test_momentum(self, rng):
        p = _param(rng, (3,))
        p.grad[...] = 1.0
        opt = LARS([p], lr=1.0, momentum=0.5)
        d0 = p.data.copy()
        opt.step()
        opt.step()
        np.testing.assert_allclose(p.data, d0 - 1.0 - 1.5)


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        s = CosineWithWarmup(base_lr=1.0, total_steps=100, warmup_steps=10)
        assert s(0) == pytest.approx(0.1)
        assert s(9) == pytest.approx(1.0)

    def test_cosine_decays_to_min(self):
        s = CosineWithWarmup(base_lr=1.0, total_steps=100, warmup_steps=0, min_lr=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(50) == pytest.approx(0.55, abs=0.01)

    def test_peak_lr_hit_exactly_once(self):
        # Warmup reaches base_lr at step warmup_steps - 1; decay must start
        # on the very next step, not hold the peak for two steps.
        s = CosineWithWarmup(base_lr=1.0, total_steps=100, warmup_steps=10)
        lrs = [s(t) for t in range(100)]
        assert lrs.count(max(lrs)) == 1
        assert s(9) == pytest.approx(1.0)
        assert s(10) < 1.0

    def test_monotone_after_warmup(self):
        s = CosineWithWarmup(base_lr=1.0, total_steps=50, warmup_steps=5)
        lrs = [s(t) for t in range(5, 51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineWithWarmup(1.0, 0)
        with pytest.raises(ValueError):
            CosineWithWarmup(1.0, 10, warmup_steps=11)
        with pytest.raises(ValueError):
            CosineWithWarmup(1.0, 10)(-1)


class TestGradClip:
    def test_norm_computation(self, rng):
        p1 = Parameter(np.zeros(3))
        p1.grad[...] = [3.0, 0.0, 0.0]
        p2 = Parameter(np.zeros(1))
        p2.grad[...] = [4.0]
        assert global_grad_norm([p1, p2]) == pytest.approx(5.0)

    def test_clip_scales_down(self, rng):
        p = Parameter(np.zeros(4))
        p.grad[...] = 2.0  # norm 4
        returned = clip_grad_norm([p], max_norm=1.0)
        assert returned == pytest.approx(4.0)
        assert global_grad_norm([p]) == pytest.approx(1.0, rel=1e-6)

    def test_no_clip_below_max(self, rng):
        p = Parameter(np.zeros(4))
        p.grad[...] = 0.1
        g0 = p.grad.copy()
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_array_equal(p.grad, g0)

    def test_invalid_max_norm(self, rng):
        with pytest.raises(ValueError):
            clip_grad_norm([_param(rng)], 0.0)
