"""A micro writes each gradient once.

Engines mark every parameter *unwritten* in place of zeroing its
gradient: a micro's first contribution is written (``Linear``'s weight
GEMM straight into ``p.grad``; every other producer the bits of
``0.0 + g``), later contributions add, and a parameter nothing wrote
reads zero when the micro's gradients leave. These pin that rule against
the add-onto-zeros path it replaced, which ``Module.zero_grad()`` callers
still take.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sharding import ShardingStrategy, declare_storage, grad_views
from repro.mesh.spec import MeshSpec
from repro.models.layers import MLP, LayerNorm, Linear
from repro.models.mae import MaskedAutoencoder
from repro.models.module import Parameter
from repro.models.vit import VisionTransformer

from ..test_mesh.helpers import mae_step, mesh_engine, oracle_engine, tiny_micros


def _mark_unwritten(model) -> None:
    """What an engine does before a micro: stale bits, flag set."""
    for p in model.parameters():
        p.grad[...] = np.nan
        p.unwritten = True


def _settle(model) -> None:
    """What an engine does as the micro's gradients leave."""
    for p in model.parameters():
        if p.unwritten:
            p.zero_grad()


def _grads(model) -> dict[str, bytes]:
    return {name: p.grad.tobytes() for name, p in model.named_parameters()}


def _both_ways(make, run) -> tuple[dict, dict]:
    """Every gradient's bytes after ``run`` on a twin that adds onto
    zeros and on one that starts unwritten."""
    added = make()
    added.zero_grad()
    run(added)
    written = make()
    _mark_unwritten(written)
    run(written)
    _settle(written)
    assert not any(p.unwritten for p in written.parameters())
    return _grads(added), _grads(written)


def _assert_same(added: dict, written: dict, names) -> None:
    assert added.keys() == written.keys()
    for name in names:
        assert name in added, name
    for name in added:
        assert written[name] == added[name], name


class TestTwins:
    def test_linear_weight_and_bias(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 6))
        dout = np.random.default_rng(1).standard_normal((3, 5, 4))

        def run(lin):
            lin(x)
            lin.backward(dout)

        added, written = _both_ways(
            lambda: Linear(6, 4, rng=np.random.default_rng(2)), run
        )
        _assert_same(added, written, ["weight", "bias"])

    def test_layernorm(self):
        x = np.random.default_rng(0).standard_normal((4, 8))
        dout = np.random.default_rng(1).standard_normal((4, 8))

        def run(ln):
            ln(x)
            ln.backward(dout)

        added, written = _both_ways(lambda: LayerNorm(8), run)
        _assert_same(added, written, ["gamma", "beta"])

    def test_mae_tokens(self, tiny_mae_cfg):
        imgs = np.random.default_rng(0).standard_normal((2, 3, 16, 16))
        noise = np.random.default_rng(1).random((2, tiny_mae_cfg.encoder.n_patches))

        def run(mae):
            mae.forward(imgs, noise=noise)
            mae.backward()

        added, written = _both_ways(
            lambda: MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(3)), run
        )
        _assert_same(added, written, ["cls_token", "mask_token"])

    def test_vit_cls_token(self, tiny_vit_cfg):
        x = np.random.default_rng(0).standard_normal((2, 3, 16, 16))
        dout = np.random.default_rng(1).standard_normal((2, 3))

        def run(vit):
            vit(x)
            vit.backward(dout)

        added, written = _both_ways(
            lambda: VisionTransformer(
                tiny_vit_cfg, n_classes=3, rng=np.random.default_rng(3)
            ),
            run,
        )
        _assert_same(added, written, ["cls_token"])


class TestRule:
    def test_second_contribution_adds(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 3, 4))
        p = Parameter(np.zeros((3, 4)))
        p.grad[...] = np.nan
        p.unwritten = True
        p.accumulate(a)
        assert not p.unwritten
        p.accumulate(b)
        np.testing.assert_array_equal(p.grad, (0.0 + a) + b)

    def test_linear_used_twice_in_a_micro(self):
        """The second backward of a reused layer takes the add path."""
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal((2, 5, 6))
        d1, d2 = rng.standard_normal((2, 5, 4))

        def run(lin):
            lin(x1)
            lin.backward(d1)
            lin(x2)
            lin.backward(d2)

        added, written = _both_ways(
            lambda: Linear(6, 4, rng=np.random.default_rng(2)), run
        )
        _assert_same(added, written, ["weight", "bias"])

    def test_negative_zero_lands_as_positive_zero(self):
        p = Parameter(np.ones(5))
        p.grad[...] = np.nan
        p.unwritten = True
        p.accumulate(np.full(5, -0.0))
        expected = np.zeros(5)
        expected += np.full(5, -0.0)  # what adding onto zeros wrote
        assert p.grad.tobytes() == expected.tobytes()
        assert not np.signbit(p.grad).any()

    def test_zero_grad_callers_keep_the_add_path(self):
        """Outside the engines nothing marks a parameter: after
        ``Module.zero_grad()`` every contribution adds, the first too."""
        rng = np.random.default_rng(0)
        x, d = rng.standard_normal((5, 6)), rng.standard_normal((5, 4))
        lin = Linear(6, 4, rng=rng)
        lin.weight.grad[...] = 1.0
        lin.zero_grad()
        assert not lin.weight.unwritten
        for _ in range(2):
            lin(x)
            lin.backward(d)
        g = x.T @ d
        np.testing.assert_array_equal(lin.weight.grad, (0.0 + g) + g)


class TestUnwrittenReadsZero:
    @pytest.mark.parametrize(
        "strategy, shard_size",
        [(ShardingStrategy.DDP, 1), (ShardingStrategy.FULL_SHARD, 3)],
    )
    def test_outbound_row(self, strategy, shard_size):
        """A parameter the micro never reached reads zero in the row,
        whatever its gradient held before; the buffers' padding too."""
        model = MLP(4, 8, rng=np.random.default_rng(0))
        groups = [list(range(len(model.parameters())))]
        storage = declare_storage(model, strategy, shard_size, groups)
        for buf in storage.grad_buffers:
            buf[: sum(p.size for p in model.parameters())] = np.nan
        x = np.random.default_rng(1).standard_normal((3, 8))

        def fc2_only(m, micro):
            m.fc2(micro)
            m.fc2.backward(np.ones((3, 4)))
            return 0.0

        row = [np.full_like(buf, np.nan) for buf in storage.grad_buffers]
        storage.run_rank(model, x, fc2_only, row, None)
        got = dict(
            zip(
                [n for n, _ in model.named_parameters()],
                grad_views(model.parameters(), row[0]),
            )
        )
        np.testing.assert_array_equal(got["fc1.weight"], 0.0)
        np.testing.assert_array_equal(got["fc1.bias"], 0.0)
        np.testing.assert_array_equal(got["fc2.bias"], 3.0)
        assert np.isfinite(row[0]).all()
        assert not any(p.unwritten for p in model.parameters())


@pytest.mark.parametrize("strategy", ["ddp", "full_shard"])
def test_mesh_grads_point_home_after_a_step(strategy):
    """Stage-backwards write into the outbound rows; after the step every
    ``p.grad`` is again its view of the engine's gradient buffers, holding
    what the copy-out-and-re-zero pipeline left there: the reduced mean
    (the ddp row's reduce lands in the buffer; the world-1 oracle holds
    the same bits) or zeros (full_shard reduces into the shards)."""
    spec = MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b")
    k = 2
    eng = mesh_engine(spec, strategy, k=k)
    oracle = oracle_engine(k * spec.dp)
    micros = tiny_micros(k * spec.dp, seed=50)
    assert eng.train_step(micros, mae_step) == oracle.train_step(micros, mae_step)
    homes = [
        view
        for params, buf in zip(eng.storage.grad_params, eng.grad_buffers)
        for view in grad_views(params, buf)
    ]
    params = [p for params in eng.storage.grad_params for p in params]
    assert len(params) == len(eng.model.parameters())
    for p, home in zip(params, homes):
        assert p.grad.shape == home.shape
        assert p.grad.ctypes.data == home.ctypes.data
        assert not p.unwritten
    expected = dict(oracle.model.named_parameters())
    for name, p in eng.model.named_parameters():
        if strategy == "ddp":
            assert p.grad.tobytes() == expected[name].grad.tobytes(), name
        else:
            np.testing.assert_array_equal(p.grad, 0.0, err_msg=name)


def test_mesh_padding_tails_stay_zero():
    """At dp=3 the units are padded; no gradient lands in the padding of
    an outbound row, which every step must zero for the reduce (else the
    optimizer would move the flat buffers' padding)."""
    spec = MeshSpec(pp=2, dp=3, schedule="1f1b")
    eng = mesh_engine(spec, "full_shard", k=1)
    oracle = oracle_engine(spec.dp)
    assert any(u.plan.padded_numel > u.plan.numel for u in eng.units)
    for s in range(2):
        micros = tiny_micros(spec.dp, seed=50 + s)
        assert eng.train_step(micros, mae_step) == oracle.train_step(micros, mae_step)
        # What a failed attempt may leave in the rows is never read.
        for rows in eng._outbound:
            for row in rows:
                for out in row:
                    out.fill(np.nan)
    for unit in eng.units:
        np.testing.assert_array_equal(unit.flat[unit.plan.numel :], 0.0)
    ref = oracle.model.state_dict()
    for name, value in eng.model.state_dict().items():
        assert value.tobytes() == ref[name].tobytes(), name
