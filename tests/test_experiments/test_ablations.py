"""Tests for the ablation studies."""

from repro.experiments.ablations import (
    contention_sweep,
    ddp_bucket_sweep,
    render_bucket_sweep,
    render_contention_sweep,
    render_shard_group_sweep,
    shard_group_sweep,
)


class TestBucketSweep:
    def test_calls_decrease_with_cap(self):
        points = ddp_bucket_sweep(caps_mb=(5, 100), n_nodes=8)
        assert points[0].comm_calls > points[1].comm_calls

    def test_default_cap_suboptimal_for_3b(self):
        """The mechanism behind Fig. 3: 25 MB buckets are too small for
        billion-parameter models; bigger buckets are faster."""
        points = {p.cap_mb: p.ips for p in ddp_bucket_sweep(caps_mb=(25, 400))}
        assert points[400] > points[25]

    def test_render(self):
        out = render_bucket_sweep(ddp_bucket_sweep(caps_mb=(25, 100), n_nodes=4))
        assert "bucket" in out and "25" in out


class TestShardGroupSweep:
    def test_covers_requested_sizes(self):
        points = shard_group_sweep(shard_sizes=(1, 2, 8), n_nodes=4)
        assert [p.shard_size for p in points] == [1, 2, 8]

    def test_memory_falls_with_shard_size(self):
        points = shard_group_sweep(shard_sizes=(1, 8), n_nodes=4)
        assert points[1].memory_gib < points[0].memory_gib

    def test_skips_indivisible(self):
        # world of 8 GPUs (1 node): shard size 32 impossible.
        points = shard_group_sweep(shard_sizes=(2, 32), n_nodes=1)
        assert [p.shard_size for p in points] == [2]

    def test_render(self):
        assert "shard group" in render_shard_group_sweep(
            shard_group_sweep(shard_sizes=(1, 2), n_nodes=2)
        )


class TestContentionSweep:
    def test_exposed_share_monotone_in_kappa(self):
        points = contention_sweep(kappas=(0.0, 0.5, 1.0), n_nodes=8)
        shares = [f for _, f in points]
        assert shares == sorted(shares)

    def test_calibrated_value_lands_near_paper(self):
        (kappa, share), = contention_sweep(kappas=(0.9,), n_nodes=64)
        assert 0.15 < share < 0.35  # paper: ~22%

    def test_render(self):
        assert "kappa" in render_contention_sweep(
            contention_sweep(kappas=(0.5,), n_nodes=4)
        )
