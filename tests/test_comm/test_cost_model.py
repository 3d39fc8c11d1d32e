"""Tests for the alpha-beta collective cost model."""

import pytest

from repro.comm.cost_model import CollectiveCostModel, GroupPlacement


@pytest.fixture
def model() -> CollectiveCostModel:
    return CollectiveCostModel(
        intra_node_bw=50e9,
        inter_node_bw=25e9,
        intra_node_alpha=1e-6,
        inter_node_alpha=10e-6,
    )


class TestGroupPlacement:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupPlacement(group_size=0, nodes_spanned=1)
        with pytest.raises(ValueError):
            GroupPlacement(group_size=2, nodes_spanned=3)
        with pytest.raises(ValueError):
            GroupPlacement(group_size=2, nodes_spanned=1, nic_share=0)

    def test_intra_node(self):
        assert not GroupPlacement(group_size=4, nodes_spanned=1).crosses_nodes


class TestCostModel:
    def test_single_rank_is_free(self, model):
        pl = GroupPlacement(group_size=1, nodes_spanned=1)
        assert model.all_reduce(1e6, pl) == 0.0
        assert model.all_gather(1e6, pl) == 0.0

    def test_bandwidth_term_dominates_large_messages(self, model):
        pl = GroupPlacement(group_size=8, nodes_spanned=1)
        nbytes = 1e9
        t = model.all_gather(nbytes, pl)
        expected_bw = (7 / 8) * nbytes / 50e9
        assert t == pytest.approx(expected_bw, rel=0.01)

    def test_all_reduce_is_twice_reduce_scatter_bandwidth(self, model):
        pl = GroupPlacement(group_size=8, nodes_spanned=1)
        nbytes = 4e9  # large enough that latency is negligible
        ar = model.all_reduce(nbytes, pl)
        rs = model.reduce_scatter(nbytes, pl)
        assert ar / rs == pytest.approx(2.0, rel=0.01)

    def test_inter_node_uses_nic_bandwidth(self, model):
        intra = GroupPlacement(group_size=8, nodes_spanned=1)
        inter = GroupPlacement(group_size=8, nodes_spanned=2)
        assert model.all_gather(1e9, inter) > model.all_gather(1e9, intra)

    def test_nic_share_divides_bandwidth(self, model):
        base = GroupPlacement(group_size=16, nodes_spanned=2, nic_share=1)
        shared = GroupPlacement(group_size=16, nodes_spanned=2, nic_share=2)
        nbytes = 10e9
        t1 = model.all_gather(nbytes, base)
        t2 = model.all_gather(nbytes, shared)
        assert t2 > t1

    def test_latency_grows_with_group_size(self, model):
        small = GroupPlacement(group_size=16, nodes_spanned=2)
        large = GroupPlacement(group_size=64, nodes_spanned=8)
        # Tiny message: latency dominates.
        assert model.all_reduce(8, large) > model.all_reduce(8, small)

    def test_hop_split_counts_node_boundaries_once(self, model):
        # 64 ranks over 8 nodes: 8 inter hops + 55 intra hops per pass.
        pl = GroupPlacement(group_size=64, nodes_spanned=8)
        alpha = model._alpha_per_pass(pl)
        assert alpha == pytest.approx(8 * 10e-6 + 55 * 1e-6)

    @pytest.mark.parametrize(
        "pl, alpha, bw",
        [
            # 8 ranks on one node: 7 Infinity Fabric hops per pass.
            (GroupPlacement(group_size=8, nodes_spanned=1), 7 * 1e-6, 50e9),
            # 16 ranks on 2 nodes, two rings per NIC: 2 node-boundary hops
            # at 2x alpha, 13 on-node hops, half the NIC bandwidth.
            (
                GroupPlacement(group_size=16, nodes_spanned=2, nic_share=2),
                2 * (2 * 10e-6) + 13 * 1e-6,
                25e9 / 2,
            ),
        ],
        ids=["intra-node", "inter-node"],
    )
    def test_ring_law_is_exact(self, model, pl, alpha, bw):
        # T = passes * alpha_per_pass + wire / bw, with no other term.
        g, nbytes = pl.group_size, 3e6
        wire = (g - 1) / g * nbytes
        rel = 1e-12
        assert model.all_gather(nbytes, pl) == pytest.approx(alpha + wire / bw, rel=rel)
        assert model.reduce_scatter(nbytes, pl) == pytest.approx(
            alpha + wire / bw, rel=rel
        )
        assert model.all_reduce(nbytes, pl) == pytest.approx(
            2 * alpha + 2 * wire / bw, rel=rel
        )
