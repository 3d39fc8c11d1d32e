"""Integration tests: the perf experiments must reproduce the paper's
qualitative claims (Figures 1-4, Tables I-II).

These are the repository's headline assertions: each test encodes one
sentence of the paper's evaluation section.
"""

import copy
import dataclasses
import importlib

import pytest

from repro.core.sharding import BackwardPrefetch
from repro.data.datasets import DATASET_SPECS, build_dataset
from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.fig1 import render_fig1
from repro.experiments.fig2 import best_configuration, render_fig2
from repro.experiments.fig3 import render_fig3
from repro.experiments.fig4 import render_fig4
from repro.experiments.table1 import render_table1
from repro.experiments.table2 import render_table2
from repro.telemetry.report import reconcile

class TestTable1:
    def test_all_but_5b_match_paper(self, table1):
        for row in table1:
            if row.cfg.name == "vit-5b":
                continue
            assert abs(row.relative_error) < 0.02, row.cfg.name

    def test_render_mentions_inconsistency(self, table1):
        assert "inconsistent" in render_table1(table1)


class TestTable2:
    def test_train_ratios_match_paper(self, table2):
        for row in table2:
            assert row.train_ratio == pytest.approx(
                row.paper_train_ratio, abs=0.005
            )

    def test_render(self, table2):
        out = render_table2(table2)
        assert "millionaid" in out and "TR%" in out

    def test_built_dataset_has_its_specs_sizes(self):
        # Table II prints the recipe; a built dataset realizes it.
        spec = DATASET_SPECS["ucm"]
        data = build_dataset("ucm", img_size=16)
        assert (data.train.n_classes, data.test.n_classes) == (spec.n_classes,) * 2
        assert (len(data.train), len(data.test)) == (spec.n_train, spec.n_test)


class TestFig1:
    def test_io_faster_than_syn_everywhere(self, fig1):
        c = fig1.curves()
        assert all(io > syn for io, syn in zip(c["io"], c["syn"]))

    def test_io_syn_gap_grows_with_scale(self, fig1):
        c = fig1.curves()
        gaps = [io - syn for io, syn in zip(c["io"], c["syn"])]
        assert gaps[-1] > gaps[0]

    def test_comm_share_grows_to_about_22pct(self, fig1):
        fracs = fig1.comm_fractions()
        assert fracs[-1] > fracs[0]
        assert 0.15 < fracs[-1] < 0.35  # paper: ~22% at 64 nodes

    def test_syn_below_no_comm_below_ideal_shape(self, fig1):
        c = fig1.curves()
        for syn, nc in zip(c["syn"], c["syn_no_comm"]):
            assert syn <= nc * (1 + 1e-9)
        # The ideal curve is linear from the first point.
        nodes = fig1.node_counts
        assert c["ideal"][-1] == pytest.approx(c["syn"][0] * nodes[-1] / nodes[0])

    def test_real_tracks_syn(self, fig1):
        c = fig1.curves()
        for real, syn in zip(c["real"], c["syn"]):
            assert real <= syn
            assert real > 0.9 * syn

    def test_render(self, fig1):
        out = render_fig1(fig1)
        assert "syn_no_comm" in out and "communication share" in out


class TestFig2:
    def test_backward_pre_is_best_policy(self, fig2):
        best = best_configuration(fig2)
        assert best.prefetch is BackwardPrefetch.BACKWARD_PRE
        assert best.limit_all_gathers

    def test_limit_all_gathers_never_hurts(self, fig2):
        by_key = {
            (p.strategy, p.prefetch, p.limit_all_gathers): p.ips for p in fig2
        }
        for (strategy, prefetch, limit), ips in by_key.items():
            if limit:
                assert ips >= by_key[(strategy, prefetch, False)]

    def test_prefetch_ordering_within_strategies(self, fig2):
        by_key = {
            (p.strategy, p.prefetch, p.limit_all_gathers): p.ips for p in fig2
        }
        for strategy in ("HYBRID_2GPUs", "FULL_SHARD"):
            pre = by_key[(strategy, BackwardPrefetch.BACKWARD_PRE, True)]
            none = by_key[(strategy, BackwardPrefetch.NONE, True)]
            assert pre >= none

    def test_differences_are_modest(self, fig2):
        """Paper: 'differences in performance are not very big'."""
        per_strategy = {}
        for p in fig2:
            per_strategy.setdefault(p.strategy, []).append(p.ips)
        for ips in per_strategy.values():
            assert max(ips) / min(ips) < 1.25

    def test_render(self, fig2):
        assert "BACKWARD_PRE" in render_fig2(fig2)


class TestFig3:
    def test_hybrid1_best_for_every_model_at_scale(self, fig3):
        for model in fig3.grids:
            at_scale = {s: fig3.ips(model, s)[-1] for s in fig3.grids[model]}
            h1 = at_scale.pop("HYBRID_1GPU")
            assert h1 > max(at_scale.values()), model

    def test_no_shard_beats_ddp_everywhere(self, fig3):
        for model in fig3.grids:
            for ns, ddp in zip(fig3.ips(model, "NO_SHARD"), fig3.ips(model, "DDP")):
                assert ns > ddp, model

    def test_fsdp_beats_ddp_gap_grows_with_size(self, fig3):
        gaps = []
        for model in ("vit-base", "vit-huge", "vit-1b", "vit-3b"):
            ddp = fig3.ips(model, "DDP")[-1]
            h1 = fig3.ips(model, "HYBRID_1GPU")[-1]
            gaps.append(h1 / ddp)
            assert h1 > ddp, model
        assert gaps[-1] > gaps[0]  # gap grows from base to 3B

    def test_full_shard_worst_fsdp_mode_at_scale(self, fig3):
        for model in fig3.grids:
            at_scale = {s: fig3.ips(model, s)[-1] for s in fig3.grids[model]}
            fsdp_only = {
                k: v for k, v in at_scale.items() if k != "DDP"
            }
            assert at_scale["FULL_SHARD"] == min(fsdp_only.values()), model

    def test_full_shard_efficiency_flattens_earlier_for_small_models(self, fig3):
        base_eff = fig3.grids["vit-base"]["FULL_SHARD"].efficiency()[-1]
        big_eff = fig3.grids["vit-3b"]["FULL_SHARD"].efficiency()[-1]
        assert big_eff > base_eff

    def test_memory_panel_shapes(self, fig3):
        # Constant for replica strategies, decreasing for FULL_SHARD.
        m3 = fig3.memory_gib("vit-3b", "NO_SHARD")
        assert max(m3) - min(m3) < 1e-9
        assert m3[0] > 55  # paper: >60 GB
        h2 = fig3.memory_gib("vit-3b", "HYBRID_2GPUs")
        assert h2[0] < 0.62 * m3[0]
        fs = fig3.memory_gib("vit-3b", "FULL_SHARD")
        assert fs[-1] < fs[0]
        assert fs[-1] < 10  # paper: ~4 GB at scale

    def test_render(self, fig3):
        out = render_fig3(fig3)
        assert "vit-3b" in out and "memory" in out


class TestFig4:
    def test_full_shard_scales_better_than_in_fig3(self, fig3, fig4):
        """Relative FULL_SHARD efficiency at max nodes: better for the
        big models of Fig. 4 than the small models of Fig. 3."""
        eff_small = fig3.grids["vit-base"]["FULL_SHARD"].efficiency()[-1]
        eff_5b = fig4.grid_5b["FULL_SHARD"].efficiency()[-1]
        assert eff_5b > eff_small

    def test_sgo_scales_best_for_15b(self, fig4):
        at_scale = {s: g.ips[-1] for s, g in fig4.grid_15b.items()}
        assert at_scale["SHARD_GRAD_OP"] == max(at_scale.values())

    def test_sgo_beats_full_for_5b_by_paper_ratio(self, fig4):
        # Paper: 1509 vs 1307 ips at 32 nodes (ratio 1.155).
        assert 1.02 < fig4.sgo_over_full < 1.3

    def test_hybrid8_beats_hybrid2_for_5b_at_scale(self, fig4):
        h8 = fig4.grid_5b["HYBRID_8GPUs"].ips[-1]
        h2 = fig4.grid_5b["HYBRID_2GPUs"].ips[-1]
        assert h8 > h2

    def test_sgo_memory_above_full_shard(self, fig4):
        sgo = fig4.grid_15b["SHARD_GRAD_OP"].points[-1].memory.total
        full = fig4.grid_15b["FULL_SHARD"].points[-1].memory.total
        assert sgo > full

    def test_power_trace_orderings(self, fig4):
        traces = fig4.power_traces
        # Paper: utilization ~100% everywhere; SGO draws more than FULL
        # (consistent with its higher throughput). The paper's third
        # claim (HYBRID_2GPUs lowest power) conflicts with its own 5B
        # throughput results under our model and is a documented
        # deviation (EXPERIMENTS.md); we only require all strategies
        # land in a plausible band.
        for t in traces.values():
            assert t.mean_utilization > 90
            assert 150 < t.mean_power < 300
        assert (
            traces["SHARD_GRAD_OP"].mean_power > traces["FULL_SHARD"].mean_power
        )

    def test_render(self, fig4):
        out = render_fig4(fig4)
        assert "SHARD_GRAD_OP vs FULL_SHARD" in out and "rocm-smi" in out


# -- the experiment table's claims ---------------------------------------------
# Each fast row's ``claims`` must hold on the row fixtures (this module's and
# conftest.py's default runs; the assertions of the classes above are the
# independent pin that no claim was weakened) and must notice a planted
# violation.


def _claims(name, result):
    module, _, _, claims, _ = EXPERIMENTS[name]
    return getattr(importlib.import_module(f"repro.experiments.{module}"), claims)(result)


def _flips(name, real, planted):
    """Sentences that hold on ``real`` and fail on ``planted``."""
    after = dict(_claims(name, planted))
    return [s for s, holds in _claims(name, real) if holds and not after[s]]


_DRIFTED = reconcile([("planted", 1.0, 2.0, "==")])


class TestPaperShapes:
    @pytest.mark.parametrize("name", [n for n, row in EXPERIMENTS.items() if row[4]])
    def test_every_fast_claim_holds(self, name, request):
        claims = _claims(name, request.getfixturevalue(name.replace("-", "_")))
        assert claims
        assert [s for s, holds in claims if not holds] == []

    def test_table1_flips(self, table1):
        planted = [
            dataclasses.replace(r, computed_params_m=1_000.0)
            if r.cfg.name == "vit-15b" else r
            for r in table1
        ]
        assert _flips("table1", table1, planted) == [
            "vit-15b: computed parameters within 2% of the paper's",
            "vit-15b: more than 14,000 M computed parameters",
        ]

    def test_table2_flips(self, table2):
        planted = [dataclasses.replace(table2[0], n_test=table2[0].n_train)] + table2[1:]
        assert _flips("table2", table2, planted) == [
            f"{table2[0].name}: training ratio within 0.005 of the paper's"
        ]

    def test_fig1_flips(self, fig1):
        c = fig1.curves()
        planted = copy.copy(fig1)
        planted.curves = lambda: {**c, "real": [1.01 * s for s in c["syn"]]}
        (flipped,) = _flips("fig1", fig1, planted)
        assert flipped.startswith("real never exceeds syn (by construction")

    def test_fig2_flips_where_backward_pre_loses(self, fig2):
        planted = [
            dataclasses.replace(p, ips=0.0)
            if p.prefetch is BackwardPrefetch.BACKWARD_PRE else p
            for p in fig2
        ]
        assert _flips("fig2", fig2, planted) == ["the best configuration uses BACKWARD_PRE"]

    def test_fig3_flips(self, fig3):
        planted = copy.copy(fig3)
        planted.memory_gib = lambda model, strategy: [64.0] * len(fig3.node_counts)
        assert _flips("fig3", fig3, planted) == [
            "vit-3b FULL_SHARD needs less than 10 GiB per GPU"
        ]

    def test_fig3_flips_on_the_ties_its_inflations_prevent(self, fig3):
        # NO_SHARD tying HYBRID_1GPU (noshard_comm_inflation at 1.0) ...
        planted = copy.copy(fig3)
        planted.ips = lambda m, s: fig3.ips(m, "HYBRID_1GPU" if s == "NO_SHARD" else s)
        assert _flips("fig3", fig3, planted) == [
            f"{m}: HYBRID_1GPU has the highest ips" for m in fig3.grids
        ]
        # ... and DDP catching NO_SHARD at one node count (ddp_comm_inflation).
        planted.ips = lambda m, s: (
            [fig3.ips(m, "NO_SHARD")[0], *fig3.ips(m, s)[1:]]
            if (m, s) == ("vit-base", "DDP") else fig3.ips(m, s)
        )
        assert _flips("fig3", fig3, planted) == [
            "NO_SHARD is faster than DDP at every node count"
        ]

    def test_fig4_flips(self, fig4):
        planted = dataclasses.replace(fig4, sgo_ips_32n=fig4.full_ips_32n)
        (flipped,) = _flips("fig4", fig4, planted)
        assert flipped.startswith("vit-5b: SHARD_GRAD_OP / FULL_SHARD ips")

    def test_ablations_flip(self, ablations):
        buckets, groups, contention = ablations
        planted = (buckets, groups, contention[::-1])
        assert "the exposed communication share never falls as contention grows" in (
            _flips("ablations", ablations, planted)
        )

    def test_mesh_flips(self, mesh):
        planted = [dataclasses.replace(mesh[0], loss=mesh[0].loss + 1e-12)] + mesh[1:]
        assert _flips("mesh", mesh, planted) == [
            "every mesh's final loss is bit-identical (the oracle trajectory)"
        ]

    def test_mesh_crossover_flips(self, mesh_crossover):
        recon, points = mesh_crossover
        (label, _), *rest = recon
        (flipped,) = _flips(
            "mesh-crossover", mesh_crossover, ([(label, _DRIFTED), *rest], points)
        )
        assert flipped.startswith(f"{label}: predicted per-axis bytes and calls reconcile")

    def test_traffic_flips(self, traffic):
        (plan, served, _), autoscaled, users = traffic
        planted = ((plan, served, _DRIFTED), autoscaled, users)
        assert len(_flips("traffic", traffic, planted)) == 1
