"""Tests for the downstream pipeline and the Fig5/Table3/Fig6 drivers.

Uses a deliberately tiny recipe (few steps, one or two models) so these
run in seconds; the full-scale runs are the slow rows of
``python -m repro.experiments``.
"""

import numpy as np
import pytest

from repro.eval.linear_probe import LinearProbeResult
from repro.experiments import table3
from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.__main__ import main as cli_main
from repro.experiments.downstream import (
    DownstreamRecipe,
    PretrainedModel,
    pretrain_suite,
)
from repro.experiments.fewshot import render_fewshot, run_fewshot
from repro.experiments.fig5 import Fig5Result, claims_fig5, render_fig5, run_fig5
from repro.experiments.table3 import Table3Result, render_fig6, run_table3

TINY = DownstreamRecipe(
    corpus_images=64,
    steps=4,
    model_names=("proxy-base", "proxy-huge"),
)


class TestPretrainSuite:
    def test_runs_and_records(self, tmp_path):
        suite = pretrain_suite(TINY, cache_dir=str(tmp_path), verbose=False)
        assert set(suite) == {"proxy-base", "proxy-huge"}
        assert len(suite["proxy-base"].losses) == 4
        assert suite["proxy-base"].paper_name == "ViT-Base"

    def test_cache_roundtrip(self, tmp_path):
        first = pretrain_suite(TINY, cache_dir=str(tmp_path), verbose=False)
        second = pretrain_suite(TINY, cache_dir=str(tmp_path), verbose=False)
        for name in TINY.model_names:
            assert second[name].losses == first[name].losses
            for (_, a), (_, b) in zip(
                first[name].model.named_parameters(),
                second[name].model.named_parameters(),
            ):
                np.testing.assert_array_equal(a.data, b.data)

    def test_cache_key_distinguishes_recipes(self):
        a = DownstreamRecipe(steps=4).cache_key("proxy-base")
        b = DownstreamRecipe(steps=8).cache_key("proxy-base")
        assert a != b

    def test_no_cache_dir(self):
        suite = pretrain_suite(TINY, cache_dir=None, verbose=False)
        assert len(suite) == 2


class TestFig5Driver:
    def test_curves_and_render(self, tmp_path):
        result = run_fig5(TINY, cache_dir=str(tmp_path))
        curves = result.loss_curves(smooth=2)
        assert set(curves) == {"ViT-Base", "ViT-Huge"}
        assert len(curves["ViT-Base"]) == 2
        out = render_fig5(result)
        assert "Fig 5" in out and "final loss" in out

    def test_final_and_early_losses(self, tmp_path):
        result = run_fig5(TINY, cache_dir=str(tmp_path))
        finals = result.final_losses(tail=2)
        assert all(np.isfinite(v) for v in finals.values())

    def test_report_prints_the_window_the_claim_reads(self):
        # Steps 0-19 and 120+ at 9.0, 20-59 at 1.0 and 60-119 at 4.0: the
        # 20-119 mean is 2.8, the 20-59 mean 1.0.
        losses = [9.0] * 20 + [1.0] * 40 + [4.0] * 60 + [9.0] * 20
        result = Fig5Result(suite={"proxy-base": PretrainedModel("proxy-base", None, losses)})
        assert "mid-training loss (steps 20-119): ViT-Base=2.8000" in render_fig5(result)
        sentence, _ = claims_fig5(result)[0]
        assert sentence == "mean loss over steps 20-119 is non-increasing with model size"


def _probe(top1, top5):
    return LinearProbeResult("ucm", "m", top1=top1, top5=top5)


def _table3_result() -> Table3Result:
    # Table epochs 1..4: the largest model leads at 1, trails at 2 and
    # leads from 3 to the end, so the lead persists from epoch 3.
    small = _probe([0.2, 0.4, 0.4, 0.5], [0.5] * 4)
    large = _probe([0.3, 0.3, 0.5, 0.6], [0.7] * 4)
    return Table3Result(
        probes={("proxy-base", "ucm"): small, ("proxy-3b", "ucm"): large},
        long_base={("proxy-base", "ucm"): _probe([0.3, 0.5, 0.5, 0.55], [0.6] * 4)},
        model_order=["proxy-base", "proxy-3b"],
        datasets=["ucm"],
    )


class TestTable3AndFig6Drivers:
    @pytest.fixture(scope="class")
    def tiny_probe_run(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("cache"))
        return run_table3(recipe=TINY, epochs=2, cache_dir=cache)

    def test_table3_structure(self, tiny_probe_run):
        t3 = tiny_probe_run
        assert set(t3.datasets) == {"millionaid", "ucm", "aid", "nwpu"}
        for m in TINY.model_names:
            for ds in t3.datasets:
                assert 0.0 <= t3.top1(m, ds) <= 1.0
        assert ("proxy-base", "ucm") in t3.long_base

    def test_fig6_structure(self, tiny_probe_run):
        t3 = tiny_probe_run
        curve = t3.curve("proxy-base", "ucm")
        assert len(curve) == 2
        t5 = t3.curve("proxy-base", "ucm", k=5)
        assert all(b >= a for a, b in zip(curve, t5))


class TestFig6Separation:
    def test_separation_epoch_counts_like_the_table(self):
        result = _table3_result()
        assert result.epoch_of_separation("ucm") == 3
        assert "separation persists from epoch: 3" in render_fig6(result)

    def test_table3_and_fig6_share_one_probe_run(self, monkeypatch, capsys):
        assert EXPERIMENTS["fig6"][:2] == EXPERIMENTS["table3"][:2] == ("table3", "run_table3")
        calls = []
        monkeypatch.setattr(table3, "run_table3", lambda: calls.append(1) or _table3_result())
        assert cli_main(["table3", "fig6"]) == 0
        assert calls == [1]
        out = capsys.readouterr().out
        assert "Table III" in out and "separation persists from epoch: 3" in out


class TestFewShotDriver:
    def test_runs_on_tiny_suite(self, tmp_path):
        suite = pretrain_suite(TINY, cache_dir=str(tmp_path), verbose=False)
        exp = run_fewshot(
            suite=suite, dataset="ucm", shots=[1, 2], epochs=2
        )
        assert exp.shots == [1, 2]
        assert set(exp.results) == set(TINY.model_names)
        out = render_fewshot(exp)
        assert "Few-shot" in out
