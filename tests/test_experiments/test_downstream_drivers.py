"""Tests for the downstream pipeline and the Fig5/Table3/Fig6 drivers.

Uses a deliberately tiny recipe (few steps, one or two models) so these
run in seconds; the full-scale runs are the slow rows of
``python -m repro.experiments``.
"""

import numpy as np
import pytest

from repro.eval.linear_probe import LinearProbeResult
from repro.experiments.downstream import (
    DownstreamRecipe,
    pretrain_suite,
)
from repro.experiments.fewshot import render_fewshot, run_fewshot
from repro.experiments.fig5 import Fig5Result, render_fig5, run_fig5
from repro.experiments.fig6 import Fig6Result, render_fig6, run_fig6
from repro.experiments.table3 import run_table3

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


class TestTable3AndFig6Drivers:
    @pytest.fixture(scope="class")
    def tiny_probe_run(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("cache"))
        t3 = run_table3(recipe=TINY, epochs=2, cache_dir=cache)
        f6 = run_fig6(recipe=TINY, epochs=2, cache_dir=cache)
        return t3, f6

    def test_table3_structure(self, tiny_probe_run):
        t3, _ = tiny_probe_run
        assert set(t3.datasets) == {"millionaid", "ucm", "aid", "nwpu"}
        for m in TINY.model_names:
            for ds in t3.datasets:
                assert 0.0 <= t3.top1(m, ds) <= 1.0
        assert ("proxy-base", "ucm") in t3.long_base

    def test_fig6_structure(self, tiny_probe_run):
        _, f6 = tiny_probe_run
        assert f6.epochs == 2
        curve = f6.curve("proxy-base", "ucm")
        assert len(curve) == 2
        t5 = f6.curve("proxy-base", "ucm", k=5)
        assert all(b >= a for a, b in zip(curve, t5))


class TestFig6Separation:
    def test_separation_epoch_counts_like_the_table(self):
        # Table epochs 1..4: the largest model leads at 1, trails at 2 and
        # leads from 3 to the end, so the lead persists from epoch 3.
        small = LinearProbeResult("ucm", "s", top1=[0.2, 0.4, 0.4, 0.5], top5=[0.5] * 4)
        large = LinearProbeResult("ucm", "l", top1=[0.3, 0.3, 0.5, 0.6], top5=[0.7] * 4)
        result = Fig6Result(
            probes={("small", "ucm"): small, ("large", "ucm"): large},
            model_order=["small", "large"],
            datasets=["ucm"],
            epochs=4,
        )
        assert result.epoch_of_separation("ucm") == 3
        assert "separation persists from epoch: 3" in render_fig6(result)


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
