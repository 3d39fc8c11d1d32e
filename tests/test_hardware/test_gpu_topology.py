"""Tests for the GPU spec."""

import pytest

from repro.hardware.gpu import GpuSpec


class TestGpuSpec:
    def test_efficiency_monotone_in_width(self):
        gpu = GpuSpec()
        effs = [gpu.efficiency(w) for w in (128, 512, 1024, 4096)]
        assert effs == sorted(effs)
        assert all(0 < e < 1 for e in effs)

    def test_efficiency_saturates_below_base(self):
        gpu = GpuSpec()
        assert gpu.efficiency(1e9) == pytest.approx(gpu.base_efficiency, rel=1e-3)

    def test_half_saturation_point(self):
        gpu = GpuSpec()
        assert gpu.efficiency(gpu.half_saturation_width) == pytest.approx(
            gpu.base_efficiency / 2
        )

    def test_time_for_flops_linear(self):
        gpu = GpuSpec()
        t1 = gpu.time_for_flops(1e12, 1024)
        t2 = gpu.time_for_flops(2e12, 1024)
        assert t2 == pytest.approx(2 * t1)

    def test_invalid_inputs(self):
        gpu = GpuSpec()
        with pytest.raises(ValueError):
            gpu.efficiency(0)
        with pytest.raises(ValueError):
            gpu.time_for_flops(-1, 128)
