"""Replica pool: cost-model service estimates, least-loaded dispatch, faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ViTConfig
from repro.hardware.gpu import GpuSpec
from repro.perf.compute_model import forward_flops
from repro.serve.replica import (
    FixedServiceModel,
    ReplicaError,
    ReplicaFaultPlan,
    ReplicaFaultSpec,
    ReplicaPool,
    ServiceTimeModel,
)

ENC = ViTConfig(name="t", width=16, depth=2, mlp=32, heads=4, patch=8, img_size=16)


class TestServiceTimeModel:
    def test_matches_cost_model_accounting(self):
        gpu = GpuSpec()
        svc = ServiceTimeModel(ENC, gpu, overhead_s=1e-4)
        for b in (1, 4, 32):
            want = 1e-4 + gpu.time_for_flops(forward_flops(ENC) * b, ENC.width)
            assert svc.estimate(b) == pytest.approx(want)

    def test_monotone_in_batch_and_amortizes_overhead(self):
        svc = ServiceTimeModel(ENC, GpuSpec(), overhead_s=1e-3)
        assert svc.estimate(2) > svc.estimate(1)
        # per-image cost falls with batching (the point of micro-batching)
        assert svc.estimate(16) / 16 < svc.estimate(1)

    def test_validation(self):
        svc = ServiceTimeModel(ENC, GpuSpec())
        with pytest.raises(ValueError):
            svc.estimate(0)
        with pytest.raises(ValueError):
            ServiceTimeModel(ENC, GpuSpec(), overhead_s=-1.0)
        with pytest.raises(ValueError):
            FixedServiceModel(0.0)


class _CountingModel:
    """encode_features stub that counts calls."""

    def __init__(self):
        self.calls = 0

    def encode_features(self, images):
        self.calls += 1
        return images.reshape(images.shape[0], -1)[:, :2].copy()


class TestReplicaPool:
    def test_least_loaded_prefers_fast_replica_even_when_busy(self):
        fast, slow = FixedServiceModel(1000.0), FixedServiceModel(10.0)
        pool = ReplicaPool(_CountingModel(), [fast, slow])
        r_fast, r_slow = pool.replicas
        # Both free: the fast replica's estimated completion wins.
        assert pool.select(0.0, batch_size=4) is r_fast
        # Fast busy for a moment: waiting for it still beats the slow one
        # (0.001 + 4/1000 << 4/10), which is what estimate-based dispatch
        # gets right over naive idle-first dispatch.
        r_fast.busy_until_s = 0.001
        assert pool.select(0.0, batch_size=4) is r_fast
        # ...but a long enough backlog flips the decision.
        r_fast.busy_until_s = 10.0
        assert pool.select(0.0, batch_size=4) is r_slow

    def test_tie_breaks_on_replica_id(self):
        pool = ReplicaPool(_CountingModel(), [FixedServiceModel(100.0)] * 3)
        assert pool.select(0.0, 1).replica_id == 0

    def test_run_batch_charges_service_window(self):
        model = _CountingModel()
        pool = ReplicaPool(model, [FixedServiceModel(10.0, overhead_s=0.5)])
        rep = pool.replicas[0]
        feats, service_s = rep.run_batch(np.zeros((4, 1, 2, 2)), now_s=2.0)
        assert service_s == pytest.approx(0.5 + 0.4)
        assert rep.busy_until_s == pytest.approx(2.9)
        assert rep.total_busy_s == pytest.approx(0.9)
        assert feats.shape == (4, 2) and model.calls == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ReplicaPool(_CountingModel(), [])


class TestReplicaFaults:
    def test_raise_fault_produces_no_output_and_no_busy_time(self):
        model = _CountingModel()
        pool = ReplicaPool(model, [FixedServiceModel(10.0)])
        rep = pool.replicas[0]
        with pytest.raises(ReplicaError) as exc:
            rep.run_batch(
                np.zeros((2, 1, 2, 2)), 0.0,
                fault=ReplicaFaultSpec(replica_id=0, kind="raise"),
            )
        assert exc.value.detect_delay_s == 0.0
        assert model.calls == 0  # failed before producing anything
        assert rep.busy_until_s == 0.0

    def test_stall_fault_charges_watchdog_window(self):
        rep = ReplicaPool(_CountingModel(), [FixedServiceModel(10.0)]).replicas[0]
        with pytest.raises(ReplicaError) as exc:
            rep.run_batch(
                np.zeros((2, 1, 2, 2)), 1.0,
                fault=ReplicaFaultSpec(replica_id=0, kind="stall"),
                stall_timeout_s=0.25,
            )
        assert exc.value.kind == "stall"
        assert exc.value.detect_delay_s == 0.25
        assert rep.busy_until_s == pytest.approx(1.25)

    def test_plan_arms_on_dispatch_index_and_consumes_times(self):
        plan = ReplicaFaultPlan(
            [ReplicaFaultSpec(replica_id=1, kind="raise", dispatch_index=2, times=2)]
        )
        assert plan.consult(1, 0) is None  # not armed yet
        assert plan.consult(0, 5) is None  # wrong replica
        assert plan.consult(1, 2) is not None
        assert plan.consult(1, 3) is not None
        assert plan.consult(1, 4) is None  # consumed
        assert plan.pending() == 0

    def test_seeded_plan_is_deterministic(self):
        a = ReplicaFaultPlan.seeded(7, n_faults=5, n_replicas=3)
        b = ReplicaFaultPlan.seeded(7, n_faults=5, n_replicas=3)
        assert a.specs == b.specs
        assert len(a.specs) == 5
        assert all(s.replica_id < 3 for s in a.specs)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ReplicaFaultSpec(replica_id=0, kind="explode")
        with pytest.raises(ValueError, match="times"):
            ReplicaFaultSpec(replica_id=0, times=0)
