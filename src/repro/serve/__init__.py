"""Online inference serving for the frozen geospatial encoder.

The paper's downstream artifact (Section V) — a frozen MAE/ViT encoder
whose class-token features drive scene classification — is exactly what
a production geospatial service puts behind an endpoint. This package
makes that endpoint real *and testable*: a dynamic micro-batching policy
(:mod:`~repro.serve.batcher`), request / response records and the
deadline index (:mod:`~repro.serve.queue`), a replica pool balanced by
the hardware cost model (:mod:`~repro.serve.replica`), a
content-addressed LRU feature cache (:mod:`~repro.serve.cache`), the
deterministic event loop that runs them (:mod:`~repro.serve.server`)
and the conservation ledger it books every verdict in
(:mod:`~repro.serve.ledger`) — all on virtual time
(:mod:`~repro.serve.clock`), so every concurrency behaviour is a
replayable function of the workload and seeds.

The open-loop production layer (PR 10) sits on top: seeded multi-tenant
traffic generation (:mod:`~repro.serve.traffic`), the one bounded
queue — priorities, weighted fair lanes, global backpressure — with
per-tenant token buckets in front (:mod:`~repro.serve.admission`),
SLO-driven fleet autoscaling (:mod:`~repro.serve.autoscale`), and
cost-aware capacity planning with predicted-vs-measured reconciliation
(:mod:`~repro.serve.planner`).

Quick start::

    from repro.serve import InferenceServer, VirtualClock

    clock = VirtualClock()
    server = InferenceServer(model, n_replicas=2, max_batch_size=16,
                             max_wait_s=0.002, cache_capacity=1024,
                             clock=clock)
    responses = server.run([(t, image) for t, image in workload])
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "clock": ("VirtualClock",),
        "queue": ("Request", "Response"),
        "batcher": ("MicroBatcher",),
        "cache": ("LRUFeatureCache", "image_digest"),
        "replica": (
            "ServiceTimeModel",
            "FixedServiceModel",
            "Replica",
            "ReplicaPool",
            "ReplicaError",
            "ReplicaFaultSpec",
            "ReplicaFaultPlan",
        ),
        "server": ("InferenceServer",),
        "ledger": ("ServerStats", "TenantCounts", "latency_stats"),
        "admission": ("TenantSpec", "TokenBucket", "FairRequestQueue", "AdmissionController"),
        "autoscale": ("AutoscalePolicy", "ScaleEvent", "Autoscaler"),
        "traffic": (
            "RateProfile",
            "TenantTraffic",
            "TrafficEvent",
            "SyntheticEncoder",
            "generate_workload",
            "slo_attainment",
            "OpenLoopResult",
            "run_open_loop",
        ),
        "planner": (
            "ReplicaType",
            "CapacityPlan",
            "plan_capacity",
            "ReconRow",
            "PlanReconciliation",
            "reconcile_plan",
        ),
    },
)
