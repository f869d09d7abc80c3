"""The flat spec fields are shorthand for one pool and one unlabelled class.

``model``, ``replicas``, ``scheduler`` and ``router`` describe the one
``"default"`` pool of :attr:`ExperimentSpec.fleet`, and ``agent``,
``workload`` and ``agent_config`` the one unlabelled traffic class.  Each
flat spec here is written a second time with that pool declared
(``pools=(flat.fleet[0],)``, the four flat fleet fields back at their
defaults, ``hardware`` left on the spec for the pool to inherit); both
forms must run the same experiment to the last bit.  Also pins flat
traffic on a declared two-pool fleet under a predictive autoscaler.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.agents import AgentConfig
from repro.api import (
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    HardwareSpec,
    PoolSpec,
    SessionSpec,
    TenantSpec,
    run_experiment,
)
from repro.api.spec import FLAT_FLEET_FIELDS
from repro.serving import SquareWaveShape

CHARACTERIZATION = ExperimentSpec(
    agent="react",
    workload="hotpotqa",
    model="70b",
    replicas=2,
    scheduler="priority",
    router="least-loaded",
    hardware=HardwareSpec(gpu="H100-80GB", tensor_parallel=4),
    agent_config=AgentConfig(max_iterations=3),
    arrival=ArrivalSpec(process="single", num_requests=2),
    seed=3,
)

SERVING = ExperimentSpec(
    agent="chatbot",
    workload="sharegpt",
    model="70b",
    replicas=2,
    scheduler="vtc",
    router="session-affinity",
    hardware=HardwareSpec(gpu="H100-80GB", tensor_parallel=4),
    arrival=ArrivalSpec(
        process="poisson",
        qps=6.0,
        num_requests=12,
        task_pool_size=6,
        shape=SquareWaveShape(
            base_level=0.5, burst_level=3.0, period_s=6.0, burst_start_s=1.0,
            burst_s=2.0,
        ),
        tenants=TenantSpec(num_users=40, skew=1.2),
        sessions=SessionSpec(turns=2),
    ),
    seed=5,
)


def declared(flat: ExperimentSpec) -> ExperimentSpec:
    """``flat`` with its default pool declared and the flat fleet fields reset."""
    defaults = {
        spec_field.name: spec_field.default
        for spec_field in fields(ExperimentSpec)
        if spec_field.name in FLAT_FLEET_FIELDS
    }
    return flat.with_overrides(pools=(flat.fleet[0],), **defaults)


def _observables(result):
    return (
        result.summary(),
        result.per_pool_summary(),
        result.per_class_summary(),
        result.latencies,
    )


class TestFlatFieldsAreOneDefaultPool:
    def test_fleet_is_the_default_pool(self):
        (pool,) = SERVING.fleet
        assert pool == PoolSpec(
            name="default", model="70b", replicas=2, scheduler="vtc",
            router="session-affinity",
        )
        assert pool.hardware is None  # inherited from the spec
        assert declared(SERVING).fleet == SERVING.fleet

    @pytest.mark.parametrize("flat", [CHARACTERIZATION, SERVING], ids=["single", "serving"])
    def test_declared_default_pool_runs_the_same_experiment(self, flat):
        assert _observables(run_experiment(declared(flat))) == _observables(
            run_experiment(flat)
        )

    def test_flat_traffic_on_two_pools_feeds_the_forecaster_every_arrival(self):
        # The unlabelled class lands on the default (first) pool, which the
        # predictive autoscaler watches: every arrival is its demand.
        from repro.api.builder import SystemBuilder
        from repro.api.runners import ServingDriver, _build_plan

        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            pools=(PoolSpec(name="front", replicas=1), PoolSpec(name="back", replicas=1)),
            autoscaler=AutoscalerSpec(
                mode="predictive", forecaster="holt", min_replicas=1, max_replicas=3,
                check_interval_s=1.0, warmup_s=1.0,
            ),
            arrival=ArrivalSpec(process="poisson", qps=6.0, num_requests=16, task_pool_size=6),
            seed=2,
        )
        system = SystemBuilder(spec).build()
        plan = _build_plan(system)
        result = ServingDriver(system).serve(plan)
        assert plan.traffic_classes is None
        assert len(system.autoscaler.forecaster.arrivals) == len(plan)
        assert len(result.results) == len(plan)
        assert _observables(run_experiment(spec)) == _observables(run_experiment(spec))
