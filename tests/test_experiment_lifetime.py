"""An experiment frees its system when ``run_experiment`` returns.

Each engine's loop and the autoscaler's loop stay suspended in their
generators when the simulation stops, and a suspended generator keeps the
system it belongs to in reference cycles that only the cyclic collector
frees.  ``run_experiment`` closes those loops once the runner returns, so
with the collector disabled the built ``System`` and every engine die as
soon as the last outside reference to them goes.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import ArrivalSpec, ExperimentSpec, SessionSpec, SystemBuilder, run_experiment

from tests.test_door_pins import SPECS, predictive

LIFETIME_SPECS = {
    "characterization": ExperimentSpec(
        agent="reflexion",
        workload="hotpotqa",
        arrival=ArrivalSpec(process="single", num_requests=3),
        seed=1,
    ),
    "predictive-autoscaler": predictive("holt"),
    "sessions": ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        replicas=2,
        router="session-affinity",
        arrival=ArrivalSpec(
            process="poisson",
            qps=2.0,
            num_requests=4,
            task_pool_size=4,
            sessions=SessionSpec(turns=3, followup_tokens=32, think_time_s=1.0),
        ),
    ),
    "delaying-door": SPECS["token-bucket-delay"][0],
}


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", list(LIFETIME_SPECS))
def test_run_experiment_leaves_nothing_for_the_collector(name, no_collector, monkeypatch):
    built = []
    build = SystemBuilder.build

    def capture(self):
        system = build(self)
        built.append(system)
        return system

    monkeypatch.setattr(SystemBuilder, "build", capture)
    result = run_experiment(LIFETIME_SPECS[name])
    assert result.num_completed > 0
    system = built.pop()
    engines = list(system.cluster.engines)
    refs = [weakref.ref(system)] + [weakref.ref(engine) for engine in engines]
    del system, engines
    assert [ref() for ref in refs] == [None] * len(refs)
