"""Tests for multi-turn sessions: specs, sticky routing, driver lifecycle."""

from __future__ import annotations

import pytest

from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    SessionSpec,
    StudyAxis,
    StudySpec,
    run_experiment,
)
from repro.api.codec import from_dict
from repro.llm import EngineConfig, Prompt, SamplingParams
from repro.llm.kvcache import KVCacheConfig
from repro.llm.request import LLMRequest
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer
from repro.serving import Cluster, ReplicaPool
from repro.sim import Environment

TOKENIZER = SyntheticTokenizer()


def make_request(session: str | None = None, stream: str = "req") -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, 64))
    return LLMRequest(
        prompt=prompt,
        sampling=SamplingParams(output_tokens=8),
        metadata={"session": session} if session else None,
    )


def session_spec(**overrides) -> ExperimentSpec:
    options = dict(
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
    )
    options.update(overrides)
    return ExperimentSpec(**options)


# ---------------------------------------------------------------------------
# SessionSpec validation and plumbing
# ---------------------------------------------------------------------------


class TestSessionSpec:
    def test_defaults_round_trip(self):
        spec = SessionSpec(turns=4, followup_tokens=64, think_time_s=5.0)
        assert from_dict(
            SessionSpec, {"turns": 4, "followup_tokens": 64, "think_time_s": 5.0}
        ) == spec

    def test_invalid_turns_rejected(self):
        with pytest.raises(ValueError, match="turns"):
            SessionSpec(turns=0)

    def test_invalid_think_time_distribution_rejected(self):
        with pytest.raises(ValueError, match="think_time"):
            SessionSpec(think_time="lognormal")

    def test_negative_think_time_rejected(self):
        with pytest.raises(ValueError, match="think_time_s"):
            SessionSpec(think_time_s=-1.0)

    def test_arrival_spec_rejects_dict(self):
        # A dict is a plain form, which only repro.api.codec decodes.
        with pytest.raises(ValueError, match="must be a SessionSpec"):
            ArrivalSpec(
                process="poisson",
                qps=1.0,
                num_requests=2,
                sessions={"turns": 2, "followup_tokens": 16},
            )

    def test_sessions_need_open_loop_arrivals(self):
        with pytest.raises(ValueError, match="open-loop"):
            ArrivalSpec(process="single", num_requests=2, sessions=SessionSpec())

    def test_arrival_from_dict_decodes_sessions(self):
        arrival = from_dict(
            ArrivalSpec,
            {
                "process": "poisson",
                "qps": 1.0,
                "num_requests": 2,
                "sessions": {"turns": 5},
            },
        )
        assert arrival.sessions == SessionSpec(turns=5)

    def test_study_axis_value_round_trips(self):
        import json

        spec = SessionSpec(turns=6, followup_tokens=48, think_time_s=2.0)
        study = StudySpec(
            base=session_spec(),
            axes=(StudyAxis(name="turns", field="arrival.sessions", values=(spec,)),),
        )
        rebuilt = StudySpec.from_dict(json.loads(json.dumps(study.to_dict())))
        assert rebuilt == study
        assert rebuilt.axes[0].values == (spec,)


# ---------------------------------------------------------------------------
# KV-capacity knob
# ---------------------------------------------------------------------------


class TestKvCacheFraction:
    def test_fraction_scales_num_blocks(self):
        config = EngineConfig()
        full = KVCacheConfig.from_hardware(config.model, config.resolved_cluster())
        half = KVCacheConfig.from_hardware(
            config.model, config.resolved_cluster(), capacity_fraction=0.5
        )
        assert half.num_blocks == max(1, int(full.num_blocks * 0.5))

    def test_invalid_fraction_rejected(self):
        config = EngineConfig()
        with pytest.raises(ValueError, match="capacity_fraction"):
            KVCacheConfig.from_hardware(
                config.model, config.resolved_cluster(), capacity_fraction=1.5
            )

    def test_spec_validates_fraction(self):
        with pytest.raises(ValueError, match="kv_cache_fraction"):
            ExperimentSpec(agent="chatbot", workload="sharegpt", kv_cache_fraction=0.0)


# ---------------------------------------------------------------------------
# Session-affinity router
# ---------------------------------------------------------------------------


class TestSessionAffinityRouter:
    def _cluster(self, num_replicas: int = 4) -> Cluster:
        env = Environment()
        pool = ReplicaPool(
            env, EngineConfig(), num_replicas=num_replicas, router="session-affinity"
        )
        return Cluster(env, pools=[pool])

    def test_untagged_requests_fall_back_to_least_loaded(self):
        cluster = self._cluster()
        router = cluster.default_pool.router
        for index in (0, 0, 1, 2):
            cluster.replicas[index].submit(make_request(stream=f"load{index}"))
        assert router.select(make_request(), cluster.replicas) == 3

    def test_session_sticks_to_its_home(self):
        cluster = self._cluster()
        router = cluster.default_pool.router
        home = router.select(make_request(session="s0"), cluster.replicas)
        # Mild load elsewhere must not move the session off its home.
        other = (home + 1) % len(cluster.replicas)
        cluster.replicas[home].submit(make_request(stream="busy"))
        assert other != home
        assert router.select(make_request(session="s0"), cluster.replicas) == home
        assert router.invalidations == 0

    def test_spill_invalidates_affinity(self):
        cluster = self._cluster()
        router = cluster.default_pool.router
        home = router.select(make_request(session="s0"), cluster.replicas)
        for n in range(router.spill_threshold + 1):
            cluster.replicas[home].submit(make_request(stream=f"fill{n}"))
        moved = router.select(make_request(session="s0"), cluster.replicas)
        assert moved != home
        assert router.invalidations == 1
        # The spill re-pins: the session's new home is the spill target.
        assert router.select(make_request(session="s0"), cluster.replicas) == moved

    def test_replica_shrink_invalidates_and_re_pins(self):
        cluster = self._cluster()
        router = cluster.default_pool.router
        replicas = list(cluster.replicas)
        home = router.select(make_request(session="s0"), replicas)
        # The home replica leaves the active set (autoscaler shrink).
        survivors = [engine for i, engine in enumerate(replicas) if i != home]
        re_pinned = router.select(make_request(session="s0"), survivors)
        assert router.invalidations == 1
        new_home = survivors[re_pinned]
        # Subsequent turns stick to the new home, no further invalidation.
        assert survivors[router.select(make_request(session="s0"), survivors)] is new_home
        assert router.invalidations == 1


# ---------------------------------------------------------------------------
# Serving driver lifecycle
# ---------------------------------------------------------------------------


class TestSessionServing:
    def test_turn_and_session_accounting(self):
        outcome = run_experiment(session_spec())
        stats = outcome.session_stats
        assert stats is not None
        assert stats.num_sessions == 4
        assert stats.completed_sessions == 4
        assert stats.total_turns == 12
        assert outcome.num_completed == 12
        assert stats.mean_turns_per_session == 3.0
        assert 0.0 < stats.cross_turn_hit_rate <= 1.0

    def test_prompts_grow_across_turns(self):
        outcome = run_experiment(session_spec())
        by_session: dict = {}
        for result in outcome.serving.results:
            by_session.setdefault(result.metadata["session"], []).append(result)
        assert len(by_session) == 4
        for turns in by_session.values():
            turns.sort(key=lambda result: result.metadata["session_turn"])
            prompt_sizes = [result.total_prompt_tokens for result in turns]
            assert prompt_sizes == sorted(prompt_sizes)
            assert prompt_sizes[-1] > prompt_sizes[0]

    def test_cross_turn_reuse_is_high_with_sticky_routing(self):
        outcome = run_experiment(session_spec())
        assert outcome.cross_turn_hit_rate > 0.8

    def test_sessionless_runs_report_no_session_stats(self):
        spec = session_spec(
            router="least-loaded",
            arrival=ArrivalSpec(
                process="poisson", qps=2.0, num_requests=4, task_pool_size=4
            ),
        )
        outcome = run_experiment(spec)
        assert outcome.session_stats is None
        assert outcome.cross_turn_hit_rate is None
        assert "num_sessions" not in outcome.summary()

    def test_session_runs_are_deterministic(self):
        first = run_experiment(session_spec()).summary()
        second = run_experiment(session_spec()).summary()
        assert first == second

    def test_admission_counts_sessions_not_turns(self):
        # A concurrency-1 door admits one *interaction* at a time; later
        # turns of an admitted session never re-enter the door, so the
        # offered count equals the arrival plan, not the turn count.
        from repro.api import AdmissionSpec

        outcome = run_experiment(
            session_spec(admission=AdmissionSpec(policy="concurrency", max_concurrency=1))
        )
        stats = outcome.session_stats
        assert stats.completed_sessions == 4
        assert outcome.num_completed == 12
        offered = sum(s.offered for s in outcome.serving.admission_stats.values())
        assert offered == 4
        assert outcome.num_rejected == 0

    def test_oit_throttle_never_severs_mid_session(self):
        from repro.api import AdmissionSpec

        outcome = run_experiment(
            session_spec(admission=AdmissionSpec(policy="oit-throttle"))
        )
        stats = outcome.session_stats
        # Every *admitted* session runs to its final turn: rejection can only
        # happen at the first turn, so started == completed always.
        assert stats.completed_sessions == stats.num_sessions

    def test_hit_accounting_survives_preemption(self):
        outcome = run_experiment(
            session_spec(
                kv_cache_fraction=0.01,
                arrival=ArrivalSpec(
                    process="poisson",
                    qps=4.0,
                    num_requests=6,
                    task_pool_size=2,
                    sessions=SessionSpec(turns=3, followup_tokens=32, think_time_s=0.5),
                ),
            )
        )
        stats = outcome.session_stats
        # The squeezed cache genuinely preempts, evicting warm prefixes.
        assert outcome.serving.preemptions > 0
        assert stats.completed_sessions == 6
        assert 0 <= stats.cross_turn_cached_tokens <= stats.cross_turn_prompt_tokens
        assert 0.0 <= stats.cross_turn_hit_rate <= 1.0
        # Eviction costs reuse: the hit rate sits below the ample-capacity run.
        ample = run_experiment(
            session_spec(
                arrival=ArrivalSpec(
                    process="poisson",
                    qps=4.0,
                    num_requests=6,
                    task_pool_size=2,
                    sessions=SessionSpec(turns=3, followup_tokens=32, think_time_s=0.5),
                ),
            )
        )
        assert stats.cross_turn_hit_rate < ample.cross_turn_hit_rate

    def test_constant_think_time_draws_nothing(self):
        spec = session_spec(
            arrival=ArrivalSpec(
                process="poisson",
                qps=2.0,
                num_requests=2,
                task_pool_size=2,
                sessions=SessionSpec(turns=2, think_time_s=3.0, think_time="constant"),
            )
        )
        outcome = run_experiment(spec)
        assert outcome.session_stats.completed_sessions == 2

    def test_per_class_sessions_override_arrival(self):
        from repro.api import WeightedWorkload

        spec = ExperimentSpec(
            workloads=(
                WeightedWorkload(
                    agent="chatbot",
                    workload="sharegpt",
                    weight=1.0,
                    name="chat",
                    sessions=SessionSpec(turns=2, think_time_s=0.5),
                ),
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", weight=1.0, name="batch"
                ),
            ),
            replicas=2,
            router="session-affinity",
            arrival=ArrivalSpec(
                process="poisson", qps=2.0, num_requests=6, task_pool_size=4
            ),
        )
        outcome = run_experiment(spec)
        stats = outcome.session_stats
        # Only chat-class arrivals open sessions; batch stays single-shot.
        chat = sum(
            1
            for result in outcome.serving.results
            if result.metadata.get("traffic_class") == "chat"
            and result.metadata.get("session_turn") == 1
        )
        assert stats.num_sessions == chat
        assert stats.completed_sessions == stats.num_sessions
        batch = [
            result
            for result in outcome.serving.results
            if result.metadata.get("traffic_class") == "batch"
        ]
        assert batch and all("session" not in result.metadata for result in batch)
