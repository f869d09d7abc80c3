"""Multi-turn sessions: session length x KV capacity x router, Pareto-queried.

A chat fleet does not serve isolated requests: each user holds a
conversation whose every turn re-reads the whole history.  Whether that
history is re-computed or re-used is a placement question -- the KV blocks
of the previous turn live on exactly one replica, and only a router that
sends the next turn back there turns the conversation into prefix-cache
hits.  This study makes the trade concrete with the declarative study
machinery: a :class:`~repro.api.StudySpec` sweeps the router policy
(``least-loaded``, ``prefix-affinity``, and the sticky ``session-affinity``)
against session length (the ``arrival.sessions`` axis) and prefix-cache
capacity (the ``kv_cache_fraction`` axis) on a fixed-size replica fleet, so
every grid point pays the same replica-seconds.

Cross-turn reuse is read off
:attr:`~repro.api.ResultSet.cross_turn_hit_rate` (prefix-cache hit rate
over later-turn prompt tokens; 1.0 = every turn re-read its history from
KV) and the frontier query ``pareto_frontier(cost="p95_latency",
quality="cross_turn_hit_rate", minimize_quality=False)`` answers the
operator's question directly: which router buys conversation reuse without
paying for it in tail latency?

The headline read: ``session-affinity`` dominates ``prefix-affinity`` on
chat traffic drawn from a small task pool -- prefix hashing collapses every
concurrent conversation that opens with the same prompt onto one replica,
and the hotspot both spills (invalidating its own stickiness) and inflates
p95, while session stickiness spreads conversations at session start and
keeps each one home for its remaining turns.  ``examples/sessions.py``
prints the grid and the frontier.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.analysis.study_view import FrontierView
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    SessionSpec,
    StudyAxis,
    StudySpec,
    run_study,
)

#: The router policies the study compares.
SESSION_ROUTERS: Tuple[str, ...] = (
    "least-loaded",
    "prefix-affinity",
    "session-affinity",
)


class SessionStudyResult(FrontierView):
    """The executed session grid: tail latency vs cross-turn reuse."""

    METRICS = (
        ("turns_served", "total_turns"),
        ("sessions", "completed_sessions"),
        ("hit_rate", "cross_turn_hit_rate"),
        ("p95_s", "p95_latency"),
        ("invalidations", "affinity_invalidations"),
        ("replica_s", "replica_seconds"),
    )
    COST, QUALITY, MINIMIZE_QUALITY = "p95_s", "hit_rate", False
    FRONTIER_AXES = ("router", "turns", "kv")
    FRONTIER_EXTRAS = ("invalidations",)
    FRONTIER_TITLE = "Pareto frontier (tail latency vs cross-turn reuse)"

    def affinity_advantage(self, turns: str, kv: str) -> Dict[str, float]:
        """Session-affinity minus prefix-affinity, same cell, same replica-seconds.

        Positive ``hit_rate`` and negative ``p95_s`` mean sticky session
        routing strictly beats prefix hashing for that session length and
        cache capacity.
        """
        session = self.result.at(router="session-affinity", turns=turns, kv=kv)
        prefix = self.result.at(router="prefix-affinity", turns=turns, kv=kv)
        return {
            "hit_rate": (
                session.metric("cross_turn_hit_rate")
                - prefix.metric("cross_turn_hit_rate")
            ),
            "p95_s": session.metric("p95_latency") - prefix.metric("p95_latency"),
        }


def sessions_study(
    qps: float = 4.0,
    num_sessions: int = 16,
    turns_values: Sequence[int] = (2, 4),
    kv_fractions: Sequence[float] = (0.05, 1.0),
    routers: Sequence[str] = SESSION_ROUTERS,
    followup_tokens: int = 48,
    think_time_s: float = 1.0,
    replicas: int = 2,
    task_pool_size: int = 2,
    max_num_seqs: int = 2,
    seed: int = 0,
    parallel: int = 1,
) -> SessionStudyResult:
    """Sweep router x session length x KV capacity on chat conversations.

    Every grid point serves the same ``num_sessions`` conversations on the
    same fixed ``replicas``-wide fleet at the same seed, so replica-seconds
    are equal across routers and any hit-rate or tail-latency movement is
    attributable to placement.  ``task_pool_size`` is deliberately small:
    concurrent conversations that open with the same prompt are exactly the
    traffic that defeats prefix hashing (identical first-token hash, one
    hot replica) while leaving session stickiness untouched, and
    ``max_num_seqs`` caps the engine batch so the hot replica genuinely
    queues instead of absorbing the skew.

    ``parallel`` fans the grid points out over a process pool (see
    :func:`repro.api.run_study`); results are bit-identical to serial runs.
    """
    base = ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        replicas=replicas,
        max_num_seqs=max_num_seqs,
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps,
            num_requests=num_sessions,
            task_pool_size=task_pool_size,
            sessions=SessionSpec(
                turns=turns_values[0],
                followup_tokens=followup_tokens,
                think_time_s=think_time_s,
            ),
        ),
        seed=seed,
    )
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(name="router", values=tuple(routers)),
            StudyAxis(
                name="turns",
                field="arrival.sessions",
                values=tuple(
                    SessionSpec(
                        turns=turns,
                        followup_tokens=followup_tokens,
                        think_time_s=think_time_s,
                    )
                    for turns in turns_values
                ),
                labels=tuple(str(turns) for turns in turns_values),
            ),
            StudyAxis(
                name="kv",
                field="kv_cache_fraction",
                values=tuple(kv_fractions),
                labels=tuple(f"{fraction:g}" for fraction in kv_fractions),
            ),
        ),
        name="session-reuse",
    )
    return SessionStudyResult(
        result=run_study(study, parallel=parallel),
        title="Cross-turn KV reuse: router x session length x cache capacity",
    )
