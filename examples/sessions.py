"""Multi-turn sessions: which router keeps a conversation's KV cache warm?

Sixteen chat conversations -- each a multi-turn session whose every turn
extends the previous turn's prompt and answer token for token, separated
by think-time gaps -- are served by a fixed two-replica fleet.  This
example declares the question as a :class:`~repro.api.StudySpec` sweeping
three axes around one sessionful base spec:

* ``router`` -- least-loaded, prefix-affinity (hash of the opening
  tokens), and ``session-affinity`` (sticky: a conversation is pinned to
  the replica that served its previous turn),
* ``turns`` (the ``arrival.sessions`` field) -- short (2) vs long (4)
  conversations,
* ``kv`` (the ``kv_cache_fraction`` field) -- a KV cache sized for the
  working set vs squeezed to 5%, so cross-turn reuse competes with
  capacity eviction.

Every grid point serves the same conversations at the same seed on the
same fleet (equal replica-seconds), with the engine batch capped
(``max_num_seqs=2``) and the task pool deliberately tiny -- concurrent
conversations that open with the same prompt are exactly the traffic that
defeats prefix hashing, which collapses them all onto one hot replica.
The :class:`~repro.api.StudyResult` answers the operator's question
directly: ``pareto_frontier(cost="p95_latency",
quality="cross_turn_hit_rate", minimize_quality=False)`` -- which router
buys conversation reuse, and what does it pay in tail latency?

Expected read: session-affinity owns the frontier.  Prefix-affinity
matches its hit rate only by hot-spotting one replica (p95 several
seconds worse at the same replica-seconds), least-loaded spreads load but
forgets conversations, and squeezing the KV cache erodes sticky routing's
advantage on long sessions -- the home replica can no longer hold every
pinned conversation's history.

Run with::

    python examples/sessions.py
"""

from __future__ import annotations

from repro.analysis import sessions_study


def main() -> None:
    study = sessions_study()
    print(study.format())
    print()

    print(study.format_frontier())
    print()

    advantage = study.affinity_advantage(turns="4", kv="1")
    print(
        f"long sessions, ample KV: session-affinity beats prefix-affinity by "
        f"{advantage['hit_rate']:+.3f} cross-turn hit rate at "
        f"{advantage['p95_s']:+.2f}s p95 (equal replica-seconds)"
    )
    frontier = study.frontier_labels("router")
    print(f"frontier routers (fastest first): {' -> '.join(frontier)}")
    if set(frontier) == {"session-affinity"}:
        print(
            "session-affinity owns the frontier: sticky placement turns "
            "conversations into prefix-cache hits without hot-spotting"
        )


if __name__ == "__main__":
    main()
