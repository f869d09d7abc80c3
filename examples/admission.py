"""SLO-aware admission control under the Table IV chat+agent burst.

One shared two-replica pool serves a weighted chatbot + ReAct-agent traffic
mixture at burst load (the paper's datacenter scenario).  The sweep compares
the admission policies guarding the serving door:

* ``unlimited``    -- the open door: the agent burst drags the interactive
  chat p95 past its declared SLO,
* ``concurrency``  -- the legacy global in-flight cap: blunt, class-blind,
* ``token-bucket`` -- the agent class capped to a fixed request budget,
* ``slo-shed``     -- deadline-aware: agent work is shed (rejected at the
  door, with shed-token accounting) whenever the projected chat p95 --
  rolling completion window plus predicted-decode backlog drain -- would
  violate the SLO declared in ``MeasurementSpec``.

Expected outcome: with ``slo-shed`` the chat class's measured p95 stays
within its SLO (attainment 1.0) while a nonzero fraction of agent requests
is rejected; the open door violates the SLO and sheds nothing.

Run with::

    python examples/admission.py
"""

from __future__ import annotations

from repro.analysis import admission_study


def main() -> None:
    study = admission_study()
    print(study.format())
    print()

    held = study.chat_slo_held("slo-shed")
    open_door = study.chat_slo_held("unlimited")
    shed = study.result.at(policy="slo-shed").outcome
    shed_stats = shed.admission_stats["agent"]
    chat_slo_s = shed.spec.measurement.slo_for("chat")
    print(f"chat SLO ({chat_slo_s:.0f}s p95) with the open door:  "
          f"{'HELD' if open_door else 'VIOLATED'}")
    print(f"chat SLO ({chat_slo_s:.0f}s p95) under slo-shed:      "
          f"{'HELD' if held else 'VIOLATED'}")
    print(f"agent requests shed by slo-shed:        "
          f"{shed_stats.rejected}/{shed_stats.offered} "
          f"({shed_stats.rejection_rate * 100:.0f}%, "
          f"~{shed_stats.shed_tokens:.0f} decode tokens avoided)")


if __name__ == "__main__":
    main()
