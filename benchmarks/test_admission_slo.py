"""Admission control -- chat SLO protection under the Table IV mixed burst.

Sweeps the admission-policy registry (open door vs deadline-aware shedding)
on a shared pool serving the chat+agent mixture and asserts the qualitative
shape: the open door violates the declared chat p95 SLO and sheds nothing,
while ``slo-shed`` holds the SLO by rejecting a nonzero share of agent work.
"""

from repro.analysis import admission_study


def test_slo_shed_protects_chat_under_agent_burst(run_once):
    study = run_once(
        admission_study,
        policies=("unlimited", "slo-shed"),
    )
    print()
    print(study.format())

    unlimited = study.result.at(policy="unlimited").outcome
    shed = study.result.at(policy="slo-shed").outcome

    # The open door: the agent burst drags chat past its SLO, nothing is shed.
    assert not study.chat_slo_held("unlimited")
    assert unlimited.num_rejected == 0
    assert unlimited.rejection_rate == 0.0

    # Deadline-aware shedding: chat p95 back inside the SLO, with a nonzero
    # agent rejection rate and priced shed tokens reported per class.
    assert study.chat_slo_held("slo-shed")
    agent_door = shed.admission_stats["agent"]
    assert agent_door.rejected > 0
    assert 0.0 < agent_door.rejection_rate <= 1.0
    assert agent_door.shed_tokens > 0.0
    assert shed.admission_stats["chat"].rejected == 0
    chat = shed.classes["chat"]
    assert chat.slo_attainment == 1.0
    # Shedding saves energy relative to serving the full burst.
    assert shed.energy_wh < unlimited.energy_wh
