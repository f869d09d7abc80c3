"""Multi-tenant fairness: does fair scheduling cost interactive latency?

A million-user Zipf population (a few whales, a long tail) offers the
chat+agent mixture through one serving fleet.  This example declares the
question as a :class:`~repro.api.StudySpec` sweeping three axes around
one tenanted base spec:

* ``scheduler`` -- fcfs, priority, sjf-by-predicted-decode, and ``vtc``
  (per-tenant virtual token counters: the pending tenant with the least
  weighted service admitted first),
* ``skew`` (the ``arrival.tenants`` field) -- a mildly (1.1) vs heavily
  (1.6) Zipf-skewed million-user population,
* ``qps`` -- moderate vs heavy offered load.

Every grid point runs the same mixture at the same seed with the engine
batch capped (``max_num_seqs=2``) so requests genuinely contend at the
scheduler's door, and the :class:`~repro.api.StudyResult` answers the
operator's question directly: ``pareto_frontier(
cost="served_token_ratio", quality="slo_attainment:chat",
minimize_quality=False)`` -- which scheduler buys fairness, and what does
it pay in chat SLO attainment?

Expected read: under heavy skew fcfs lets the whale monopolise the
contended window (at some loads it starves a contending tenant outright,
an infinite served-token max/min ratio), while vtc holds the ratio finite
at equal or better chat attainment -- fairness scheduling is close to
free.

Run with::

    python examples/fairness.py
"""

from __future__ import annotations

import math

from repro.analysis import fairness_study, predictor_error_study


def heavy_skew_ratios(study, scheduler: str) -> str:
    """``scheduler``'s heavy-skew served-token ratio per load, in words.

    A fully starved contending tenant makes the ratio infinite, so loads
    that starve one are named rather than given a number.
    """
    ratios = [
        (
            qps,
            study.metric(
                "served_token_ratio", scheduler=scheduler, skew="heavy", qps=f"{qps:g}"
            ),
        )
        for qps in study.result.axis_values("qps")
    ]
    parts = [
        f"{ratio:.2f}x at {qps:g} qps" for qps, ratio in ratios if not math.isinf(ratio)
    ]
    starved = [f"{qps:g}" for qps, ratio in ratios if math.isinf(ratio)]
    if starved:
        parts.insert(0, f"starves a tenant at {' and '.join(starved)} qps")
    return ", ".join(parts)


def main() -> None:
    study = fairness_study()
    print(study.format())
    print()

    for skew in ("mild", "heavy"):
        print(study.format_frontier(skew=skew))
        print()

    print(
        f"heavy skew, whale-to-tail served tokens: "
        f"fcfs {heavy_skew_ratios(study, 'fcfs')}; "
        f"vtc {heavy_skew_ratios(study, 'vtc')}"
    )
    frontier = study.frontier_labels("scheduler", skew="heavy")
    print(f"heavy-skew frontier (fairest first): {' -> '.join(frontier)}")
    if "vtc" in frontier:
        print(
            "vtc sits on the frontier: per-tenant token accounting buys "
            "fairness without paying for it in chat SLO attainment"
        )

    print()
    noise = predictor_error_study()
    print(noise.format())
    for error in ("0", "1", "2"):
        print(f"predictor noise sigma={error}: sjf advantage {noise.sjf_advantage(error):+.1%}")
    collapse = noise.collapse_error()
    if collapse is not None:
        print(
            f"sjf-by-predicted-decode's mean-latency win over fcfs collapses "
            f"at predictor noise sigma={collapse}: beyond that the 'shortest' "
            f"pick is effectively random"
        )


if __name__ == "__main__":
    main()
