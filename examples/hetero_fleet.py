"""Heterogeneous fleets: buy hardware, not replicas.

Which *hardware* should you buy for the chat+agent mixture?  This example
sweeps fleet hardware layouts (each pool pinned to a catalog GPU via
:class:`~repro.api.HardwareSpec`) against traffic programs:

* ``fleet`` (the ``pools`` field) -- a lean homogeneous A100 fleet, a
  heavy homogeneous A100 fleet (chat pool sized up chasing attainment),
  and a mixed fleet: one H100 chat pool for latency headroom plus cheap
  L4 replicas absorbing the agent class,
* ``traffic`` (the ``arrival.shape`` field) -- steady arrivals vs a
  square-wave burst.

Every run is priced with the catalog's GPU hourly rates (GCP on-demand),
so the planning question becomes a Pareto query -- dollars per 1k served
tokens vs chat SLO attainment -- and the study's ``best_within`` answers it
under a cost budget: the best-attainment frontier layout that fits.

Expected read: the mixed H100+L4 fleet *dominates* the heavy homogeneous
A100 fleet -- cheaper tokens AND higher chat attainment (the A100 chat
pool is decode-floor-bound; extra A100 replicas buy attainment nothing
while A100 rates price every background token) -- and the planner picks
the mixed fleet under a budget the lean fleet's attainment cannot justify.

Run with::

    python examples/hetero_fleet.py
"""

from __future__ import annotations

from repro.analysis import hetero_fleet_study


def main() -> None:
    study = hetero_fleet_study()
    print(study.format())
    print()

    for traffic in ("steady", "burst"):
        print(study.format_frontier(traffic=traffic))
        print()

    for traffic in ("steady", "burst"):
        if study.mixed_dominates(traffic):
            print(
                f"under {traffic} traffic the mixed H100+L4 fleet dominates "
                "the heavy homogeneous A100 fleet: cheaper per 1k tokens at "
                "chat attainment at least as high"
            )

    # The planner question: best attainment within a $/1k-tokens budget.
    budget = 0.003
    best = study.best_within(budget, traffic="burst")
    layout = ", ".join(f"{axis}={label}" for axis, label in best.point.labels.items())
    pools = ", ".join(f"{pool.name}x{pool.replicas}" for pool in best.point.spec.fleet)
    print()
    print(f"planner, burst traffic, budget ${budget:g}/1k tokens:")
    print(
        f"  plan[{layout}] cost={best.cost:.4g} quality={best.quality:.4g}"
        f" pools({pools})"
    )
    print(
        f"  -> buy the {best.point.labels['fleet']} fleet: "
        f"${best.cost:.4f}/1k tokens at {best.quality:.0%} chat attainment"
    )


if __name__ == "__main__":
    main()
