"""Burst-profile workloads: forecasters swept across shaped traffic programs.

The ramp / square-wave / diurnal profiles that validated the arrival
forecasters now live in the spec vocabulary
(:mod:`repro.serving.shapes`), so the forecaster question becomes a
declarative study: a :class:`~repro.api.StudySpec` sweeps one predictive
``autoscaler`` per forecaster x ``arrival.shape`` on one chatbot pool,
while an offline table scores every forecaster on each
profile's deterministic trace (the exact loop the accuracy tests pin).

Expected read: offline, the trend-aware ``holt`` forecaster wins the ramp
by a wide margin while smoothing (``ewma``) damps the square wave; in the
loop, the forecasted configurations buy scale-ahead lead time on the
burst that the ``none`` baseline (backlog-only sizing) never gets.

Run with::

    python examples/burst_profiles.py
"""

from __future__ import annotations

from repro.analysis import burst_profile_study


def main() -> None:
    study = burst_profile_study()
    print(study.format_accuracy())
    print()
    print(study.format())
    print()

    best_ramp = study.best_offline("ramp")
    print(f"best offline forecaster on the ramp: {best_ramp}")

    baseline = study.lead_on("burst", "none")
    print(
        "scale-ahead lead on the square burst: "
        + ", ".join(
            f"{name}={study.lead_on('burst', name) or 0.0:.1f}s"
            for name in ("none", "windowed-rate", "holt")
        )
    )
    if baseline is None:
        print(
            "the none baseline never scales ahead of the burst -- "
            "look-ahead is what buys the head start"
        )


if __name__ == "__main__":
    main()
