"""Pinned outputs of the session, burst-profile and predictor-error studies.

Tiny grids (each runs in well under a second) whose printed tables and
headline values are pinned byte for byte, so a change to the shared study
view, the metric vocabulary or the frontier shows up as a diff here
rather than only in the examples.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    burst_profile_study,
    predictor_error_study,
    sessions_study,
)
from repro.analysis.burst_profiles import DEFAULT_PROFILES


@pytest.fixture(scope="module")
def sessions():
    return sessions_study(num_sessions=6, turns_values=(2,), kv_fractions=(0.05,))


@pytest.fixture(scope="module")
def bursts():
    # The square-wave burst only, against the never-ahead baseline and holt.
    return burst_profile_study(
        num_requests=20, profiles=DEFAULT_PROFILES[1:2], forecasters=("none", "holt")
    )


@pytest.fixture(scope="module")
def noise():
    return predictor_error_study(error_values=(0.0, 4.0), num_requests=16)


class TestSessionsStudy:
    def test_format(self, sessions):
        assert sessions.format() == (
            "Cross-turn KV reuse: router x session length x cache capacity\n"
            "router           | turns | kv   | turns_served | sessions | hit_rate "
            "| p95_s | invalidations | replica_s\n"
            "-----------------+-------+------+--------------+----------+----------"
            "+-------+---------------+----------\n"
            "least-loaded     | 2     | 0.05 | 12           | 6        | 0.495    "
            "| 8.518 | 0             | 38.4     \n"
            "prefix-affinity  | 2     | 0.05 | 12           | 6        | 0.891    "
            "| 9.165 | 0             | 40.2     \n"
            "session-affinity | 2     | 0.05 | 12           | 6        | 0.891    "
            "| 8.293 | 0             | 30.3     "
        )

    def test_format_frontier(self, sessions):
        assert sessions.format_frontier() == (
            "Pareto frontier (tail latency vs cross-turn reuse)\n"
            "router           | turns | kv   | p95_s | hit_rate | invalidations\n"
            "-----------------+-------+------+-------+----------+--------------\n"
            "session-affinity | 2     | 0.05 | 8.293 | 0.891    | 0            "
        )

    def test_headlines(self, sessions):
        assert sessions.affinity_advantage(turns="2", kv="0.05") == {
            "hit_rate": 0.0,
            "p95_s": -0.8722947194380577,
        }
        assert sessions.frontier_labels("router") == ["session-affinity"]


class TestBurstProfileStudy:
    def test_format_accuracy(self, bursts):
        assert bursts.format_accuracy() == (
            "Offline forecast MAE by profile (req/s; lower is better)\n"
            "profile | windowed-rate_mae | ewma_mae | holt_mae\n"
            "--------+-------------------+----------+---------\n"
            "burst   | 2.373             | 1.907    | 2.415   "
        )
        assert bursts.accuracy == [
            {
                "profile": "burst",
                "windowed-rate_mae": 2.373076923076923,
                "ewma_mae": 1.906560265272856,
                "holt_mae": 2.415393758120581,
            }
        ]

    def test_format(self, bursts):
        assert bursts.format() == (
            "Predictive autoscaling across burst profiles\n"
            "profile | forecaster | completed | p95_s | forecast_mae "
            "| scale_ahead_lead_s | replica_seconds\n"
            "--------+------------+-----------+-------+--------------"
            "+--------------------+----------------\n"
            "burst   | none       | 20        | 6.229 | 0.417        "
            "| None               | 51.6           \n"
            "burst   | holt       | 20        | 6.229 | 1.979        "
            "| 1.000              | 59.6           "
        )

    def test_headlines(self, bursts):
        assert bursts.lead_on("burst", "none") is None
        assert bursts.lead_on("burst", "holt") == 1.0
        assert bursts.best_offline("burst") == "ewma"


class TestPredictorErrorStudy:
    def test_format(self, noise):
        assert noise.format() == (
            "sjf-by-predicted-decode vs fcfs under a noisy decode predictor\n"
            "scheduler               | error | completed | mean_s | p95_s | chat_p95_s\n"
            "------------------------+-------+-----------+--------+-------+-----------\n"
            "fcfs                    | 0     | 16        | 24.3   | 51.1  | 41.0      \n"
            "fcfs                    | 4     | 16        | 24.3   | 51.1  | 41.0      \n"
            "sjf-by-predicted-decode | 0     | 16        | 21.9   | 44.7  | 46.2      \n"
            "sjf-by-predicted-decode | 4     | 16        | 27.6   | 47.5  | 43.7      "
        )

    def test_headlines(self, noise):
        assert noise.sjf_advantage("0") == 0.10099563000170311
        assert noise.sjf_advantage("4") == -0.13674065124895446
        assert noise.collapse_error() == "4"
