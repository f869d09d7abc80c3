"""Tests for seeded random streams and samplers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DeterministicArrivals,
    LogNormalSampler,
    PoissonArrivals,
    RandomStream,
    UniformSampler,
)
from repro.sim.distributions import _derive_seed


#: Population sizes from 1 to 2**20: all small ones, then each power of
#: two and its neighbours.
CHOICE_SIZES = list(range(1, 65)) + [
    size for power in range(7, 21) for size in (2**power - 1, 2**power, 2**power + 1)
][:-1]


class TestRandomStream:
    def test_unweighted_choice_draws_what_numpy_choice_draws(self):
        # ``choice`` without weights draws ``Generator.integers(0, n)``
        # directly.  numpy is not pinned, so this pins the equivalence: the
        # same index as ``Generator.choice(n)``, and the stream stays in step.
        for seed in range(50):
            stream = RandomStream(seed, "choice")
            generator = np.random.default_rng(_derive_seed(seed, "choice"))
            for size in CHOICE_SIZES:
                options = range(size)
                assert stream.choice(options) == options[int(generator.choice(size))]
            assert stream.random() == float(generator.random())

    def test_weighted_choice_keeps_numpy_choice(self):
        stream = RandomStream(7, "weighted")
        generator = np.random.default_rng(_derive_seed(7, "weighted"))
        weights = [0.1, 0.6, 0.3]
        for _ in range(100):
            assert stream.choice("abc", p=weights) == "abc"[int(generator.choice(3, p=weights))]
        with pytest.raises(ValueError):
            stream.choice("abc", p=[0.5, 0.6, 0.3])

    def test_same_seed_and_name_is_deterministic(self):
        a = RandomStream(42, "x")
        b = RandomStream(42, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_give_different_sequences(self):
        a = RandomStream(42, "x")
        b = RandomStream(42, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_give_different_sequences(self):
        a = RandomStream(1, "x")
        b = RandomStream(2, "x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_substream_is_deterministic(self):
        a = RandomStream(7, "root").substream("child")
        b = RandomStream(7, "root").substream("child")
        assert a.random() == b.random()

    def test_substream_independent_from_parent(self):
        parent = RandomStream(7, "root")
        child = parent.substream("child")
        before = parent.random()
        # Drawing from the child must not perturb the parent sequence.
        parent2 = RandomStream(7, "root")
        parent2.substream("child")
        assert parent2.random() == before

    def test_integers_respect_bounds(self):
        stream = RandomStream(3, "ints")
        values = [stream.integers(2, 6) for _ in range(200)]
        assert all(2 <= value < 6 for value in values)
        assert set(values) == {2, 3, 4, 5}

    def test_uniform_respects_bounds(self):
        stream = RandomStream(3, "uniform")
        values = [stream.uniform(-1.0, 1.0) for _ in range(100)]
        assert all(-1.0 <= value <= 1.0 for value in values)

    def test_choice_returns_elements(self):
        stream = RandomStream(3, "choice")
        options = ["a", "b", "c"]
        assert all(stream.choice(options) in options for _ in range(20))


class TestSamplers:
    def test_uniform_sampler_bounds_and_mean(self, stream):
        sampler = UniformSampler(2.0, 4.0)
        values = [sampler.sample(stream) for _ in range(500)]
        assert all(2.0 <= value <= 4.0 for value in values)
        assert sampler.mean == pytest.approx(3.0)

    def test_lognormal_sampler_mean_and_positivity(self, stream):
        sampler = LogNormalSampler(1.2, cv=0.4)
        values = [sampler.sample(stream) for _ in range(4000)]
        assert all(value > 0 for value in values)
        assert sum(values) / len(values) == pytest.approx(1.2, rel=0.1)

    def test_lognormal_zero_mean_returns_zero(self, stream):
        assert LogNormalSampler(0.0, cv=0.4).sample(stream) == 0.0

    @given(mean=st.floats(0.01, 100.0), cv=st.floats(0.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_lognormal_sample_is_positive_for_any_parameters(self, mean, cv):
        stream = RandomStream(9, f"hyp/{mean}/{cv}")
        sampler = LogNormalSampler(mean, cv)
        assert sampler.sample(stream) > 0


class TestArrivals:
    def test_poisson_arrival_times_are_increasing(self, stream):
        arrivals = PoissonArrivals(2.0, stream)
        times = arrivals.arrival_times(100)
        assert len(times) == 100
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_rate_matches_mean_gap(self, stream):
        arrivals = PoissonArrivals(4.0, stream)
        times = arrivals.arrival_times(4000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(0.25, rel=0.1)

    def test_poisson_requires_positive_rate(self, stream):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, stream)

    def test_deterministic_arrivals_evenly_spaced(self):
        times = DeterministicArrivals(2.0).arrival_times(4)
        assert times == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(1.5), pytest.approx(2.0)]

    def test_deterministic_requires_positive_rate(self):
        with pytest.raises(ValueError):
            DeterministicArrivals(-1.0)

    def test_arrival_times_respect_start_offset(self, stream):
        times = PoissonArrivals(1.0, stream).arrival_times(10, start=100.0)
        assert all(time > 100.0 for time in times)
