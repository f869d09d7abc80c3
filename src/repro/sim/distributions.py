"""Seeded random streams and the samplers used throughout the reproduction.

Every stochastic quantity in the simulator (tool latencies, task difficulty,
request arrivals, output lengths) is drawn from a named :class:`RandomStream`
derived from a single experiment seed, so every experiment is exactly
reproducible and independent sub-streams do not perturb one another when the
workload mix changes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


def _derive_seed(base_seed: int, name: str) -> int:
    """Derive a 64-bit sub-seed from ``base_seed`` and a stream name."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """A named, seeded random stream backed by ``numpy.random.Generator``."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        self._rng = np.random.default_rng(_derive_seed(seed, name))

    def substream(self, name: str) -> "RandomStream":
        """Create an independent child stream; deterministic given the name."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    # Thin wrappers so callers never touch numpy directly.
    def random(self) -> float:
        return float(self._rng.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self._rng.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Integer in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def normal(self, mean: float, std: float) -> float:
        return float(self._rng.normal(mean, std))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._rng.lognormal(mean, sigma))

    def exponential(self, scale: float) -> float:
        return float(self._rng.exponential(scale))

    def poisson(self, lam: float) -> int:
        return int(self._rng.poisson(lam))

    def choice(self, options: Sequence, p: Sequence[float] | None = None):
        # Unweighted, ``Generator.choice(n)`` draws ``integers(0, n)``: the
        # same index, without ``choice``'s per-call argument handling.
        if p is None:
            return options[int(self._rng.integers(0, len(options)))]
        return options[int(self._rng.choice(len(options), p=p))]


@dataclass(frozen=True)
class UniformSampler:
    """Uniform sampler on ``[low, high]``."""

    low: float
    high: float

    def sample(self, stream: RandomStream) -> float:
        return stream.uniform(self.low, self.high)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class LogNormalSampler:
    """Log-normal sampler parameterised by its *arithmetic* mean and coefficient of variation.

    Tool latencies and output lengths in the paper are right-skewed; a
    log-normal parameterised by (mean, cv) keeps calibration constants
    readable (mean latency 1.2 s, cv 0.4) while producing the heavy tails
    that drive the paper's tail-latency findings.
    """

    mean_value: float
    cv: float = 0.3

    def _params(self) -> tuple[float, float]:
        sigma2 = math.log(1.0 + self.cv**2)
        mu = math.log(self.mean_value) - sigma2 / 2.0
        return mu, math.sqrt(sigma2)

    def sample(self, stream: RandomStream) -> float:
        if self.mean_value <= 0:
            return 0.0
        mu, sigma = self._params()
        return stream.lognormal(mu, sigma)

    @property
    def mean(self) -> float:
        return self.mean_value


class PoissonArrivals:
    """Generator of Poisson arrival times at ``rate`` queries per second."""

    def __init__(self, rate_qps: float, stream: RandomStream):
        if rate_qps <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_qps = rate_qps
        self.stream = stream

    def interarrival_times(self, count: int) -> Iterator[float]:
        """Yield ``count`` exponential inter-arrival gaps."""
        for _ in range(count):
            yield self.stream.exponential(1.0 / self.rate_qps)

    def arrival_times(self, count: int, start: float = 0.0) -> list[float]:
        """Absolute arrival times for ``count`` requests starting at ``start``."""
        times = []
        now = start
        for gap in self.interarrival_times(count):
            now += gap
            times.append(now)
        return times


class DeterministicArrivals:
    """Evenly spaced arrivals (the ``uniform`` arrival process)."""

    def __init__(self, rate_qps: float):
        if rate_qps <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_qps = rate_qps

    def arrival_times(self, count: int, start: float = 0.0) -> list[float]:
        gap = 1.0 / self.rate_qps
        return [start + gap * (i + 1) for i in range(count)]
