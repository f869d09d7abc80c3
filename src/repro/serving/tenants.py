"""Multi-tenant population model and per-tenant fairness accounting.

The serving stack historically simulated an anonymous request stream: every
arrival was indistinguishable, so nothing could be said about *who* gets
served under overload.  This module introduces the tenant vocabulary:

* :class:`TenantSpec` -- the frozen, declarative description of a tenant
  population: ``num_users`` simulated users whose per-user request rates
  follow a Zipf law with exponent ``skew`` (rank 1 is the heaviest user),
  grouped into ``num_apps`` applications.
* :class:`Tenant` -- one sampled tenant identity carried per arrival
  (user id, app id, Zipf rank, population size).
* :class:`TenantPopulation` -- the lazy sampler.  Users are *never*
  materialised up front: ranks are drawn by rejection inversion of the
  Zipf(+1/2-shifted) CDF (Hormann & Derflinger), which inverts an analytic
  bound of the rank distribution's CDF in O(1) time and memory per draw,
  so a 1e6-user population costs memory proportional only to the tenants
  actually sampled (the memoised :class:`Tenant` objects), never
  O(population).
* :class:`TenantFairnessStats` -- the per-tenant service report attached to
  serving results: served-token max/min ratio across contending tenants,
  Jain's fairness index, and door throttle rates by population decile.

The population draws from a dedicated :class:`~repro.sim.distributions
.RandomStream` substream, so tenanted plans never perturb arrival times or
task picks and untenanted plans remain bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.distributions import RandomStream

#: Knuth multiplicative hash constant used to scatter ranks across apps
#: deterministically (seed-independent: the same rank always belongs to the
#: same app, so per-app accounting is stable across runs and seeds).
_APP_HASH = 2654435761
_HASH_MOD = 2**32


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of a tenant population.

    ``num_users`` simulated users send traffic at Zipf-distributed rates
    with exponent ``skew`` (``0.0`` = uniform; ``~1.2-1.6`` = the heavy
    production-like skew where a handful of whales dominate), grouped into
    ``num_apps`` applications by a deterministic hash of the user's rank.
    Serialises through ``dataclasses.asdict`` like every other spec type.
    """

    num_users: int = 10_000
    skew: float = 1.2
    num_apps: int = 10

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("tenant num_users must be >= 1")
        if self.skew < 0:
            raise ValueError("tenant skew must be >= 0 (0 = uniform)")
        if self.num_apps < 1:
            raise ValueError("tenant num_apps must be >= 1")


@dataclass(frozen=True)
class Tenant:
    """One sampled tenant identity, carried per arrival.

    ``rank`` is the user's position in the population's Zipf rate order
    (1 = heaviest); ``population`` is the population size, kept so decile
    accounting does not need the spec at reporting time.
    """

    user: str
    app: str
    rank: int
    population: int

    @property
    def decile(self) -> int:
        """Population decile by rank (0 = the hottest 10% of users)."""
        return min(9, (self.rank - 1) * 10 // max(self.population, 1))


class _ZipfRankSampler:
    """Bounded Zipf(``skew``) rank sampler by rejection inversion.

    Hormann & Derflinger's rejection-inversion scheme: draw from the
    analytic inverse of ``H(x) = integral (1+x)^-s`` restricted to
    ``[0.5, N + 0.5]`` and accept with the exact mass ``k^-s``.  O(1)
    memory, a handful of draws per sample regardless of ``N`` -- the
    property that keeps 1e6-user populations lazy.
    """

    def __init__(self, num_users: int, skew: float):
        self.num_users = num_users
        self.skew = skew
        self._h_x1 = self._h_integral(1.5) - 1.0
        self._h_n = self._h_integral(num_users + 0.5)
        self._s = 2.0 - self._h_integral_inverse(self._h_integral(2.5) - self._h(2.0))

    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        return _helper((1.0 - self.skew) * log_x) * log_x

    def _h(self, x: float) -> float:
        return math.exp(-self.skew * math.log(x))

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self.skew)
        if t < -1.0:
            t = -1.0  # Numerical guard at the lower domain edge.
        return math.exp(_helper_inverse(t) * x)

    def sample(self, stream: RandomStream) -> int:
        while True:
            u = self._h_n + stream.random() * (self._h_x1 - self._h_n)
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.num_users:
                k = self.num_users
            if k - x <= self._s or u >= self._h_integral(k + 0.5) - self._h(k):
                return k


def _helper(x: float) -> float:
    """``(exp(x) - 1) / x`` with the removable singularity handled."""
    if abs(x) > 1e-8:
        return math.expm1(x) / x
    return 1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0))


def _helper_inverse(x: float) -> float:
    """``log(1 + x) / x`` with the removable singularity handled."""
    if abs(x) > 1e-8:
        return math.log1p(x) / x
    return 1.0 - x / 2.0 + x * x / 3.0


class TenantPopulation:
    """Lazy sampler over a :class:`TenantSpec`'s user population.

    Memory is O(distinct tenants seen): the only per-user state is the
    memo of :class:`Tenant` objects already handed out, so sampling a few
    hundred arrivals from a million-user population touches a few hundred
    entries.  Sampling is deterministic given the stream it draws from.
    """

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self._sampler = _ZipfRankSampler(spec.num_users, spec.skew)
        self._seen: Dict[int, Tenant] = {}

    @property
    def distinct_seen(self) -> int:
        """Distinct tenants sampled so far (the memory footprint driver)."""
        return len(self._seen)

    def tenant_for_rank(self, rank: int) -> Tenant:
        tenant = self._seen.get(rank)
        if tenant is None:
            app_index = (rank * _APP_HASH) % _HASH_MOD % self.spec.num_apps
            tenant = Tenant(
                user=f"u{rank}",
                app=f"app{app_index}",
                rank=rank,
                population=self.spec.num_users,
            )
            self._seen[rank] = tenant
        return tenant

    def sample(self, stream: RandomStream) -> Tenant:
        """Draw one arrival's tenant (Zipf-weighted by rank)."""
        return self.tenant_for_rank(self._sampler.sample(stream))


def sample_tenants(
    spec: TenantSpec, count: int, stream: RandomStream
) -> List[Tenant]:
    """``count`` tenant draws from a fresh population on ``stream``."""
    population = TenantPopulation(spec)
    return [population.sample(stream) for _ in range(count)]


# ---------------------------------------------------------------------------
# Per-tenant fairness reporting
# ---------------------------------------------------------------------------


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` (1.0 = fair)."""
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class TenantFairnessStats:
    """Per-tenant service accounting for one serving run.

    ``max_min_ratio`` is computed over *contending* tenants -- tenants
    offering at least ``contender_floor`` requests, the ones a fairness
    scheduler can actually equalise (a user who sent one request late in
    the run was not starved, merely brief).  ``inf`` means a contending
    tenant was fully starved within the contended window.  ``jain`` covers
    every offered tenant (zeros included).  Deciles are population deciles
    by Zipf rank: decile 0 is the hottest 10% of users.
    """

    num_tenants: int
    num_contenders: int
    contender_floor: int
    served_tokens_max: float
    served_tokens_min: float
    jain: float
    offered: int
    rejected: int
    decile_offered: Tuple[int, ...] = (0,) * 10
    decile_rejected: Tuple[int, ...] = (0,) * 10

    @property
    def max_min_ratio(self) -> float:
        """Served-token max/min ratio across contending tenants (1.0 = fair)."""
        if self.num_contenders < 2:
            return 1.0
        if self.served_tokens_min <= 0.0:
            return float("inf")
        return self.served_tokens_max / self.served_tokens_min

    @property
    def throttle_rate(self) -> float:
        """Door rejection fraction of all tenanted offers."""
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    def decile_throttle_rates(self) -> Tuple[Optional[float], ...]:
        """Rejected/offered per population decile (``None`` = no offers)."""
        return tuple(
            (rejected / offered) if offered else None
            for offered, rejected in zip(self.decile_offered, self.decile_rejected)
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_tenants": self.num_tenants,
            "num_contenders": self.num_contenders,
            "max_min_ratio": self.max_min_ratio,
            "jain": self.jain,
            "offered": self.offered,
            "rejected": self.rejected,
            "throttle_rate": self.throttle_rate,
            "decile_throttle_rates": list(self.decile_throttle_rates()),
        }


def tenant_fairness(
    served_tokens: Mapping[Tenant, float],
    door_counts: Mapping[Tenant, Tuple[int, int]],
    contender_floor: int = 2,
) -> Optional[TenantFairnessStats]:
    """Assemble the fairness report from per-tenant service and door counts.

    ``served_tokens`` maps each tenant to the tokens it was served inside
    the contended window; ``door_counts`` maps tenants to ``(offered,
    rejected)`` door totals.  Tenants appearing in either mapping are
    reported; ``None`` when the run carried no tenant labels at all.
    """
    tenants = set(served_tokens) | set(door_counts)
    if not tenants:
        return None
    floor = max(1, contender_floor)
    offered_total = 0
    rejected_total = 0
    decile_offered = [0] * 10
    decile_rejected = [0] * 10
    contender_served: List[float] = []
    all_served: List[float] = []
    for tenant in tenants:
        offered, rejected = door_counts.get(tenant, (0, 0))
        served = float(served_tokens.get(tenant, 0.0))
        offered_total += offered
        rejected_total += rejected
        decile = tenant.decile
        decile_offered[decile] += offered
        decile_rejected[decile] += rejected
        all_served.append(served)
        if offered >= floor:
            contender_served.append(served)
    return TenantFairnessStats(
        num_tenants=len(tenants),
        num_contenders=len(contender_served),
        contender_floor=floor,
        served_tokens_max=max(contender_served) if contender_served else 0.0,
        served_tokens_min=min(contender_served) if contender_served else 0.0,
        jain=jain_index(all_served),
        offered=offered_total,
        rejected=rejected_total,
        decile_offered=tuple(decile_offered),
        decile_rejected=tuple(decile_rejected),
    )
