"""Multi-tenant fairness -- vtc vs fcfs on a Zipf-skewed million users.

Two lanes: a population-sampling throughput check (rejection-inversion
Zipf draws must stay O(1) per sample -- thousands of draws from a
million-user population in well under a second, touching memory only for
tenants actually seen), and a mini fairness study asserting the
headline: under heavy skew the ``vtc`` scheduler holds the served-token
max/min ratio below fcfs at equal or better chat SLO attainment.
"""

from repro.analysis import fairness_study
from repro.serving.tenants import TenantPopulation, TenantSpec
from repro.sim.distributions import RandomStream

from bench_utils import scaled


def test_population_sampling_throughput(benchmark):
    spec = TenantSpec(num_users=1_000_000, skew=1.2, num_apps=100)

    def draw():
        population = TenantPopulation(spec)
        stream = RandomStream(0, "bench")
        for _ in range(10_000):
            population.sample(stream)
        return population

    population = benchmark.pedantic(draw, rounds=1, iterations=1)
    print()
    print(
        f"10k draws from a 1e6-user population touched "
        f"{population.distinct_seen} distinct tenants"
    )
    # Lazy sampling: memory stays proportional to tenants seen, not users.
    assert 0 < population.distinct_seen <= 10_000


def test_vtc_beats_fcfs_under_heavy_skew(run_once):
    study = run_once(
        fairness_study,
        schedulers=("fcfs", "vtc"),
        num_requests=scaled(32),
    )
    print()
    print(study.format())
    for skew in ("mild", "heavy"):
        print(study.format_frontier(skew=skew))

    fcfs = study.mean_served_ratio("fcfs", "heavy")
    vtc = study.mean_served_ratio("vtc", "heavy")
    print(f"heavy-skew served-token ratio: fcfs {fcfs:.2f} vs vtc {vtc:.2f}")

    # The headline: vtc materially narrows the whale/tail served-token gap.
    assert vtc < fcfs

    # ... without paying for it in chat SLO attainment: at every heavy-skew
    # grid point, vtc's attainment is at least fcfs's.
    heavy = study.result.slice(skew="heavy")
    for point in heavy.slice(scheduler="vtc").points:
        qps = point.labels["qps"]
        assert point.metric("slo_attainment:chat") >= heavy.at(
            scheduler="fcfs", qps=qps
        ).metric("slo_attainment:chat")

    # The fairness frontier is queryable and vtc sits on it.
    assert "vtc" in study.frontier_labels("scheduler", skew="heavy")
