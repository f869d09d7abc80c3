"""Pinned text and headline values of every paper figure and table.

Small runs of Figs. 4-9 and 11-17 and Tables I-IV: each printed table is
pinned byte for byte and each headline value with ``==``, so a change to
how an artifact is declared, run or read shows up here as a diff.  The
expected values were captured before the artifacts moved onto declared
studies; they are the reference that move was checked against.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    table1,
    table2,
    table3,
    table4,
)
from repro.core import CHATGPT_QUERIES_PER_DAY, GOOGLE_QUERIES_PER_DAY, PowerProjection

#: Figs. 4, 5, 6 and 8 characterize the same (agent, benchmark) pairs.
CHARACTERIZATION = dict(benchmarks=("hotpotqa", "webshop"), num_tasks=2, seed=0)
QPS_GRID = {"sharegpt": (1.0, 4.0), "hotpotqa": (0.5, 2.0), "webshop": (0.5, 1.0)}


@pytest.fixture(scope="module")
def fig4():
    return figure4(**CHARACTERIZATION)


@pytest.fixture(scope="module")
def fig5():
    return figure5(**CHARACTERIZATION)


@pytest.fixture(scope="module")
def fig6():
    return figure6(**CHARACTERIZATION)


@pytest.fixture(scope="module")
def fig7():
    return figure7(num_tasks=3, seed=0)


@pytest.fixture(scope="module")
def fig8():
    return figure8(**CHARACTERIZATION)


@pytest.fixture(scope="module")
def fig9():
    return figure9(benchmarks=("hotpotqa",), num_tasks=2, seed=0)


@pytest.fixture(scope="module")
def fig11():
    return figure11(qps_grid=QPS_GRID, num_requests=6, seed=0)


@pytest.fixture(scope="module")
def fig12():
    return figure12(num_requests=6, seed=0)


@pytest.fixture(scope="module")
def fig13():
    return figure13(benchmarks=("hotpotqa",), num_tasks=2, seed=0)


@pytest.fixture(scope="module")
def fig14():
    return figure14(
        budgets={"hotpotqa": (3, 10), "webshop": (5, 20)},
        num_tasks=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def fig15():
    return figure15(
        counts=(0, 2),
        benchmarks=("hotpotqa", "webshop"),
        num_tasks=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def fig16():
    return figure16(
        reflexion_trials=(2, 4),
        lats_expansions=(4, 8),
        lats_children=(1, 4),
        num_tasks=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def fig17():
    return figure17(
        reflexion_trials=(1, 2),
        lats_expansions=(2, 4),
        models=("8b", "70b"),
        num_tasks=2,
        seed=0,
    )


@pytest.fixture(scope="module")
def table1_result():
    return table1()


@pytest.fixture(scope="module")
def table2_result():
    return table2()


@pytest.fixture(scope="module")
def table3_result():
    return table3(models=("8b",), num_tasks=2, seed=0)


@pytest.fixture(scope="module")
def table4_result(table3_result):
    return table4(table3_result=table3_result)


def test_fig4(fig4):
    assert fig4.format() == (
        "Figure 4: LLM and tool invocations per request\n"
        "benchmark | agent       | llm_invocations | tool_invocations\n"
        "----------+-------------+-----------------+-----------------\n"
        "hotpotqa  | cot         | 1.000           | 0               \n"
        "hotpotqa  | lats        | 25.0            | 20.0            \n"
        "hotpotqa  | llmcompiler | 3.000           | 5.000           \n"
        "hotpotqa  | react       | 4.000           | 3.000           \n"
        "hotpotqa  | reflexion   | 20.0            | 13.5            \n"
        "webshop   | lats        | 64.0            | 52.5            \n"
        "webshop   | llmcompiler | 4.000           | 12.0            \n"
        "webshop   | react       | 13.0            | 12.0            \n"
        "webshop   | reflexion   | 43.0            | 35.0            "
    )
    assert fig4.llm_call_ratio_vs_cot("hotpotqa") == (
        {'lats': 25.0, 'llmcompiler': 3.0, 'react': 4.0, 'reflexion': 20.0}
    )
    assert fig4.llm_call_ratio_vs_cot("webshop") == {}


def test_fig5(fig5):
    assert fig5.format() == (
        "Figure 5: latency breakdown per agent\n"
        "benchmark | agent       | llm_frac | tool_frac | overlap_frac | other_frac | e2e_latency_s\n"
        "----------+-------------+----------+-----------+--------------+------------+--------------\n"
        "hotpotqa  | cot         | 0.996    | 0         | 0            | 3.80e-03   | 5.261        \n"
        "hotpotqa  | lats        | 0.727    | 0.263     | 0            | 0.011      | 30.0         \n"
        "hotpotqa  | llmcompiler | 0.657    | 0.146     | 0.197        | 0          | 7.137        \n"
        "hotpotqa  | react       | 0.492    | 0.490     | 0            | 0.019      | 8.103        \n"
        "hotpotqa  | reflexion   | 0.628    | 0.352     | 0            | 0.021      | 43.3         \n"
        "webshop   | lats        | 0.969    | 8.29e-03  | 0            | 0.023      | 36.9         \n"
        "webshop   | llmcompiler | 0.990    | 6.50e-03  | 0            | 3.81e-03   | 11.6         \n"
        "webshop   | react       | 0.904    | 0.027     | 0            | 0.069      | 8.668        \n"
        "webshop   | reflexion   | 0.925    | 0.019     | 0            | 0.056      | 39.7         "
    )
    assert fig5.average_fractions() == (
        {'llm': 0.809688534752472,
         'tool': 0.14562928846267487,
         'overlap': 0.021843629051826303,
         'other': 0.022838547733026824}
    )


def test_fig6(fig6):
    assert fig6.format() == (
        "Figure 6: GPU runtime breakdown and utilization\n"
        "benchmark | agent       | prefill_frac | decode_frac | idle_frac | gpu_utilization\n"
        "----------+-------------+--------------+-------------+-----------+----------------\n"
        "hotpotqa  | cot         | 7.76e-03     | 0.988       | 3.80e-03  | 0.996          \n"
        "hotpotqa  | lats        | 8.32e-03     | 0.718       | 0.273     | 0.727          \n"
        "hotpotqa  | llmcompiler | 0.013        | 0.840       | 0.146     | 0.854          \n"
        "hotpotqa  | react       | 0.013        | 0.479       | 0.508     | 0.492          \n"
        "hotpotqa  | reflexion   | 0.010        | 0.618       | 0.372     | 0.628          \n"
        "webshop   | lats        | 0.017        | 0.952       | 0.031     | 0.969          \n"
        "webshop   | llmcompiler | 0.017        | 0.972       | 0.010     | 0.990          \n"
        "webshop   | react       | 0.036        | 0.868       | 0.096     | 0.904          \n"
        "webshop   | reflexion   | 0.025        | 0.900       | 0.075     | 0.925          "
    )


def test_fig7(fig7):
    assert fig7.format() == (
        "Figure 7: end-to-end latency distribution\n"
        "workload         | mean_s | p50_s | p95_s | max_s\n"
        "-----------------+--------+-------+-------+------\n"
        "sharegpt_chatbot | 4.117  | 4.387 | 4.714 | 4.751\n"
        "hotpotqa_react   | 9.536  | 10.4  | 12.2  | 12.4 \n"
        "webshop_react    | 9.037  | 9.204 | 9.717 | 9.774"
    )
    assert fig7.histogram("sharegpt_chatbot") == {2.0: 1, 4.0: 2}
    assert fig7.histogram("hotpotqa_react") == {4.0: 1, 10.0: 1, 12.0: 1}
    assert fig7.histogram("webshop_react", bin_width=5.0) == {5.0: 3}


def test_fig8(fig8):
    assert fig8.format() == (
        "Figure 8: input/output token breakdown\n"
        "benchmark | agent       | instruction | few_shot | user | llm_history | tool_history | output | input_total\n"
        "----------+-------------+-------------+----------+------+-------------+--------------+--------+------------\n"
        "hotpotqa  | cot         | 190.0       | 320.0    | 57.5 | 0           | 0            | 251.5  | 567.5      \n"
        "hotpotqa  | lats        | 190.0       | 320.0    | 57.5 | 346.4       | 79.1         | 81.0   | 993.0      \n"
        "hotpotqa  | llmcompiler | 190.0       | 320.0    | 57.5 | 130.5       | 87.8         | 97.3   | 785.8      \n"
        "hotpotqa  | react       | 190.0       | 320.0    | 57.5 | 73.3        | 81.1         | 46.7   | 721.9      \n"
        "hotpotqa  | reflexion   | 190.0       | 320.0    | 57.5 | 290.9       | 182.8        | 64.8   | 1,041      \n"
        "webshop   | lats        | 210.0       | 460.0    | 50.5 | 655.0       | 525.6        | 45.9   | 1,901      \n"
        "webshop   | llmcompiler | 210.0       | 460.0    | 50.5 | 282.4       | 439.8        | 136.9  | 1,443      \n"
        "webshop   | react       | 210.0       | 460.0    | 50.5 | 177.7       | 703.7        | 28.7   | 1,602      \n"
        "webshop   | reflexion   | 210.0       | 460.0    | 50.5 | 306.1       | 942.9        | 40.6   | 1,970      "
    )


def test_fig9(fig9):
    assert fig9.format() == (
        "Figure 9: prefix caching effect on inference latency\n"
        "benchmark | agent       | prefill_s_no_cache | prefill_s_cache | decode_s_no_cache | decode_s_cache | inference_s_no_cache | inference_s_cache | prefill_reduction\n"
        "----------+-------------+--------------------+-----------------+-------------------+----------------+----------------------+-------------------+------------------\n"
        "hotpotqa  | cot         | 0.061              | 0.041           | 5.200             | 5.200          | 5.260                | 5.241             | 0.328            \n"
        "hotpotqa  | lats        | 2.671              | 0.249           | 42.2              | 42.2           | 53.2                 | 43.0              | 0.907            \n"
        "hotpotqa  | llmcompiler | 0.249              | 0.093           | 5.999             | 5.999          | 6.247                | 6.092             | 0.625            \n"
        "hotpotqa  | react       | 0.311              | 0.103           | 3.882             | 3.882          | 4.193                | 3.985             | 0.669            \n"
        "hotpotqa  | reflexion   | 2.187              | 0.433           | 26.7              | 26.7           | 28.9                 | 27.2              | 0.802            "
    )
    assert fig9.mean_prefill_reduction() == 0.7507910006089524
    assert fig9.mean_prefill_reduction(exclude_cot=False) == 0.6661827037271515


def test_fig11(fig11):
    assert fig11.format() == (
        "Figure 11: p95 latency vs QPS\n"
        "workload | prefix_caching | offered_qps | p95_latency_s | throughput_qps\n"
        "---------+----------------+-------------+---------------+---------------\n"
        "hotpotqa | False          | 0.623       | 22.7          | 0.200         \n"
        "hotpotqa | False          | 1.975       | 21.3          | 0.257         \n"
        "hotpotqa | True           | 0.623       | 20.6          | 0.217         \n"
        "hotpotqa | True           | 1.975       | 19.6          | 0.275         \n"
        "sharegpt | False          | 1.496       | 7.832         | 0.553         \n"
        "sharegpt | False          | 3.326       | 3.304         | 1.272         \n"
        "sharegpt | True           | 1.496       | 7.807         | 0.555         \n"
        "sharegpt | True           | 3.326       | 3.304         | 1.272         \n"
        "webshop  | False          | 0.734       | 21.2          | 0.238         \n"
        "webshop  | False          | 0.812       | 19.7          | 0.233         \n"
        "webshop  | True           | 0.734       | 11.4          | 0.382         \n"
        "webshop  | True           | 0.812       | 11.1          | 0.347         "
    )
    assert fig11.peak_throughputs() == (
        {('sharegpt', True): 1.2715784276996804,
         ('sharegpt', False): 1.2715784276996804,
         ('hotpotqa', True): 0.2754992533938922,
         ('hotpotqa', False): 0.2567449151738626,
         ('webshop', True): 0.38235049846160485,
         ('webshop', False): 0.2379342945868595}
    )
    assert fig11.caching_speedup("sharegpt") == 1.0
    assert fig11.caching_speedup("hotpotqa") == 1.0730465809121459
    assert fig11.caching_speedup("webshop") == 1.6069583374918879


def test_fig12(fig12):
    assert fig12.format() == (
        "Figure 12: KV cache memory usage\n"
        "benchmark | prefix_caching | avg_kv_gb | max_kv_gb\n"
        "----------+----------------+-----------+----------\n"
        "hotpotqa  | False          | 0.076     | 0.338    \n"
        "hotpotqa  | True           | 0.062     | 0.224    \n"
        "webshop   | False          | 0.177     | 0.724    \n"
        "webshop   | True           | 0.123     | 0.520    "
    )
    assert fig12.reduction("hotpotqa", "avg_bytes") == 0.17897180107025246
    assert fig12.reduction("hotpotqa", "max_bytes") == 0.3354037267080745
    assert fig12.reduction("webshop", "avg_bytes") == 0.305147426399194
    assert fig12.reduction("webshop", "max_bytes") == 0.2811594202898551


def test_fig13(fig13):
    assert fig13.format() == (
        "Figure 13: accuracy/latency design space\n"
        "benchmark | agent       | label          | accuracy | latency_s | efficiency_norm\n"
        "----------+-------------+----------------+----------+-----------+----------------\n"
        "hotpotqa  | react       | react-v0       | 1.000    | 8.103     | 1.000          \n"
        "hotpotqa  | react       | react-v1       | 1.000    | 8.103     | 1.000          \n"
        "hotpotqa  | react       | react-v2       | 1.000    | 8.103     | 1.000          \n"
        "hotpotqa  | reflexion   | reflexion-v0   | 0        | 37.1      | 0              \n"
        "hotpotqa  | reflexion   | reflexion-v1   | 0        | 43.3      | 0              \n"
        "hotpotqa  | reflexion   | reflexion-v2   | 0        | 67.7      | 0              \n"
        "hotpotqa  | lats        | lats-v0        | 1.000    | 28.2      | 0.288          \n"
        "hotpotqa  | lats        | lats-v1        | 1.000    | 30.0      | 0.270          \n"
        "hotpotqa  | lats        | lats-v2        | 1.000    | 31.3      | 0.259          \n"
        "hotpotqa  | llmcompiler | llmcompiler-v0 | 0        | 7.137     | 0              \n"
        "hotpotqa  | llmcompiler | llmcompiler-v1 | 0        | 7.137     | 0              "
    )


def test_fig14(fig14):
    assert fig14.format() == (
        "Figure 14: iteration budget sweep (ReAct)\n"
        "benchmark | agent | max_iterations | accuracy | avg_latency_s | p95_latency_s | efficiency\n"
        "----------+-------+----------------+----------+---------------+---------------+-----------\n"
        "hotpotqa  | react | 3              | 0.500    | 6.722         | 7.553         | 0.074     \n"
        "hotpotqa  | react | 10             | 1.000    | 8.103         | 10.2          | 0.123     \n"
        "webshop   | react | 5              | 0        | 3.939         | 4.110         | 0         \n"
        "webshop   | react | 20             | 1.000    | 11.3          | 14.1          | 0.089     "
    )


def test_fig15(fig15):
    assert fig15.format() == (
        "Figure 15: few-shot example sweep (ReAct)\n"
        "benchmark | agent | num_few_shot | accuracy | avg_latency_s | p95_latency_s | efficiency\n"
        "----------+-------+--------------+----------+---------------+---------------+-----------\n"
        "hotpotqa  | react | 0            | 1.000    | 8.079         | 10.2          | 0.124     \n"
        "hotpotqa  | react | 2            | 1.000    | 8.103         | 10.2          | 0.123     \n"
        "webshop   | react | 0            | 0        | 8.669         | 9.127         | 0         \n"
        "webshop   | react | 2            | 0.500    | 8.668         | 9.150         | 0.058     "
    )


def test_fig16(fig16):
    assert fig16.format() == (
        "Figure 16: sequential vs parallel scaling (HotpotQA)\n"
        "benchmark | agent     | max_trials | accuracy | avg_latency_s | p95_latency_s | efficiency | scaling             \n"
        "----------+-----------+------------+----------+---------------+---------------+------------+---------------------\n"
        "hotpotqa  | reflexion | 2          | 0        | 37.1          | 37.7          | 0          | reflexion_sequential\n"
        "hotpotqa  | reflexion | 4          | 0        | 50.6          | 65.3          | 0          | reflexion_sequential\n"
        "hotpotqa  | lats      |            | 1.000    | 30.0          | 31.7          | 0.033      | lats_sequential     \n"
        "hotpotqa  | lats      |            | 1.000    | 30.0          | 31.7          | 0.033      | lats_sequential     \n"
        "hotpotqa  | lats      |            | 1.000    | 55.1          | 81.1          | 0.018      | lats_parallel       \n"
        "hotpotqa  | lats      |            | 1.000    | 44.4          | 47.5          | 0.023      | lats_parallel       "
    )


def test_fig17(fig17):
    assert fig17.format() == (
        "Figure 17: model size effects (HotpotQA)\n"
        "agent     | model | scaling_level | accuracy | latency_s | total_tokens | energy_wh\n"
        "----------+-------+---------------+----------+-----------+--------------+----------\n"
        "lats      | 70b   | 2             | 1.000    | 16.7      | 10,572       | 6.043    \n"
        "lats      | 70b   | 4             | 1.000    | 33.1      | 26,850       | 11.8     \n"
        "lats      | 8b    | 2             | 1.000    | 15.0      | 10,572       | 0.920    \n"
        "lats      | 8b    | 4             | 1.000    | 30.0      | 26,850       | 1.795    \n"
        "reflexion | 70b   | 1             | 0.500    | 14.4      | 5,674        | 4.763    \n"
        "reflexion | 70b   | 2             | 0.500    | 20.4      | 8,073        | 7.073    \n"
        "reflexion | 8b    | 1             | 0        | 16.6      | 7,366        | 0.863    \n"
        "reflexion | 8b    | 2             | 0        | 37.1      | 18,597       | 1.961    "
    )


def test_table1(table1_result):
    assert table1_result.format() == (
        "Table I: comparison of AI agents\n"
        "Agent       | Reasoning | Tool Use | Reflection | Tree Search | Structured Planning\n"
        "------------+-----------+----------+------------+-------------+--------------------\n"
        "cot         | O         | X        | X          | X           | X                  \n"
        "react       | O         | O        | X          | X           | X                  \n"
        "reflexion   | O         | O        | O          | X           | X                  \n"
        "lats        | O         | O        | O          | O           | X                  \n"
        "llmcompiler | O         | O        | X          | X           | O                  "
    )


def test_table2(table2_result):
    assert table2_result.format() == (
        "Table II: description of benchmarks\n"
        "Benchmark | Task                         | Tool                                       | Agent                                   \n"
        "----------+------------------------------+--------------------------------------------+-----------------------------------------\n"
        "hotpotqa  | Multi-hop question answering | Wikipedia APIs (search, lookup keywords)   | cot, react, reflexion, lats, llmcompiler\n"
        "webshop   | Online shopping              | Interactive web navigation (search, click) | react, reflexion, lats, llmcompiler     \n"
        "math      | Math problem solving         | Wolfram Alpha API, Python-based calculator | cot, react, reflexion, lats             \n"
        "humaneval | Programming                  | Executing self-generated test code         | cot, react, reflexion, lats             "
    )


def test_table3(table3_result):
    assert table3_result.format() == (
        "Table III: per-request accuracy, latency, energy (HotpotQA)\n"
        "model | workload  | accuracy_pct | latency_s | energy_wh_per_query | latency_x_sharegpt | energy_x_sharegpt\n"
        "------+-----------+--------------+-----------+---------------------+--------------------+------------------\n"
        "8b    | sharegpt  | -            | 5.425     | 0.411               | 1.000              | 1.000            \n"
        "8b    | reflexion | 0            | 86.2      | 4.536               | 15.9               | 11.0             \n"
        "8b    | lats      | 100.0        | 25.1      | 1.478               | 4.624              | 3.594            "
    )


def test_table4(table4_result):
    assert table4_result.format() == (
        "Table IV: datacenter-wide power demand\n"
        "workload     | queries_per_day | energy_wh_per_query | power_mw | power_gw\n"
        "-------------+-----------------+---------------------+----------+---------\n"
        "sharegpt-8b  | 71,400,000      | 0.411               | 1.223    | 1.22e-03\n"
        "sharegpt-8b  | 13,700,000,000  | 0.411               | 234.7    | 0.235   \n"
        "reflexion-8b | 71,400,000      | 4.536               | 13.5     | 0.013   \n"
        "reflexion-8b | 13,700,000,000  | 4.536               | 2,589    | 2.589   \n"
        "lats-8b      | 71,400,000      | 1.478               | 4.397    | 4.40e-03\n"
        "lats-8b      | 13,700,000,000  | 1.478               | 843.6    | 0.844   "
    )
    assert table4_result.power_for("sharegpt-8b", CHATGPT_QUERIES_PER_DAY) == (
        PowerProjection(label='sharegpt-8b',
                        energy_wh_per_query=0.4111537865499712,
                        queries_per_day=71400000.0)
    )
    assert table4_result.power_for("sharegpt-8b", GOOGLE_QUERIES_PER_DAY) == (
        PowerProjection(label='sharegpt-8b',
                        energy_wh_per_query=0.4111537865499712,
                        queries_per_day=13700000000.0)
    )
    assert table4_result.power_for("reflexion-8b", CHATGPT_QUERIES_PER_DAY) == (
        PowerProjection(label='reflexion-8b',
                        energy_wh_per_query=4.535663083727456,
                        queries_per_day=71400000.0)
    )
    assert table4_result.power_for("reflexion-8b", GOOGLE_QUERIES_PER_DAY) == (
        PowerProjection(label='reflexion-8b',
                        energy_wh_per_query=4.535663083727456,
                        queries_per_day=13700000000.0)
    )
    assert table4_result.power_for("lats-8b", CHATGPT_QUERIES_PER_DAY) == (
        PowerProjection(label='lats-8b',
                        energy_wh_per_query=1.477829073535963,
                        queries_per_day=71400000.0)
    )
    assert table4_result.power_for("lats-8b", GOOGLE_QUERIES_PER_DAY) == (
        PowerProjection(label='lats-8b',
                        energy_wh_per_query=1.477829073535963,
                        queries_per_day=13700000000.0)
    )
