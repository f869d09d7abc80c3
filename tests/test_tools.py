"""Tests for the simulated tool environments."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import EngineConfig, LLMClient, LLMEngine
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer
from repro.sim import Environment, RandomStream
from repro.sim.distributions import LogNormalSampler
from repro.tools import (
    CalculatorTool,
    ProductCatalog,
    PythonExecutionTool,
    ToolAction,
    ToolSet,
    WebShopTool,
    WikipediaCorpus,
    WikipediaTool,
    WolframAlphaTool,
    evaluate_expression,
)
from repro.tools.calculator import ExpressionError

TOKENIZER = SyntheticTokenizer()


def run_tool(env, tool, action):
    return env.run(env.process(tool.invoke(action)))


class TestExpressionEvaluator:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("1 + 1", 2.0),
            ("2 * 3 + 4", 10.0),
            ("2 + 3 * 4", 14.0),
            ("(2 + 3) * 4", 20.0),
            ("10 / 4", 2.5),
            ("7 % 3", 1.0),
            ("2 ^ 10", 1024.0),
            ("-5 + 3", -2.0),
            ("--4", 4.0),
            ("sqrt(16)", 4.0),
            ("abs(-3.5)", 3.5),
            ("floor(2.9)", 2.0),
            ("ceil(2.1)", 3.0),
            ("2 * pi", 6.283185307179586),
            ("log(e)", 1.0),
            ("2 ^ 3 ^ 2", 512.0),  # right-associative exponentiation
            ("3 + 4 * 2 / (1 - 5) ^ 2", 3.5),
        ],
    )
    def test_expression_values(self, expression, expected):
        assert evaluate_expression(expression) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "expression",
        ["", "   ", "1 +", "(1 + 2", "1 / 0", "5 % 0", "unknownfn(3)", "2 ** 3", "1 2"],
    )
    def test_invalid_expressions_raise(self, expression):
        with pytest.raises(ExpressionError):
            evaluate_expression(expression)

    @given(a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_arithmetic(self, a, b, c):
        assert evaluate_expression(f"{a} + {b} * {c}") == pytest.approx(a + b * c)


class TestWikipedia:
    @pytest.fixture
    def corpus(self):
        return WikipediaCorpus(RandomStream(3, "wiki"), num_entities=60)

    @pytest.fixture
    def tool(self, env, corpus):
        return WikipediaTool(
            env=env,
            tokenizer=TOKENIZER,
            latency_sampler=LogNormalSampler(1.2, 0.4),
            stream=RandomStream(3, "wiki-tool"),
            corpus=corpus,
        )

    def test_corpus_size_and_kinds(self, corpus):
        assert len(corpus) >= 50
        kinds = {article.kind for article in corpus.articles.values()}
        assert kinds == {"person", "place", "work"}

    def test_corpus_is_deterministic_for_seed(self):
        a = WikipediaCorpus(RandomStream(3, "wiki"), num_entities=40)
        b = WikipediaCorpus(RandomStream(3, "wiki"), num_entities=40)
        assert a.titles() == b.titles()

    def test_corpus_too_small_rejected(self):
        with pytest.raises(ValueError):
            WikipediaCorpus(RandomStream(1, "wiki"), num_entities=5)

    def test_relation_chains_are_resolvable(self, corpus):
        works = [a for a in corpus.articles.values() if a.kind == "work"]
        for work in works[:10]:
            creator = corpus.get(work.attributes["creator"])
            assert creator is not None
            assert corpus.get(creator.attributes["birthplace"]) is not None

    def test_search_exact_title(self, env, tool, corpus):
        title = corpus.titles()[0]
        result = run_tool(env, tool, ToolAction("wikipedia", "search", title))
        assert result.success
        assert result.observation_tokens > 0
        assert result.latency > 0

    def test_search_miss_returns_similar(self, env, tool):
        result = run_tool(env, tool, ToolAction("wikipedia", "search", "zzz-not-a-title"))
        assert not result.success
        assert "Similar" in result.observation_text

    def test_lookup_after_search(self, env, tool, corpus):
        person = next(a for a in corpus.articles.values() if a.kind == "person")
        run_tool(env, tool, ToolAction("wikipedia", "search", person.title))
        result = run_tool(env, tool, ToolAction("wikipedia", "lookup", "born"))
        assert result.success

    def test_lookup_without_match_fails(self, env, tool, corpus):
        run_tool(env, tool, ToolAction("wikipedia", "search", corpus.titles()[0]))
        result = run_tool(env, tool, ToolAction("wikipedia", "lookup", "xylophone-unrelated"))
        assert not result.success

    def test_invalid_action_fails(self, env, tool):
        result = run_tool(env, tool, ToolAction("wikipedia", "delete", "x"))
        assert not result.success

    def test_latency_roughly_matches_calibration(self, env, tool, corpus):
        latencies = []
        for title in corpus.titles()[:30]:
            result = run_tool(env, tool, ToolAction("wikipedia", "search", title))
            latencies.append(result.latency)
        assert 0.7 < sum(latencies) / len(latencies) < 1.9


class TestWebShop:
    @pytest.fixture
    def catalog(self):
        return ProductCatalog(RandomStream(5, "catalog"), num_products=150)

    @pytest.fixture
    def tool(self, env, catalog):
        return WebShopTool(
            env=env,
            tokenizer=TOKENIZER,
            latency_sampler=LogNormalSampler(0.02, 0.3),
            stream=RandomStream(5, "webshop-tool"),
            catalog=catalog,
        )

    def test_catalog_minimum_size(self):
        with pytest.raises(ValueError):
            ProductCatalog(RandomStream(1, "c"), num_products=5)

    def test_search_finds_matching_products(self, catalog):
        product = catalog.products[0]
        results = catalog.search(product.category)
        assert results
        assert all(product.category in r.title for r in results)

    def test_search_then_click_then_buy(self, env, tool, catalog):
        target = catalog.products[0]
        search = run_tool(env, tool, ToolAction("webshop", "search", target.category))
        assert search.success
        click = run_tool(env, tool, ToolAction("webshop", "click", target.product_id))
        assert click.success
        buy = run_tool(env, tool, ToolAction("webshop", "click", "buy now"))
        assert buy.success
        assert tool.purchased is target

    def test_buy_without_selection_fails(self, env, tool):
        result = run_tool(env, tool, ToolAction("webshop", "click", "buy now"))
        assert not result.success

    def test_option_click_on_product_page(self, env, tool, catalog):
        target = catalog.products[3]
        run_tool(env, tool, ToolAction("webshop", "click", target.product_id))
        result = run_tool(env, tool, ToolAction("webshop", "click", "large"))
        assert result.success
        assert "large" in tool.selected_options

    def test_search_no_results(self, env, tool):
        result = run_tool(env, tool, ToolAction("webshop", "search", "nonexistent-gizmo-xyz"))
        assert not result.success

    def test_observation_pages_are_token_heavy(self, env, tool, catalog):
        result = run_tool(env, tool, ToolAction("webshop", "search", catalog.products[0].category))
        assert result.observation_tokens > 50

    def test_latency_is_local_scale(self, env, tool, catalog):
        result = run_tool(env, tool, ToolAction("webshop", "search", catalog.products[0].category))
        assert result.latency < 0.2


class TestCalculatorTools:
    @pytest.fixture
    def calculator(self, env):
        return CalculatorTool(env, TOKENIZER, LogNormalSampler(0.05, 0.3), RandomStream(7, "calc"))

    @pytest.fixture
    def wolfram(self, env):
        return WolframAlphaTool(env, TOKENIZER, LogNormalSampler(1.4, 0.4), RandomStream(7, "wolf"))

    def test_calculator_evaluates(self, env, calculator):
        result = run_tool(env, calculator, ToolAction("calculator", "solve", "12 * 12 + 1"))
        assert result.success
        assert result.data == pytest.approx(145.0)

    def test_calculator_rejects_bad_expression(self, env, calculator):
        result = run_tool(env, calculator, ToolAction("calculator", "solve", "what is love"))
        assert not result.success

    def test_wolfram_numeric_query(self, env, wolfram):
        result = run_tool(env, wolfram, ToolAction("wolfram", "solve", "sqrt(144) + 8"))
        assert result.success
        assert result.data == pytest.approx(20.0)

    def test_wolfram_symbolic_query_succeeds(self, env, wolfram):
        result = run_tool(env, wolfram, ToolAction("wolfram", "solve", "integrate x^2 dx"))
        assert result.success
        assert result.data is None

    def test_wolfram_slower_than_calculator(self, env, calculator, wolfram):
        calc = run_tool(env, calculator, ToolAction("calculator", "solve", "1+1"))
        wolf = run_tool(env, wolfram, ToolAction("wolfram", "solve", "1+1"))
        assert wolf.latency > calc.latency


class TestPythonExecutionTool:
    def test_uses_gpu_via_internal_llm_call(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig())
        client = LLMClient(env, engine)
        tool = PythonExecutionTool(
            env=env,
            tokenizer=engine.tokenizer,
            latency_sampler=LogNormalSampler(2.6, 0.4),
            stream=RandomStream(9, "pyexec"),
            llm_client=client,
        )
        result = run_tool(env, tool, ToolAction("python_exec", "run_tests", "rolling_median"))
        assert result.used_gpu
        assert result.latency > 0.5
        # The tool's internal test-generation call went through the engine.
        assert len(engine.completed_requests) == 1
        assert engine.completed_requests[0].metadata.get("role") == "tool_internal"

    def test_works_without_llm_client(self, env):
        tool = PythonExecutionTool(
            env=env,
            tokenizer=TOKENIZER,
            latency_sampler=LogNormalSampler(2.6, 0.4),
            stream=RandomStream(9, "pyexec"),
            llm_client=None,
        )
        result = run_tool(env, tool, ToolAction("python_exec", "run_tests", "foo"))
        assert result.observation_tokens > 0


class TestToolSet:
    def test_requires_at_least_one_tool(self):
        with pytest.raises(ValueError):
            ToolSet([])

    def test_lookup_and_membership(self, env):
        calculator = CalculatorTool(env, TOKENIZER, LogNormalSampler(0.05, 0.3), RandomStream(1, "c"))
        wolfram = WolframAlphaTool(env, TOKENIZER, LogNormalSampler(1.4, 0.4), RandomStream(1, "w"))
        tools = ToolSet([wolfram, calculator])
        assert "calculator" in tools
        assert tools.get("wolfram") is wolfram
        assert len(tools) == 2

    def test_unknown_tool_raises(self, env):
        calculator = CalculatorTool(env, TOKENIZER, LogNormalSampler(0.05, 0.3), RandomStream(1, "c"))
        with pytest.raises(KeyError):
            ToolSet([calculator]).get("browser")

    def test_call_dispatches_to_owner(self, env):
        calculator = CalculatorTool(env, TOKENIZER, LogNormalSampler(0.05, 0.3), RandomStream(1, "c"))
        tools = ToolSet([calculator])

        def proc():
            result = yield from tools.call(ToolAction("calculator", "solve", "6*7"))
            return result

        result = env.run(env.process(proc()))
        assert result.data == pytest.approx(42.0)
