"""Every lint rule gets a positive and a negative fixture, plus the
suppression mechanism and the src self-clean gate."""

from pathlib import Path
from textwrap import dedent

from repro.analysis.lint import (
    RULES,
    lint_paths,
    lint_source,
    render_findings,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: a path under a scoped component (activates RL002/RL003)
SCOPED = "src/repro/verification/somefile.py"
#: a path outside every scoped component
UNSCOPED = "src/repro/scenario/somefile.py"


def codes(source: str, path: str = SCOPED) -> list[str]:
    return [f.code for f in lint_source(dedent(source), path)]


class TestUnseededRng:
    def test_positive_default_rng_without_seed(self):
        assert codes("rng = np.random.default_rng()") == ["RL002"]

    def test_positive_legacy_global_rng(self):
        assert codes("x = np.random.normal(size=3)") == ["RL002"]

    def test_negative_seeded(self):
        assert codes("rng = np.random.default_rng(1234)") == []

    def test_negative_generator_method(self):
        # a Generator method is seeded state, not the global stream
        assert codes("x = rng.normal(size=3)") == []

    def test_out_of_scope_path_is_ignored(self):
        assert codes("x = np.random.normal(3)", path=UNSCOPED) == []


class TestFloatEq:
    def test_positive(self):
        assert codes("flag = value == 1.5") == ["RL003"]

    def test_positive_negative_literal(self):
        assert codes("flag = value != -2.25") == ["RL003"]

    def test_negative_zero_sentinel(self):
        assert codes("flag = value == 0.0") == []

    def test_negative_int_literal(self):
        assert codes("flag = value == 3") == []

    def test_out_of_scope_path_is_ignored(self):
        assert codes("flag = value == 1.5", path=UNSCOPED) == []


class TestPoolPicklable:
    def test_positive_lambda_submit(self):
        assert codes("pool.submit(lambda q: run(q), query)") == ["RL004"]

    def test_positive_nested_def(self):
        source = """
            def run_all(executor, items):
                def work(item):
                    return item + 1
                return list(executor.map(work, items))
        """
        assert codes(source) == ["RL004"]

    def test_positive_initializer_lambda(self):
        # outside the pool layer the executor itself is RL006 as well
        assert codes(
            "pool = ProcessPoolExecutor(4, initializer=lambda: init())"
        ) == ["RL004", "RL006"]

    def test_positive_lambdas_handed_to_the_pool_layer(self):
        source = """
            with WorkerPool(2, initializer=lambda: state()) as pool:
                pool.map(lambda state, x: x, tasks, fallback=run)
        """
        assert codes(source) == ["RL004", "RL004"]

    def test_negative_layer_fallback_may_be_a_lambda(self):
        # the fallback runs in-process; only the task function pickles
        source = """
            def work(state, item):
                return item

            def run_all(pool, items):
                return pool.map(work, items, fallback=lambda i: i)
        """
        assert codes(source) == []

    def test_negative_module_level_callable(self):
        source = """
            def work(item):
                return item + 1

            def run_all(executor, items):
                return list(executor.map(work, items))
        """
        assert codes(source) == []

    def test_negative_non_pool_receiver(self):
        assert codes("queue.submit(lambda: 1)") == []


class TestPoolOutsideLayer:
    def test_positive_executor(self):
        assert codes("pool = ProcessPoolExecutor(max_workers=2)") == ["RL006"]

    def test_positive_start_method_choice(self):
        source = """
            import multiprocessing
            from multiprocessing import get_context

            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(methods[0])
            other = get_context("fork")
        """
        assert codes(source) == ["RL006", "RL006", "RL006"]

    def test_positive_out_of_scope_path(self):
        assert codes("ProcessPoolExecutor(2)", path=UNSCOPED) == ["RL006"]

    def test_negative_the_pool_layer_itself(self):
        source = """
            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=2, mp_context=ctx)
        """
        assert codes(source, path="src/repro/verification/pool.py") == []

    def test_negative_unrelated_get_context(self):
        assert codes("ctx = self.get_context()") == []

    def test_suppression(self):
        assert codes(
            "pool = ProcessPoolExecutor(2)  # lint: allow(pool-outside-layer)"
        ) == []


class TestWarnStacklevel:
    def test_positive_missing_stacklevel(self):
        assert codes(
            "warnings.warn('use the registry', DeprecationWarning)"
        ) == ["RL005"]

    def test_positive_stacklevel_one(self):
        assert codes(
            "warnings.warn('x', DeprecationWarning, stacklevel=1)"
        ) == ["RL005"]

    def test_negative_stacklevel_two(self):
        assert codes(
            "warnings.warn('x', DeprecationWarning, stacklevel=2)"
        ) == []

    def test_negative_other_category(self):
        assert codes("warnings.warn('x', RuntimeWarning)") == []

    def test_category_keyword_form(self):
        assert codes(
            "warnings.warn('x', category=DeprecationWarning)"
        ) == ["RL005"]


class TestSuppression:
    def test_allow_by_rule_name(self):
        assert codes("flag = x == 1.5  # lint: allow(float-eq)") == []

    def test_allow_by_code(self):
        assert codes("flag = x == 1.5  # lint: allow(RL003)") == []

    def test_allow_list(self):
        assert codes(
            "flag = x == 1.5  # lint: allow(float-eq, unseeded-rng)"
        ) == []

    def test_other_rule_not_suppressed(self):
        assert codes("flag = x == 1.5  # lint: allow(unseeded-rng)") == [
            "RL003"
        ]


class TestDriver:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", SCOPED)
        assert [f.code for f in findings] == ["RL000"]

    def test_lint_paths_select_and_ignore(self, tmp_path):
        bad = tmp_path / "verification" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("x = v == 1.5\nrng = np.random.default_rng()\n")
        all_codes = {f.code for f in lint_paths([tmp_path])}
        assert all_codes == {"RL002", "RL003"}
        only = lint_paths([tmp_path], select=["float-eq"])
        assert {f.code for f in only} == {"RL003"}
        rest = lint_paths([tmp_path], ignore=["RL003"])
        assert {f.code for f in rest} == {"RL002"}

    def test_findings_render_with_location(self, tmp_path):
        bad = tmp_path / "api" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("flag = x == 2.5\n")
        findings = lint_paths([tmp_path])
        text = render_findings(findings)
        assert f"{bad}:1:" in text
        assert "1 finding(s)" in text
        assert render_findings([]) == "clean: 0 findings"

    def test_rule_table_is_complete(self):
        assert set(RULES) == {"RL002", "RL003", "RL004", "RL005", "RL006"}


class TestSelfClean:
    def test_src_tree_is_lint_clean(self):
        findings = lint_paths([REPO_ROOT / "src"])
        assert findings == [], render_findings(findings)
