"""Campaign execution: parallel determinism, reports, one-off parity."""

import json

import numpy as np
import pytest

from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.core.verdict import Verdict
from repro.properties.library import steer_far_left
from repro.service import ResultStore


@pytest.fixture(scope="module")
def campaign_engine(api_system):
    model, images, cut, characterizer = api_system
    engine = VerificationEngine(model, cut, solver="highs")
    engine.add_feature_set_from_data(images)
    engine.attach_characterizer(characterizer)
    return engine


@pytest.fixture(scope="module")
def sweep(api_system):
    """A 24-query campaign over two characterizer settings × 12 thresholds."""
    model, images, _, _ = api_system
    outputs = model.forward(images)
    lo, hi = float(outputs[:, 0].min()) - 0.5, float(outputs[:, 0].max()) + 0.5
    risks = [steer_far_left(t) for t in np.linspace(lo, hi, 12)]
    return Campaign("sweep").add_grid(risks=risks, properties=(None, "high_f0"))


class TestCampaignRun:
    def test_sequential_report(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep)
        assert len(report) == 24
        assert report.executor == "sequential"
        assert not report.errors
        assert sum(report.verdict_counts().values()) == 24
        # every query after the first shares the cached artifacts
        assert report.cache_hit_counts().get("prescreen-enclosure", 0) >= 20

    def test_parallel_matches_sequential_and_legacy_verify(
        self, api_system, campaign_engine, sweep
    ):
        """Acceptance: 20+ queries, workers=4, verdicts identical to
        one-off ``run_query`` calls on a fresh sequential engine."""
        model, images, cut, characterizer = api_system
        parallel = campaign_engine.run(sweep, workers=4)
        assert len(parallel) == 24

        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_feature_set_from_data(images)
        engine.attach_characterizer(characterizer)
        one_off = [engine.run_query(query).verdict for query in sweep]
        for result, expected in zip(parallel.results, one_off):
            assert result.ok
            assert result.verdict.verdict is expected.verdict
            assert result.verdict.monitored == expected.monitored

    def test_parallel_is_deterministic(self, campaign_engine, sweep):
        first = campaign_engine.run(sweep, workers=2)
        second = campaign_engine.run(sweep, workers=4)
        sequential = campaign_engine.run(sweep, workers=1)
        for a, b, c in zip(first.results, second.results, sequential.results):
            assert a.verdict.verdict is b.verdict.verdict is c.verdict.verdict
            assert a.decided_by == b.decided_by == c.decided_by

    def test_single_query_accepted(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep[0])
        assert len(report) == 1
        assert report.results[0].ok

    def test_bad_query_becomes_error_result(self, campaign_engine, sweep):
        broken = Campaign("broken").add(
            sweep[0],
            VerificationQuery(risk=sweep[0].risk, set_name="missing-set"),
        )
        report = campaign_engine.run(broken)
        assert report.results[0].ok
        assert not report.results[1].ok
        assert "missing-set" in report.results[1].error
        assert report.verdict_counts().get("error") == 1

    def test_report_json_round_trip(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep)
        payload = json.loads(report.to_json())
        assert payload["campaign"] == "sweep"
        assert len(payload["results"]) == 24
        assert all("query" in entry for entry in payload["results"])
        assert payload["verdict_counts"] == report.verdict_counts()

    def test_summary_mentions_cache_and_executor(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep)
        text = report.summary()
        assert "sweep" in text and "24 queries" in text

    def test_mixed_method_campaign(self, campaign_engine, sweep):
        mixed = (
            Campaign("mixed")
            .add(sweep[0])
            .add_ranges(output_indices=(0, 1), properties=("high_f0",))
        )
        report = campaign_engine.run(mixed)
        assert report.results[0].verdict is not None
        assert report.results[1].output_range is not None
        assert report.results[2].output_range.output_index == 1


class TestStoreOwnership:
    """A parallel campaign's store is written by the parent alone."""

    def test_pooled_results_reach_the_parent_store_once(self, api_system, tmp_path):
        model, images, cut, _ = api_system
        path = tmp_path / "s.jsonl"
        engine = VerificationEngine(
            model, cut, solver="highs", store=ResultStore(path)
        )
        engine.add_feature_set_from_data(images)
        outputs = model.forward(images)
        lo, hi = float(outputs[:, 0].min()) - 0.5, float(outputs[:, 0].max()) + 0.5
        campaign = Campaign("stored").add_grid(
            risks=[steer_far_left(t) for t in np.linspace(lo, hi, 8)],
            properties=(None,),
        )

        first = engine.run(campaign, workers=2)
        decided = [
            r for r in first.results
            if r.ok and r.verdict.verdict is not Verdict.UNKNOWN
        ]
        assert len(decided) == 8
        lines = path.read_text().splitlines()
        assert len(lines) == len(engine.store) == len(decided)

        rerun = engine.run(campaign, workers=1)
        assert [r.decided_by for r in rerun.results] == ["store"] * 8
        assert [r.verdict.verdict for r in rerun.results] == [
            r.verdict.verdict for r in first.results
        ]
        assert path.read_text().splitlines() == lines
