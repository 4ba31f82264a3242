"""Portfolio racing: verdict parity with every racer, adaptive order.

Soundness story: every racer in a portfolio answers the *same* query
through a sound configuration, so any two decided answers must agree on
the safe/unsafe side — racing only ever changes *who answers first*,
never *what the answer is*.  These tests check that claim directly
(portfolio verdict vs each racer run alone, hypothesis over
thresholds), plus the adaptive bookkeeping and the parallel pool's
cleanup.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    Campaign,
    DEFAULT_RACERS,
    Method,
    Portfolio,
    RacerConfig,
    VerificationEngine,
    VerificationQuery,
)
from repro.api.portfolio import _decided, _run_config, _verdict_side
from repro.nn import Dense, Flatten, ReLU, Sequential
from repro.properties.library import steer_far_left
from repro.scenario.regions import scenario_region_grid
from repro.service import ResultStore

_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def model():
    model = Sequential(
        [Flatten(), Dense(8), ReLU(), Dense(2)],
        input_shape=(1, 32, 32),
        seed=7,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)),
        training=True,
    )
    return model


@pytest.fixture(scope="module")
def engine(model):
    engine = VerificationEngine(model, 3, solver="highs")
    engine.add_region_sets(scenario_region_grid(n_scenes=1, seed=3))
    return engine


@pytest.fixture(scope="module")
def enclosure_range(engine):
    enclosure = engine.output_enclosures(["region-000"])[0]
    return float(enclosure.lower[0]), float(enclosure.upper[0])


class TestRacerConfig:
    def test_apply_syncs_domain_and_prescreen(self):
        config = RacerConfig("symbolic", domain="symbolic")
        query = VerificationQuery(
            risk=steer_far_left(1.0), set_name="region-000"
        )
        applied = config.apply(query)
        assert applied.domain == "symbolic"
        assert applied.prescreen_domain == "symbolic"

    def test_apply_domain_none_disables_prescreen(self):
        config = RacerConfig("direct", domain=None)
        query = VerificationQuery(
            risk=steer_far_left(1.0), set_name="region-000"
        )
        applied = config.apply(query)
        assert applied.domain is None
        assert applied.prescreen_domain is None

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            RacerConfig("bad", method="range")

    def test_default_racers_have_unique_names(self):
        names = [config.name for config in DEFAULT_RACERS]
        assert len(set(names)) == len(names)


class TestVerdictParity:
    @_SETTINGS
    @given(offset=st.floats(-0.4, 0.6, allow_nan=False))
    def test_portfolio_agrees_with_every_racer(
        self, engine, enclosure_range, offset
    ):
        """The raced answer matches each racer's solo answer in kind."""
        lo, hi = enclosure_range
        threshold = round(lo + (hi - lo) * (0.5 + offset * 0.8), 3)
        query = VerificationQuery(
            risk=steer_far_left(threshold), set_name="region-000"
        )
        portfolio = Portfolio(engine)
        raced = portfolio.run_query(query)
        assert _decided(raced), raced.error
        for config in DEFAULT_RACERS:
            solo = _run_config(engine, config, query)
            if not _decided(solo):
                continue  # an undecided racer loses; it cannot disagree
            assert _verdict_side(solo) == _verdict_side(raced), (
                f"racer {config.name} disagrees with the portfolio at "
                f"threshold {threshold}"
            )

    def test_debug_parity_runs_every_racer(self, engine, enclosure_range):
        lo, hi = enclosure_range
        query = VerificationQuery(
            risk=steer_far_left(round(hi + 1.0, 3)), set_name="region-000"
        )
        portfolio = Portfolio(engine, debug_parity=True)
        portfolio.run_query(query)
        assert len(portfolio.race_log) == 1
        raced = set(portfolio.race_log[0]["racers"])
        assert raced == {config.name for config in DEFAULT_RACERS}


class TestAdaptiveOrder:
    def test_winner_rises_in_priority(self, model):
        # a fresh engine: a warm support/bounds cache could answer the
        # broken racer's query before its unknown solver is ever touched
        engine = VerificationEngine(model, 3, solver="highs")
        engine.add_region_sets(scenario_region_grid(n_scenes=1, seed=3))
        hi = float(engine.output_enclosures(["region-000"])[0].upper[0])
        racers = (
            # registry order puts the broken racer first; its errors
            # must teach the portfolio to try the screened racer first
            RacerConfig("broken", domain=None, solver="no-such-solver"),
            RacerConfig("screened", domain="interval"),
        )
        portfolio = Portfolio(engine, racers)
        query = VerificationQuery(
            risk=steer_far_left(round(hi + 1.0, 3)), set_name="region-000"
        )
        for _ in range(3):
            result = portfolio.run_query(query)
            assert _decided(result)
        order = [config.name for config in portfolio.priority()]
        assert order[0] == "screened"
        stats = portfolio.stats["screened"]
        assert stats.wins >= 2
        assert portfolio.stats["broken"].errors >= 1
        assert stats.score > portfolio.stats["broken"].score

    def test_decided_by_names_the_winner(self, engine, enclosure_range):
        lo, hi = enclosure_range
        portfolio = Portfolio(engine)
        result = portfolio.run_query(
            VerificationQuery(
                risk=steer_far_left(round(hi + 1.0, 3)), set_name="region-000"
            )
        )
        assert result.decided_by is not None
        assert result.decided_by.startswith("portfolio:")

    def test_rejects_non_verdict_methods(self, engine):
        portfolio = Portfolio(engine)
        with pytest.raises(ValueError):
            portfolio.run_query(
                VerificationQuery(method=Method.RANGE, set_name="region-000")
            )


class TestStructuralRacer:
    def test_default_racers_include_structural_cegar(self):
        structural = [c for c in DEFAULT_RACERS if c.structural]
        assert [c.name for c in structural] == ["structural-cegar"]
        assert Method(structural[0].method) is Method.CEGAR

    def test_apply_keeps_structural_a_cegar_only_flag(self):
        cegar = RacerConfig("s", method="cegar", structural=True)
        exact = RacerConfig("e", method="exact")
        query = VerificationQuery(
            risk=steer_far_left(1.0), set_name="region-000"
        )
        assert cegar.apply(query).structural is True
        # a non-cegar racer must drop the flag even when the incoming
        # query carries it (replace() would otherwise build an invalid
        # exact+structural query)
        structural_query = VerificationQuery(
            risk=steer_far_left(1.0),
            set_name="region-000",
            method=Method.CEGAR,
            structural=True,
        )
        assert exact.apply(structural_query).structural is False

    def test_structural_config_requires_cegar(self):
        with pytest.raises(ValueError, match="cegar"):
            RacerConfig("bad", method="exact", structural=True)

    def test_structural_racer_agrees_with_every_solo_racer(
        self, engine, enclosure_range
    ):
        lo, hi = enclosure_range
        structural = next(c for c in DEFAULT_RACERS if c.structural)
        for threshold in (round(hi + 1.0, 3), round(0.5 * (lo + hi), 3)):
            query = VerificationQuery(
                risk=steer_far_left(threshold), set_name="region-000"
            )
            mine = _run_config(engine, structural, query)
            if not _decided(mine):
                continue
            for config in DEFAULT_RACERS:
                if config.name == structural.name:
                    continue
                solo = _run_config(engine, config, query)
                if not _decided(solo):
                    continue
                assert _verdict_side(solo) == _verdict_side(mine), (
                    f"structural racer disagrees with {config.name} at "
                    f"threshold {threshold}"
                )

    def test_broken_structural_racer_sinks_in_adaptive_order(self, model):
        engine = VerificationEngine(model, 3, solver="highs")
        engine.add_region_sets(scenario_region_grid(n_scenes=1, seed=3))
        hi = float(engine.output_enclosures(["region-000"])[0].upper[0])
        racers = (
            RacerConfig(
                "broken-structural",
                method="cegar",
                structural=True,
                solver="no-such-solver",
            ),
            RacerConfig("screened", domain="interval"),
        )
        portfolio = Portfolio(engine, racers)
        query = VerificationQuery(
            risk=steer_far_left(round(hi + 1.0, 3)), set_name="region-000"
        )
        for _ in range(3):
            result = portfolio.run_query(query)
            assert _decided(result)
        order = [config.name for config in portfolio.priority()]
        assert order[-1] == "broken-structural"
        assert portfolio.stats["broken-structural"].errors >= 1
        assert (
            portfolio.stats["screened"].score
            > portfolio.stats["broken-structural"].score
        )


class TestCampaignRun:
    def test_campaign_verdicts_match_engine_run(self, engine, enclosure_range):
        lo, hi = enclosure_range
        risks = [
            steer_far_left(round(hi + 1.0, 3)),
            steer_far_left(round(0.5 * (lo + hi), 3)),
        ]
        campaign = Campaign("race").add_grid(
            risks=risks, properties=(None,), sets=["region-000"]
        )
        baseline = engine.run(campaign)
        raced = Portfolio(engine).run(campaign)
        assert raced.executor == "portfolio-adaptive"
        assert len(raced.results) == len(baseline.results)
        for a, b in zip(baseline.results, raced.results):
            assert a.verdict is not None and b.verdict is not None
            assert _verdict_side(a) == _verdict_side(b)
        assert raced.cache_stats["portfolio:races"] == len(raced.results)

    def test_parallel_race_no_zombies(self, engine, enclosure_range):
        lo, hi = enclosure_range
        campaign = Campaign("race").add_grid(
            risks=[steer_far_left(round(0.5 * (lo + hi), 3))],
            properties=(None,),
            sets=["region-000"],
        )
        report = Portfolio(engine).run(campaign, workers=2)
        assert report.results[0].verdict is not None
        assert multiprocessing.active_children() == []

    def test_parallel_race_store_written_by_parent(
        self, model, enclosure_range, tmp_path
    ):
        """Racing workers compute without the store; the parent looks it
        up before each race and writes every decided answer once."""
        path = tmp_path / "s.jsonl"
        engine = VerificationEngine(model, 3, solver="highs", store=ResultStore(path))
        engine.add_region_sets(scenario_region_grid(n_scenes=1, seed=3))
        lo, hi = enclosure_range
        campaign = Campaign("race").add_grid(
            risks=[steer_far_left(round(t, 3)) for t in (hi + 1.0, 0.5 * (lo + hi))],
            properties=(None,),
            sets=["region-000"],
        )
        first = Portfolio(engine).run(campaign, workers=2)
        assert all(_decided(result) for result in first.results)
        lines = path.read_text().splitlines()
        assert len(engine.store) == len(lines) >= len(first.results)

        rerun = Portfolio(engine).run(campaign, workers=2)
        for before, after in zip(first.results, rerun.results):
            assert after.decided_by.endswith(":store")
            assert _verdict_side(after) == _verdict_side(before)
        assert path.read_text().splitlines() == lines
