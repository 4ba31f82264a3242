"""Unit tests for the lane-keeping controller and closed-loop simulation."""

import numpy as np
import pytest

from repro.scenario.controller import (
    ClosedLoopResult,
    PurePursuitController,
    simulate_closed_loop,
)


class TestPurePursuitController:
    def test_left_waypoint_steers_left(self):
        controller = PurePursuitController()
        assert controller.command(np.array([1.0, 0.0])) > 0.0
        assert controller.command(np.array([-1.0, 0.0])) < 0.0

    def test_centered_waypoint_no_command(self):
        controller = PurePursuitController()
        assert controller.command(np.array([0.0, 0.0])) == 0.0

    def test_command_saturates(self):
        controller = PurePursuitController(max_curvature=0.01)
        assert controller.command(np.array([100.0, 0.0])) == 0.01

    def test_orientation_damping_adds(self):
        controller = PurePursuitController(orientation_gain=1.0)
        base = controller.command(np.array([1.0, 0.0]))
        with_orientation = controller.command(np.array([1.0, 0.1]))
        assert with_orientation > base

    def test_validation(self):
        with pytest.raises(ValueError, match="lookahead"):
            PurePursuitController(lookahead=0.0)
        controller = PurePursuitController()
        with pytest.raises(ValueError, match="2 entries"):
            controller.command(np.zeros(3))


class TestClosedLoopOracle:
    def test_converges_from_initial_offset_on_straight(self):
        result = simulate_closed_loop(
            None, num_steps=300, initial_offset=1.0, seed=5
        )
        # after the transient the vehicle tracks the lane tightly
        tail = result.lateral_offsets[150:]
        assert np.abs(tail).max() < 0.5
        assert abs(result.lateral_offsets[0]) == 1.0

    def test_tracks_winding_road(self):
        result = simulate_closed_loop(None, num_steps=400, initial_offset=0.0, seed=7)
        assert result.rms_lateral_error < 0.5

    def test_result_metrics(self):
        result = simulate_closed_loop(None, num_steps=50, seed=1)
        assert isinstance(result, ClosedLoopResult)
        assert result.lateral_offsets.shape == (50,)
        assert result.fallback_rate == 0.0
        assert "RMS lateral error" in result.summary()

    def test_reproducible(self):
        a = simulate_closed_loop(None, num_steps=30, seed=3)
        b = simulate_closed_loop(None, num_steps=30, seed=3)
        np.testing.assert_array_equal(a.lateral_offsets, b.lateral_offsets)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_steps"):
            simulate_closed_loop(None, num_steps=0)


class TestClosedLoopPerception:
    def test_nn_drives_and_monitor_can_fall_back(self, verified_system):
        sys_ = verified_system
        nn_result = simulate_closed_loop(
            sys_.model,
            num_steps=120,
            initial_offset=0.3,
            scene_config=sys_.config.scene,
            seed=11,
        )
        oracle_result = simulate_closed_loop(
            None,
            num_steps=120,
            initial_offset=0.3,
            scene_config=sys_.config.scene,
            seed=11,
        )
        # the NN channel keeps the vehicle on the road (lane half width)
        assert nn_result.max_lateral_error < sys_.config.scene.lane_width
        # and cannot beat the oracle channel
        assert nn_result.rms_lateral_error >= oracle_result.rms_lateral_error - 1e-9

        monitored = simulate_closed_loop(
            sys_.model,
            num_steps=120,
            initial_offset=0.3,
            scene_config=sys_.config.scene,
            monitor=sys_.engine.make_monitor(keep_events=False),
            seed=11,
        )
        assert 0.0 <= monitored.fallback_rate <= 1.0
        # fallback steps (if any) can only improve or match tracking
        assert monitored.rms_lateral_error <= nn_result.rms_lateral_error + 0.5

    def test_hot_standby_saves_the_night_drive(self, verified_system):
        """The paper's architecture, quantified: an unmonitored NN channel
        diverges when night falls (ODD exit), the monitor-backed channel
        falls back to the mediated system and keeps tracking."""
        sys_ = verified_system
        common = dict(
            num_steps=150,
            initial_offset=0.3,
            scene_config=sys_.config.scene,
            odd_exit_step=75,
            seed=11,
        )
        unmonitored = simulate_closed_loop(sys_.model, **common)
        hot_standby = simulate_closed_loop(
            sys_.model,
            monitor=sys_.engine.make_monitor(keep_events=False),
            **common,
        )
        assert hot_standby.fallback_rate > 0.05  # the monitor engaged
        assert hot_standby.max_lateral_error < sys_.config.scene.lane_width
        assert hot_standby.rms_lateral_error < unmonitored.rms_lateral_error
