"""Integration: runtime monitor on temporally-correlated drive streams."""

import dataclasses

import numpy as np

from repro.monitor.coverage import ActivationPatternSet, coverage_report
from repro.perception.features import extract_features
from repro.scenario.drive import DriveConfig, simulate_drive
from repro.scenario.weather import Weather


class TestMonitorOnDriveStreams:
    def test_in_odd_drive_mostly_covered(self, verified_system):
        sys_ = verified_system
        drive = simulate_drive(
            DriveConfig(num_frames=60), sys_.config.scene, seed=42
        )
        monitor = sys_.engine.make_monitor(keep_events=False)
        report = monitor.run(drive.images)
        # temporally-correlated in-ODD frames: low violation rate
        assert report.violation_rate < 0.3

    def test_scripted_odd_exit_detected(self, verified_system):
        sys_ = verified_system
        config = DriveConfig(
            num_frames=60,
            odd_exit_frame=30,
            odd_exit_weather=Weather(brightness=0.3, noise_sigma=0.05),
        )
        drive = simulate_drive(config, sys_.config.scene, seed=43)
        monitor = sys_.engine.make_monitor()
        monitor.run(drive.images)
        events = monitor.report.events
        before = np.mean([e.violation for e in events[:30]])
        after = np.mean([e.violation for e in events[30:]])
        assert after > before + 0.3  # the exit is clearly visible

    def test_violations_cluster_after_exit(self, verified_system):
        """Temporal correlation: the first violation appears near the exit."""
        sys_ = verified_system
        config = DriveConfig(
            num_frames=40,
            odd_exit_frame=20,
            odd_exit_weather=Weather(brightness=0.3),
        )
        drive = simulate_drive(config, sys_.config.scene, seed=44)
        monitor = sys_.engine.make_monitor()
        monitor.run(drive.images)
        violating = [e.frame_index for e in monitor.report.events if e.violation]
        if violating:
            assert min(v for v in violating if v >= 20) <= 25


class TestCoverageOnDriveStreams:
    def test_single_drive_covers_less_than_full_odd(self, verified_system):
        """One drive's feature coverage is a strict subset of the ODD's —
        the 'incomplete data collection' signal of footnote 2."""
        sys_ = verified_system
        drive = simulate_drive(
            DriveConfig(num_frames=80), sys_.config.scene, seed=45
        )
        drive_features = extract_features(sys_.model, drive.images, sys_.cut_layer)
        drive_cov = coverage_report(drive_features)
        odd_cov = coverage_report(sys_.train_features)
        assert drive_cov.k_section < odd_cov.k_section

    def test_pattern_novelty_detects_unseen_data(self, verified_system):
        """Patterns from half the data flag novelty on the other half —
        while being silent on their own training half by construction."""
        sys_ = verified_system
        half = sys_.train_features.shape[0] // 2
        first, second = sys_.train_features[:half], sys_.train_features[half:]
        patterns = ActivationPatternSet.from_features(first)
        assert patterns.novelty_rate(first) == 0.0
        assert patterns.novelty_rate(second) >= 0.0
        assert patterns.novelty_rate(second) >= patterns.novelty_rate(first)

    def test_interval_monitor_complements_pattern_monitor(self, verified_system):
        """The night exit saturates neurons into *common* dark patterns, so
        the discrete pattern monitor can stay silent — while the interval
        envelope monitor fires.  The two are complementary detectors."""
        sys_ = verified_system
        night = simulate_drive(
            DriveConfig(
                num_frames=50,
                odd_exit_frame=0,
                odd_exit_weather=Weather(brightness=0.3),
            ),
            sys_.config.scene,
            seed=46,
        )
        monitor = sys_.engine.make_monitor(keep_events=False)
        report = monitor.run(night.images)
        assert report.violation_rate > 0.3  # the interval monitor sees it
