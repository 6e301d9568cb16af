"""Tests for the closed-loop session driver."""

import pytest

from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset, ground_truth_voxels
from repro.rtfmri import ClosedLoopSession, ScannerSimulator


@pytest.fixture(scope="module")
def loop_setup():
    cfg = SyntheticConfig(
        n_voxels=150, n_subjects=1, epochs_per_subject=16, epoch_length=12,
        n_informative=20, n_groups=4, seed=77, name="loop",
    )
    ds = generate_dataset(cfg)
    scanner = ScannerSimulator(ds, subject=0)
    session = ClosedLoopSession(
        scanner,
        FCMAConfig(online_folds=4, target_block=64),
        training_epochs=8,
        top_k=12,
    )
    return cfg, session.run()


class TestClosedLoop:
    def test_training_then_feedback_split(self, loop_setup):
        _, result = loop_setup
        # 16 epochs total: 8 training, 8 feedback events.
        assert len(result.events) == 8
        assert result.training.selected.voxels.size == 12

    def test_feedback_beats_chance(self, loop_setup):
        _, result = loop_setup
        assert result.feedback_accuracy > 0.6

    def test_feedback_latency_within_tr(self, loop_setup):
        """Per-epoch feedback must comfortably fit one TR (1.5 s)."""
        _, result = loop_setup
        assert result.max_feedback_latency_s < 1.5

    def test_selected_voxels_informative(self, loop_setup):
        cfg, result = loop_setup
        gt = set(ground_truth_voxels(cfg).tolist())
        hits = len(set(result.training.selected.voxels.tolist()) & gt)
        assert hits / 12 >= 0.4

    def test_event_bookkeeping(self, loop_setup):
        _, result = loop_setup
        for event in result.events:
            assert event.true_condition in (0, 1)
            assert event.predicted_condition in (0, 1)
            assert event.latency_s >= 0.0
            assert event.correct == (
                event.true_condition == event.predicted_condition
            )

    def test_training_latency_recorded(self, loop_setup):
        _, result = loop_setup
        assert result.training_latency_s > 0.0


class TestValidation:
    def test_too_few_training_epochs(self):
        cfg = SyntheticConfig(
            n_voxels=60, n_subjects=1, epochs_per_subject=4, epoch_length=12,
            n_informative=8, n_groups=2, seed=1,
        )
        ds = generate_dataset(cfg)
        scanner = ScannerSimulator(ds, subject=0)
        session = ClosedLoopSession(scanner, FCMAConfig(target_block=32),
                                    training_epochs=8)
        with pytest.raises(RuntimeError, match="ended before"):
            session.run()

    def test_parameter_validation(self, tiny_dataset):
        scanner = ScannerSimulator(tiny_dataset, subject=0)
        with pytest.raises(ValueError):
            ClosedLoopSession(scanner, training_epochs=2)
        with pytest.raises(ValueError):
            ClosedLoopSession(scanner, top_k=0)

    def test_empty_result_accuracy_zero(self):
        from repro.analysis.online import OnlineResult
        from repro.rtfmri.loop import ClosedLoopResult

        # A result with no events reports 0 accuracy, not an error.
        result = ClosedLoopResult.__new__(ClosedLoopResult)
        result.events = []
        assert result.feedback_accuracy == 0.0
        assert result.max_feedback_latency_s == 0.0


class TestStreamTrace:
    def test_one_stream_span_per_feedback_step(self):
        """Each feedback step is one zero-width ``stream`` stage span,
        so the stage still sums to the step latencies, call for call."""
        cfg = SyntheticConfig(
            n_voxels=60, n_subjects=1, epochs_per_subject=10, epoch_length=12,
            n_informative=8, n_groups=2, seed=3,
        )
        session = ClosedLoopSession(
            ScannerSimulator(generate_dataset(cfg), subject=0),
            FCMAConfig(online_folds=4, target_block=32),
            training_epochs=8,
            top_k=6,
        )
        steps = session.run().streaming.step_latencies_s
        spans = [s for s in session.context.tracer.spans() if s.name == "stream"]
        assert len(spans) == len(steps) > 0
        assert {(s.kind, s.duration) for s in spans} == {("stage", 0.0)}
        stream = session.context.stages["stream"]
        assert stream.calls == len(steps)
        assert stream.seconds == sum(steps)
