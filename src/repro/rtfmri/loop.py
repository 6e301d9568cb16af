"""The closed-loop driver: scanner -> FCMA -> feedback (paper Fig. 1).

Orchestrates a full closed-loop session:

1. **Training phase** — the first ``training_epochs`` completed epochs
   are accumulated; FCMA then selects voxels from them and trains the
   feedback classifier (the paper's online analysis, Section 5.2.2).
2. **Feedback phase** — volumes stream through an
   :class:`~repro.core.incremental.IncrementalEmitter`: every TR folds
   into the in-progress epoch's running sums (an ``O(V*N)`` update, no
   recompute over earlier TRs), and the moment an epoch completes its
   correlation plane comes out of the engine's own batch gemm — so the
   feedback decision is bit-for-bit the one a full recompute would make,
   at a per-TR step cost that stays flat as the scan grows.  Per-TR step
   latencies are recorded (:class:`StreamingStats`) so a deployment can
   gate the p99 against the scanner's TR budget.

Retraining (``retrain_every``) re-runs voxel selection on everything
collected so far — or on a sliding window of the most recent
``window_epochs`` — and warm-starts the classifier's SMO solve from the
previous model's dual variables, padded with zeros for the new epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..analysis.online import OnlineResult, run_online_analysis
from ..core.incremental import IncrementalEmitter
from ..core.pipeline import FCMAConfig
from ..data.dataset import FMRIDataset
from ..data.epochs import Epoch, EpochTable
from ..exec.context import RunContext
from ..svm.model import SVMModel, encode_labels
from .assembler import CompletedEpoch, EpochAssembler
from .scanner import ScannerSimulator, Volume

__all__ = [
    "FeedbackEvent",
    "StreamingStats",
    "ClosedLoopResult",
    "ClosedLoopSession",
]


@dataclass(frozen=True)
class FeedbackEvent:
    """One piece of feedback delivered to the subject."""

    epoch_index: int
    true_condition: int
    predicted_condition: int
    #: Classifier compute time for this epoch, in seconds.
    latency_s: float

    @property
    def correct(self) -> bool:
        """Whether the feedback matched the true condition."""
        return self.true_condition == self.predicted_condition


@dataclass
class StreamingStats:
    """Per-TR telemetry of the feedback phase's streaming engine."""

    #: Wall-clock seconds each feedback-phase volume took end to end
    #: (running-sum update, partial correlations, and — on epoch
    #: boundaries — the epoch plane + classification).
    step_latencies_s: list[float] = field(default_factory=list)
    #: Volumes folded into the incremental state.
    trs_streamed: int = 0
    #: Partial-correlation refreshes performed (one per streamed TR
    #: once the in-progress epoch has two volumes).
    partial_updates: int = 0
    #: Epoch planes produced by the streaming engine.
    epochs_completed: int = 0
    #: Planes dropped off the sliding window.
    epochs_evicted: int = 0
    #: Retrains that resumed from the previous model's duals.
    warm_started_retrains: int = 0

    def _percentile(self, q: float) -> float:
        if not self.step_latencies_s:
            return 0.0
        return float(np.percentile(self.step_latencies_s, q))

    @property
    def median_step_latency_s(self) -> float:
        """Median per-TR step latency (0 before any volume streams)."""
        return self._percentile(50.0)

    @property
    def p99_step_latency_s(self) -> float:
        """99th-percentile per-TR step latency — the deployment gate."""
        return self._percentile(99.0)

    @property
    def max_step_latency_s(self) -> float:
        """Worst per-TR step latency."""
        if not self.step_latencies_s:
            return 0.0
        return max(self.step_latencies_s)


@dataclass
class ClosedLoopResult:
    """Outcome of a full closed-loop session."""

    #: Voxel selection + classifier from the training phase.
    training: OnlineResult
    #: Wall-clock seconds the training phase took.
    training_latency_s: float
    #: One event per feedback-phase epoch.
    events: list[FeedbackEvent] = field(default_factory=list)
    #: Per-TR streaming telemetry (empty if the scan ended at training).
    streaming: StreamingStats = field(default_factory=StreamingStats)

    @property
    def feedback_accuracy(self) -> float:
        """Fraction of correct feedback events (0 if none yet)."""
        if not self.events:
            return 0.0
        return sum(e.correct for e in self.events) / len(self.events)

    @property
    def max_feedback_latency_s(self) -> float:
        """Worst per-epoch feedback latency."""
        if not self.events:
            return 0.0
        return max(e.latency_s for e in self.events)


class ClosedLoopSession:
    """Runs the Fig.-1 loop against a :class:`ScannerSimulator`.

    Parameters
    ----------
    scanner:
        The volume source.
    config:
        Pipeline configuration for the online voxel selection.
    training_epochs:
        Completed epochs accumulated before training; must be at least
        ``2 * config.online_folds`` so each CV fold sees both classes.
    top_k:
        Voxels selected for the feedback classifier.
    retrain_every:
        Adaptive mode: after every N feedback epochs, re-run voxel
        selection and retrain on everything seen so far (warm-starting
        the SMO solve from the previous duals).
    window_epochs:
        Sliding window: keep only the most recent N completed epochs
        for the streaming engine and for retraining; ``None`` (default)
        keeps everything.  Must be at least ``training_epochs``.
    context:
        Optional :class:`~repro.exec.RunContext`; the session times its
        phases through it (``train``, ``feedback``, ``retrain``,
        ``stream``) on top of the pipeline's own stage timings, so a
        deployment reads one telemetry object for the whole closed loop.
    """

    def __init__(
        self,
        scanner: ScannerSimulator,
        config: FCMAConfig = FCMAConfig(),
        training_epochs: int = 8,
        top_k: int = 20,
        retrain_every: int | None = None,
        window_epochs: int | None = None,
        context: RunContext | None = None,
    ) -> None:
        if training_epochs < 4:
            raise ValueError("training_epochs must be >= 4")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if retrain_every is not None and retrain_every < 1:
            raise ValueError("retrain_every must be >= 1 (or None)")
        if window_epochs is not None and window_epochs < training_epochs:
            raise ValueError(
                "window_epochs must be >= training_epochs (or None)"
            )
        self._scanner = scanner
        self._config = config
        self._training_epochs = training_epochs
        self._top_k = top_k
        self._window_epochs = window_epochs
        #: The session's telemetry carrier (shared with the pipeline).
        self.context = context if context is not None else RunContext(config)
        self._retrain_every = retrain_every
        #: Number of retraining passes performed (introspection).
        self.retrain_count = 0

    # -- training ---------------------------------------------------------

    def _window(self, collected: list[CompletedEpoch]) -> list[CompletedEpoch]:
        """The epochs retraining sees (sliding window when configured)."""
        if self._window_epochs is None:
            return collected
        return collected[-self._window_epochs :]

    def _warm_start_alpha(
        self,
        previous: OnlineResult | None,
        collected: list[CompletedEpoch],
    ) -> np.ndarray | None:
        """Previous duals padded with zeros, when feasible.

        Feasible means the previous training epochs are a prefix of the
        current set with the same two classes: then ``y`` restricted to
        the prefix is unchanged and the padded vector still satisfies
        the SMO equality constraint ``y @ alpha == 0``.
        """
        if previous is None:
            return None
        model = previous.classifier.model
        if not isinstance(model, SVMModel):
            return None  # multiclass voting model: duals don't decompose
        n_prev = model.dual_coef.shape[0]
        if n_prev > len(collected):
            return None  # window slid past the previous training set
        labels = [c.condition for c in collected]
        if len(set(labels)) != len(set(labels[:n_prev])):
            return None  # new class appeared: encoding would shift
        try:
            y_prev, _ = encode_labels(np.asarray(labels[:n_prev]))
        except ValueError:
            return None
        alpha = np.zeros(len(collected), dtype=np.float32)
        # dual_coef = alpha * y and y in {-1,+1}, so alpha = dual_coef * y.
        alpha[:n_prev] = model.dual_coef * y_prev
        if (alpha < 0).any() or (alpha > self._config.svm_c).any():
            # The window slid: the prefix no longer matches the epochs
            # the previous model trained on, so its duals decode outside
            # [0, C].  Cold-start rather than hand SMO an infeasible
            # point.
            return None
        return alpha

    def _train(
        self,
        collected: list[CompletedEpoch],
        warm_start_alpha: np.ndarray | None = None,
    ) -> OnlineResult:
        """Build a single-subject dataset from buffered epochs and run
        the online analysis on it."""
        lengths = {c.window.shape[1] for c in collected}
        length = min(lengths)
        # Concatenate the (truncated-to-common-length) windows into one
        # pseudo-scan; epoch starts are then multiples of the length.
        bold = np.concatenate(
            [c.window[:, :length] for c in collected], axis=1
        )
        table = EpochTable(
            Epoch(
                subject=0,
                condition=c.condition,
                start=i * length,
                length=length,
            )
            for i, c in enumerate(collected)
        )
        dataset = FMRIDataset({0: bold}, table, name="rtfmri-training")
        return run_online_analysis(
            dataset,
            subject=0,
            config=self._config,
            top_k=self._top_k,
            context=self.context,
            warm_start_alpha=warm_start_alpha,
        )

    # -- streaming feedback ----------------------------------------------

    def _make_emitter(self, training: OnlineResult) -> IncrementalEmitter:
        """A streaming engine bound to the current selected voxels."""
        return IncrementalEmitter(
            training.classifier.voxels,
            self._scanner.n_voxels,
            window_epochs=self._window_epochs,
        )

    def run(self) -> ClosedLoopResult:
        """Consume the whole scan; returns the session outcome."""
        assembler = EpochAssembler()
        collected: list[CompletedEpoch] = []
        result: ClosedLoopResult | None = None
        emitter: IncrementalEmitter | None = None
        partial_buf: np.ndarray | None = None
        stats = StreamingStats()
        since_retrain = 0
        discard_seen = 0
        update_seconds = 0.0

        def start_streaming(training: OnlineResult) -> None:
            nonlocal emitter, partial_buf
            if emitter is not None:
                # Rebinding to a new voxel set: bank the outgoing
                # engine's eviction tally before it goes away.
                stats.epochs_evicted += emitter.epochs_evicted
            emitter = self._make_emitter(training)
            partial_buf = np.empty(
                (training.classifier.voxels.size, self._scanner.n_voxels),
                dtype=np.float32,
            )

        def handle_training(epoch: CompletedEpoch | None) -> None:
            nonlocal result
            if epoch is None:
                return
            collected.append(epoch)
            if len(collected) >= self._training_epochs:
                with self.context.timer("train") as train_timer:
                    training = self._train(collected)
                result = ClosedLoopResult(
                    training=training,
                    training_latency_s=train_timer.seconds,
                    streaming=stats,
                )
                start_streaming(training)

        def classify_completed(epoch: CompletedEpoch) -> None:
            """Close the streaming epoch, classify its plane, retrain."""
            nonlocal since_retrain, emitter
            assert result is not None and emitter is not None
            with self.context.timer("feedback") as feedback_timer:
                with self.context.tracer.span(
                    "incremental_epoch_close", kind="kernel"
                ) as close_span:
                    trs = emitter.trs_in_epoch
                    plane = emitter.complete_epoch()
                    close_span.add_metric("voxels", float(emitter.n_assigned))
                    close_span.add_metric("trs", float(trs))
                assert plane is not None  # assembler saw >= min_length TRs
                stats.epochs_completed += 1
                feats = emitter.fisher_features(plane)
                predicted = result.training.classifier.classify_features(feats)
            result.events.append(
                FeedbackEvent(
                    epoch_index=epoch.index,
                    true_condition=epoch.condition,
                    predicted_condition=predicted,
                    latency_s=feedback_timer.seconds,
                )
            )
            # Adaptive mode: fold the (design-labeled) epoch into the
            # training set and periodically refresh the decoder.
            collected.append(epoch)
            since_retrain += 1
            if (
                self._retrain_every is not None
                and since_retrain >= self._retrain_every
            ):
                previous = result.training
                window = self._window(collected)
                with self.context.timer("retrain"):
                    alpha = self._warm_start_alpha(previous, window)
                    training = self._train(window, warm_start_alpha=alpha)
                result.training = training
                self.retrain_count += 1
                since_retrain = 0
                # Selection may have picked different voxels: rebind the
                # streaming engine (safe here — complete_epoch just
                # reset the in-progress state, so nothing carries over).
                if not np.array_equal(
                    training.classifier.voxels, previous.classifier.voxels
                ):
                    start_streaming(training)
                if alpha is not None:
                    stats.warm_started_retrains += 1

        def handle_feedback(
            completed: CompletedEpoch | None, volume: Volume | None
        ) -> None:
            """One feedback-phase step: epoch boundary, then this TR."""
            nonlocal discard_seen, update_seconds
            assert emitter is not None
            step_start = perf_counter()
            if completed is not None:
                classify_completed(completed)
            elif assembler.discarded > discard_seen:
                # The assembler dropped a too-short fragment; mirror it.
                emitter.discard_partial_epoch()
            discard_seen = assembler.discarded
            if volume is not None and volume.condition is not None:
                update_start = perf_counter()
                emitter.push_tr(volume.data)
                stats.trs_streamed += 1
                if emitter.partial_correlations(out=partial_buf) is not None:
                    stats.partial_updates += 1
                update_seconds += perf_counter() - update_start
            step_seconds = perf_counter() - step_start
            stats.step_latencies_s.append(step_seconds)
            # One zero-width ``stream`` stage span per step: the trace's
            # step record, and the live plane's step histogram.
            self.context.add_time("stream", step_seconds)

        for volume in self._scanner.stream():
            if result is None:
                handle_training(assembler.push(volume))
                if result is not None and emitter is not None:
                    # Training finished on this volume; the assembler may
                    # already hold the open epoch's first TRs — seed the
                    # streaming state so its window matches.
                    pending = assembler.in_progress
                    if pending is not None:
                        for t in range(pending.shape[1]):
                            emitter.push_tr(pending[:, t])
                            stats.trs_streamed += 1
                    discard_seen = assembler.discarded
            else:
                handle_feedback(assembler.push(volume), volume)

        if result is None:
            handle_training(assembler.flush())
        else:
            handle_feedback(assembler.flush(), None)

        if result is None:
            raise RuntimeError(
                f"scan ended before {self._training_epochs} training epochs "
                f"completed ({assembler.epochs_emitted} seen)"
            )

        if emitter is not None:
            stats.epochs_evicted += emitter.epochs_evicted
        if stats.step_latencies_s:
            if emitter is not None and stats.trs_streamed:
                # One aggregate kernel span for the per-TR updates — a
                # live span per TR would cost as much as the update.
                self.context.tracer.record(
                    "incremental_tr_update",
                    kind="kernel",
                    seconds=update_seconds,
                    metrics={
                        "voxels": float(emitter.n_assigned),
                        "calls": float(stats.trs_streamed),
                    },
                )
            self.context.increment("rtfmri_trs", stats.trs_streamed)
            self.context.increment(
                "rtfmri_partial_updates", stats.partial_updates
            )
            self.context.increment(
                "rtfmri_epochs_completed", stats.epochs_completed
            )
        return result
