"""Golden pin of the closed loop's feedback on the CI session's data.

The streaming CI job's dataset (quickstart preset, 60 voxels, one
subject of 20 epochs, seed 17) replayed through four session shapes:
static, adaptive, adaptive over a sliding window, and retrain-every-
epoch over a window.  Each session's per-epoch feedback, retrain and
warm-start counts and streamed-TR count are a function of the data,
pinned at equality: a change to how the loop computes an epoch's
features must leave every decision as it was.
"""

import pytest

from repro.core import FCMAConfig
from repro.data import generate_dataset, quickstart_config
from repro.rtfmri import ClosedLoopSession, ScannerSimulator


@pytest.fixture(scope="module")
def ci_dataset():
    # What ``fcma generate --preset quickstart --voxels 60 --subjects 1
    # --epochs-per-subject 20 --seed 17`` writes.
    cfg = quickstart_config().scaled(
        n_voxels=60, n_informative=8, n_subjects=1, epochs_per_subject=20,
        seed=17,
    )
    return generate_dataset(cfg)


#: session keyword arguments -> (per-epoch (index, true, predicted),
#: retrain_count, warm_started_retrains, trs_streamed)
GOLDEN = {
    "static": (
        {},
        [(8, 0, 0), (9, 1, 1), (10, 0, 0), (11, 1, 1), (12, 0, 1),
         (13, 1, 1), (14, 0, 0), (15, 1, 1), (16, 0, 0), (17, 1, 1),
         (18, 0, 1), (19, 1, 1)],
        0, 0, 144,
    ),
    "retrain-2": (
        {"retrain_every": 2},
        [(8, 0, 0), (9, 1, 1), (10, 0, 0), (11, 1, 1), (12, 0, 0),
         (13, 1, 1), (14, 0, 0), (15, 1, 1), (16, 0, 0), (17, 1, 1),
         (18, 0, 1), (19, 1, 1)],
        6, 6, 144,
    ),
    "retrain-3-window-10": (
        {"retrain_every": 3, "window_epochs": 10},
        [(8, 0, 0), (9, 1, 1), (10, 0, 0), (11, 1, 1), (12, 0, 0),
         (13, 1, 1), (14, 0, 0), (15, 1, 1), (16, 0, 0), (17, 1, 1),
         (18, 0, 1), (19, 1, 1)],
        4, 0, 144,
    ),
    "train-10-top-5-retrain-1-window-10": (
        {"training_epochs": 10, "top_k": 5, "retrain_every": 1,
         "window_epochs": 10},
        [(10, 0, 0), (11, 1, 1), (12, 0, 0), (13, 1, 1), (14, 0, 0),
         (15, 1, 0), (16, 0, 0), (17, 1, 0), (18, 0, 1), (19, 1, 0)],
        10, 0, 120,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_feedback_is_pinned(ci_dataset, name):
    kwargs, events, retrains, warm, trs = GOLDEN[name]
    session = ClosedLoopSession(
        ScannerSimulator(ci_dataset, subject=0),
        FCMAConfig(online_folds=4),
        **{"training_epochs": 8, "top_k": 20, **kwargs},
    )
    result = session.run()
    assert [
        (e.epoch_index, e.true_condition, e.predicted_condition)
        for e in result.events
    ] == events
    assert session.retrain_count == retrains
    assert result.streaming.warm_started_retrains == warm
    assert result.streaming.trs_streamed == trs
