"""repro — Full Correlation Matrix Analysis (FCMA) of fMRI data.

A complete reproduction of *"Full Correlation Matrix Analysis of fMRI
Data on Intel Xeon Phi Coprocessors"* (Wang et al., SC '15): the
three-stage FCMA pipeline with both the baseline (MKL/LibSVM-style) and
optimized (blocked/merged/PhiSVM) implementations, the SVM solvers, a
master-worker parallel runtime, hardware performance models that
regenerate the paper's instrumentation tables, and a cluster simulator
that regenerates its scaling results.

Quickstart::

    from repro import generate_dataset, quickstart_config, FCMAConfig
    from repro import ProcessPoolExecutor, RunContext

    dataset = generate_dataset(quickstart_config())
    scores = ProcessPoolExecutor().run(dataset, RunContext(FCMAConfig()))
    print(scores.top(10).voxels)

Subpackages
-----------
``repro.core``      the three-stage pipeline (the paper's contribution)
``repro.exec``      execution core: stage graph, RunContext, executors
``repro.svm``       SMO solver, PhiSVM, LibSVM-like baseline
``repro.data``      dataset model, synthetic fMRI generator, presets
``repro.parallel``  MPI-like comm, TCP transport, the master/worker runtime
``repro.cluster``   network model + discrete-event cluster simulator
``repro.hw``        machine specs, cache simulator, timing model
``repro.perf``      kernel performance models (Tables 1, 5-8; Figs 9-11)
``repro.analysis``  offline nested CV, online selection, MVPA foil, ROI stats
``repro.rtfmri``    closed-loop system (Fig. 1): scanner sim + feedback loop
``repro.bench``     paper reference data + table rendering
"""

from .analysis import (
    OfflineResult,
    OnlineResult,
    run_offline_analysis,
    run_online_analysis,
)
from .core import FCMAConfig, VoxelScores
from .data import (
    ATTENTION,
    FACE_SCENE,
    BrainMask,
    DatasetSpec,
    Epoch,
    EpochTable,
    FMRIDataset,
    SyntheticConfig,
    attention_scaled,
    face_scene_scaled,
    generate_dataset,
    ground_truth_voxels,
    load_dataset,
    quickstart_config,
    save_dataset,
)
from .exec import (
    MasterWorkerExecutor,
    ProcessPoolExecutor,
    RunContext,
    SerialExecutor,
    make_executor,
)
from .rtfmri import ClosedLoopSession, ScannerSimulator
from .svm import LibSVMClassifier, PhiSVM, SVMModel

__version__ = "1.0.0"

__all__ = [
    "ATTENTION",
    "BrainMask",
    "ClosedLoopSession",
    "DatasetSpec",
    "Epoch",
    "EpochTable",
    "FACE_SCENE",
    "FCMAConfig",
    "FMRIDataset",
    "LibSVMClassifier",
    "MasterWorkerExecutor",
    "OfflineResult",
    "OnlineResult",
    "PhiSVM",
    "ProcessPoolExecutor",
    "RunContext",
    "SVMModel",
    "ScannerSimulator",
    "SerialExecutor",
    "SyntheticConfig",
    "VoxelScores",
    "attention_scaled",
    "face_scene_scaled",
    "generate_dataset",
    "ground_truth_voxels",
    "load_dataset",
    "make_executor",
    "quickstart_config",
    "run_offline_analysis",
    "run_online_analysis",
    "save_dataset",
    "__version__",
]
