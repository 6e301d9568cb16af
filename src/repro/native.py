"""The compiled kernels, built on first use: one library, one loader.

Three native entry points, each behind a numpy body that gives the
same bits: ``smo_solve_batch`` (``svm/_smo.c``, stage 3's SMO problem
solve), ``normalize_zscore`` (``core/_normalize.c``, the z-score tail of
stage 2's fused normalizer) and ``normalize_windows`` (the same file,
stage 1's equation-2 input normalization).  :func:`solver` compiles
both sources with ``gcc`` into one library the first time a process
asks for it (never at import), into a per-user cache directory under a
name keyed by the sources, the flags and the compiler binary; the
library is published with an atomic rename, so concurrent first runs
at worst compile twice, and later processes only load it (``ctypes``).
The float32 log the SMO adaptive heuristic uses must round as
``np.log`` does, so a freshly loaded library is checked against it.
Any failure — no compiler, an unwritable cache, a failed build or
check — makes the library unavailable for the rest of the process,
logged once; callers then run their numpy bodies.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["solver", "SELECTIONS"]

_log = logging.getLogger(__name__)

SOURCES = (
    Path(__file__).parent / "svm" / "_smo.c",
    Path(__file__).parent / "core" / "_normalize.c",
)
COMPILER = "gcc"
#: -O3 vectorizes the normalizers' loops (at -O2 they stay scalar and
#: lose to numpy) and -fno-math-errno their sqrtf.  Without -ffast-math
#: no sum is reordered, and -ffp-contract=off forbids fused multiply-adds,
#: so every kernel keeps its numpy bits.  No -march: the cache is keyed
#: by compiler, not by CPU (both sources carry per-CPU clones).
FLAGS = (
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno", "-pthread",
)

#: ``selection`` codes of ``smo_solve_batch``.
SELECTIONS = {"first": 0, "second": 1, "adaptive": 2}

_UNTRIED = object()
_lib: Any = _UNTRIED
_lock = threading.Lock()


def cache_dir() -> Path:
    """Where built libraries live: per user, shared by every checkout."""
    return Path.home() / ".cache" / "repro"


def _compiler() -> str:
    path = shutil.which(COMPILER)
    if path is None:
        raise OSError(f"no {COMPILER} on PATH")
    return os.path.realpath(path)


def _library_path(compiler: str) -> Path:
    # The compiler is identified by its binary, not by `gcc --version`: a
    # child process's peak RSS starts at its parent's, so one probe per
    # process would double every run's reported peak.
    st = os.stat(compiler)
    key = hashlib.sha256()
    for part in (
        *(source.read_bytes() for source in SOURCES),
        " ".join(FLAGS).encode(),
        f"{compiler}:{st.st_size}:{st.st_mtime_ns}".encode(),
    ):
        key.update(part)
    return cache_dir() / f"native-{key.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, *map(str, SOURCES), "-o", tmp, "-lm"],
            capture_output=True, check=True, text=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _log_probe() -> np.ndarray:
    """Positive float32s across the whole range, and ratios near 1."""
    spread = np.arange(1, 0x7F800000, 0x7F800000 // 2048, dtype=np.uint32)
    near_one = np.arange(0x3F7FFC00, 0x3F800400, dtype=np.uint32)
    return np.concatenate([spread, near_one]).view(np.float32)


def _load() -> Any:
    compiler = _compiler()
    path = _library_path(compiler)
    if not path.exists():
        _build(compiler, path)
    lib = ctypes.CDLL(str(path))
    f32, i64, ptr = ctypes.c_float, ctypes.c_int64, ctypes.c_void_p
    lib.smo_solve_batch.restype = ctypes.c_int
    lib.smo_solve_batch.argtypes = [
        i64, i64, ptr, ptr, f32, f32, i64, ctypes.c_int,
        ptr, ptr, ptr, ptr, ptr, ptr, i64, ctypes.c_int,
    ]
    lib.smo_log_f32.restype = None
    lib.smo_log_f32.argtypes = [ptr, ptr, i64]
    lib.normalize_zscore.restype = None
    lib.normalize_zscore.argtypes = [ptr, i64, i64, i64, f32, ptr, ptr]
    lib.normalize_windows.restype = None
    lib.normalize_windows.argtypes = [ptr, i64, i64, i64, f32, ptr]
    x = _log_probe()
    out = np.empty_like(x)
    lib.smo_log_f32(x.ctypes.data, out.ctypes.data, x.size)
    if not np.array_equal(out.view(np.uint32), np.log(x).view(np.uint32)):
        raise RuntimeError("the compiled float32 log does not round as np.log")
    return lib


def solver() -> Any:
    """The loaded library (``smo_solve_batch``, ``normalize_zscore``,
    ``normalize_windows``), or ``None`` if unavailable."""
    global _lib
    if _lib is _UNTRIED:
        with _lock:
            if _lib is _UNTRIED:
                try:
                    _lib = _load()
                except (OSError, subprocess.SubprocessError, RuntimeError) as exc:
                    detail = getattr(exc, "stderr", None) or exc
                    _log.warning(
                        "native kernels unavailable, using the numpy bodies: %s",
                        detail,
                    )
                    _lib = None
    return _lib
