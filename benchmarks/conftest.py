"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures,
asserts its shape claims (who wins, by roughly what factor) and its
deterministic numbers (at equality), and writes the paper-vs-reproduced
comparison to ``benchmarks/results/<name>.txt`` so the artifacts
survive the run (``--benchmark-only`` captures stdout).  Whether a
change made the pipeline slower is judged by the end-to-end harness's
paired runs (``benchmarks/e2e``), not by these files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_table(results_dir):
    """save_table(name, text): persist + echo one regenerated table."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
