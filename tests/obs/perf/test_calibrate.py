"""The paper gate (``fcma perf calibrate``): every claim of the ledger
in ``repro.bench.experiments`` against its band."""

from __future__ import annotations

import pytest

from repro.bench import EXPERIMENTS, Claim, claims, paperdata, render_claims, run_gate
from repro.bench.experiments import Band
from repro.cli import main


@pytest.fixture
def drifted_paper_value(monkeypatch):
    """One published number moved far outside its band (time, ±10 %)."""
    _, gflops = paperdata.TABLE5_MATMUL[("ours", "corr")]
    monkeypatch.setitem(paperdata.TABLE5_MATMUL, ("ours", "corr"), (100.0, gflops))


def _gated() -> list[Claim]:
    return [c for exp_id in EXPERIMENTS for c in claims(exp_id) if c.gated]


class TestCalibrationCheck:
    def test_deviation_is_symmetric(self):
        band = Band("t", 0.1)
        high = Claim("t", "x", modelled=2.0, paper=1.0, band=band)
        low = Claim("t", "x", modelled=0.5, paper=1.0, band=band)
        assert high.deviation == pytest.approx(1.0)
        assert low.deviation == pytest.approx(high.deviation)
        assert not high.ok and not low.ok

    def test_perfect_match_ok(self):
        check = Claim("t", "x", modelled=1.0, paper=1.0, band=Band("t", 0.01))
        assert check.deviation == pytest.approx(0.0)
        assert check.ok

    def test_unpublished_or_unbanded_is_reported_not_gated(self):
        assert Claim("t", "x", modelled=9.0).ok
        typo = Claim("t", "x", modelled=9.0, paper=1.0, band=None, note="typo")
        assert typo.ok and not typo.gated
        assert "typo" in render_claims([typo])

    def test_nonpositive_modelled_value_drifts(self):
        assert not Claim("t", "x", 0.0, 1.0, Band("t", 0.5)).ok


class TestCalibrationChecks:
    def test_all_published_values_covered(self):
        checks = _gated()
        sources = {c.source for c in checks}
        # Every table and figure that prints a number contributes.
        for expected in ("Table 1", "Table 3", "Table 4", "Table 5", "Table 6",
                         "Table 7", "Table 8", "Fig 8", "Fig 9", "Fig 10"):
            assert expected in sources, expected
        # The 24 kernel/speedup quantities of the old gate + 12 + 4
        # scaling points + 2 Fig. 8 endpoints.
        assert len(checks) >= 24 + 18

    def test_models_are_calibrated_at_default_bands(self):
        """The committed invariant: every claim sits in its band."""
        assert [c for c in _gated() if not c.ok] == []

    def test_one_band_per_quantity_class_and_one_outlier(self):
        tolerances: dict[str, set[float]] = {}
        for c in _gated():
            tolerances.setdefault(c.band.name, set()).add(c.band.tolerance)
        assert set(tolerances) == {"time", "refs", "VI", "L2 miss", "speedup",
                                   "scaling", "memory", "outlier"}
        assert all(len(values) == 1 for values in tolerances.values())
        (outlier,) = [c for c in _gated() if c.band.name == "outlier"]
        assert (outlier.source, outlier.name) == ("Table 4", "attention @1 s")
        assert outlier.note


class TestRunCalibration:
    def test_default_passes(self):
        lines: list[str] = []
        assert run_gate(emit=lines.append) == 0
        report = "\n".join(lines)
        assert "ok" in report
        assert "DRIFT" not in report

    def test_tight_tolerance_fails(self, drifted_paper_value):
        lines: list[str] = []
        assert run_gate(emit=lines.append) == 1
        report = "\n".join(lines)
        assert "DRIFT" in report
        assert "1 drifted" in report

    def test_report_lists_every_check(self):
        lines: list[str] = []
        run_gate(emit=lines.append)
        n_checks = len(_gated())
        assert len("\n".join(lines).splitlines()) >= n_checks
        assert f"{n_checks} claims checked" in lines[-1]


class TestCalibrateCli:
    def test_default_exit_zero(self, capsys):
        assert main(["perf", "calibrate"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "Table 3" in out

    def test_tight_exit_one(self, capsys, drifted_paper_value):
        assert main(["perf", "calibrate"]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_tolerance_flag_is_gone(self, capsys):
        """``--tolerance 0`` used to die with a raw ValueError traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["perf", "calibrate", "--tolerance", "0"])
        assert exc.value.code == 2
