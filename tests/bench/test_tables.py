"""Tests for the bench table helpers and paper reference data."""

import pytest

from repro.bench import compare_row, paperdata, render_table, within_factor


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["bb", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "bb" in lines[4]

    def test_column_alignment(self):
        text = render_table(["x"], [["longvalue"], ["s"]])
        lines = text.splitlines()
        assert len(lines[1]) == len("longvalue")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_headers(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_no_rows(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestCompareRow:
    def test_ratio(self):
        row = compare_row("x", 2.0, 4.0)
        assert row[-1] == "0.50x"

    def test_unit_suffix(self):
        row = compare_row("x", 2.0, 4.0, unit=" ms")
        assert row[1].endswith(" ms")

    def test_unpublished_value_leaves_dashes(self):
        assert compare_row("x", 2.0, None) == ["x", "2.00", "-", "-"]


class TestWithinFactor:
    def test_inside(self):
        assert within_factor(100, 120, 1.3)
        assert within_factor(120, 100, 1.3)

    def test_outside(self):
        assert not within_factor(100, 200, 1.3)

    def test_boundary(self):
        assert within_factor(130, 100, 1.3)

    def test_nonpositive(self):
        assert not within_factor(0, 100, 2)
        assert not within_factor(100, 0, 2)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            within_factor(1, 1, 0.5)


class TestPaperData:
    def test_node_counts(self):
        assert paperdata.NODE_COUNTS == [1, 8, 16, 32, 64, 96]

    def test_table3_consistent_with_fig8(self):
        """Fig 8's 96-node speedups follow from Table 3's endpoints."""
        for name, speedup in paperdata.FIG8_SPEEDUP_96.items():
            times = paperdata.TABLE3_OFFLINE_SECONDS[name]
            assert times[1] / times[96] == pytest.approx(speedup, rel=0.01)

    def test_table1_matmul_is_table5_mkl_sum(self):
        t1 = paperdata.TABLE1_BASELINE["matmul"][0]
        t5 = (
            paperdata.TABLE5_MATMUL[("mkl", "corr")][0]
            + paperdata.TABLE5_MATMUL[("mkl", "syrk")][0]
        )
        assert t1 == pytest.approx(t5)

    def test_table8_and_table1_libsvm_agree(self):
        assert (
            paperdata.TABLE8_SVM["libsvm"][0]
            == paperdata.TABLE1_BASELINE["libsvm"][0]
        )
