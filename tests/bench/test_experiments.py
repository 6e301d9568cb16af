"""Tests for the claims ledger's registry and renderings (fcma reproduce,
EXPERIMENTS.md) and for its being the one place a paper number is typed."""

import ast
import re
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS, list_experiments, paperdata, run_experiment

REPO = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_all_tables_and_figures_present(self):
        expected = {
            "table1", "table3", "table4", "table5", "table6", "table7",
            "table8", "fig8", "fig9", "fig10", "fig11",
        }
        assert set(EXPERIMENTS) == expected

    def test_list_sorted(self):
        assert list_experiments() == sorted(EXPERIMENTS)

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="known:"):
            run_experiment("table99")

    @pytest.mark.parametrize(
        "exp_id", ["table1", "table5", "table6", "table7", "table8",
                   "fig9", "fig10", "fig11"]
    )
    def test_fast_experiments_render(self, exp_id):
        text = run_experiment(exp_id)
        assert text.startswith(("Table", "Fig"))
        assert len(text.splitlines()) >= 4

    def test_table1_contains_paper_values(self):
        text = run_experiment("table1")
        for kernel in ("matmul", "libsvm"):
            assert f"{paperdata.TABLE1_BASELINE[kernel][0]:,.2f}" in text


class TestCLIIntegration:
    def test_reproduce_lists(self, capsys):
        from repro.cli import main

        assert main(["reproduce"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_reproduce_runs(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "table8"]) == 0
        assert "phisvm" in capsys.readouterr().out

    def test_reproduce_unknown_exits_2(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "nope"]) == 2


class TestOneLedger:
    def test_experiments_md_embeds_the_generated_tables(self):
        """"All numbers below are regenerated": every block between
        ``<!-- reproduce:<id> -->`` markers is ``fcma reproduce <id>``."""
        blocks = dict(re.findall(
            r"<!-- reproduce:(\w+) -->\n```\n(.*?)\n```\n<!-- /reproduce -->",
            (REPO / "EXPERIMENTS.md").read_text(), flags=re.S,
        ))
        assert set(blocks) == set(EXPERIMENTS)
        for exp_id, text in blocks.items():
            assert text == run_experiment(exp_id), (
                f"EXPERIMENTS.md block {exp_id!r} is stale: paste the "
                f"output of `fcma reproduce {exp_id}`"
            )

    def test_paper_values_are_typed_in_paperdata_only(self):
        """No distinctive published value appears as a numeric constant
        under src/ or benchmarks/ outside ``bench/paperdata.py``."""
        published = {1830, 5101, 54506, 9.97e9, 9_974_870_500, 708.9e6, 709e6,
                     16.39, 59.8}
        exempt = (REPO / "src/repro/bench/paperdata.py", REPO / "benchmarks/e2e")
        offenders = []
        for root in ("src", "benchmarks"):
            for path in sorted((REPO / root).rglob("*.py")):
                if path == exempt[0] or exempt[1] in path.parents:
                    continue
                offenders += [
                    f"{path.relative_to(REPO)}:{node.lineno}: {node.value!r}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant)
                    and type(node.value) in (int, float)
                    and node.value in published
                ]
        assert not offenders, "\n".join(offenders)
