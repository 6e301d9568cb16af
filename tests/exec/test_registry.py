"""The fixed dispatch tables: variant names and SVM backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec import RunContext, execute_task
from repro.exec.registry import BACKENDS, VARIANTS, create_backend


class TestBuiltins:
    def test_paper_backends_preseeded(self):
        assert tuple(BACKENDS) == ("libsvm", "phisvm")

    def test_paper_variants_always_listed(self):
        assert set(VARIANTS) >= {"baseline", "optimized"}

    def test_one_variant_table(self):
        """The variant names are typed once (``VARIANTS``): config
        validation, the engine-emitter table and every CLI ``--variant``
        read or are checked against that tuple."""
        import argparse

        from repro.cli import build_parser
        from repro.core.pipeline import _VARIANT_EMITTERS

        assert VARIANTS == tuple(sorted(VARIANTS))
        for name in VARIANTS:
            sparse = {"top_k": 4} if name == "sparse-batched" else {}
            assert FCMAConfig(variant=name, **sparse).variant == name
        # Every variant but the oracle runs the engine, through an
        # emitter the table names.
        assert set(_VARIANT_EMITTERS) == set(VARIANTS) - {"baseline"}
        assert set(_VARIANT_EMITTERS.values()) == {"dense", "csr"}

        def variant_choices(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from variant_choices(sub)
                elif "--variant" in action.option_strings:
                    yield tuple(action.choices)

        found = list(variant_choices(build_parser()))
        assert len(found) == 2  # fcma run and fcma select
        assert set(found) == {VARIANTS}

    def test_builtin_graph_builders_resolve(self, tiny_dataset):
        """Every variant resolves to a task whose last stage scores."""
        for name in VARIANTS:
            sparse = {"top_k": 4} if name == "sparse-batched" else {}
            ctx = RunContext(FCMAConfig(variant=name, **sparse))
            execute_task(tiny_dataset, np.arange(4), ctx)
            assert list(ctx.stages)[-1] == "score"

    def test_unknown_variant_lists_options(self):
        with pytest.raises(ValueError, match="baseline"):
            FCMAConfig(variant="nope")


class TestRegistration:
    """No name outside the tables gets past config validation."""

    def test_config_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="variant"):
            FCMAConfig(variant="nope")


class TestCreateBackend:
    def test_resolves_variant_default(self):
        optimized = create_backend(FCMAConfig(variant="optimized"))
        baseline = create_backend(FCMAConfig(variant="baseline"))
        assert type(optimized).__name__ != type(baseline).__name__ or (
            optimized is not baseline
        )

    def test_backend_follows_the_variant(self):
        """One dispatch axis: the backend is the variant's, and every
        variant's builds."""
        for name in VARIANTS:
            sparse = {"top_k": 4} if name == "sparse-batched" else {}
            config = FCMAConfig(variant=name, **sparse)
            expected = "libsvm" if name == "baseline" else "phisvm"
            assert config.resolved_backend() == expected
            create_backend(config)  # must build without error
