"""Backend/variant registries replacing the Literal string dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.exec import RunContext, execute_task
from repro.exec import registry
from repro.exec.registry import (
    available_backends,
    available_variants,
    backend_factory,
    create_backend,
    graph_builder,
    register_backend,
    register_variant,
)
from repro.svm.libsvm_like import LibSVMClassifier
from repro.svm.multiclass import as_multiclass


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    registry._reset_to_defaults()


class TestBuiltins:
    def test_paper_backends_preseeded(self):
        assert available_backends() == ("libsvm", "libsvm-float32", "phisvm")

    def test_paper_variants_always_listed(self):
        assert set(available_variants()) >= {"baseline", "optimized"}

    def test_one_variant_table(self):
        """The built-in names are typed once (``BUILTIN_VARIANTS``): the
        registry, the stage graph's registrations, the engine-emitter
        table and every CLI ``--variant`` read or are checked against
        that tuple."""
        import argparse

        from repro.cli import build_parser
        from repro.core.pipeline import _VARIANT_EMITTERS
        from repro.exec import stage_graph  # noqa: F401  (self-registers)

        builtins = registry.BUILTIN_VARIANTS
        assert available_variants() == tuple(sorted(builtins))
        assert set(registry._VARIANTS) == set(builtins)
        # Every built-in but the oracle runs the engine, through an
        # emitter the table names.
        assert set(_VARIANT_EMITTERS) == set(builtins) - {"baseline"}
        assert set(_VARIANT_EMITTERS.values()) == {"dense", "csr"}

        def variant_choices(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from variant_choices(sub)
                elif "--variant" in action.option_strings:
                    yield tuple(action.choices)

        found = list(variant_choices(build_parser()))
        assert len(found) >= 3
        assert set(found) == {available_variants()}

    def test_builtin_graph_builders_resolve(self):
        for name in ("baseline", "optimized"):
            graph = graph_builder(name)(FCMAConfig(variant=name))
            assert "score" in graph.stage_names

    def test_unknown_backend_lists_options(self):
        with pytest.raises(KeyError, match="phisvm"):
            backend_factory("nope")

    def test_unknown_variant_lists_options(self):
        with pytest.raises(KeyError, match="baseline"):
            graph_builder("nope")


class TestRegistration:
    def test_custom_backend_usable_through_config(self, tiny_dataset):
        calls = []

        def factory(config):
            calls.append(config.svm_c)
            return as_multiclass(
                LibSVMClassifier(c=config.svm_c, tol=config.svm_tol)
            )

        register_backend("my-svm", factory)
        config = FCMAConfig(svm_backend="my-svm", svm_c=2.0)
        backend = create_backend(config)
        assert calls == [2.0]
        assert hasattr(backend, "fit_kernel")

    def test_custom_backend_scores_voxels(self, tiny_dataset):
        register_backend(
            "libsvm-again",
            lambda cfg: as_multiclass(
                LibSVMClassifier(c=cfg.svm_c, tol=cfg.svm_tol)
            ),
        )
        custom = execute_task(
            tiny_dataset,
            np.arange(10),
            RunContext(FCMAConfig(svm_backend="libsvm-again", task_voxels=40)),
        )
        stock = execute_task(
            tiny_dataset,
            np.arange(10),
            RunContext(FCMAConfig(svm_backend="libsvm", task_voxels=40)),
        )
        np.testing.assert_array_equal(custom.voxels, stock.voxels)
        np.testing.assert_array_equal(custom.accuracies, stock.accuracies)

    def test_custom_variant_accepted_by_config_validation(self):
        from repro.exec.stage_graph import baseline_graph

        register_variant("my-variant", baseline_graph)
        config = FCMAConfig(variant="my-variant")  # would raise if unknown
        assert graph_builder("my-variant") is baseline_graph
        assert config.variant == "my-variant"

    def test_duplicate_registration_rejected_without_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("phisvm", lambda cfg: None)
        register_backend("phisvm", registry._phisvm, overwrite=True)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", lambda cfg: None)
        with pytest.raises(ValueError):
            register_variant("", lambda cfg: None)

    def test_config_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="variant"):
            FCMAConfig(variant="nope")
        with pytest.raises(ValueError, match="svm_backend"):
            FCMAConfig(svm_backend="nope")


class TestCreateBackend:
    def test_resolves_variant_default(self):
        optimized = create_backend(FCMAConfig(variant="optimized"))
        baseline = create_backend(FCMAConfig(variant="baseline"))
        assert type(optimized).__name__ != type(baseline).__name__ or (
            optimized is not baseline
        )

    def test_explicit_backend_wins(self):
        config = FCMAConfig(variant="optimized", svm_backend="libsvm")
        assert config.resolved_backend() == "libsvm"
        create_backend(config)  # must build without error
