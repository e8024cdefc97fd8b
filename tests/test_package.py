"""Package-level sanity: public API surface and __all__ hygiene."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.space",
    "repro.sampling",
    "repro.ml",
    "repro.gp",
    "repro.sparksim",
    "repro.workloads",
    "repro.core",
    "repro.tuners",
    "repro.bench",
    "repro.utils",
]


class TestPublicSurface:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        """Everything listed in __all__ must actually exist."""
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists {symbol}"

    def test_version(self):
        assert repro.__version__

    def test_headline_imports(self):
        # The README quickstart names these; they must stay importable.
        from repro import (ROBOTune, WorkloadObjective, get_workload,
                           spark_space)
        assert callable(spark_space)
        assert ROBOTune.name == "ROBOTune"

    def test_lazy_tuners_reexport(self):
        from repro.tuners import ROBOTune, ROBOTuneResult
        assert ROBOTune.name == "ROBOTune"
        with pytest.raises(AttributeError):
            from repro import tuners
            tuners.NotAThing  # noqa: B018

    def test_docstrings_everywhere(self):
        """Every public package module carries a module docstring."""
        for name in PACKAGES:
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} lacks a module docstring"


class TestStartupImports:
    def test_scipy_stats_stays_out_of_startup(self):
        """Importing the tuner, the CLI or the daemon must not pull in
        scipy.stats (~0.6 s and ~20 MB); only workload mapping needs it,
        and imports it when it runs."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, repro, repro.core.tuner, repro.cli, "
                "repro.serve.daemon; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] == ['scipy', 'stats']))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_scipy_optimize_stays_out_of_startup(self):
        """Importing the tuner, the CLI or the daemon, and running one
        small served session after them, must not load scipy.optimize
        (~0.15 s and ~17 MB): both of BO's optimizers are
        repro.gp.lbfgs."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        loaded = ("sorted(m for m in sys.modules "
                  "if m.split('.')[:2] == ['scipy', 'optimize'])")
        code = ("import sys, repro, repro.core.tuner, repro.cli, "
                "repro.serve.daemon; "
                f"print({loaded}); "
                "from repro.serve import SessionSpec, run_session; "
                "run_session(SessionSpec('kmeans', budget=12, seed=1, "
                "init_samples=4, selection_samples=12, "
                "selection_repeats=2)); "
                f"print({loaded})")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["[]", "[]"]
