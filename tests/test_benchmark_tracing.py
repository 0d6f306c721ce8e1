"""The benchmark's span tracer binds to names in the package by string.

Installing and removing it here makes a rename or deletion of a traced
function or method fail the test suite instead of the benchmark's traced
run. The tracer is read from ``benchmark/tracing.py`` and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import georst.runner  # noqa: F401  (loads every package module)

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    tracing = load_tracing()
    originals = {
        (short, attr): getattr(sys.modules[f"georst.{short}"], attr)
        for short, names in tracing.FUNCTIONS.items() for attr in names}
    methods = {
        (short, cls, attr): getattr(sys.modules[f"georst.{short}"], cls).__dict__[attr]
        for short, cls, attr, _ in tracing.METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (short, attr), orig in originals.items():
            assert getattr(sys.modules[f"georst.{short}"], attr) is not orig
    finally:
        tracer.uninstall()
    for (short, attr), orig in originals.items():
        assert getattr(sys.modules[f"georst.{short}"], attr) is orig
    for (short, cls, attr), orig in methods.items():
        assert getattr(sys.modules[f"georst.{short}"], cls).__dict__[attr] is orig
