"""Smoke gate for the benchmark: every workload of ``perfbench/run.py`` at
its smallest inputs, one instance each, with every output checked and no
operation failed (the forged certificates included)."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as perfbench_run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def regmis_modules_restored():
    """The benchmark re-imports regmis for every set-up; put the modules the
    other tests imported back afterwards, so they keep one set of classes."""
    saved = {k: m for k, m in sys.modules.items() if k == "regmis" or k.startswith("regmis.")}
    yield
    for k in [k for k in sys.modules if k == "regmis" or k.startswith("regmis.")]:
        del sys.modules[k]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", sorted(perfbench_run.WORKLOADS))
def test_workload_smoke(workload, regmis_modules_restored):
    result = perfbench_run.run_workload(workload, seed=0, seconds=0.01, trace=False, scale="smoke")
    assert result["correct"], result["_record"]["failures"]
    assert result["failed"] == 0, result["_record"]["failures"]
    assert result["attempted"] > 0


def test_traced_names_resolve(regmis_modules_restored):
    """Every function the ``--trace 1`` run wraps still exists under its
    name in a fresh import of regmis."""
    for k in [k for k in sys.modules if k == "regmis" or k.startswith("regmis.")]:
        del sys.modules[k]
    for module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
