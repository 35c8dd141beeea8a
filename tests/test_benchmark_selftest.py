"""The benchmark's self-test must pass on this checkout's outputs.

perfbench/selftest.py runs the benchmark's checks on real CLI outputs and then
on perturbed copies; an output-layout change that would make the benchmark
reject its own passes fails here first.
"""

import importlib.util
from pathlib import Path

from qstrength import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_selftest_passes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # undone afterwards, with selftest's own
    spec = importlib.util.spec_from_file_location("perfbench_selftest", PERFBENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.run(cli, tmp_path) == 0
