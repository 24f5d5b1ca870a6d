"""The benchmark still sees the program.

``perfbench/spans.py`` times each layer by wrapping public calls of the
program by name (``_targets``).  A rename or a second entry point beside
a wrapped one would leave the traced split silently short, so this test
loads the benchmark's files unmodified, as
``benchmarks/check_pool_digests.py`` does, installs the span wrappers
and checks what one 1-parameter and one 2-parameter optimization
record: one ``lp.solve`` span per LP request (solved or memo hit), and
polytope-build and dominance spans.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.api import optimize_query

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A ``perfbench/`` module, loaded from its file without editing it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses look their module up while building.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("spans"), _load("inputs")


class TestSpanTargets:
    def test_every_target_resolves(self, perfbench):
        spans, __ = perfbench
        for owner, attr, __, __ in spans._targets():
            assert callable(getattr(owner, attr)), (owner, attr)

    @pytest.mark.parametrize("entry", ["4:star:1:2:6", "3:chain:2:1:6"])
    def test_traced_run_counts_every_lp_request(self, perfbench, entry):
        spans, inputs = perfbench
        recorder = spans.SpanRecorder()
        instrumentation = spans.Instrumentation(recorder)
        instrumentation.install()
        try:
            result = optimize_query(inputs.exact_query(entry), "cloud",
                                    resolution=inputs.entry_resolution(
                                        entry))
        finally:
            instrumentation.remove()
        table = recorder.table()
        lp = result.stats.lp_stats
        requests = result.stats.lps_solved + lp.cache_hits
        assert requests > 1000
        assert int(table.mask("lp.solve").sum()) == requests
        assert table.mask("geometry.polytope").any()
        assert table.mask("cost.dominance").any()
