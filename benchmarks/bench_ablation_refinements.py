"""Ablation: the Section 6.2 refinements of PWL-RRPA.

The paper lists three refinements that "led to significant performance
improvements in our experiments": redundant-constraint elimination,
redundant-cutout elimination, and relevance points.  This bench runs the
same query with each refinement toggled, plus both emptiness strategies
(the paper's convexity-recognition path vs. direct difference), recording
time and LP counts for EXPERIMENTS.md.

Run with::

    pytest benchmarks/bench_ablation_refinements.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench import SweepPoint
from repro.core import PWLRRPAOptions

POINT = SweepPoint(num_tables=4, shape="chain", num_params=1, resolution=2)

CONFIGS = {
    "default": PWLRRPAOptions(),
    "no_relevance_points": PWLRRPAOptions(use_relevance_points=False),
    "with_constraint_simplification": PWLRRPAOptions(
        simplify_polytopes=True),
    "with_cutout_elimination": PWLRRPAOptions(
        remove_redundant_cutouts=True, cutout_cleanup_threshold=6),
    "convexity_emptiness": PWLRRPAOptions(
        emptiness_strategy="convexity"),
    "alpha_dominance_0.25": PWLRRPAOptions(approximation_factor=0.25),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_refinement_ablation(benchmark, record_point, config_name):
    m = record_point(benchmark, POINT, options=CONFIGS[config_name])
    benchmark.extra_info["config"] = config_name
    assert m.pareto_plans >= 1
