"""Figure 12, left column: chain queries.

Regenerates the three panels — optimization time, #created plans, #solved
LPs — for chain queries with 1 and 2 parameters.  Table counts are scaled
down relative to the paper (Python LP solving vs. Java + Gurobi; see
EXPERIMENTS.md); the growth *shapes* are what is being reproduced.

The Figure 12 points run the paper-faithful configuration.  A second
group runs the default engine (:class:`repro.core.PWLRRPAOptions`) at
the heaviest smoke points — a 5-table chain, a 4-table star and a
2-parameter 4-table chain — and ``bench_compare.py`` gates their LP
counts as ``lp.<shape>.t<n>p<p>.lps_solved``.

Run with::

    pytest benchmarks/bench_fig12_chain.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench import SweepPoint
from repro.core import PWLRRPAOptions

#: Default-engine points behind the ``lp.*.lps_solved`` gates.
DEFAULT_OPTIONS_POINTS = (
    SweepPoint(num_tables=5, shape="chain", num_params=1, resolution=2),
    SweepPoint(num_tables=4, shape="star", num_params=1, resolution=2),
    SweepPoint(num_tables=4, shape="chain", num_params=2, resolution=1),
)


@pytest.mark.parametrize("num_tables", [2, 3, 4, 5])
def test_chain_one_param(benchmark, record_point, num_tables):
    point = SweepPoint(num_tables=num_tables, shape="chain", num_params=1,
                       resolution=2)
    m = record_point(benchmark, point)
    assert m.pareto_plans >= 1


@pytest.mark.parametrize("num_tables", [2, 3])
def test_chain_two_params(benchmark, record_point, num_tables):
    point = SweepPoint(num_tables=num_tables, shape="chain", num_params=2,
                       resolution=1)
    m = record_point(benchmark, point)
    assert m.pareto_plans >= 1


@pytest.mark.parametrize(
    "point", DEFAULT_OPTIONS_POINTS,
    ids=lambda p: f"{p.shape}-t{p.num_tables}p{p.num_params}")
def test_default_options_lp_count(benchmark, record_point, point):
    m = record_point(benchmark, point, options=PWLRRPAOptions())
    benchmark.extra_info["options"] = "default"
    assert m.pareto_plans >= 1
