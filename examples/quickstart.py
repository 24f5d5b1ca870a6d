"""Quickstart: optimize a random query and pick plans at run time.

Demonstrates the end-to-end MPQ workflow of Figure 2 in the paper:

1. *Preprocessing time*: PWL-RRPA computes a Pareto plan set covering all
   parameter values (predicate selectivities unknown until run time).
2. *Run time*: concrete selectivities arrive; a plan is selected from the
   precomputed set according to user preferences — no optimizer call.

Run with::

    python examples/quickstart.py
"""

from repro import PlanSelector, QueryGenerator
from repro.api import optimize_query
from repro.plans import one_line, render_plan


def main() -> None:
    # A random 4-table chain query; the selectivity of one equality
    # predicate is unknown at optimization time (parameter x0 in [0, 1]).
    query = QueryGenerator(seed=7).generate(num_tables=4, shape="chain",
                                            num_params=1)
    print(f"Query: {query.num_tables} tables, "
          f"{len(query.join_predicates)} join predicates, "
          f"{query.num_params} parameter(s)\n")

    # Preprocessing: compute the Pareto plan set once.
    result = optimize_query(query, "cloud", resolution=2)
    stats = result.stats
    print(f"PWL-RRPA finished in {stats.optimization_seconds:.2f}s: "
          f"{len(result.entries)} Pareto plans "
          f"({stats.plans_created} plans generated, "
          f"{stats.lps_solved} LPs solved)")
    # The LP substrate's own accounting: wall time inside LP backends
    # and the answers the per-run LP memo served without a solve.
    print(f"LP substrate: {stats.lp_seconds:.2f}s in backends, "
          f"{stats.lp_stats.cache_hits} memo hits\n")

    # Run time: a user submits the query with a concrete predicate value
    # whose selectivity turns out to be 0.3.
    selector = PlanSelector(result)
    x = [0.3]

    print(f"Pareto frontier at selectivity {x[0]}:")
    for plan, cost in sorted(selector.frontier(x),
                             key=lambda pc: pc[1]["time"]):
        print(f"  time={cost['time']:.4f}h fees=${cost['fees']:.4f}  "
              f"{one_line(plan)}")

    fastest = selector.by_weighted_sum(x, {"time": 1.0})
    cheapest = selector.by_weighted_sum(x, {"fees": 1.0})
    balanced = selector.by_weighted_sum(x, {"time": 1.0, "fees": 1.0})
    print(f"\nFastest plan:  {one_line(fastest.plan)}")
    print(f"Cheapest plan: {one_line(cheapest.plan)}")
    print(f"Balanced plan: {one_line(balanced.plan)}")

    print("\nBalanced plan, operator tree:")
    print(render_plan(balanced.plan))


if __name__ == "__main__":
    main()
