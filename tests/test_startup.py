"""The start-up contract: a process loads only the code it runs.

``import repro`` and ``repro.api`` load neither SciPy nor the gateway
stack (:mod:`repro.serve`, asyncio, HTTP).  HiGHS is imported by the
first LP that reaches it, and the gateway names of :mod:`repro.api`
are resolved on first access.  Each check runs in a fresh interpreter:
this test session has long since loaded both (the ``scipy`` backend
fixture of ``conftest.py``, the serving tests).  The interpreter gets
this session's warning flags, so under ``-X dev -W error`` a warning
raised by a late import fails here.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return its last stdout line
    as JSON."""
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    flags += [f"-W{option}" for option in sys.warnoptions]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300, check=False, env=env)
    assert proc.returncode == 0, (
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def test_optimizing_loads_no_scipy_and_no_gateway():
    out = run_fresh("""
        import json, sys
        import repro, repro.api
        from repro.query import QueryGenerator

        for params in (1, 2):
            query = QueryGenerator(seed=0).generate(3, "chain", params)
            repro.api.optimize_query(query)
        print(json.dumps({name: name in sys.modules for name in
                          ("scipy", "repro.serve", "asyncio")}))
    """)
    assert out == {"scipy": False, "repro.serve": False, "asyncio": False}


def test_gateway_names_resolve_on_first_access():
    out = run_fresh("""
        import json, sys
        import repro.api

        before = "repro.serve" in sys.modules
        from repro.api import (GatewayClient, GatewayConfig, GatewayHandle,
                               ServingGateway, StreamInterrupted,
                               launch_gateway)
        import repro.serve as serve
        same = [GatewayClient is serve.GatewayClient,
                GatewayConfig is serve.GatewayConfig,
                GatewayHandle is serve.GatewayHandle,
                ServingGateway is serve.ServingGateway,
                StreamInterrupted is serve.StreamInterrupted,
                launch_gateway is serve.launch]
        namespace = {}
        exec("from repro.api import *", namespace)
        unbound = sorted(set(repro.api.__all__) - set(namespace))
        try:
            repro.api.NoSuchName
            unknown = "resolved"
        except AttributeError as error:
            unknown = str(error)
        print(json.dumps({"before": before, "same": same,
                          "unbound": unbound, "unknown": unknown}))
    """)
    assert out["before"] is False
    assert out["same"] == [True] * 6
    assert out["unbound"] == []
    assert out["unknown"] == (
        "module 'repro.api' has no attribute 'NoSuchName'")


def test_hybrid_fallback_loads_highs_on_first_use():
    # The singular-basis Chebyshev LP of
    # tests/test_lp.py::TestBasisSolve: the simplex raises, so the
    # hybrid backend answers with HiGHS.
    out = run_fresh("""
        import json, sys
        from repro.lp import LinearProgramSolver, LPStats

        a = [[1.0, -0.0, 1.0],
             [-0.7071067811865476, 0.7071067811865476, 1.0],
             [-0.0, -1.0, 1.0],
             [-0.9999997978145009, 0.0006359016885235226, 1.0],
             [0.9999993868158983, -0.0011074149301402562, 1.0],
             [-0.9999996869868489, 0.0007912181773892717, 1.0],
             [0.9999990507003528, -0.0013778963651986862, 1.0],
             [0.9999991945925826, -0.0012691785478036275, 1.0],
             [-1.0, 0.0, 1.0]]
        b = [1.0, 0.0, -0.0, -0.0024745708615933402,
             0.053927785346980166, -0.002448859400154162,
             0.05388299151641888, 0.025313050029402977, -1.0]
        c = [0.0, 0.0, -1.0]
        before = "scipy" in sys.modules
        stats = LPStats()
        hybrid = LinearProgramSolver(stats=stats).solve(c, a, b)
        loaded = "scipy.optimize" in sys.modules
        oracle = LinearProgramSolver(backend="scipy").solve(c, a, b)
        print(json.dumps({
            "before": before, "loaded": loaded, "solved": stats.solved,
            "hybrid": [hybrid.status, hybrid.objective],
            "scipy": [oracle.status, oracle.objective]}))
    """)
    assert out["before"] is False
    assert out["loaded"] is True
    assert out["solved"] == 1
    assert out["hybrid"] == out["scipy"]
    assert out["hybrid"][0] == "optimal"
