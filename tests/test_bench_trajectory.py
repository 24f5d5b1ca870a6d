"""``bench_compare.py trajectory`` over the committed ``BENCH_*.json``
files: one row per file, workload and end-to-end metric, with the
change median's delta from the previous file's and its noise band."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parents[1] / "benchmarks"
          / "bench_compare.py")


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_files_in_numeric_order(bench_compare):
    numbers = [int(path.stem.split("_")[1])
               for path in bench_compare.bench_files()]
    assert numbers == sorted(numbers)
    assert numbers[:6] == [16, 17, 19, 20, 21, 27]


def test_rows_cover_every_file_workload_and_metric(bench_compare):
    files = bench_compare.bench_files()
    by_file: dict[str, list[dict]] = {}
    for row in bench_compare.trajectory_rows(files):
        by_file.setdefault(row["file"], []).append(row)
    assert list(by_file) == [path.name for path in files]
    # Two workloads, five end-to-end metrics each.
    assert all(len(rows) == 10 for rows in by_file.values())
    first, *later = by_file.values()
    assert all(row["delta"] is None for row in first)
    assert all(row["delta"] is not None for rows in later for row in rows)


def test_bench_27_exact_p50_drop_is_beyond_noise(bench_compare):
    rows = bench_compare.trajectory_rows(bench_compare.bench_files())
    [row] = [row for row in rows if row["file"] == "BENCH_27.json"
             and row["workload"] == "exact"
             and row["metric"] == "latency_ms.p50"]
    assert row["claim"] == "met"
    assert row["delta"] < 0
    assert row["noise"] == "beyond noise"


def test_cli_prints_the_trajectory():
    proc = subprocess.run([sys.executable, str(SCRIPT), "trajectory"],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert "exact latency_ms.p50 (lower is better)" in proc.stdout
    assert "BENCH_27.json  met" in proc.stdout
