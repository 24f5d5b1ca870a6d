"""Planted REP2xx violations (linted outside ``src/repro/config.py``).

Expected findings: REP201 x3, REP202 x1.
"""

import os

from repro import config


def read_direct():
    flag = os.environ.get("REPRO_SCALAR_KERNELS")  # EXPECT REP201
    raw = os.getenv("REPRO_STORE_SEED", "1")  # EXPECT REP201
    path = os.environ["REPRO_STORE_PERSIST_DB"]  # EXPECT REP201
    return flag, raw, path


def read_typo():
    return config.enabled("REPRO_TYPO_KNOB")  # EXPECT REP202: undeclared
