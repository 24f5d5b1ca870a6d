"""Planted REP2xx violations (linted outside ``src/repro/config.py``).

Expected findings: REP201 x3, REP202 x1.
"""

import os

from repro import config


def read_direct():
    spec = os.environ.get("REPRO_FAULTS")  # EXPECT REP201
    raw = os.getenv("REPRO_FAULTS", "")  # EXPECT REP201
    path = os.environ["REPRO_STORE_PERSIST_DB"]  # EXPECT REP201
    return spec, raw, path


def read_typo():
    return config.value("REPRO_TYPO_KNOB")  # EXPECT REP202: undeclared
