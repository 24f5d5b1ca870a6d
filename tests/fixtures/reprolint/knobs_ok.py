"""Compliant knob access: no REP2xx findings expected."""

import os

from repro import config


def read_via_registry():
    return (config.enabled("REPRO_STORE_SEED"),
            config.value("REPRO_STORE_SEED_BREADTH"))


def read_non_knob_env():
    # Non-REPRO_ environment reads are out of scope for REP201.
    home = os.environ.get("HOME")
    os.environ.setdefault("PYTHONHASHSEED", "0")
    return home
