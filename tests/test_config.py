"""Regression tests for the central ``REPRO_*`` knob registry.

The registry (:mod:`repro.config`) is the single allowed reader of
``REPRO_*`` environment variables (reprolint rule REP201 bans direct
reads elsewhere).  These tests pin its two contracts:

* **parse semantics** — :func:`repro.config.value` passes the raw
  string through;
* **precedence** — environment > declared default.
"""

from __future__ import annotations

import pytest

from repro import config


class TestRegistry:
    def test_every_knob_is_repro_prefixed_and_documented(self):
        for declared in config.KNOBS:
            assert declared.name.startswith("REPRO_")
            assert declared.doc.strip()

    def test_undeclared_name_raises(self):
        with pytest.raises(KeyError, match="REPRO_NO_SUCH_KNOB"):
            config.value("REPRO_NO_SUCH_KNOB")  # reprolint: disable=REP202


class TestValueKinds:
    def test_path_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PERSIST_DB", "/tmp/x.db")
        assert config.value("REPRO_STORE_PERSIST_DB") == "/tmp/x.db"
        monkeypatch.delenv("REPRO_STORE_PERSIST_DB", raising=False)
        assert config.value("REPRO_STORE_PERSIST_DB") is None


class TestPrecedence:
    """Environment > declared default."""

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PERSIST_DB", "plans.db")
        assert config.value("REPRO_STORE_PERSIST_DB") == "plans.db"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_PERSIST_DB", raising=False)
        assert config.value("REPRO_STORE_PERSIST_DB") is None
