"""Regression tests for the central ``REPRO_*`` knob registry.

The registry (:mod:`repro.config`) is the single allowed reader of
``REPRO_*`` environment variables (reprolint rule REP201 bans direct
reads elsewhere).  These tests pin the three contracts the migration
must not change:

* **parse semantics** — each historical ad-hoc read's quirks survive
  (``REPRO_SCALAR_KERNELS=false`` enables the flag, a ``path`` knob
  passes its raw string through);
* **precedence** — environment > declared default;
* **behavior equivalence** — the public helpers that used to read the
  environment directly (``repro.util``) still answer exactly as before.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.util import scalar_kernels_enabled


class TestRegistry:
    def test_every_knob_is_repro_prefixed_and_documented(self):
        for declared in config.declared():
            assert declared.name.startswith("REPRO_")
            assert declared.doc.strip()
            assert declared.kind in ("flag", "path")

    def test_undeclared_name_raises(self):
        with pytest.raises(KeyError, match="REPRO_NO_SUCH_KNOB"):
            config.enabled("REPRO_NO_SUCH_KNOB")  # reprolint: disable=REP202
        with pytest.raises(KeyError, match="REPRO_NO_SUCH_KNOB"):
            config.value("REPRO_NO_SUCH_KNOB")  # reprolint: disable=REP202

    def test_boolean_getter_rejects_value_kinds(self):
        with pytest.raises(TypeError):
            config.enabled("REPRO_STORE_PERSIST_DB")
        with pytest.raises(TypeError):
            config.value("REPRO_SCALAR_KERNELS")

    def test_knob_table_lists_every_knob(self):
        table = config.knob_table_markdown()
        for declared in config.declared():
            assert f"`{declared.name}`" in table


class TestFlagSemantics:
    """``flag`` kind: truthy iff stripped raw not in ("", "0")."""

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("0", False), ("", False), (" 0 ", False),
        ("false", True),  # historical quirk: any non-"0" text enables
        ("yes", True),
    ])
    def test_scalar_kernels(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", raw)
        assert config.enabled("REPRO_SCALAR_KERNELS") is expected
        assert scalar_kernels_enabled() is expected

    def test_scalar_kernels_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALAR_KERNELS", raising=False)
        assert scalar_kernels_enabled() is False


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
