"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the library reads is declared here — name,
default and docstring — and read through :func:`value`.  The registry
is the single source of truth in three ways:

* **Code**: direct ``os.environ`` reads of ``REPRO_*`` names anywhere
  else in the tree are a `reprolint` violation (rule REP201); an
  undeclared name passed to :func:`value` raises :class:`KeyError` at
  the call site (and is caught statically by REP202).
* **Docs**: the knob table in ``docs/architecture.md`` is generated
  from these declarations by reprolint, which parses this file without
  importing it; rule REP203 reports a stale table and carries the
  expected table in its message.
* **Tests**: knob precedence is *environment > declared default*,
  regression-tested in ``tests/test_config.py``.

Every knob has one parse kind: :func:`value` returns the raw string,
or the declared default when the variable is unset.  Both knobs name a
file or a fault schedule; none selects how the optimizer computes.

Knobs are re-read from the environment on every call so tests can set
them with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob.

    Attributes:
        name: The environment variable, always ``REPRO_``-prefixed.
        default: Raw default applied when the variable is unset (as if
            the environment contained this string); ``None`` means
            "unset": :func:`value` returns ``None`` and the caller
            supplies its own fallback (documented in ``doc``).
        doc: One-line effect description (becomes the docs table row).
    """

    name: str
    default: str | None
    doc: str


#: Every knob the library reads, in table order.  Keyword arguments are
#: mandatory style here: `reprolint` recovers this registry by parsing
#: the AST of this file, without importing it.
KNOBS: tuple[Knob, ...] = (
    Knob(name="REPRO_STORE_PERSIST_DB",
         default=None,
         doc="Path of an on-disk plan-set store the store test suite "
             "reuses across processes (CI's persistence leg)."),
    Knob(name="REPRO_FAULTS",
         default=None,
         doc="Deterministic fault-injection schedule "
             "('site:hits[:arg];...', see docs/robustness.md); unset "
             "leaves every repro.faults failpoint inert."),
)

#: Name -> declaration index of :data:`KNOBS`.
REGISTRY: dict[str, Knob] = {k.name: k for k in KNOBS}


def knob(name: str) -> Knob:
    """Return the declaration for ``name``.

    Raises:
        KeyError: If the knob is not declared in :data:`REGISTRY` —
            every ``REPRO_*`` variable must be declared here before
            use.
    """
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"{name} is not a declared REPRO_* knob; add it to "
            f"repro.config.KNOBS first") from None


def value(name: str) -> str | None:
    """Raw string of a knob, or its declared default (possibly ``None``)
    when the variable is unset."""
    declared = knob(name)
    raw = os.environ.get(declared.name)
    return declared.default if raw is None else raw
