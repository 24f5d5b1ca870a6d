"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the library reads is declared here — name,
default, parse kind and docstring — and read through :func:`enabled` /
:func:`value`.  The registry is the single source of truth in three
ways:

* **Code**: direct ``os.environ`` reads of ``REPRO_*`` names anywhere
  else in the tree are a `reprolint` violation (rule REP201); an
  undeclared name passed to the getters raises :class:`KeyError` at the
  call site (and is caught statically by REP202).
* **Docs**: the knob table in ``docs/architecture.md`` is generated
  from this module (``python -m repro.config``) and checked for
  staleness by REP203.
* **Tests**: knob precedence is *explicit argument > environment >
  declared default*, regression-tested in ``tests/test_config.py``.

Parse kinds (behavior-preserving ports of the historical ad-hoc reads):

* ``flag`` — truthy iff the raw value, stripped, is neither empty nor
  ``"0"`` (so ``REPRO_SCALAR_KERNELS=false`` *enables* the flag, as it
  always has).
* ``switch`` — truthy unless the raw value lower-cases to ``"0"``,
  ``"false"`` or ``"off"``.
* ``float`` — :class:`float` of the raw value; unparseable or unset
  values yield the declared default.
* ``choice`` — the lower-cased raw value when it is one of
  ``choices``, else the declared default.
* ``path`` — the raw string, or the default when unset.

Knobs are re-read from the environment on every call (the reads are
trivially cheap next to any LP) so tests can flip them with
``monkeypatch.setenv``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob.

    Attributes:
        name: The environment variable, always ``REPRO_``-prefixed.
        default: Raw default applied when the variable is unset (as if
            the environment contained this string); ``None`` means
            "unset" — boolean kinds then parse the empty string, value
            kinds return ``None`` and the caller supplies its own
            fallback (documented in ``doc``).
        kind: Parse semantics — ``flag`` / ``switch`` / ``float`` /
            ``choice`` / ``path`` (see the module docstring).
        doc: One-line effect description (becomes the docs table row).
        choices: Accepted values for ``choice`` knobs.
    """

    name: str
    default: str | None
    kind: str
    doc: str
    choices: tuple[str, ...] = field(default=())


#: Every knob the library reads, in table order.  Keyword arguments are
#: mandatory style here: `reprolint` recovers this registry by parsing
#: the AST of this file, without importing it.
KNOBS: tuple[Knob, ...] = (
    Knob(name="REPRO_SCALAR_KERNELS",
         default=None,
         kind="flag",
         doc="Force the scalar (oracle) geometry kernels instead of "
             "the batched ones.  The equivalence suites sweep both "
             "sides of this switch."),
    Knob(name="REPRO_STORE_SEED",
         default="1",
         kind="switch",
         doc="Allow sessions to seed anytime runs from the persistent "
             "plan-set store's nearest same-family neighbor."),
    Knob(name="REPRO_STORE_SEED_BREADTH",
         default="auto",
         kind="choice",
         choices=("auto", "all", "one"),
         doc="Seeding breadth policy: adopt the neighbor's whole "
             "frontier (all), one incumbent per table set (one), or "
             "decide from its recorded repair cost (auto)."),
    Knob(name="REPRO_STORE_SEED_ALPHA",
         default=None,
         kind="float",
         doc="Coarsest ladder rung a seeded run still descends "
             "through; unset/unparseable falls back to "
             "repro.core.run.SEED_JUMP_ALPHA (0.05)."),
    Knob(name="REPRO_STORE_PERSIST_DB",
         default=None,
         kind="path",
         doc="Path of an on-disk plan-set store the store test suite "
             "reuses across processes (CI's persistence leg)."),
    Knob(name="REPRO_FAULTS",
         default=None,
         kind="path",
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


def _raw(declared: Knob) -> str | None:
    raw = os.environ.get(declared.name)
    if raw is None:
        raw = declared.default
    return raw


def enabled(name: str, override: bool | None = None) -> bool:
    """Parsed boolean state of a ``flag`` or ``switch`` knob.

    Args:
        name: Declared knob name.
        override: Explicit caller argument; when not ``None`` it wins
            over both the environment and the default.
    """
    declared = knob(name)
    if declared.kind not in ("flag", "switch"):
        raise TypeError(f"{name} is a {declared.kind} knob, not boolean")
    if override is not None:
        return bool(override)
    raw = _raw(declared)
    if raw is None:
        raw = ""
    if declared.kind == "flag":
        return raw.strip() not in ("", "0")
    return raw.lower() not in ("0", "false", "off")


def value(name: str, override=None):
    """Parsed value of a ``float`` / ``choice`` / ``path`` knob.

    Args:
        name: Declared knob name.
        override: Explicit caller argument; when not ``None`` it is
            returned as-is (explicit argument > environment > default).

    Returns:
        The parsed value, or the declared default (possibly ``None``)
        when the variable is unset or unparseable.
    """
    declared = knob(name)
    if override is not None:
        return override
    raw = _raw(declared)
    if declared.kind == "float":
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            return float(declared.default) if declared.default else None
    if declared.kind == "choice":
        if raw is None:
            return declared.default
        lowered = raw.lower()
        return lowered if lowered in declared.choices else declared.default
    if declared.kind == "path":
        return raw
    raise TypeError(f"{name} is a {declared.kind} knob; use enabled()")


def declared() -> tuple[Knob, ...]:
    """All declared knobs, in registry (docs table) order."""
    return KNOBS


def knob_table_markdown() -> str:
    """The generated Markdown knob table for ``docs/architecture.md``.

    Regenerate with ``python -m repro.config``; rule REP203 fails when
    the committed table drifts from this output.
    """
    lines = ["| knob | kind | default | effect |",
             "|---|---|---|---|"]
    for declared_knob in KNOBS:
        default = ("*(unset)*" if declared_knob.default is None
                   else f"`{declared_knob.default}`")
        kind = declared_knob.kind
        if declared_knob.choices:
            kind = f"{kind} ({'/'.join(declared_knob.choices)})"
        lines.append(f"| `{declared_knob.name}` | {kind} | {default} "
                     f"| {declared_knob.doc} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(knob_table_markdown())
