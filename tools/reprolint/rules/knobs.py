"""REP2xx — knob discipline: every ``REPRO_*`` read goes through the
central registry (:mod:`repro.config`).

* REP201 — direct environment read of a ``REPRO_*`` name anywhere but
  the registry module itself;
* REP202 — a ``REPRO_*`` name passed to a registry getter (or a test's
  ``monkeypatch.setenv``/``delenv``) that the registry does not
  declare — catches typo'd knobs that would silently do nothing;
* REP203 — the generated knob table in ``docs/architecture.md`` is
  stale relative to the registry, or its markers are missing.  The
  table is built from the registry's AST (reprolint never imports
  linted code), and the finding's message carries the expected table,
  so the fix is a paste between the markers.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Finding, Rule, register
from ..project import knob_table_markdown

#: Resolved callables that read the process environment.
ENV_READ_CALLS = frozenset({
    "os.environ.get", "os.getenv", "os.environ.setdefault",
})

#: Callables taking a knob name that must be declared (REP202): the
#: registry getters plus pytest's monkeypatch environment helpers.
KNOB_NAME_CALLS = ("value", "knob", "setenv", "delenv")

KNOB_TABLE_BEGIN = "<!-- reprolint: knob-table begin -->"
KNOB_TABLE_END = "<!-- reprolint: knob-table end -->"


def _literal_first_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


@register
class DirectEnvRead(Rule):
    id = "REP201"
    title = "direct environment read of a REPRO_* knob"

    def check_file(self, ctx: FileContext):
        project = ctx.project
        if project is not None and project.is_config_module(ctx.rel):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if resolved in ENV_READ_CALLS:
                    name = _literal_first_arg(node)
                    if name is not None and name.startswith("REPRO_"):
                        yield ctx.finding(
                            self.id, node,
                            f"direct read of {name} via {resolved}(); "
                            f"go through repro.config.value() instead")
            elif isinstance(node, ast.Subscript):
                resolved = ctx.resolve(node.value)
                if resolved == "os.environ" \
                        and isinstance(node.slice, ast.Constant) \
                        and isinstance(node.slice.value, str) \
                        and node.slice.value.startswith("REPRO_") \
                        and isinstance(node.ctx, ast.Load):
                    yield ctx.finding(
                        self.id, node,
                        f"direct read of {node.slice.value} via "
                        f"os.environ[...]; go through repro.config "
                        f"instead")


@register
class UndeclaredKnob(Rule):
    id = "REP202"
    title = "REPRO_* name not declared in the repro.config registry"

    def check_file(self, ctx: FileContext):
        project = ctx.project
        if project is None or project.knob_names is None:
            return
        if project.is_config_module(ctx.rel):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.attr if isinstance(func, ast.Attribute)
                      else func.id if isinstance(func, ast.Name)
                      else None)
            if callee not in KNOB_NAME_CALLS:
                continue
            name = _literal_first_arg(node)
            if name is None or not name.startswith("REPRO_"):
                continue
            if name not in project.knob_names:
                yield ctx.finding(
                    self.id, node,
                    f"{name} is not declared in repro.config.KNOBS; "
                    f"declare it there (with default and doc) "
                    f"before use")


@register
class StaleKnobTable(Rule):
    id = "REP203"
    title = "generated knob table out of sync with the registry"

    def check_project(self, project):
        registry = project.knob_registry
        doc = project.architecture_doc
        if registry is None or doc is None:
            return
        rel = "docs/architecture.md"
        begin = doc.find(KNOB_TABLE_BEGIN)
        end = doc.find(KNOB_TABLE_END)
        expected = knob_table_markdown(registry).strip()
        if begin < 0 or end < 0 or end < begin:
            yield Finding(
                rule=self.id, path=rel, line=1, col=1,
                message=f"knob table markers missing; add "
                        f"{KNOB_TABLE_BEGIN} and {KNOB_TABLE_END} with "
                        f"this table between them:\n{expected}")
            return
        committed = doc[begin + len(KNOB_TABLE_BEGIN):end].strip()
        if committed != expected:
            line = doc[:begin].count("\n") + 1
            yield Finding(
                rule=self.id, path=rel, line=line, col=1,
                message=f"knob table is stale relative to "
                        f"repro.config.KNOBS; paste this table between "
                        f"the markers:\n{expected}")
