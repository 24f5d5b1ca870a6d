"""Project knowledge: which paths carry which invariants, and the
cross-artifact parses the project rules check against.

Everything here is derived by *parsing* the repository (stdlib ``ast``
over source files, ``json`` over the benchmark baseline) — reprolint
never imports the code it lints, so it can analyze fixture trees and
broken work-in-progress checkouts alike.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

#: Root-relative prefixes of the bit-identity modules: code whose
#: results must stay bit-identical to the scalar oracle (REP1xx).
BIT_IDENTITY_PREFIXES = (
    "src/repro/core/",
    "src/repro/lp/",
    "src/repro/geometry/",
    "src/repro/cost/",
)

#: Root-relative prefix of the serving gateway, whose mutable state is
#: event-loop-thread-only by design (REP402).
SERVE_PREFIX = "src/repro/serve/"

#: Root-relative prefix of the session/worker-pool service layer.
#: Together with :data:`SERVE_PREFIX` this is the recovery-critical
#: tier where silently swallowed exceptions hide real failures
#: (REP601).
SERVICE_PREFIX = "src/repro/service/"

#: The knob registry module — the one file allowed to read ``REPRO_*``
#: environment variables directly (REP201).
CONFIG_MODULE = "src/repro/config.py"

#: Explicit allow-list for clock reads inside bit-identity modules
#: (REP101): ``(root-relative path, enclosing qualname)`` pairs.  Every
#: entry must be a *stats/wall-clock* site — a ``perf_counter`` read
#: that feeds ``seconds``-style counters and never influences plan
#: sets, LP outcomes or iteration order.
WALLCLOCK_ALLOWLIST: frozenset[tuple[str, str]] = frozenset({
    # Wall-clock *budget* accounting: Budget(seconds=...) expiry is
    # checked at DP step boundaries only, so the clock never reorders
    # or alters any plan/LP computation — it can only stop a run early,
    # which the anytime API reports honestly as "partial".
    ("src/repro/core/run.py", "_BudgetWindow.__init__"),
    ("src/repro/core/run.py", "_BudgetWindow.exhausted"),
    # Per-step wall time feeding OptimizerStats.optimization_seconds
    # and ProgressEvent.seconds (reported, never gated).
    ("src/repro/core/run.py", "OptimizationRun.step"),
    # LP backend wall-time attribution (LPStats.seconds per purpose).
    ("src/repro/lp/solver.py", "LinearProgramSolver._solve_prepared"),
})

#: Counter classes checked for docs coverage (REP301):
#: root-relative module -> class names.
COUNTER_CLASSES: dict[str, tuple[str, ...]] = {
    "src/repro/core/stats.py": ("OptimizerStats",),
    "src/repro/lp/counters.py": ("LPStats",),
    "src/repro/serve/counters.py": ("TenantCounters",
                                    "ResilienceCounters"),
    "src/repro/store/counters.py": ("StoreCounters",),
}

#: Fields that are containers/bookkeeping, not counters.
NON_COUNTER_FIELDS = {"lp_stats", "tenants", "latency", "started_monotonic"}


@dataclass(frozen=True)
class KnobDecl:
    """A ``Knob(...)`` declaration recovered from the registry's AST."""

    name: str
    default: str | None
    kind: str
    doc: str
    choices: tuple[str, ...] = ()

    def table_row(self) -> str:
        default = "*(unset)*" if self.default is None else f"`{self.default}`"
        kind = self.kind
        if self.choices:
            kind = f"{kind} ({'/'.join(self.choices)})"
        return f"| `{self.name}` | {kind} | {default} | {self.doc} |"


def knob_table_markdown(knobs: tuple[KnobDecl, ...]) -> str:
    """Rebuild the generated knob table (must mirror
    ``repro.config.knob_table_markdown`` — pinned by a test)."""
    lines = ["| knob | kind | default | effect |",
             "|---|---|---|---|"]
    lines.extend(declared.table_row() for declared in knobs)
    return "\n".join(lines)


class ProjectContext:
    """Lazily parsed cross-artifact view of one repository root."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()

    def path(self, rel: str) -> Path:
        return self.root / rel

    def _read(self, rel: str) -> str | None:
        try:
            return self.path(rel).read_text(encoding="utf-8")
        except OSError:
            return None

    def _parse(self, rel: str) -> ast.Module | None:
        source = self._read(rel)
        if source is None:
            return None
        try:
            return ast.parse(source, filename=rel)
        except SyntaxError:
            return None

    # -- path classification -------------------------------------------

    def is_bit_identity(self, rel: str) -> bool:
        return rel.startswith(BIT_IDENTITY_PREFIXES)

    def is_serve(self, rel: str) -> bool:
        return rel.startswith(SERVE_PREFIX)

    def is_service(self, rel: str) -> bool:
        return rel.startswith(SERVICE_PREFIX)

    def is_config_module(self, rel: str) -> bool:
        return rel == CONFIG_MODULE

    def wallclock_allowed(self, rel: str, qualname: str) -> bool:
        return (rel, qualname) in WALLCLOCK_ALLOWLIST

    # -- knob registry (REP2xx) ----------------------------------------

    @cached_property
    def knob_registry(self) -> tuple[KnobDecl, ...] | None:
        """Knob declarations parsed from the registry module, or
        ``None`` when the module is absent (non-project tree)."""
        tree = self._parse(CONFIG_MODULE)
        if tree is None:
            return None
        knobs: list[KnobDecl] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Knob"):
                continue
            kwargs = {}
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                try:
                    kwargs[keyword.arg] = ast.literal_eval(keyword.value)
                except ValueError:
                    continue
            if "name" not in kwargs:
                continue
            knobs.append(KnobDecl(
                name=kwargs["name"],
                default=kwargs.get("default"),
                kind=kwargs.get("kind", ""),
                doc=kwargs.get("doc", ""),
                choices=tuple(kwargs.get("choices", ()) or ())))
        return tuple(knobs)

    @cached_property
    def knob_names(self) -> frozenset[str] | None:
        registry = self.knob_registry
        if registry is None:
            return None
        return frozenset(declared.name for declared in registry)

    # -- counter classes (REP3xx) --------------------------------------

    @cached_property
    def counter_classes(self) -> dict[tuple[str, str], dict[str, int]]:
        """``(module rel, class) -> {counter name: line}`` for every
        numeric dataclass field and public property of the counter
        classes (underscore names and container fields excluded)."""
        classes: dict[tuple[str, str], dict[str, int]] = {}
        for rel, names in COUNTER_CLASSES.items():
            tree = self._parse(rel)
            if tree is None:
                continue
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ClassDef)
                        and node.name in names):
                    continue
                counters: dict[str, int] = {}
                for statement in node.body:
                    if (isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)):
                        name = statement.target.id
                        if (not name.startswith("_")
                                and name not in NON_COUNTER_FIELDS
                                and isinstance(statement.annotation,
                                               ast.Name)
                                and statement.annotation.id
                                in ("int", "float")):
                            counters[name] = statement.lineno
                    elif isinstance(statement, ast.FunctionDef):
                        if (not statement.name.startswith("_")
                                and any(isinstance(d, ast.Name)
                                        and d.id == "property"
                                        for d in statement.decorator_list)):
                            counters[statement.name] = statement.lineno
                classes[(rel, node.name)] = counters
        return classes

    def _class_members(self, rel: str, class_name: str,
                       include_methods: bool = False) -> set[str]:
        """Public attribute/method names of one class (AST parse)."""
        tree = self._parse(rel)
        members: set[str] = set()
        if tree is None:
            return members
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef)
                    and node.name == class_name):
                continue
            for statement in node.body:
                if (isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and not statement.target.id.startswith("_")):
                    members.add(statement.target.id)
                elif (isinstance(statement, ast.FunctionDef)
                        and not statement.name.startswith("_")):
                    if include_methods or any(
                            isinstance(d, ast.Name) and d.id == "property"
                            for d in statement.decorator_list):
                        members.add(statement.name)
        return members

    @cached_property
    def lp_metric_names(self) -> set[str]:
        """Names a gated ``lp.*`` baseline key tail may resolve to."""
        names = self._class_members("src/repro/core/stats.py",
                                    "OptimizerStats", include_methods=True)
        names |= self._class_members("src/repro/lp/counters.py",
                                     "LPStats", include_methods=True)
        # `lp.` keys drop the OptimizerStats-level `lp_` prefix.
        names |= {name[3:] for name in names if name.startswith("lp_")}
        return names

    @cached_property
    def serving_metric_names(self) -> set[str]:
        """Names a gated ``serving.*`` key tail may resolve to."""
        names = self._class_members("src/repro/serve/counters.py",
                                    "TenantCounters")
        names |= self._string_literals("src/repro/serve/router.py")
        # Workload-level outcomes computed by the serving benchmark
        # itself (e.g. "dropped") count as live when the benchmark
        # still produces them.
        names |= self._string_literals("benchmarks/bench_serving.py")
        return names

    @cached_property
    def store_metric_names(self) -> set[str]:
        """Names a gated ``store.*`` key tail may resolve to."""
        names = self._class_members("src/repro/store/counters.py",
                                    "StoreCounters")
        # Derived ratios/aggregates computed by the store benchmark
        # (hit_rate, lp_speedup, all_identical, ...): live as long as
        # the producing literal still exists in the benchmark.
        names |= self._string_literals("benchmarks/bench_store.py")
        return names

    def _string_literals(self, rel: str) -> set[str]:
        tree = self._parse(rel)
        if tree is None:
            return set()
        return {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}

    #: ``serving.<...>.shardN_hits`` keys come from the router's
    #: per-shard hit list.
    SHARD_HITS = re.compile(r"^shard\d+_hits$")

    # -- documentation artifacts ---------------------------------------

    @cached_property
    def counters_doc(self) -> str | None:
        return self._read("docs/counters.md")

    @cached_property
    def architecture_doc(self) -> str | None:
        return self._read("docs/architecture.md")

    # -- benchmark baseline --------------------------------------------

    BASELINE = "benchmarks/baselines/bench-smoke.json"

    @cached_property
    def baseline_metrics(self) -> dict[str, dict] | None:
        source = self._read(self.BASELINE)
        if source is None:
            return None
        try:
            document = json.loads(source)
        except ValueError:
            return None
        metrics = document.get("metrics")
        return metrics if isinstance(metrics, dict) else None
