"""Which functions of ``src/repro`` the repository's own traffic enters.

Usage (from the repository root; no options)::

    python -m tools.reach

Runs every command of :data:`TRAFFIC`, each in its own subprocess
under a profile hook that records the code objects entered by every
thread of that process, maps them onto every non-dunder ``def`` in
``src/repro`` (interface stubs aside, see :func:`_is_stub`) and prints
the functions no command entered, by module.
Each one is shown with the tag found in the docstring of the def, of
an enclosing def or class, or of its module (:data:`TAGS`).  Exit code
1 while any unreached function is untagged, else 0.

The hook is :mod:`cProfile`'s, installed in the main thread and, through
:func:`threading.setprofile`, in every thread the command starts.  It
does not follow child processes: pool workers, the gateway's spawned
shards and perfbench's set-up children run untraced.  Outputs of the
commands go to a temporary directory.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: CI's fixed fault schedule for the chaos benchmark step.
CHAOS_FAULTS = "service.worker.crash:1;store.put.fail:1-2;serve.shard.slow:1:0.25"

#: The measured traffic: ``(argv after "python", extra environment)``.
#: ``{out}`` is replaced by the temporary output directory.  Besides
#: the examples (all but ``figure12.py``, a sweep of minutes) and two
#: short traced perfbench runs, the list mirrors the ``bench-smoke`` and
#: ``chaos-smoke`` benchmark steps of ``.github/workflows/ci.yml``;
#: change both together.
TRAFFIC: tuple[tuple[tuple[str, ...], dict[str, str]], ...] = (
    *(((f"examples/{name}.py",), {}) for name in (
        "anytime_service", "baseline_comparison", "batch_service",
        "cloud_tradeoffs", "embedded_sql", "execute_plans",
        "plan_diagrams", "problem_analysis", "quickstart",
        "serving_gateway", "streaming_service")),
    *((("perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "15", "--trace", "1"), {})
      for workload in ("exact", "serve-recurring")),
    (("benchmarks/check_pool_digests.py", "--json",
      "{out}/pool-digests.json"), {}),
    (("-m", "pytest", "benchmarks/bench_fig12_chain.py", "-q",
      "--benchmark-only", "--benchmark-json={out}/bench-fig12-chain.json"),
     {}),
    (("-m", "pytest", "benchmarks/bench_ablation_refinements.py", "-q",
      "--benchmark-only", "--benchmark-json={out}/bench-ablation.json"), {}),
    (("benchmarks/bench_batch_throughput.py", "--tables", "3", "--queries",
      "4", "--workers", "1,2,4", "--json", "{out}/throughput.json"), {}),
    (("benchmarks/bench_batch_throughput.py", "--topology", "star",
      "--tables", "3", "--queries", "4", "--workers", "1,2", "--json",
      "{out}/topology-star.json"), {}),
    *((("benchmarks/bench_batch_throughput.py", "--streaming", "--scenario",
        scenario, "--tables", "3", "--queries", "4", "--workers", "1,2",
        "--json", f"{{out}}/streaming-{scenario}.json"), {})
      for scenario in ("cloud", "approx")),
    *((("benchmarks/bench_anytime_ladder.py", "--scenario", scenario,
        "--json", f"{{out}}/anytime-{scenario}.json"), {})
      for scenario in ("cloud", "approx")),
    (("benchmarks/bench_store.py", "--json", "{out}/store.json"), {}),
    (("benchmarks/bench_serving.py", "--json", "{out}/serving.json",
      "--min-qps", "50"), {}),
    (("benchmarks/bench_chaos.py", "--json", "{out}/chaos.json"),
     {"REPRO_FAULTS": CHAOS_FAULTS}),
)

#: The docstring tags of a function kept without traffic; a tag opens a
#: line of the docstring, followed by a colon.  ``Reference``: a test
#: holds a fast path against it.  ``Paper``: the paper's content, reached
#: only by tests, the nightly benchmarks or ``examples/figure12.py``.
#: ``Fault path``: reached under faults, deadlines or upgrades.
#: ``Benchmark hook``: named by ``perfbench/``.
TAGS = ("Reference", "Paper", "Fault path", "Benchmark hook")
_TAG = re.compile(r"^\s*(%s):" % "|".join(map(re.escape, TAGS)), re.M)

# Run in each traced subprocess: ``argv[1]`` is the output file, the
# rest is the command as written after ``python``.
_CHILD = r"""
import cProfile, json, os, runpy, sys, threading
out, *command = sys.argv[1:]
profilers = []
def thread_hook(frame, event, arg):
    # The first event of a new thread: give the thread a profiler of
    # its own (enable() replaces this hook), keeping the frame it saw.
    profiler = cProfile.Profile(builtins=False)
    profilers.append((profiler, frame.f_code))
    profiler.enable()
threading.setprofile(thread_hook)
main = cProfile.Profile(builtins=False)
profilers.append((main, None))
# Code that pauses a profiler around what it times (pytest-benchmark's
# measured rounds) finds none, so that code runs under the hook too.
sys.getprofile = lambda: None
try:
    main.enable()
    if command[0] == "-m":
        sys.argv = [command[1], *command[2:]]
        sys.path[0] = os.getcwd()
        runpy.run_module(command[1], run_name="__main__", alter_sys=True)
    elif command[0] == "-c":
        sys.argv = ["-c", *command[2:]]
        exec(compile(command[1], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = list(command)
        sys.path[0] = os.path.dirname(os.path.abspath(command[0]))
        runpy.run_path(command[0], run_name="__main__")
except SystemExit as stop:
    code = stop.code
else:
    code = 0
finally:
    main.disable()
    threading.setprofile(None)
    codes = [first for __, first in profilers if first is not None]
    for profiler, __ in profilers:
        codes.extend(entry.code for entry in profiler.getstats()
                     if not isinstance(entry.code, str))
    # Keyed by file, not by the code objects themselves: two functions
    # with equal bodies and first lines in different files compare equal.
    with open(out, "w") as handle:
        json.dump(sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                          for c in codes}), handle)
sys.exit(code)
"""


@dataclass(frozen=True)
class Def:
    """One non-dunder ``def`` of the scanned tree."""

    path: str          #: file path relative to the scanned root's parent
    qualname: str
    first: int         #: first line (the first decorator's, if any)
    last: int
    tag: str | None    #: the innermost tag of the def, its scopes, module

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def trace(command: tuple[str, ...], env: dict[str, str] | None = None,
          out_dir: str | None = None) -> set[tuple[str, int, str]]:
    """Run ``python *command`` from the repository root under the hook.

    ``REPRO_*`` variables of the calling environment are dropped, then
    ``env`` is applied; ``PYTHONPATH`` leads with ``src``.

    Returns:
        ``(absolute file, first line, name)`` of every code object the
        process entered.
    """
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = out_dir or scratch
        argv = [arg.replace("{out}", out_dir) for arg in command]
        child_env = {k: v for k, v in os.environ.items()
                     if not k.startswith("REPRO_")}
        child_env.update(env or {})
        child_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        out = os.path.join(scratch, "entered.json")
        proc = subprocess.run([sys.executable, "-c", _CHILD, out, *argv],
                              cwd=ROOT, env=child_env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not os.path.exists(out):
            raise RuntimeError(f"{' '.join(command)} exited "
                               f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out, encoding="utf-8") as handle:
            return {(path, line, name) for path, line, name in json.load(handle)}


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether a def only declares an interface that overrides fill in:
    ``@abstractmethod``, or a body of nothing but its docstring,
    ``pass``, ``...`` or ``raise NotImplementedError``.  A stub cannot
    carry traffic, so the audit does not count it."""
    if any((d.id if isinstance(d, ast.Name) else
            getattr(d, "attr", None)) == "abstractmethod"
           for d in node.decorator_list):
        return True
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _tag(node: ast.AST) -> str | None:
    doc = ast.get_docstring(node, clean=False) if isinstance(
        node, (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)) else None
    match = _TAG.search(doc or "")
    return match.group(1) if match else None


def scan(package: Path) -> list[Def]:
    """Every non-dunder ``def`` under ``package`` that is not a stub
    (:func:`_is_stub`), with its tag."""
    defs: list[Def] = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        rel = path.relative_to(package.parent).as_posix()

        def visit(node: ast.AST, prefix: str, tags: list[str | None]
                  ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.",
                          [_tag(child), *tags])
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    scopes = [_tag(child), *tags]
                    name = child.name
                    if not (name.startswith("__") and name.endswith("__")
                            or _is_stub(child)):
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        defs.append(Def(
                            rel, prefix + name, first, child.end_lineno,
                            next((t for t in scopes if t), None)))
                    visit(child, f"{prefix}{name}.<locals>.", scopes)
                else:
                    visit(child, prefix, tags)

        visit(tree, "", [_tag(tree)])
    return defs


def unreached(defs: list[Def], entered: set[tuple[str, int, str]],
              package: Path) -> list[Def]:
    """The defs of ``package`` whose code object was never entered."""
    base = package.parent.resolve()
    seen = set()
    for filename, line, name in entered:
        try:
            rel = Path(filename).resolve().relative_to(base).as_posix()
        except ValueError:
            continue
        seen.add((rel, line, name))
    return [d for d in defs if (d.path, d.first, d.name) not in seen]


def report(defs: list[Def], missed: list[Def]) -> tuple[list[str], int]:
    """The printed report and the exit code (1 while any is untagged)."""
    lines: list[str] = []
    by_path: dict[str, list[Def]] = {}
    for d in missed:
        by_path.setdefault(d.path, []).append(d)
    for path, group in by_path.items():
        lines.append(path)
        lines.extend(f"  {d.qualname} (line {d.first}): "
                     f"{d.tag or 'UNTAGGED'}" for d in group)
    spans = {(d.path, line) for d in missed
             for line in range(d.first, d.last + 1)}
    untagged = sum(d.tag is None for d in missed)
    lines.append(f"{len(defs)} functions, {len(missed)} unreached, "
                 f"{untagged} untagged, {len(spans)} lines")
    return lines, 1 if untagged else 0


def main() -> int:
    entered: set[tuple[str, int, str]] = set()
    with tempfile.TemporaryDirectory() as out_dir:
        for command, env in TRAFFIC:
            print(f"tracing: python {' '.join(command)}", file=sys.stderr,
                  flush=True)
            entered |= trace(command, env, out_dir)
    package = SRC / "repro"
    defs = scan(package)
    lines, code = report(defs, unreached(defs, entered, package))
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
