"""reprolint self-tests.

Every rule family is demonstrated on the planted-violation corpus in
``tests/fixtures/reprolint/`` by copying fixtures into temporary
mini-project trees at the path prefixes the rules are scoped to, then
asserting the exact findings.  The suite also pins the cross-artifact
invariants the project rules depend on (knob-table parity between the
runtime registry and reprolint's AST mirror, the stale-baseline
detector) and finishes with the meta-test: reprolint over the real
tree reports zero findings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    # `tools` is a repo-root package, not an installed one.
    sys.path.insert(0, str(REPO_ROOT))

from repro import config as repro_config  # noqa: E402

from tools.reprolint import ProjectContext, all_rules, lint_file, run  # noqa: E402
from tools.reprolint.cli import main as cli_main  # noqa: E402
from tools.reprolint.engine import Suppressions  # noqa: E402
from tools.reprolint.project import knob_table_markdown  # noqa: E402
from tools.reprolint.reporters import render_json, render_text  # noqa: E402
from tools.reprolint.rules.knobs import (  # noqa: E402
    KNOB_TABLE_BEGIN, KNOB_TABLE_END)

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "reprolint"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return tmp_path


def copy_into(tmp_path: Path, rel: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes((REPO_ROOT / rel).read_bytes())
    return target


def lint(root: Path, *rels: str, default_excludes: bool = True):
    return run([root / rel for rel in rels], root,
               project=ProjectContext(root),
               use_default_excludes=default_excludes)


def rule_ids(result) -> list[str]:
    return sorted(finding.rule for finding in result.findings)


# ---------------------------------------------------------------------------
# Rule registry


def test_registry_covers_all_six_families():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(set(ids))
    assert set(ids) == {
        "REP101", "REP102", "REP103",
        "REP201", "REP202", "REP203",
        "REP301", "REP302",
        "REP401", "REP402",
        "REP501", "REP502",
        "REP601",
    }


# ---------------------------------------------------------------------------
# REP1xx determinism


def test_rep1xx_fire_on_planted_violations(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/core/planted.py": fixture("determinism_bad.py")})
    result = lint(root, "src")
    assert rule_ids(result) == [
        "REP101", "REP102", "REP102", "REP102", "REP102", "REP103"]
    clock = [f for f in result.findings if f.rule == "REP101"]
    assert "time.time" in clock[0].message
    assert "stamp" in clock[0].message


def test_rep1xx_silent_on_compliant_code(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/core/clean.py": fixture("determinism_ok.py")})
    assert lint(root, "src").findings == []


def test_rep1xx_scoped_to_bit_identity_paths(tmp_path):
    # The same violations outside repro.core/lp/geometry/cost are fine:
    # clocks and entropy are legitimate in serving/bench code.
    root = make_tree(tmp_path, {
        "src/repro/bench/planted.py": fixture("determinism_bad.py")})
    assert lint(root, "src").findings == []


def test_rep101_wallclock_allowlist_is_site_exact(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/core/run.py": fixture("wallclock_allowlist.py")})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP101"]
    assert "_BudgetWindow.other" in result.findings[0].message
    # The identical file outside the allow-listed path loses the pass.
    other = make_tree(tmp_path / "b", {
        "src/repro/core/not_run.py": fixture("wallclock_allowlist.py")})
    assert rule_ids(lint(other, "src")) == ["REP101", "REP101"]


# ---------------------------------------------------------------------------
# REP2xx knob discipline


def test_rep201_rep202_fire_on_planted_violations(tmp_path):
    copy_into(tmp_path, "src/repro/config.py")
    root = make_tree(tmp_path, {
        "src/repro/service/planted.py": fixture("knobs_bad.py")})
    result = lint(root, "src/repro/service")
    assert rule_ids(result) == ["REP201", "REP201", "REP201", "REP202"]
    assert any("REPRO_TYPO_KNOB" in f.message for f in result.findings)


def test_rep2xx_silent_on_registry_access(tmp_path):
    copy_into(tmp_path, "src/repro/config.py")
    root = make_tree(tmp_path, {
        "src/repro/service/clean.py": fixture("knobs_ok.py")})
    assert lint(root, "src/repro/service").findings == []


def test_rep201_exempts_the_registry_module_itself(tmp_path):
    copy_into(tmp_path, "src/repro/config.py")
    result = lint(tmp_path, "src/repro/config.py")
    assert result.findings == []


def test_rep203_stale_and_missing_knob_table(tmp_path):
    copy_into(tmp_path, "src/repro/config.py")
    table = repro_config.knob_table_markdown()
    fresh = (f"# Architecture\n\n{KNOB_TABLE_BEGIN}\n"
             f"{table}\n{KNOB_TABLE_END}\n")
    root = make_tree(tmp_path, {"docs/architecture.md": fresh})
    assert lint(root, "src").findings == []

    stale = fresh.replace("REPRO_STORE_SEED_BREADTH", "REPRO_RENAMED_BREADTH")
    make_tree(tmp_path, {"docs/architecture.md": stale})
    assert rule_ids(lint(root, "src")) == ["REP203"]

    make_tree(tmp_path, {"docs/architecture.md": "# no markers\n"})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP203"]
    assert "markers missing" in result.findings[0].message


def test_knob_table_parity_between_runtime_and_ast_mirror():
    # reprolint never imports linted code: it rebuilds the knob table
    # from the registry's AST.  Pin the two implementations together.
    registry = ProjectContext(REPO_ROOT).knob_registry
    assert registry is not None
    assert knob_table_markdown(registry) == repro_config.knob_table_markdown()


# ---------------------------------------------------------------------------
# REP3xx counter consistency

COUNTERS_MODULE = """\
from dataclasses import dataclass


@dataclass
class LPStats:
    solved: int = 0
    bogus_metric: float = 0.0
    _group_sizes: int = 0
"""


def test_rep301_undocumented_counter(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/lp/counters.py": COUNTERS_MODULE,
        "docs/counters.md": "Glossary: `solved` only.\n"})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP301"]
    assert "LPStats.bogus_metric" in result.findings[0].message

    make_tree(tmp_path, {
        "docs/counters.md": "Glossary: `solved` and `bogus_metric`.\n"})
    assert lint(root, "src").findings == []


def test_rep301_requires_standalone_token(tmp_path):
    # `lps_solved` in the doc must NOT count as documenting `solved` —
    # but `lp_stats.solved` must.
    root = make_tree(tmp_path, {
        "src/repro/lp/counters.py": COUNTERS_MODULE,
        "docs/counters.md": "`lps_solved` and `bogus_metric`.\n"})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP301"]
    assert "LPStats.solved" in result.findings[0].message

    make_tree(tmp_path, {
        "docs/counters.md": "`lp_stats.solved` and `bogus_metric`.\n"})
    assert lint(root, "src").findings == []


#: Everything the project rules cross-check, copied verbatim from the
#: real tree so the copied project starts clean.
PROJECT_ARTIFACTS = (
    "src/repro/config.py",
    "src/repro/core/stats.py",
    "src/repro/lp/counters.py",
    "src/repro/serve/counters.py",
    "src/repro/serve/router.py",
    "src/repro/store/counters.py",
    "benchmarks/bench_serving.py",
    "benchmarks/bench_store.py",
    "benchmarks/baselines/bench-smoke.json",
    "docs/counters.md",
    "docs/architecture.md",
)


def test_rep302_deliberately_staled_counter_fails_the_run(tmp_path):
    for rel in PROJECT_ARTIFACTS:
        copy_into(tmp_path, rel)
    assert lint(tmp_path).findings == []  # faithful copy: clean

    baseline = tmp_path / "benchmarks/baselines/bench-smoke.json"
    document = json.loads(baseline.read_text(encoding="utf-8"))
    document["metrics"]["store.bogus_counter"] = {"value": 1.0, "gate": True}
    # An ungated extra key is recorded-only: never a finding.
    document["metrics"]["store.bogus_seconds"] = {"value": 0.5}
    baseline.write_text(json.dumps(document), encoding="utf-8")

    result = lint(tmp_path)
    assert rule_ids(result) == ["REP302"]
    assert "store.bogus_counter" in result.findings[0].message


def test_rep302_shard_hits_resolve_via_pattern(tmp_path):
    for rel in PROJECT_ARTIFACTS:
        copy_into(tmp_path, rel)
    baseline = tmp_path / "benchmarks/baselines/bench-smoke.json"
    document = json.loads(baseline.read_text(encoding="utf-8"))
    gated = [key for key, entry in document["metrics"].items()
             if isinstance(entry, dict) and entry.get("gate")
             and "shard" in key]
    assert gated, "expected gated per-shard routing metrics in baseline"
    assert lint(tmp_path).findings == []


# ---------------------------------------------------------------------------
# REP4xx lock discipline


def test_rep401_fires_on_half_locked_attribute(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/store/planted.py": fixture("locks_bad.py")})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP401"]
    assert "self.hits" in result.findings[0].message
    assert "bump" in result.findings[0].message


def test_rep401_silent_on_consistent_locking(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/store/clean.py": fixture("locks_ok.py")})
    assert lint(root, "src").findings == []


def test_rep402_fires_on_locks_in_serve(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/serve/planted.py": fixture("serve_locks.py")})
    assert rule_ids(lint(root, "src")) == ["REP402", "REP402"]
    # The same class outside repro.serve is legitimate shared state.
    other = make_tree(tmp_path / "b", {
        "src/repro/store/planted.py": fixture("serve_locks.py")})
    assert lint(other, "src").findings == []


# ---------------------------------------------------------------------------
# REP5xx API surface


def test_rep5xx_fire_on_planted_violations(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/planted.py": fixture("api_bad.py")})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP501", "REP501", "REP501", "REP502"]
    messages = " | ".join(f.message for f in result.findings)
    assert "duplicate __all__ entry 'visible'" in messages
    assert "'ghost'" in messages
    assert "'orphan'" in messages
    assert "stacklevel" in messages


def test_rep5xx_silent_on_compliant_module(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/clean.py": fixture("api_ok.py")})
    assert lint(root, "src").findings == []


# ---------------------------------------------------------------------------
# REP6xx failure-handling discipline


def test_rep601_fires_on_swallowed_exceptions_in_serve(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/serve/planted.py": fixture("except_bad.py")})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP601", "REP601", "REP601"]
    messages = " | ".join(f.message for f in result.findings)
    assert "bare except" in messages
    assert "except Exception" in messages


def test_rep601_covers_the_service_layer_too(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/service/planted.py": fixture("except_bad.py")})
    assert rule_ids(lint(root, "src")) == ["REP601"] * 3


def test_rep601_scoped_to_the_serving_tier(tmp_path):
    # The same handlers in e.g. the store are judged by other means —
    # broad excepts there are legitimate best-effort guards.
    root = make_tree(tmp_path, {
        "src/repro/store/planted.py": fixture("except_bad.py")})
    assert lint(root, "src").findings == []


def test_rep601_silent_on_accounted_or_suppressed_handlers(tmp_path):
    # Re-raise, counter increment, justified suppression, typed
    # handler, BaseException teardown guard: all clean — and the
    # suppression counts as used (no REP001).
    root = make_tree(tmp_path, {
        "src/repro/serve/clean.py": fixture("except_ok.py")})
    assert lint(root, "src").findings == []


# ---------------------------------------------------------------------------
# Suppressions and engine mechanics


def test_suppressions_used_unused_and_malformed(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/core/planted.py": fixture("suppressions.py")})
    result = lint(root, "src")
    assert rule_ids(result) == ["REP001", "REP002"]
    unused = [f for f in result.findings if f.rule == "REP001"]
    assert "REP101" in unused[0].message  # names the stale directive


def test_suppressions_scan_multi_rule_directive():
    suppressions = Suppressions.scan(
        "x = 1  # reprolint: disable=REP101,REP402\n")
    assert suppressions.by_line == {1: {"REP101", "REP402"}}
    assert suppressions.suppresses(1, "REP402")
    assert not suppressions.suppresses(1, "REP103")
    assert suppressions.unused() == [(1, "REP101")]


def test_rep002_on_unparseable_file(tmp_path):
    root = make_tree(tmp_path, {"src/broken.py": "def broken(:\n"})
    findings = lint_file(root / "src/broken.py", root)
    assert [f.rule for f in findings] == ["REP002"]
    assert "could not parse" in findings[0].message


def test_fixture_corpus_excluded_by_default(tmp_path):
    root = make_tree(tmp_path, {
        "src/ok.py": "X = 1\n",
        "tests/fixtures/reprolint/evil.py": "Y = 2\n"})
    assert lint(root, "src", "tests").files_scanned == 1
    everything = lint(root, "src", "tests", default_excludes=False)
    assert everything.files_scanned == 2


# ---------------------------------------------------------------------------
# Reporters and CLI


def test_reporters_render_findings(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/serve/planted.py": fixture("serve_locks.py")})
    result = lint(root, "src")
    text = render_text(result)
    assert "REP402" in text and "2 finding(s)" in text
    document = json.loads(render_json(result))
    assert document["clean"] is False
    assert document["counts_by_rule"] == {"REP402": 2}
    assert document["files_scanned"] == 1

    clean = lint(make_tree(tmp_path / "b", {"src/ok.py": "X = 1\n"}), "src")
    assert "clean" in render_text(clean)
    assert json.loads(render_json(clean))["clean"] is True


def test_cli_exit_codes_and_artifact(tmp_path, capsys):
    clean_root = make_tree(tmp_path / "clean", {"src/ok.py": "X = 1\n"})
    assert cli_main([str(clean_root / "src"),
                     "--root", str(clean_root)]) == 0

    dirty_root = make_tree(tmp_path / "dirty", {
        "src/repro/serve/planted.py": fixture("serve_locks.py")})
    report = tmp_path / "report.json"
    assert cli_main([str(dirty_root / "src"), "--root", str(dirty_root),
                     "--json-output", str(report)]) == 1
    document = json.loads(report.read_text(encoding="utf-8"))
    assert document["counts_by_rule"] == {"REP402": 2}

    assert cli_main([str(tmp_path / "nope.py"),
                     "--root", str(tmp_path)]) == 2
    assert cli_main(["--root", str(tmp_path / "not-a-dir")]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "REP101" in out and "REP502" in out


# ---------------------------------------------------------------------------
# The meta-test: the real tree is clean


def test_real_tree_reports_zero_findings():
    result = run([REPO_ROOT / "src", REPO_ROOT / "tests",
                  REPO_ROOT / "benchmarks"], REPO_ROOT,
                 project=ProjectContext(REPO_ROOT))
    assert result.files_scanned > 100
    assert [f.render() for f in result.findings] == []
