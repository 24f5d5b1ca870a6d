"""``tools/reach.py``, the function-level traffic audit of ``src/repro``,
over one tiny command and a planted tree (CI does not run the full
traffic: it takes minutes)."""

from __future__ import annotations

import textwrap

import pytest

from tools import reach

TINY = ("-c", "from repro.api import optimize_query\n"
              "from repro.query import QueryGenerator\n"
              "optimize_query(QueryGenerator(seed=0).generate(3, 'chain', 1),"
              " 'cloud')")


@pytest.fixture(scope="module")
def tiny_report():
    package = reach.SRC / "repro"
    defs = reach.scan(package)
    return defs, reach.unreached(defs, reach.trace(TINY), package)


def test_unreachable_function_is_listed(tiny_report):
    defs, missed = tiny_report
    names = {(d.path, d.qualname) for d in missed}
    # Serving and draining a gateway is beyond a single optimize_query.
    assert ("repro/serve/gateway.py", "ServingGateway.drain") in names
    # ... while the optimizer's entry point and its dominance kernel ran.
    assert ("repro/api.py", "optimize_query") not in names
    assert ("repro/cost/vector.py", "_batch_dominance_1d") not in names
    assert len(missed) < len(defs)


PLANTED = {
    "__init__.py": '''
        """A planted package."""
        ''',
    "tagged_module.py": '''
        """A module kept whole.

        Paper: Section 6.2, the refinements.
        """

        def refine():
            return 1
        ''',
    "mixed.py": '''
        """Untagged module."""

        class Oracle:
            """A slow path.

            Reference: a test holds the fast path against it.
            """

            def __init__(self):
                self.x = 1

            def solve(self):
                return self.x

        def recover():
            """Fault path: reached when a worker dies."""
            return 0

        def stray():
            """Nothing calls this."""
            return 1

        def stub():
            """An interface an override fills in."""
            raise NotImplementedError

        @staticmethod
        def decorated():
            return 2
        ''',
}


@pytest.fixture
def planted(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    for name, body in PLANTED.items():
        (package / name).write_text(textwrap.dedent(body).lstrip())
    return package


def test_tags_classify_at_def_class_and_module_level(planted):
    defs = {d.qualname: d for d in reach.scan(planted)}
    assert defs["recover"].tag == "Fault path"
    assert defs["Oracle.solve"].tag == "Reference"
    assert defs["refine"].tag == "Paper"
    assert defs["stray"].tag is None


def test_dunders_and_stubs_are_skipped(planted):
    qualnames = {d.qualname for d in reach.scan(planted)}
    assert "Oracle.__init__" not in qualnames
    assert qualnames == {"refine", "Oracle.solve", "recover", "stray",
                         "decorated"}


def test_decorated_def_starts_at_its_decorator(planted):
    [decorated] = [d for d in reach.scan(planted)
                   if d.qualname == "decorated"]
    source = (planted / "mixed.py").read_text().splitlines()
    assert source[decorated.first - 1].strip() == "@staticmethod"


def test_untagged_unreached_function_fails_the_audit(planted):
    defs = reach.scan(planted)
    stray = next(d for d in defs if d.qualname == "stray")
    decorated = next(d for d in defs if d.qualname == "decorated")
    mixed = str(planted / "mixed.py")
    # Entered: everything but the tagged ones and ``stray``.
    entered = {(mixed, decorated.first, "decorated")}
    missed = reach.unreached(defs, entered, planted)
    assert {d.qualname for d in missed} == {"refine", "Oracle.solve",
                                            "recover", "stray"}
    lines, code = reach.report(defs, missed)
    assert code == 1
    assert "  stray (line %d): UNTAGGED" % stray.first in lines
    assert lines[-1].startswith("5 functions, 4 unreached, 1 untagged, ")
    # Once ``stray`` runs, every unreached function is tagged.
    entered.add((mixed, stray.first, "stray"))
    lines, code = reach.report(defs, reach.unreached(defs, entered, planted))
    assert code == 0
    assert lines[-1].startswith("5 functions, 3 unreached, 0 untagged, ")
