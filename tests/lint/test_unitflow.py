"""RPR002 — units propagated through locals, parameters and returns."""

import textwrap

from repro.lint.checkers.units import UnitsChecker
from repro.lint.project import ModuleInfo, Project


def mod(source: str, name: str) -> ModuleInfo:
    path = "src/" + name.replace(".", "/") + ".py"
    return ModuleInfo.from_source(textwrap.dedent(source), path=path, name=name)


def run(*modules: ModuleInfo):
    return list(UnitsChecker().check_project(Project(list(modules))))


class TestReturnPropagation:
    def test_unit_flows_through_local_and_return(self):
        diags = run(mod(
            """
            def backlog(delay_s):
                window = delay_s
                return window

            def account(total_bytes, d):
                total_bytes += backlog(d)
                return total_bytes
            """,
            name="repro.core.flow1",
        ))
        assert len(diags) == 1
        d = diags[0]
        assert d.code == "RPR002"
        assert "bytes" in d.message and "seconds" in d.message
        # Provenance: parameter -> local -> return.
        notes = [b.note for b in d.because]
        assert any("parameter delay_s" in n for n in notes)
        assert any("backlog() returns seconds" in n for n in notes)

    def test_chain_of_helpers(self):
        diags = run(mod(
            """
            def inner(stale_seconds):
                return stale_seconds

            def middle(x):
                return inner(x)

            def outer(total_bytes, x):
                return total_bytes + middle(x)
            """,
            name="repro.core.flow2",
        ))
        assert len(diags) == 1
        assert "additive arithmetic" in diags[0].message

    def test_cross_module_propagation(self):
        helpers = mod(
            """
            def window(delay_s):
                return delay_s
            """,
            name="repro.core.flowhelpers",
        )
        user = mod(
            """
            from repro.core.flowhelpers import window

            def account(total_bytes, d):
                return total_bytes - window(d)
            """,
            name="repro.fastpath.flowuser",
        )
        diags = run(helpers, user)
        assert len(diags) == 1
        assert diags[0].path.endswith("flowuser.py")

    def test_mixed_returns_stay_unknown(self):
        # A function returning bytes on one path and seconds on another
        # has no unit; nothing downstream is flagged.
        assert run(mod(
            """
            def ambiguous(flag, total_bytes, delay_s):
                if flag:
                    return total_bytes
                return delay_s

            def use(x, hit_count):
                return hit_count + ambiguous(True, 1, 2)
            """,
            name="repro.core.flow3",
        )) == []


class TestLocalPropagation:
    def test_local_alias_mixes(self):
        diags = run(mod(
            """
            def account(delay_s, total_bytes):
                window = delay_s
                return window + total_bytes
            """,
            name="repro.core.flow4",
        ))
        assert len(diags) == 1
        assert any(
            "window is assigned a seconds value" in b.note
            for b in diags[0].because
        )

    def test_reassignment_clears_unit(self):
        assert run(mod(
            """
            def account(delay_s, total_bytes, mystery):
                window = delay_s
                window = mystery
                return window + total_bytes
            """,
            name="repro.core.flow5",
        )) == []


class TestCallArguments:
    def test_wrong_unit_argument_flagged(self):
        diags = run(mod(
            """
            def charge(body_size):
                return body_size

            def caller(delay_s):
                return charge(delay_s)
            """,
            name="repro.core.flow6",
        ))
        assert len(diags) == 1
        assert "parameter body_size" in diags[0].message
        assert "expects bytes" in diags[0].message

    def test_keyword_argument_checked(self):
        diags = run(mod(
            """
            def charge(amount, body_size=0):
                return body_size

            def caller(delay_s):
                return charge(1, body_size=delay_s)
            """,
            name="repro.core.flow7",
        ))
        assert len(diags) == 1

    def test_matching_unit_argument_clean(self):
        assert run(mod(
            """
            def charge(body_size):
                return body_size

            def caller(header_bytes):
                return charge(header_bytes)
            """,
            name="repro.core.flow8",
        )) == []


class TestDeduplicationAndScope:
    def test_rpr002_visible_mixes_are_not_duplicated(self):
        # Both operands carry units by *name*: one finding, no chain —
        # the propagating pass and the naming pass are the same pass.
        diags = run(mod(
            "total = body_bytes + elapsed_seconds\n",
            name="repro.core.flow9",
        ))
        assert len(diags) == 1
        assert diags[0].because == ()

    def test_out_of_scope_module_not_checked(self):
        assert run(mod(
            """
            def backlog(delay_s):
                return delay_s

            def account(total_bytes, d):
                return total_bytes + backlog(d)
            """,
            name="repro.obs.flow10",
        )) == []

    def test_shipped_tree_is_clean(self, shipped_project):
        assert list(UnitsChecker().check_project(shipped_project)) == []
