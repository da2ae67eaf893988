"""Unit tests for the dataflow unit-inference engine (quality/flow.py)."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.quality.dimensions import CompositeUnit, UnitSuffix
from repro.quality.engine import FileContext, _ModuleCache, find_package_root
from repro.quality.flow import (
    MAX_CHAIN_STEPS,
    Inferred,
    Step,
    analyze_scopes,
    context_info,
    dimension_of,
    get_program,
    units_compatible,
)
from repro.quality.pragmas import parse_pragmas


def make_ctx(source, rel_path="core/mod.py", path=None):
    """A FileContext for in-memory (or on-disk) source, engine-style."""
    src = textwrap.dedent(source)
    lines = src.splitlines()
    p = Path(path) if path is not None else Path("<memory>.py")
    return FileContext(
        path=p,
        rel_path=rel_path,
        parts=tuple(Path(rel_path).parts),
        source=src,
        lines=lines,
        tree=ast.parse(src),
        pragmas=parse_pragmas(lines),
        package_root=find_package_root(p) if p.is_file() else None,
        modules=_ModuleCache(),
    )


def flow_named(ctx, name):
    for flow in analyze_scopes(ctx):
        if flow.name == name:
            return flow
    raise AssertionError(f"no flow named {name!r}")


@pytest.mark.smoke
class TestInferredValue:
    def test_describe_renders_chain_most_recent_first(self):
        unit = UnitSuffix("j", "energy", 1.0)
        value = Inferred(unit, (Step("a", 1),)).derived("b", 2)
        assert value.describe() == "_j via b [line 2] <- a [line 1]"

    def test_chain_render_is_capped(self):
        unit = UnitSuffix("j", "energy", 1.0)
        value = Inferred(unit)
        for i in range(MAX_CHAIN_STEPS + 3):
            value = value.derived(f"s{i}", i)
        assert value.describe().endswith("<- ...")
        assert value.describe().count("<-") == MAX_CHAIN_STEPS

    def test_fuzzy_is_sticky_across_derivation(self):
        unit = UnitSuffix("j", "energy", 1.0)
        value = Inferred(unit, fuzzy=True).derived("x", 1)
        assert value.fuzzy


class TestPropagation:
    def test_assignment_and_parameter_seeding(self):
        ctx = make_ctx(
            """
            def f(energy_j):
                total = energy_j
                again = total
                return again
            """
        )
        flow = flow_named(ctx, "f")
        (ret_node, inferred), = flow.returns
        assert inferred is not None
        assert inferred.unit.suffix == "j"
        # The witness names the defining assignments back to the source.
        text = inferred.describe()
        assert "'again' = total" in text
        assert "'total' = energy_j" in text

    def test_tuple_unpacking(self):
        ctx = make_ctx(
            """
            def f(block):
                power, runtime = block.load_w, block.window_months
                check = power < runtime
            """
        )
        flow = flow_named(ctx, "f")
        check = flow.checks[-1]
        assert dimension_of(check.left.unit) == "power"
        assert dimension_of(check.right.unit) == "time"

    def test_literal_scaling_marks_fuzzy(self):
        ctx = make_ctx(
            """
            def f(mass_kg):
                scaled = mass_kg * 1000
                return scaled
            """
        )
        flow = flow_named(ctx, "f")
        (_, inferred), = flow.returns
        assert inferred.fuzzy
        assert dimension_of(inferred.unit) == "mass"

    def test_branch_join_keeps_compatible_values(self):
        ctx = make_ctx(
            """
            def f(flag, a_j, b_j, c_months):
                if flag:
                    x = a_j
                    y = a_j
                else:
                    x = b_j
                    y = c_months
                keep = x
                drop = y
                return keep
            """
        )
        flow = flow_named(ctx, "f")
        (_, inferred), = flow.returns
        # x agrees (_j) on both branches and survives; y does not.
        assert inferred is not None and inferred.unit.suffix == "j"


class TestConversionAlgebra:
    def _return_unit(self, source):
        ctx = make_ctx(source)
        flow = flow_named(ctx, "f")
        (_, inferred), = flow.returns
        return inferred

    def test_multiply_by_constant_converts_to_base(self):
        inferred = self._return_unit(
            """
            from repro import units

            def f(energy_kwh):
                return energy_kwh * units.KWH
            """
        )
        assert inferred.unit.suffix == "j"
        assert not inferred.fuzzy

    def test_divide_by_constant_converts_from_base(self):
        inferred = self._return_unit(
            """
            from repro import units

            def f(energy_j):
                return energy_j / units.KWH
            """
        )
        assert inferred.unit.suffix == "kwh"

    def test_power_times_time_is_energy(self):
        inferred = self._return_unit(
            """
            def f(power_w, duration_s):
                return power_w * duration_s
            """
        )
        assert dimension_of(inferred.unit) == "energy"

    def test_energy_over_time_is_power(self):
        inferred = self._return_unit(
            """
            def f(energy_j, duration_s):
                return energy_j / duration_s
            """
        )
        assert dimension_of(inferred.unit) == "power"

    def test_composite_rate_times_quantity_cancels(self):
        inferred = self._return_unit(
            """
            def f(ci_gco2_per_kwh, energy_kwh):
                return ci_gco2_per_kwh * energy_kwh
            """
        )
        assert isinstance(inferred.unit, UnitSuffix)
        assert inferred.unit.suffix == "gco2"

    def test_quantity_ratio_builds_composite(self):
        inferred = self._return_unit(
            """
            def f(epa_kwh, wafer_area_cm2):
                return epa_kwh / wafer_area_cm2
            """
        )
        assert isinstance(inferred.unit, CompositeUnit)
        assert inferred.unit.suffix == "kwh_per_cm2"

    def test_same_unit_ratio_is_dimensionless(self):
        inferred = self._return_unit(
            """
            def f(a_j, b_j):
                return a_j / b_j
            """
        )
        assert inferred is None


class TestCrossModule:
    def _package(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "helpers.py").write_text(
            textwrap.dedent(
                """
                def device_lifetime(config):
                    lifetime_months = config.lifetime_months
                    return lifetime_months
                """
            )
        )
        main = pkg / "main.py"
        main.write_text(
            textwrap.dedent(
                """
                from pkg.helpers import device_lifetime

                def f(config):
                    horizon = device_lifetime(config)
                    return horizon
                """
            )
        )
        return main

    def test_imported_return_unit_propagates(self, tmp_path):
        main = self._package(tmp_path)
        ctx = make_ctx(main.read_text(), path=main)
        flow = flow_named(ctx, "f")
        (_, inferred), = flow.returns
        assert inferred is not None
        assert dimension_of(inferred.unit) == "time"
        assert "device_lifetime" in inferred.describe()

    def test_program_is_shared_per_module_cache(self):
        ctx = make_ctx("x = 1\n")
        assert get_program(ctx) is get_program(ctx)

    def test_suffixed_function_name_is_authoritative(self):
        ctx = make_ctx(
            """
            def total_energy_j(parts):
                return sum(parts)

            def f(parts):
                return total_energy_j(parts)
            """
        )
        program = get_program(ctx)
        info = context_info(ctx, program)
        unit = program.return_unit(info, "total_energy_j")
        assert unit is not None and unit.suffix == "j"

    def test_recursive_function_does_not_loop(self):
        ctx = make_ctx(
            """
            def f(n):
                return f(n - 1)
            """
        )
        program = get_program(ctx)
        info = context_info(ctx, program)
        assert program.return_unit(info, "f") is None


class TestStatementWalker:
    """Pinned walker behavior: each case's events as the analyzer records them."""

    @staticmethod
    def _checks(flow):
        return [
            (
                check.node.lineno,
                check.left.describe() if check.left else None,
                check.right.describe() if check.right else None,
            )
            for check in flow.checks
        ]

    def test_walrus_in_for_header(self):
        # The header is checked, then the body env is copied, then the
        # header is evaluated: a walrus under +/- binds before the copy
        # and survives the loop; one under * binds after it and is lost.
        flow = flow_named(
            make_ctx(
                """
                def f(items, a_j, b_j):
                    for x in (lost := a_j) * items:
                        pass
                    for y in range((kept := b_j) + b_j):
                        pass
                    return lost + kept
                """
            ),
            "f",
        )
        b_j = "_j via parameter 'b_j' [line 2]"
        assert self._checks(flow) == [(5, b_j, b_j), (7, None, b_j)]
        assert [value for _, value in flow.returns] == [None]

    def test_destructuring_with_fewer_values_than_targets(self):
        flow = flow_named(
            make_ctx(
                """
                def f(e_kwh, pair):
                    lo, hi = e_kwh
                    a, b, c = e_kwh, e_kwh
                    total_j, spare = pair
                    s1 = lo + e_kwh
                    s2 = a + e_kwh
                    s3 = total_j + e_kwh
                """
            ),
            "f",
        )
        e_kwh = "_kwh via parameter 'e_kwh' [line 2]"
        assert self._checks(flow) == [
            (6, None, e_kwh),
            (7, None, e_kwh),
            (8, "_j via suffix of 'total_j' [line 5]", e_kwh),
        ]

    def test_try_except_else_finally(self):
        flow = flow_named(
            make_ctx(
                """
                def f(a_j, b_months):
                    try:
                        x = a_j
                        y = a_j
                    except ValueError:
                        x = a_j
                        y = b_months
                    else:
                        z = a_j
                    finally:
                        w = x
                    s1 = x + a_j
                    s2 = y + a_j
                    s3 = z + a_j
                    s4 = w + a_j
                """
            ),
            "f",
        )
        a_j = "_j via parameter 'a_j' [line 2]"
        x = "'x' = a_j [line 4] <- parameter 'a_j' [line 2]"
        assert self._checks(flow) == [
            (13, f"_j via {x}", a_j),
            (14, None, a_j),
            (15, "_j via 'z' = a_j [line 10] <- parameter 'a_j' [line 2]", a_j),
            (16, f"_j via 'w' = x [line 12] <- {x}", a_j),
        ]

    def test_global_and_nonlocal_names_are_untracked(self):
        ctx = make_ctx(
            """
            def f(a_j):
                global total_j
                total_j = a_j
                return total_j + a_j

            def outer(b_j):
                count_j = b_j
                def inner(c_j):
                    nonlocal count_j
                    count_j = c_j
                    return count_j + c_j
                return inner
            """
        )
        assert self._checks(flow_named(ctx, "f")) == [
            (5, None, "_j via parameter 'a_j' [line 2]")
        ]
        inner = flow_named(ctx, "inner")
        assert self._checks(inner) == [
            (12, None, "_j via parameter 'c_j' [line 9]")
        ]
        assert [value for _, value in inner.returns] == [None]

    def test_raise_only_while_is_checked(self):
        flow = flow_named(
            make_ctx(
                """
                def f(a_j, b_months):
                    while a_j > b_months:
                        raise ValueError(a_j)
                    return a_j
                """
            ),
            "f",
        )
        assert [check.op for check in flow.checks] == ["comparison"]
        assert self._checks(flow) == [
            (
                3,
                "_j via parameter 'a_j' [line 2]",
                "_months via parameter 'b_months' [line 2]",
            )
        ]
        (_, value), = flow.returns
        assert value.describe() == "_j via parameter 'a_j' [line 2]"


class TestCompatibility:
    def test_composite_vs_simple_never_compatible(self):
        simple = UnitSuffix("kwh", "energy", 3.6e6)
        comp = CompositeUnit(
            numerator=UnitSuffix("kwh", "energy", 3.6e6),
            denominator=UnitSuffix("cm2", "area", 1.0),
        )
        assert not units_compatible(simple, comp)
        assert units_compatible(comp, comp)
