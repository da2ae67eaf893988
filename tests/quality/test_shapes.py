"""Unit tests for the shape/broadcast lattice in repro.quality.shapes."""

import ast
import textwrap

from repro.quality.flow import ModuleInfo, Program
from repro.quality.shapes import (
    Capability,
    ShapeAnalyzer,
    ShapeValue,
    capability,
    seeds_param,
)


def analyze(source, func_name=None):
    """FunctionShapes for one function in an in-memory module."""
    tree = ast.parse(textwrap.dedent(source))
    info = ModuleInfo.build(tree, path=None, key="<test>")
    program = Program(parse=None)
    analyzer = ShapeAnalyzer(info, program)
    funcs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    if func_name is not None:
        funcs = [f for f in funcs if f.name == func_name]
    assert funcs, f"no function {func_name!r} in fixture"
    return analyzer.analyze_function(funcs[0])


class TestParameterSeeding:
    def _arg(self, source):
        tree = ast.parse(textwrap.dedent(source))
        func = tree.body[0]
        return func.args.args[0]

    def test_float_annotation_seeds(self):
        assert seeds_param(self._arg("def f(x: float): pass"))

    def test_string_union_annotation_seeds(self):
        assert seeds_param(
            self._arg("def f(x: 'float | np.ndarray'): pass")
        )

    def test_ndarray_annotation_seeds(self):
        assert seeds_param(self._arg("def f(x: np.ndarray): pass"))

    def test_unit_suffix_name_seeds_without_annotation(self):
        assert seeds_param(self._arg("def f(energy_j): pass"))

    def test_self_never_seeds(self):
        assert not seeds_param(self._arg("def f(self): pass"))

    def test_plain_object_param_does_not_seed(self):
        assert not seeds_param(self._arg("def f(config): pass"))


class TestLatticePropagation:
    def test_elementwise_ufunc_preserves_lanes(self):
        shapes = analyze(
            """
            import numpy as np

            def f(x_j: float):
                y = np.exp(x_j) * 2.0
                return float(y)
            """
        )
        assert shapes.seeded == ("x_j",)
        assert len(shapes.coercions) == 1
        assert shapes.coercions[0].value.lanes

    def test_collapsing_ufunc_ends_tracking(self):
        shapes = analyze(
            """
            import numpy as np

            def f(samples: np.ndarray):
                total = np.sum(samples)
                return float(total)
            """
        )
        # float() of an already-collapsed reduction is not a hazard.
        assert shapes.coercions == []

    def test_branch_join_keeps_lanes_from_either_arm(self):
        shapes = analyze(
            """
            def f(power_w: float, flag):
                if flag:
                    y = power_w * 2.0
                else:
                    y = 0.0
                return float(y)
            """
        )
        assert len(shapes.coercions) == 1
        assert shapes.coercions[0].value.lanes

    def test_is_none_comparison_is_not_a_data_branch(self):
        shapes = analyze(
            """
            def f(power_w: float, cap=None):
                if cap is None:
                    cap = 1.0
                return power_w * cap
            """
        )
        assert shapes.branches == []

    def test_raise_only_guard_is_exempt(self):
        shapes = analyze(
            """
            def f(power_w: float):
                if power_w < 0:
                    raise ValueError("negative power")
                return power_w * 2.0
            """
        )
        assert shapes.branches == []

    def test_data_if_with_assignment_is_a_branch_event(self):
        shapes = analyze(
            """
            def f(power_w: float):
                if power_w > 1.0:
                    power_w = 1.0
                return power_w
            """
        )
        assert len(shapes.branches) == 1
        assert shapes.branches[0].construct == "if"

    def test_witness_chain_names_the_parameter(self):
        shapes = analyze(
            """
            import math

            def f(ci_g_per_kwh: float):
                scaled = ci_g_per_kwh * 2.0
                return math.sqrt(scaled)
            """
        )
        assert len(shapes.coercions) == 1
        described = shapes.coercions[0].value.describe()
        assert "ci_g_per_kwh" in described
        assert "[line" in described

    def test_math_fsum_is_exempt(self):
        shapes = analyze(
            """
            import math

            def f(samples_j: float):
                return math.fsum([samples_j, samples_j])
            """
        )
        assert shapes.coercions == []
        assert shapes.folds == []

    def test_sum_fold_over_lanes_iterable_recorded(self):
        shapes = analyze(
            """
            def f(values: np.ndarray):
                return sum(values)
            """
        )
        assert len(shapes.folds) == 1

    def test_sum_over_list_literal_is_a_table_not_lanes(self):
        # A fixed-size list literal is a *table* of terms (each may
        # broadcast); summing it is shape-stable, like integrate_power
        # summing its daily-window table.
        shapes = analyze(
            """
            def f(values_j: float):
                return sum([values_j, values_j])
            """
        )
        assert shapes.folds == []

    def test_loop_accumulation_over_lanes_is_a_fold(self):
        shapes = analyze(
            """
            def f(samples: np.ndarray):
                total = 0.0
                for s in samples:
                    total += s
                return total
            """
        )
        assert len(shapes.folds) == 1


class TestShapeValue:
    def test_collapse_flips_shape_and_extends_chain(self):
        value = ShapeValue("lanes").derived("parameter 'x'", 1)
        collapsed = value.collapsed("float()", 2)
        assert value.lanes and not collapsed.lanes
        assert "float()" in collapsed.describe()

    def test_chain_is_capped_in_describe(self):
        value = ShapeValue("lanes")
        for i in range(10):
            value = value.derived(f"step{i}", i)
        assert value.describe().endswith("<- ...")


class TestCrossModuleCapability:
    def test_helper_capability_resolved_through_import(self, tmp_path):
        pkg = tmp_path / "core"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "helpers.py").write_text(
            textwrap.dedent(
                """
                import math

                def scalar_helper(x_j: float) -> float:
                    return math.sqrt(x_j)

                def array_helper(x_j: float) -> float:
                    return x_j * 2.0
                """
            )
        )
        source = textwrap.dedent(
            """
            from core.helpers import array_helper, scalar_helper
            """
        )
        tree = ast.parse(source)
        info = ModuleInfo.build(
            tree,
            path=pkg / "main.py",
            package_root=tmp_path,
            key=str(pkg / "main.py"),
        )
        program = Program(
            parse=lambda p: ast.parse(p.read_text())
        )
        helpers = program.load_module(info, "core.helpers", 0)
        assert helpers is not None
        scalar_cap = capability(program, helpers, "scalar_helper")
        array_cap = capability(program, helpers, "array_helper")
        assert isinstance(scalar_cap, Capability)
        assert scalar_cap.kind == "scalar"
        assert "math.sqrt" in scalar_cap.reason
        assert "helpers.py:" in scalar_cap.where
        assert array_cap is not None and array_cap.kind == "array"

    def test_capability_memoized_and_cycle_safe(self, tmp_path):
        pkg = tmp_path / "core"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "loop.py").write_text(
            textwrap.dedent(
                """
                def a(x_j: float) -> float:
                    return b(x_j)

                def b(x_j: float) -> float:
                    return a(x_j)
                """
            )
        )
        tree = ast.parse("from core.loop import a\n")
        info = ModuleInfo.build(
            tree,
            path=pkg / "main.py",
            package_root=tmp_path,
            key=str(pkg / "main.py"),
        )
        program = Program(
            parse=lambda p: ast.parse(p.read_text())
        )
        loop_mod = program.load_module(info, "core.loop", 0)
        assert loop_mod is not None
        first = capability(program, loop_mod, "a")
        second = capability(program, loop_mod, "a")
        assert first == second  # memoized, recursion did not explode


class TestStatementWalker:
    """Pinned walker behavior: each case's events as the analyzer records them."""

    @staticmethod
    def _events(shapes):
        return (
            [(e.node.lineno, e.func_text, e.value.describe())
             for e in shapes.coercions],
            [(e.node.lineno, e.construct, e.value.describe())
             for e in shapes.branches],
        )

    def test_walrus_in_for_header(self):
        # The header is evaluated before the body env is copied, so the
        # walrus binding reaches both the body and the code after it.
        shapes = analyze(
            """
            def f(x_j: float, items):
                for v in (y := x_j) * items:
                    pass
                if y > 0:
                    return 1.0
                return 0.0
            """
        )
        assert self._events(shapes) == (
            [], [(5, "if", "parameter 'x_j' [line 2]")]
        )
        assert shapes.folds == []

    def test_destructuring_with_fewer_values_than_targets(self):
        # Unmatched targets take the whole value; a tuple value is not
        # data, so ``b`` stays untracked.
        shapes = analyze(
            """
            def f(x_j: float):
                lo, hi = x_j
                a, b, c = x_j, 1.0
                if hi > 0:
                    return float(lo)
                if b > 0:
                    return 1.0
                return 0.0
            """
        )
        source = "(lo, hi) [line 3] <- parameter 'x_j' [line 2]"
        assert self._events(shapes) == (
            [(6, "float()", f"'lo' = {source}")],
            [(5, "if", f"'hi' = {source}")],
        )

    def test_try_except_else_finally(self):
        shapes = analyze(
            """
            def f(x_j: float):
                try:
                    y = x_j
                except ValueError:
                    z = x_j
                else:
                    w = y
                finally:
                    v = 1.0
                if z > 0:
                    return float(w)
                return 0.0
            """
        )
        assert self._events(shapes) == (
            [(12, "float()",
              "'w' = y [line 8] <- 'y' = x_j [line 4] <- "
              "parameter 'x_j' [line 2]")],
            [(11, "if", "'z' = x_j [line 6] <- parameter 'x_j' [line 2]")],
        )

    def test_global_and_nonlocal_names_are_untracked(self):
        source = """
            def f(x_j: float):
                global total
                total = x_j
                if total > 0:
                    return 1.0
                return float(x_j)

            def outer(y_j: float):
                count = y_j
                def inner(z_j: float):
                    nonlocal count
                    count = z_j
                    return float(count)
                return inner
            """
        assert self._events(analyze(source, "f")) == (
            [(7, "float()", "parameter 'x_j' [line 2]")], []
        )
        assert self._events(analyze(source, "inner")) == ([], [])

    def test_raise_only_guard_is_skipped_on_if_but_not_while(self):
        shapes = analyze(
            """
            def f(x_j: float):
                if x_j < 0:
                    raise ValueError(x_j)
                while x_j > 1:
                    raise ValueError(x_j)
                return x_j
            """
        )
        assert self._events(shapes) == (
            [], [(5, "while", "parameter 'x_j' [line 2]")]
        )
