"""Per-rule fixture snippets: positive, negative, and pragma-suppressed."""

import textwrap

import pytest

from repro.quality import LintEngine, Baseline


def lint(source, rel_path="core/snippet.py", rules=None):
    """Findings + suppressed count for one in-memory snippet."""
    from repro.quality import RULE_REGISTRY

    selected = None
    if rules is not None:
        selected = [RULE_REGISTRY[r]() for r in rules]
    engine = LintEngine(rules=selected, baseline=Baseline())
    return engine.lint_source(
        textwrap.dedent(source), rel_path=rel_path
    )


def rule_ids(findings):
    return sorted({f.rule for f in findings})


@pytest.mark.smoke
class TestRPL001Units:
    def test_add_mixing_scales_flagged(self):
        findings, _ = lint("total = static_j + dynamic_kwh\n")
        assert rule_ids(findings) == ["RPL001"]
        assert "scales" in findings[0].message

    def test_add_mixing_dimensions_flagged(self):
        findings, _ = lint("x = mass_kg + area_mm2\n")
        assert rule_ids(findings) == ["RPL001"]
        assert "dimensions" in findings[0].message

    def test_same_suffix_ok(self):
        findings, _ = lint("total_j = static_j + dynamic_j\n")
        assert findings == []

    def test_multiplication_is_conversion_not_flagged(self):
        findings, _ = lint("energy_j = power_w * duration_s\n")
        assert findings == []

    def test_comparison_mixing_flagged(self):
        findings, _ = lint("ok = die_area_mm2 < limit_cm2\n")
        assert rule_ids(findings) == ["RPL001"]

    def test_return_suffix_mismatch_flagged(self):
        findings, _ = lint(
            """
            def total_area_cm2(block):
                return block.area_mm2
            """
        )
        assert rule_ids(findings) == ["RPL001"]
        assert "total_area_cm2" in findings[0].message

    def test_return_matching_suffix_ok(self):
        findings, _ = lint(
            """
            def total_area_cm2(block):
                partial_cm2 = block.x_cm2 + block.y_cm2
                return partial_cm2
            """
        )
        assert findings == []

    def test_nested_function_return_not_misattributed(self):
        findings, _ = lint(
            """
            def outer_j():
                def helper_mm2():
                    return pad_mm2
                return base_j
            """
        )
        assert findings == []

    def test_rate_names_exempt(self):
        # RPL001's suffix check exempts `_per_` rate names; the mix is
        # RPL006's to catch via its composite-unit lattice.
        findings, _ = lint(
            "x = intensity_g_per_kwh + other_j\n", rules=["RPL001"]
        )
        assert findings == []
        findings, _ = lint(
            "x = intensity_g_per_kwh + other_j\n", rules=["RPL006"]
        )
        assert rule_ids(findings) == ["RPL006"]

    def test_subscript_and_call_inference(self):
        findings, _ = lint("y = clocks_hz[0] + lifetime_s\n")
        assert rule_ids(findings) == ["RPL001"]
        findings, _ = lint("y = total_energy_kwh() + extra_j\n")
        assert rule_ids(findings) == ["RPL001"]

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            "x = a_j + b_kwh  # repro-lint: disable=RPL001 - test\n"
        )
        assert findings == []
        assert suppressed == 1


@pytest.mark.smoke
class TestRPL002Determinism:
    def test_unseeded_default_rng_flagged(self):
        findings, _ = lint(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert rule_ids(findings) == ["RPL002"]

    def test_seeded_default_rng_ok(self):
        findings, _ = lint(
            "import numpy as np\nrng = np.random.default_rng(42)\n"
        )
        assert findings == []

    def test_module_random_flagged(self):
        findings, _ = lint("import random\nx = random.random()\n")
        assert rule_ids(findings) == ["RPL002"]

    def test_seeded_random_instance_ok(self):
        findings, _ = lint("import random\nr = random.Random(7)\n")
        assert findings == []

    def test_legacy_numpy_global_rng_flagged(self):
        findings, _ = lint("import numpy as np\nx = np.random.rand(3)\n")
        assert rule_ids(findings) == ["RPL002"]

    def test_wall_clock_flagged(self):
        findings, _ = lint("import time\nt = time.time()\n")
        assert rule_ids(findings) == ["RPL002"]
        findings, _ = lint(
            "import datetime\nnow = datetime.datetime.now()\n"
        )
        assert rule_ids(findings) == ["RPL002"]

    def test_runtime_package_exempt(self):
        findings, _ = lint(
            "import time\nt = time.time()\n",
            rel_path="runtime/cache.py",
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            "import time\nt = time.time()  # repro-lint: disable=RPL002\n"
        )
        assert findings == []
        assert suppressed == 1


@pytest.mark.smoke
class TestRPL003CachePurity:
    def test_lru_cache_environ_read_flagged(self):
        findings, _ = lint(
            """
            import functools, os

            @functools.lru_cache(maxsize=8)
            def lookup(x):
                return os.environ.get("MODE", "fast") + x
            """,
            rules=["RPL003"],
        )
        assert rule_ids(findings) == ["RPL003"]
        assert "os.environ" in findings[0].message

    def test_module_mutable_read_flagged(self):
        findings, _ = lint(
            """
            from functools import lru_cache

            registry = {}

            @lru_cache()
            def resolve(name):
                return registry[name]
            """,
            rules=["RPL003"],
        )
        assert rule_ids(findings) == ["RPL003"]
        assert "registry" in findings[0].message

    def test_uppercase_module_table_not_flagged(self):
        findings, _ = lint(
            """
            from functools import lru_cache

            GRIDS = {"us": 380.0}

            @lru_cache()
            def intensity(name):
                return GRIDS[name]
            """,
            rules=["RPL003"],
        )
        assert findings == []

    def test_local_shadowing_not_flagged(self):
        findings, _ = lint(
            """
            from functools import lru_cache

            options = {}

            @lru_cache()
            def compute(x):
                options = {"alpha": x}
                return options["alpha"]
            """,
            rules=["RPL003"],
        )
        assert findings == []

    def test_uncached_function_free_to_read_state(self):
        findings, _ = lint(
            """
            import os

            def engine_choice():
                return os.environ.get("REPRO_ENGINE", "auto")
            """,
            rules=["RPL003"],
        )
        assert findings == []

    def test_sweep_cache_roundtrip_checked(self):
        findings, _ = lint(
            """
            import os
            from repro.runtime.cache import SweepCache

            def win_grid(payload):
                cache = SweepCache()
                hit = cache.get(payload)
                if hit is not None:
                    return hit
                grid = payload["x"] * float(os.environ["SCALE"])
                cache.put(payload, grid)
                return grid
            """,
            rules=["RPL003"],
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_bench_driver_passing_cache_not_checked(self):
        findings, _ = lint(
            """
            import time
            from repro.runtime.cache import SweepCache

            def bench(run):
                cache = SweepCache()
                start = time.time()
                run(cache=cache)
                return time.time() - start
            """,
            rules=["RPL003"],
        )
        assert findings == []

    def test_cache_pure_pragma_opts_in(self):
        findings, _ = lint(
            """
            import os

            def callback(x):  # repro-lint: cache-pure
                return os.environ["MODE"] + x
            """,
            rules=["RPL003"],
        )
        assert rule_ids(findings) == ["RPL003"]

    def test_rng_in_cached_function_flagged(self):
        findings, _ = lint(
            """
            from functools import lru_cache
            import numpy as np

            @lru_cache()
            def noisy(x):
                return x + np.random.default_rng().normal()
            """,
            rules=["RPL003"],
        )
        assert rule_ids(findings) == ["RPL003"]


@pytest.mark.smoke
class TestRPL004FloatEquality:
    def test_float_literal_eq_flagged(self):
        findings, _ = lint("bad = x == 0.5\n", rules=["RPL004"])
        assert rule_ids(findings) == ["RPL004"]
        assert findings[0].severity.value == "warning"

    def test_negated_literal_and_float_cast_flagged(self):
        findings, _ = lint("bad = x != -1.5\n", rules=["RPL004"])
        assert rule_ids(findings) == ["RPL004"]
        findings, _ = lint("bad = float(x) == y\n", rules=["RPL004"])
        assert rule_ids(findings) == ["RPL004"]

    def test_integer_comparison_ok(self):
        findings, _ = lint("ok = n == 0\n", rules=["RPL004"])
        assert findings == []

    def test_ordering_comparison_ok(self):
        findings, _ = lint("ok = x <= 0.5\n", rules=["RPL004"])
        assert findings == []

    def test_runtime_exempt(self):
        findings, _ = lint(
            "bad = x == 0.5\n",
            rel_path="runtime/parallel.py",
            rules=["RPL004"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            "ok = x == 0.0  # repro-lint: disable=RPL004 - sentinel\n",
            rules=["RPL004"],
        )
        assert findings == []
        assert suppressed == 1


@pytest.mark.smoke
class TestRPL005ApiHygiene:
    def _package(self, tmp_path, init_source, mod_source):
        pkg = tmp_path / "mypkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            textwrap.dedent(init_source), encoding="utf-8"
        )
        (pkg / "mod.py").write_text(
            textwrap.dedent(mod_source), encoding="utf-8"
        )
        return pkg

    def _lint_pkg(self, tmp_path, pkg):
        engine = LintEngine(baseline=Baseline())
        report = engine.lint_paths([pkg], root=tmp_path)
        return report.findings

    def test_unbound_export_flagged(self, tmp_path):
        pkg = self._package(
            tmp_path,
            '__all__ = ["missing"]\n',
            "",
        )
        findings = self._lint_pkg(tmp_path, pkg)
        assert [f.rule for f in findings] == ["RPL005"]
        assert "missing" in findings[0].message

    def test_reexport_of_nonexistent_name_flagged(self, tmp_path):
        pkg = self._package(
            tmp_path,
            """
            from mypkg.mod import gone
            __all__ = ["gone"]
            """,
            "value = 1\n",
        )
        findings = self._lint_pkg(tmp_path, pkg)
        assert any(
            f.rule == "RPL005" and "does not define" in f.message
            for f in findings
        )

    def test_reexported_function_without_docstring_flagged(self, tmp_path):
        pkg = self._package(
            tmp_path,
            """
            from mypkg.mod import helper
            __all__ = ["helper"]
            """,
            """
            def helper():
                return 1
            """,
        )
        findings = self._lint_pkg(tmp_path, pkg)
        assert [f.rule for f in findings] == ["RPL005"]
        assert "docstring" in findings[0].message

    def test_documented_exports_clean(self, tmp_path):
        pkg = self._package(
            tmp_path,
            """
            from mypkg.mod import helper, LIMIT
            __version__ = "1.0"
            __all__ = ["helper", "LIMIT", "__version__"]
            """,
            '''
            LIMIT = 10

            def helper():
                """Help."""
                return 1
            ''',
        )
        findings = self._lint_pkg(tmp_path, pkg)
        assert findings == []

    def test_relative_import_resolved(self, tmp_path):
        pkg = self._package(
            tmp_path,
            """
            from .mod import helper
            __all__ = ["helper"]
            """,
            """
            def helper():
                return 1
            """,
        )
        findings = self._lint_pkg(tmp_path, pkg)
        assert [f.rule for f in findings] == ["RPL005"]

    def test_non_init_files_ignored(self):
        findings, _ = lint('__all__ = ["missing"]\n', rules=["RPL005"])
        assert findings == []


class TestParseErrors:
    def test_syntax_error_reported_as_rpl000(self):
        findings, _ = lint("def broken(:\n")
        assert [f.rule for f in findings] == ["RPL000"]
