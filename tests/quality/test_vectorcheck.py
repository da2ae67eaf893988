"""The scalar-vs-array differential gate (``repro vectorcheck``)."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.quality.vectorcheck import (
    DEFAULT_PACKAGES,
    DIVERGENT,
    SCALAR_ONLY,
    UNSUPPORTED,
    VECTOR_OK,
    CapabilityEntry,
    VectorCheckReport,
    check_against,
    classify_function,
    derive_inputs,
    run_vectorcheck,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ARTIFACT = REPO_ROOT / "benchmarks" / "output" / "VECTOR_capability.json"


class TestDeriveInputs:
    def test_required_floats_get_deterministic_values(self):
        def f(a: float, b: float) -> float:
            return a + b

        kwargs, tiled = derive_inputs(f)
        assert set(kwargs) == {"a", "b"}
        assert sorted(tiled) == ["a", "b"]
        assert all(0 < v <= 1 for v in kwargs.values())

    def test_defaults_kept_and_float_defaults_tiled(self):
        def f(x: float, scale: float = 2.0, name: str = "n") -> float:
            return x * scale

        kwargs, tiled = derive_inputs(f)
        assert kwargs["scale"] == 2.0
        assert "scale" in tiled and "name" not in kwargs

    def test_int_params_never_tiled(self):
        def f(x: float, n: int) -> float:
            return x * n

        kwargs, tiled = derive_inputs(f)
        assert isinstance(kwargs["n"], int)
        assert tiled == ["x"]

    def test_required_object_param_unsupported(self):
        def f(model, x: float) -> float:
            return x

        assert derive_inputs(f) is None

    def test_no_tileable_floats_unsupported(self):
        def f(n: int) -> int:
            return n

        assert derive_inputs(f) is None

    def test_string_annotations_resolve(self):
        # ``from __future__ import annotations`` leaves strings behind.
        def f(x: "float", n: "int") -> "float":
            return x * n

        kwargs, tiled = derive_inputs(f)
        assert tiled == ["x"]


class TestClassifyFunction:
    def test_broadcasting_function_is_vector_ok(self):
        def f(x: float, y: float) -> float:
            return x * 2.0 + y

        entry = classify_function("m", "f", f)
        assert entry.status == VECTOR_OK

    def test_ambiguous_truth_guard_is_scalar_only(self):
        def f(x: float) -> float:
            if x < 0:
                raise ValueError("negative")
            return x * 2.0

        entry = classify_function("m", "f", f)
        assert entry.status == SCALAR_ONLY
        assert "ambiguous" in entry.detail

    def test_silent_shape_collapse_is_divergent(self):
        def f(x: float) -> float:
            return float(np.mean(x))

        entry = classify_function("m", "f", f)
        assert entry.status == DIVERGENT
        assert "shape collapsed" in entry.detail

    def test_lane_contamination_is_divergent(self):
        # A scalar fold leaking the perturbed lane into lane 0: the
        # silent-corruption class the gate exists to catch.
        def f(x: float) -> float:
            return x * 0 + np.sum(x) / np.size(x)

        entry = classify_function("m", "f", f)
        assert entry.status == DIVERGENT
        assert "lane 0" in entry.detail

    def test_math_call_is_loud_scalar_only_not_divergent(self):
        def f(x: float) -> float:
            return math.sqrt(x)

        entry = classify_function("m", "f", f)
        assert entry.status == SCALAR_ONLY

    def test_non_scalar_return_unsupported(self):
        def f(x: float) -> dict:
            return {"x": x}

        entry = classify_function("m", "f", f)
        assert entry.status == UNSUPPORTED
        assert "non-scalar return" in entry.detail


class TestReport:
    def _report(self, status=VECTOR_OK):
        return VectorCheckReport(
            entries=[
                CapabilityEntry("m.b", "g", status),
                CapabilityEntry("m.a", "f", VECTOR_OK),
            ],
            packages=("m",),
            lanes=4,
        )

    def test_exit_code_zero_without_divergent(self):
        assert self._report().exit_code == 0

    def test_divergent_fails(self):
        report = self._report(DIVERGENT)
        assert report.exit_code == 1
        assert "DIVERGENT" in report.render_text()

    def test_to_json_sorts_entries(self):
        payload = self._report().to_json()
        assert payload.index('"m.a"') < payload.index('"m.b"')
        assert payload.endswith("\n")

    def test_check_against_reports_status_flips(self):
        fresh = self._report(SCALAR_ONLY)
        committed = self._report(VECTOR_OK).to_json()
        problems = check_against(fresh, committed)
        assert len(problems) == 1
        assert "m.b.g" in problems[0]
        assert "'vector-ok'" in problems[0]
        assert "'scalar-only'" in problems[0]

    def test_check_against_clean_when_identical(self):
        fresh = self._report()
        assert check_against(fresh, fresh.to_json()) == []


class TestLiveTree:
    @pytest.fixture(scope="class")
    def report(self):
        return run_vectorcheck()

    def test_every_public_function_classified(self, report):
        from repro.quality.vectorcheck import discover_functions

        assert len(report.entries) == len(
            discover_functions(DEFAULT_PACKAGES)
        )
        assert len(report.entries) > 40

    def test_no_divergent_functions(self, report):
        assert report.divergent() == []
        assert report.exit_code == 0

    def test_model_kernels_are_vector_ok(self, report):
        status = {
            f"{e.module}.{e.function}": e.status for e in report.entries
        }
        for name in (
            "repro.core.tcdp.tcdp",
            "repro.core.tcdp.edp",
            "repro.core.operational.operational_carbon_g",
            "repro.fab.steps.per_step_energy",
        ):
            assert status[name] == VECTOR_OK, (name, status[name])

    def test_run_is_deterministic(self, report):
        assert report.to_json() == run_vectorcheck().to_json()

    def test_committed_artifact_is_current(self, report):
        """CI's ``repro vectorcheck --check`` gate, as a test."""
        assert ARTIFACT.is_file(), (
            "regenerate with `python -m repro vectorcheck "
            "--output benchmarks/output/VECTOR_capability.json`"
        )
        problems = check_against(report, ARTIFACT.read_text())
        assert problems == [], "\n".join(problems)
