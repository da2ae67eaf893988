"""repro-lint: an AST-based correctness linter for this repository.

The model's credibility rests on invariants the test suite cannot see:
every quantity is SI-with-suffix (``_j``, ``_mm2``, ``_kg`` per
:mod:`repro.units`), every artifact must be bit-reproducible under a
fixed seed, and every cached function must be pure.  This package
checks those invariants statically:

- :mod:`repro.quality.dimensions` — suffix -> dimension/scale table
  (simple and ``_per_`` composite rates) derived from :mod:`repro.units`;
- :mod:`repro.quality.flow` — dataflow unit-inference engine: a
  ``(dimension, scale)`` abstract interpretation over each function
  plus cross-module return-unit propagation, feeding RPL006-RPL008;
- :mod:`repro.quality.concurrency` — the concurrency analysis layer:
  blocking-call classification with transitive witnesses and per-class
  lock-discipline inference, feeding RPL009-RPL012;
- :mod:`repro.quality.shapes` — shape/broadcast abstract
  interpretation: an ``(is_array_capable, broadcast_shape)`` lattice
  over model-data parameters with cross-module capability inference,
  feeding the vectorization-safety rules RPL013-RPL016;
- :mod:`repro.quality.vectorcheck` — the dynamic complement
  (``repro vectorcheck``): scalar-vs-array differential execution of
  every public model function, committed as
  ``benchmarks/output/VECTOR_capability.json``;
- :mod:`repro.quality.rules` — the rule set (RPL001-RPL016);
- :mod:`repro.quality.engine` — file walking, pragma suppression,
  reporting, and the ``--jobs`` process-parallel fan-out;
- :mod:`repro.quality.baseline` — committed grandfathered findings
  (``repro-lint-baseline.json``);
- :mod:`repro.quality.pragmas` — ``# repro-lint: disable=...`` and
  ``# repro-lint: cache-pure`` inline pragmas;
- :mod:`repro.quality.pragma_audit` — stale/unknown pragma detection
  (``repro lint --audit-pragmas``);
- :mod:`repro.quality.sarif` — SARIF 2.1.0 export
  (``repro lint --format sarif``).

Run it as ``repro lint`` (or ``python -m repro lint``); see the README
"Static analysis" section for the rule table and baseline workflow.
"""

from repro.quality.baseline import BASELINE_FILENAME, Baseline
from repro.quality.dimensions import (
    SUFFIX_TABLE,
    CompositeUnit,
    UnitSuffix,
    composite_of,
    resolve_unit,
    suffix_of,
)
from repro.quality.engine import (
    FileContext,
    LintEngine,
    LintReport,
    find_package_root,
    iter_python_files,
    lint_paths,
)
from repro.quality.findings import Finding, Severity
from repro.quality.pragma_audit import (
    PragmaAuditEntry,
    audit_paths,
    render_audit,
)
from repro.quality.pragmas import PragmaMap, parse_pragmas
from repro.quality.rules import RULE_REGISTRY, Rule, default_rules

__all__ = [
    "BASELINE_FILENAME",
    "Baseline",
    "SUFFIX_TABLE",
    "CompositeUnit",
    "UnitSuffix",
    "composite_of",
    "resolve_unit",
    "suffix_of",
    "FileContext",
    "LintEngine",
    "LintReport",
    "find_package_root",
    "iter_python_files",
    "lint_paths",
    "Finding",
    "Severity",
    "PragmaAuditEntry",
    "audit_paths",
    "render_audit",
    "PragmaMap",
    "parse_pragmas",
    "RULE_REGISTRY",
    "Rule",
    "default_rules",
]
