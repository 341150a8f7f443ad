import doctest
import pathlib
import re

import pathbij
import pathbij.bijection
import pathbij.families
import pathbij.oeis
import pathbij.paths

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "Census",
    "Component",
    "ComponentView",
    "DEFAULT_PATTERNS",
    "DOWN",
    "FLAT",
    "InvalidCharacter",
    "MalformedLine",
    "NonContiguousIndex",
    "NotGroundTerminated",
    "NotInClass",
    "Path",
    "PathbijError",
    "Permutation",
    "RangeNotCovered",
    "SizeTooLarge",
    "Step",
    "UP",
    "compare_sequence",
    "components",
    "contains_pattern",
    "count_avoiders",
    "count_class_a_series",
    "count_class_b_series",
    "count_series",
    "in_class_a",
    "in_class_b",
    "indec_census",
    "parse_bfile",
    "parse_path",
    "parse_patterns",
    "parse_permutation",
    "phi",
    "phi_inverse",
    "rank_signature",
    "render_ascii",
]

# Path-object helpers whose work the word-level functions do, the b-file records that
# wrapped a dict and a match count, the inverse kernels' domain error, which nothing
# raised once class membership was checked where the word enters, and the trace record
# API, whose values trace_blocks formats straight from _run.
RETIRED_NAMES = [
    "ComparisonReport",
    "InverseDomainError",
    "Mismatch",
    "SequenceTable",
    "Stage",
    "count_class_a",
    "count_class_b",
    "enumerate_class_a",
    "enumerate_class_b",
    "is_indecomposable",
    "peak_apexes",
    "reflect",
    "trace_components",
]


def test_all_names_resolve_once():
    assert len(set(pathbij.__all__)) == len(pathbij.__all__)
    assert [name for name in pathbij.__all__ if not hasattr(pathbij, name)] == []


def test_public_surface_is_pinned():
    assert sorted(pathbij.__all__) == PUBLIC_NAMES


def test_retired_helpers_are_gone():
    for module in (pathbij, pathbij.bijection, pathbij.paths, pathbij.families, pathbij.oeis):
        assert [name for name in RETIRED_NAMES if hasattr(module, name)] == [], module.__name__
    assert not hasattr(pathbij.ComponentView, "paths")
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in RETIRED_NAMES if re.search(rf"`{name}\b", readme)] == []


def test_readme_examples_run(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    result = doctest.testfile("README.md", module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 5
