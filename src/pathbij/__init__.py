"""Machine-checked bijection toolkit for two equinumerous Schroeder path families.

Class A holds grand Schroeder paths whose flatsteps all lie on the line y=2;
class B holds Schroeder paths with at most one peak per component.  This
package provides the path algebra, exhaustive enumerators, exact big-integer
counters, the explicit size- and component-preserving bijection between the
families (with stage tracing and inverses), a pattern-avoidance cross-check,
and OEIS b-file comparison.
"""

from .bijection import NotInClass, phi, phi_inverse
from .families import (
    Census,
    count_class_a_series,
    count_class_b_series,
    count_series,
    indec_census,
)
from .oeis import (
    MalformedLine,
    NonContiguousIndex,
    RangeNotCovered,
    compare_sequence,
    parse_bfile,
)
from .paths import (
    DOWN,
    FLAT,
    UP,
    Component,
    ComponentView,
    InvalidCharacter,
    NotGroundTerminated,
    Path,
    PathbijError,
    Step,
    components,
    in_class_a,
    in_class_b,
    parse_path,
    render_ascii,
)
from .permutations import (
    DEFAULT_PATTERNS,
    Permutation,
    SizeTooLarge,
    contains_pattern,
    count_avoiders,
    parse_patterns,
    parse_permutation,
    rank_signature,
)

__version__ = "0.1.0"

__all__ = [
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
