"""Exact continued-fraction machinery for two-bridge knots.

The package computes, for a two-bridge knot K(p,q), the minimal crossing
count achievable by a half-turn symmetric (Type A or Type B) continued
fraction of one of its slopes, along with the classical crossing number,
census tables over crossing ranges, and SVG drawings of the symmetric
diagrams.  All arithmetic is exact integer work; the library has no
floats.
"""

from .contfrac import (
    ContinuedFraction,
    ExpansionClass,
    Rational,
    classify_type,
    crossing_sum,
    eval_cf,
    even_expansion,
    positive_expansion,
    positive_expansion_variant,
    semi_even_expansion,
)
from .knot import (
    TwoBridgeKnot,
    canonicalize,
    crossing_number,
    enumerate_knots,
    fraction_to_knot,
    mod_inverse,
    slope_family,
)
from .render import DiagramLayout, TwistBox, layout, to_svg
from .solver import (
    METHOD_EXHAUSTED,
    METHOD_SEARCH,
    METHOD_STEP1,
    METHOD_STEP2,
    C2Result,
    SearchBudgetExceeded,
    c2,
    enumerate_type_ab,
    global_c2_map,
    search_at,
    solve_many,
    step1_check,
    step2_bound,
)
from .table import (
    ALGORITHM_VERSION,
    CrossCheckError,
    TableRow,
    build_table,
    table_row,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_VERSION",
    "C2Result",
    "ContinuedFraction",
    "CrossCheckError",
    "DiagramLayout",
    "ExpansionClass",
    "METHOD_EXHAUSTED",
    "METHOD_SEARCH",
    "METHOD_STEP1",
    "METHOD_STEP2",
    "Rational",
    "SearchBudgetExceeded",
    "TableRow",
    "TwistBox",
    "TwoBridgeKnot",
    "build_table",
    "c2",
    "canonicalize",
    "classify_type",
    "crossing_number",
    "crossing_sum",
    "enumerate_knots",
    "enumerate_type_ab",
    "eval_cf",
    "even_expansion",
    "fraction_to_knot",
    "global_c2_map",
    "layout",
    "mod_inverse",
    "positive_expansion",
    "positive_expansion_variant",
    "search_at",
    "semi_even_expansion",
    "slope_family",
    "solve_many",
    "step1_check",
    "step2_bound",
    "table_row",
    "to_svg",
]
