"""Maximum differential coloring of trees: constructive labeling schemes for
caterpillars and spiders, upper-bound calculators, and an exact solver."""

from .bounds import BoundReport, upper_bound_report
from .graph import (MAX_N, CaterpillarShape, GraphParseError, SizeLimitError,
                    SpiderShape, Tree, bipartition_sizes, gen_caterpillar,
                    gen_random_caterpillar, gen_regular_caterpillar, gen_spider,
                    parse_graph, recognize_caterpillar, recognize_spider, write_graph)
from .labeling import (EvaluatedLabeling, Labeling, differential_value,
                       evaluate, is_valid_labeling, labeling_from_json)
from .oracle import (DEFAULT_LIMIT_N, ExactResult, OracleLimitError,
                     OracleTimeoutError, decision_dc_at_least, exact_dc)
from .schemes import (SCHEMES, MarkingState, NotApplicable, SchemeError,
                      SchemeResult, label_auto, label_general_caterpillar,
                      label_regular_caterpillar, label_spider_all_even,
                      label_spider_all_odd, mark_caterpillar, mp_value,
                      run_scheme)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CaterpillarShape", "DEFAULT_LIMIT_N", "EvaluatedLabeling",
    "ExactResult", "GraphParseError", "Labeling", "MAX_N", "MarkingState",
    "NotApplicable", "OracleLimitError", "OracleTimeoutError", "SCHEMES",
    "SchemeError", "SchemeResult", "SizeLimitError", "SpiderShape", "Tree",
    "bipartition_sizes", "decision_dc_at_least", "differential_value",
    "evaluate", "exact_dc", "gen_caterpillar", "gen_random_caterpillar",
    "gen_regular_caterpillar", "gen_spider", "is_valid_labeling", "label_auto",
    "label_general_caterpillar", "label_regular_caterpillar",
    "label_spider_all_even", "label_spider_all_odd", "labeling_from_json",
    "mark_caterpillar", "mp_value", "parse_graph", "recognize_caterpillar",
    "recognize_spider", "run_scheme", "upper_bound_report", "write_graph",
]
