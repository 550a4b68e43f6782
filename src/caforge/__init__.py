"""Two-stage covering array construction and size bounds."""

from .bounds import (
    BoundReport,
    bound_report,
    chromatic_estimate,
    coloring_two_stage_estimate,
    discrete_slj_bound,
    expected_incompat_edges,
    first_stage_n,
    gss_bound,
    lll_first_stage_n,
    lll_two_stage_bound,
    slj_bound,
    two_stage_bound,
)
from .coverage import uncovered_list, verify_covering_array
from .groups import GroupKind, develop, orbit_count
from .model import FLEXIBLE, CoverageReport, Interaction, Parameters
from .pipeline import RunReport, RunSpec, benchmark, run
from .stage1 import (
    IterationCapExceeded,
    RetriesExhausted,
    mt_construct,
    mt_first_stage,
    mt_row_count,
    rand_first_stage,
)
from .stage2 import (
    GuaranteeViolated,
    IncompatibilityGraph,
    InconsistentClass,
    build_incompat_graph,
    color_cover,
    density_cover,
    greedy_cover,
    naive_cover,
)

__version__ = "0.1.0"
