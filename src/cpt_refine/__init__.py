"""Structural refinement of Bayesian-network CPTs.

Approximate a conditional probability table through pruning, divorcing,
simple canonical models, ICI or SICI structures, fit the reduced parameter
set against a known truth under sum of row-wise total variation distances,
and account for the parameter savings.
"""

from .cpt import (
    Cpt,
    Grouping,
    Variable,
    config_table,
    expand_grouped,
    fit_grouping,
    kl_row,
    median_lad,
    param_count,
    score_sum_kl,
    score_sum_tvd,
    tvd_row,
)
from .errors import CptRefineError, SearchSpaceError, ShapeMismatchError, ValidationError
from .io import ReportRow, load_cpt, save_cpt
from .optimizer import (
    GaConfig,
    Genome,
    GenomeShape,
    SearchResult,
    SiciSweep,
    enumerate_bipartitions,
    enumerate_set_partitions,
    ga_optimize,
    optimize_ici,
    optimize_sici,
    optimize_sici_partition,
    scm_bruteforce,
    scm_exact,
)
from .refine import (
    ApproxResult,
    DivorceSpec,
    IciSpec,
    PruneSpec,
    ScmSpec,
    SiciSpec,
    divorce_best,
    divorce_groups,
    evaluate_spec,
    noisy_average_lower,
    noisy_or,
    noisy_or_closed_form,
    param_savings,
    pici_evaluate,
    prune_best,
    prune_groups,
    sici_evaluate,
)

__version__ = "0.1.0"
