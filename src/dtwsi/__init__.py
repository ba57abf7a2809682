"""Exact selective inference for the dynamic time warping distance.

The alignment chosen by dynamic time warping is data dependent; testing the
resulting distance as if the alignment were fixed inflates false positives.
This package conditions on the selection: it characterizes the set of
datasets, along a one-dimensional line, on which the same alignment and sign
pattern would have been chosen, and evaluates the statistic against the
Gaussian law truncated to that set.  The result is a finite-sample valid
p-value and confidence interval for the alignment statistic, plus baselines
and a reproducible experiment harness.
"""

from .dtw_core import (
    AlignmentMatrix,
    TestDirection,
    TimeSeriesPair,
    cost_matrix,
    delannoy,
    dtw,
    enumerate_alignments,
    path_differences,
    sign_vector,
    test_direction,
    test_statistic,
)
from .intervals import IntervalUnion, solve_quadratic_leq
from .parametric import (
    DataLine,
    PiecewiseEnvelope,
    envelope_bruteforce,
    para_dtw,
    quadratic_loss,
    z1_region,
)
from .inference import (
    DegenerateDirectionError,
    InferenceResult,
    RegionMassUnderflowError,
    SelectionEventError,
    conditional_test,
    nuisance_decomposition,
    selective_confidence_interval,
    selective_p_value,
    truncated_gaussian_ci,
    truncated_gaussian_sf,
    z2_region,
)
from .baselines import (
    data_splitting_test,
    permutation_test,
    si_dtw_oc_p_value,
    si_dtw_oc_region,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    MethodResult,
    UcrFormatError,
    estimated_variance_pair,
    generate_pair,
    load_ucr_pair,
    run_ci,
    run_fpr,
)

__version__ = "0.1.0"
