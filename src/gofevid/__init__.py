"""Calibrated evidence for and against goodness of fit from Pearson
chi-squared statistics, with equivalence boundaries, sample-size planning,
divergence utilities, model-fit pipelines, and a reproducible Monte Carlo
harness."""

__version__ = "0.1.0"  # defined before the submodules, which record it in run manifests

from .dist import (
    ChiSqParams,
    RandomStream,
    chisq_cdf,
    chisq_density,
    chisq_quantile,
    normal_quantile,
    sample_chisq,
    sample_family,
)
from .evidence import (
    Direction,
    EquivalenceParams,
    EvidenceValue,
    evidence_against,
    evidence_for_equivalence,
    evidence_label,
    expected_evidence_against,
    expected_evidence_equiv,
    max_expected_evidence,
)
from .pearson import (
    CellData,
    equivalence_test,
    multinomial_power_mc,
    pearson_stat,
    power_equivalence,
    power_lack_of_fit,
)
from .boundary import (
    euclid_d,
    inradius,
    lambda0_uniform,
    least_divergent_point,
    sample_size,
    sup_M,
    table2,
)
from .divergence import (
    J_noncentral,
    J_uniform,
    signed_root_J,
)
from .model_fit import (
    NormalFitReport,
    PoissonFitReport,
    choose_r_normal,
    combine_cells_poisson,
    evidence_for_normality,
    evidence_for_poisson,
    poisson_mle,
)
from .sim import (
    SimConfig,
    SimSummary,
    run_normal_table,
    run_poisson_table,
    run_scenario,
    run_table1,
    run_vst_equiv,
    run_vst_lof,
)
