"""Robust X-Learner: CATE estimation under extreme imbalance and heavy tails."""

from .datasets import (
    CausalDataset,
    ContaminationSpec,
    ScenarioSpec,
    SemiSyntheticSpec,
    apply_semi_synthetic_dgp,
    generate_1d_qualitative,
    generate_surrogate_covariates,
    generate_synthetic,
    inject_outlier,
    load_dataset_csv,
    load_table_csv,
    save_dataset_csv,
    save_table_csv,
    winsorize_outcomes,
)
from .losses import LossSpec, gamma_loss, gradient_and_weight, mad_scale, welsch_weight
from .boosting import (
    BoostConfig,
    BoostedEnsemble,
    FeatureIndex,
    RegressionTree,
    feature_index,
    fit_boosted,
    fit_tree,
    load_model,
    save_model,
)
from .metalearners import (
    AggregationScheme,
    FittedCate,
    LEARNERS,
    MetaLearnerSpec,
    fit_meta,
    impute_pseudo_outcomes,
    learner_spec,
    load_meta,
    mse_x_spec,
    predict_cate,
    rx_spec,
    save_meta,
)
from .config import ConfigError, RunConfig, list_presets, load_config, parse_config, preset_path
from .evaluation import (
    EvalReport,
    SmearReport,
    SweepResult,
    ate_bias,
    contamination_sweep,
    core_pehe,
    emit_curve_data,
    pehe,
    run_scenario,
    run_semi_synthetic,
    smearing_study,
)

__version__ = "0.1.0"
