"""Empirical security evaluation of binary pattern classifiers under attack.

The library models attack scenarios against two-class (legitimate vs
malicious) classifiers, draws attacked training/testing sets from a
factorized generative data model, trains classifiers from scratch, and
measures how ROC-based metrics degrade as attack strength grows.
"""

from .data_model import (
    Analytic,
    AttackFlag,
    Bootstrap,
    Chronological,
    CrossValidation,
    Dataset,
    DiagonalGaussian,
    DistributionSpec,
    EmpiricalPool,
    FoldSet,
    GammaProduct,
    GenerationMode,
    GeneratorComponent,
    Label,
    Sample,
    build_scenario_pools,
    resample,
    sample_dataset,
    validate_spec,
)
from .classifiers import (
    ClassifierConfig,
    FusionModel,
    LinearModel,
    OneClassModel,
    decision_score,
    decision_scores,
    fit_gamma_product,
    llr_decide,
    llr_score,
    load_model,
    save_model,
    train_classifier,
    train_linear_svm,
    train_logistic_regression,
    train_one_class_svm,
)
from .attacks import (
    AttackBudget,
    AttackScenario,
    Capability,
    Influence,
    Knowledge,
    PoisonSpec,
    Strategy,
    StrengthParam,
    Trait,
    Violation,
    build_spoof_pool,
    check_scenario_consistency,
    gwi_bwo_attack,
    gwi_bwo_scenario,
    poison_scenario,
    spoof_scenario,
    spoof_substitution,
)
from .evaluation import (
    Auc10,
    EvaluationReport,
    FarAtGar,
    RocCurve,
    SecurityCurve,
    auc10,
    far_at_gar,
    roc,
    security_sweep,
)
from .ingestion import (
    Vocabulary,
    information_gain_select,
    load_scores,
    load_tabular,
    payload_histogram,
    tokenize_emails,
    vectorize,
)
from .rng import derive_rng, derive_subseed

__version__ = "0.1.0"
