"""Empirical security evaluation of binary pattern classifiers under attack.

The library models attack scenarios against two-class (legitimate vs
malicious) classifiers, draws attacked training/testing sets from a
factorized generative data model, trains classifiers from scratch, and
measures how ROC-based metrics degrade as attack strength grows.

The submodules (``clfsec.data_model``, ``clfsec.classifiers``,
``clfsec.attacks``, ``clfsec.evaluation``, ...) are the API; the package
re-exports only the data-model basics and the classifier config.
"""

from .data_model import (
    AttackFlag,
    Dataset,
    DiagonalGaussian,
    DistributionSpec,
    Label,
    resample,
    sample_dataset,
    validate_spec,
)
from .classifiers import ClassifierConfig

__version__ = "0.1.0"
