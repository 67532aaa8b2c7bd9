"""Scenario configuration files.

Configs are YAML documents with five sections (data, classifier, attack,
evaluation, output) and a schema ``version`` key.  The attack section
spells out the full adversary model, so canned scenarios ship as files a
user can diff after editing.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from .attacks import (
    STRENGTH,
    AttackScenario,
    Capability,
    GwiBwoGenerator,
    Influence,
    Knowledge,
    PoisonGenerator,
    SpoofGenerator,
    Strategy,
    StrengthParam,
    Trait,
    Violation,
)
from .classifiers import ClassifierConfig
from .data_model import Bootstrap, Chronological, CrossValidation, Label
from .evaluation import Auc10, FarAtGar, _sweep_problems

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "load_config",
    "canned_config",
    "canned_scenario_names",
    "validate_config",
    "scenario_from_config",
    "classifier_from_config",
    "metric_from_config",
    "resampling_from_config",
]

SCHEMA_VERSION = 1

_GENERATORS = {
    "gwi_bwo": GwiBwoGenerator,
    "spoof_fingerprint": lambda: SpoofGenerator(Trait.FINGERPRINT),
    "spoof_face": lambda: SpoofGenerator(Trait.FACE),
    "poison_injection": PoisonGenerator,
}

_SECTIONS = ("data", "classifier", "attack", "evaluation", "output")

# keys older configs may still carry; silently ignoring them would change the curve
_REMOVED_KEYS = (("data", "train_size"), ("data", "test_size"), ("evaluation", "scale_train_with_prior"))


class ConfigError(ValueError):
    """Configuration is malformed or inconsistent (CLI exit code 2)."""


def load_config(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return doc


def canned_scenario_names() -> list[str]:
    root = importlib.resources.files("clfsec") / "configs"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def canned_config(name: str) -> dict:
    resource = importlib.resources.files("clfsec") / "configs" / f"{name}.yaml"
    if not resource.is_file():
        raise ConfigError(
            f"unknown canned scenario {name!r}; available: {', '.join(canned_scenario_names())}"
        )
    doc = yaml.safe_load(resource.read_text(encoding="utf-8"))
    return doc


def validate_config(cfg: Mapping) -> list[str]:
    """Schema-level checks; returns human-readable problems."""
    problems = []
    if cfg.get("version") != SCHEMA_VERSION:
        problems.append(f"config version must be {SCHEMA_VERSION}, got {cfg.get('version')!r}")
    for section in _SECTIONS:
        if section not in cfg:
            problems.append(f"missing section {section!r}")
    if problems:
        return problems
    for section, key in _REMOVED_KEYS:
        if key in cfg[section]:
            problems.append(f"{section}.{key} is no longer supported; remove it")
    try:
        resampling_from_config(cfg["data"])
    except ConfigError as exc:
        problems.append(str(exc))
    try:
        classifier_from_config(cfg["classifier"])
    except ConfigError as exc:
        problems.append(str(exc))
    try:
        scenario = scenario_from_config(cfg["attack"])
    except ConfigError as exc:
        scenario = None
        problems.append(str(exc))
    try:
        metric_from_config(cfg["evaluation"])
    except ConfigError as exc:
        problems.append(str(exc))
    source = cfg["data"].get("source")
    known_sources = {
        "dense", "sparse", "emails", "scores", "payloads",
        "synthetic-spam", "synthetic-scores", "synthetic-ids",
    }
    if source not in known_sources:
        problems.append(f"unknown data.source {source!r}")
    try:
        strengths = [float(s) for s in cfg["attack"].get("strength", {}).get("values") or []]
    except (TypeError, ValueError):
        strengths = []
    if not strengths or 0.0 not in strengths:
        problems.append("attack.strength.values must be a numeric list including 0")
    if scenario is not None:
        problems.extend(_sweep_problems(scenario, strengths))
    try:
        roc_strengths = [float(s) for s in cfg["evaluation"].get("collect_roc") or []]
    except (TypeError, ValueError):
        problems.append("evaluation.collect_roc must be a numeric list")
    else:
        missing = [s for s in roc_strengths if s not in strengths]
        if missing:
            problems.append(f"evaluation.collect_roc values {missing} are not among attack.strength.values")
    return problems


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def resampling_from_config(data_section: Mapping):
    rs = data_section.get("resampling")
    if not isinstance(rs, Mapping) or "method" not in rs:
        raise ConfigError("data.resampling.method is required")
    method = rs["method"]
    if method == "chronological":
        if "split_index" not in rs:
            raise ConfigError("chronological resampling needs split_index")
        return Chronological(int(rs["split_index"]))
    if method == "cross_validation":
        return CrossValidation(int(rs.get("k", 5)))
    if method == "bootstrap":
        return Bootstrap(int(rs.get("k", 5)))
    raise ConfigError(f"unknown resampling method {method!r}")


def classifier_from_config(cls_section: Mapping) -> ClassifierConfig:
    if "family" not in cls_section:
        raise ConfigError("classifier.family is required")
    family = cls_section["family"]
    known = {"linear_svm", "logistic_regression", "one_class_svm", "gamma_fusion"}
    if family not in known:
        raise ConfigError(f"unknown classifier family {family!r}")
    params = {k: v for k, v in cls_section.items() if k != "family"}
    if family == "one_class_svm" and "gamma" not in params:
        raise ConfigError("one_class_svm needs a gamma parameter")
    return ClassifierConfig(family=family, params=params)


def metric_from_config(eval_section: Mapping):
    metric = eval_section.get("metric", "auc10")
    if metric == "auc10":
        return Auc10()
    if isinstance(metric, Mapping) and "far_at_gar" in metric:
        return FarAtGar(gar=float(metric["far_at_gar"]))
    raise ConfigError(f"unknown metric {metric!r}")


def _fraction(value: Any) -> Any:
    if value == "strength":
        return STRENGTH
    return float(value)


def _parse_specificity(value: Any) -> float:
    if isinstance(value, str):
        table = {"indiscriminate": 0.0, "targeted": 1.0}
        if value not in table:
            raise ConfigError(f"specificity must be targeted/indiscriminate or a number, got {value!r}")
        return table[value]
    return float(value)


def _fraction_map(section: Mapping | None) -> dict[tuple[str, Label], Any]:
    out: dict[tuple[str, Label], Any] = {}
    for phase, by_label in (section or {}).items():
        if phase not in ("train", "test"):
            raise ConfigError(f"unknown phase {phase!r} in fraction map")
        for lab_key, value in (by_label or {}).items():
            out[(phase, Label.from_str(str(lab_key)))] = _fraction(value)
    return out


def scenario_from_config(attack_section: Mapping) -> AttackScenario:
    try:
        name = attack_section["name"]
        influence = Influence(attack_section["influence"])
        violation = Violation(attack_section["violation"])
        specificity = _parse_specificity(attack_section.get("specificity", "indiscriminate"))
        kn = attack_section.get("knowledge", {})
        knowledge = Knowledge(
            training_data=bool(kn.get("training_data", False)),
            feature_set=bool(kn.get("feature_set", False)),
            algorithm=bool(kn.get("algorithm", False)),
            parameters=bool(kn.get("parameters", False)),
            feedback=bool(kn.get("feedback", False)),
        )
        cap = attack_section["capability"]
        controllable = {
            k: float(v) for k, v in _fraction_map(cap.get("controllable_fraction")).items()
        }
        capability = Capability(
            affects_training=bool(cap["affects_training"]),
            affects_testing=bool(cap["affects_testing"]),
            prior_change_allowed=bool(cap.get("prior_change_allowed", False)),
            controllable=controllable,
            feature_constraints=cap.get("feature_constraints"),
        )
        strat = attack_section["strategy"]
        gen_name = strat["generator"]
        if gen_name not in _GENERATORS:
            raise ConfigError(
                f"unknown generator {gen_name!r}; available: {', '.join(sorted(_GENERATORS))}"
            )
        prior_override = strat.get("prior_override")
        if prior_override is not None:
            prior_override = _fraction(prior_override)
        strategy = Strategy(
            generator=_GENERATORS[gen_name](),
            attacked_fraction=_fraction_map(strat.get("attacked_fraction")),
            prior_override=prior_override,
        )
        st = attack_section["strength"]
        values = [float(v) for v in st.get("values", [])]
        strength = StrengthParam(
            name=st["name"],
            lo=float(st.get("lo", min(values) if values else 0.0)),
            hi=float(st.get("hi", max(values) if values else 1.0)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad attack section: {exc!r}") from exc
    return AttackScenario(
        name=name,
        influence=influence,
        violation=violation,
        specificity=specificity,
        knowledge=knowledge,
        capability=capability,
        strategy=strategy,
        strength=strength,
    )
