"""Scenario configuration files.

Configs are YAML documents with five sections (data, classifier, attack,
evaluation, output) and a schema ``version`` key.  The attack section
spells out the full adversary model, so canned scenarios ship as files a
user can diff after editing.
"""

from __future__ import annotations

import enum
import importlib.resources
import inspect
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from .attacks import (
    STRENGTH,
    AttackScenario,
    Capability,
    Influence,
    Knowledge,
    Strategy,
    StrengthParam,
    Violation,
    sweep_problems,
)
from . import synth
from .classifiers import CLASSIFIER_PARAMS, ClassifierConfig
from .data_model import Bootstrap, Chronological, CrossValidation, Label, ResampleMethod
from .evaluation import Auc10, FarAtGar, Metric

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "load_config",
    "canned_config",
    "canned_scenario_names",
    "RunConfig",
    "parse_config",
    "scenario_from_config",
    "classifier_from_config",
    "metric_from_config",
    "resampling_from_config",
]

SCHEMA_VERSION = 1

_SECTIONS = ("data", "classifier", "attack", "evaluation", "output")
_FILE_SOURCES = ("dense", "emails", "scores", "payloads")

# the keys each mapping may hold (classifier and data.synth keys come from
# CLASSIFIER_PARAMS and synth.SOURCES); output.formats is accepted but not read
_KNOWN_KEYS = {
    (): ("version", *_SECTIONS),
    ("data",): ("source", "path", "synth", "vocab_size", "resampling"),
    ("data", "resampling"): ("method", "k", "split_index"),
    ("attack",): ("name", "influence", "violation", "specificity", "knowledge", "capability", "strategy", "strength"),
    ("attack", "knowledge"): ("training_data", "feature_set", "algorithm", "parameters", "feedback"),
    ("attack", "capability"): (
        "affects_training", "affects_testing", "prior_change_allowed", "controllable_fraction", "feature_constraints",
    ),
    ("attack", "strategy"): ("generator", "attacked_fraction", "prior_override"),
    ("attack", "strength"): ("name", "values", "lo", "hi"),
    ("evaluation",): ("metric", "seed", "repetitions", "jobs", "collect_roc"),
    ("output",): ("directory", "formats"),
}

# keys older configs may still carry; silently ignoring them would change the curve
_REMOVED_KEYS = (("data", "train_size"), ("data", "test_size"), ("evaluation", "scale_train_with_prior"))


class ConfigError(ValueError):
    """Configuration is malformed or inconsistent (CLI exit code 2).

    ``problems`` lists each problem found; the message joins them.
    """

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


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
    return yaml.safe_load(resource.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class RunConfig:
    """One config, parsed and checked: every value ``prepare`` and ``evaluate`` read.

    ``doc`` is the config as given, with the command-line flags applied;
    reports and manifests record it.
    """

    doc: Mapping
    source: str
    path: Path | None  # file-backed sources only
    synth: Mapping[str, int]  # keyword arguments of the synthetic source's generator
    vocab_size: int
    resampling: ResampleMethod
    classifier: ClassifierConfig
    scenario: AttackScenario
    metric: Metric
    collect_roc: tuple[float, ...]
    seed: int
    repetitions: int
    jobs: int
    out_dir: Path


def parse_config(cfg: Mapping, base_dir: Path = Path()) -> RunConfig:
    """Parse and check a whole config; a relative ``data.path`` is taken from ``base_dir``.

    Raises :class:`ConfigError` listing every problem found.
    """
    problems = []
    if cfg.get("version") != SCHEMA_VERSION:
        problems.append(f"config version must be {SCHEMA_VERSION}, got {cfg.get('version')!r}")
    for section in _SECTIONS:
        if not isinstance(cfg.get(section), Mapping):
            problems.append(f"section {section!r} is missing or not a mapping")
    if problems:
        raise ConfigError(*problems)
    data, attack, ev = cfg["data"], cfg["attack"], cfg["evaluation"]
    problems.extend(_key_problems(cfg))
    source = data.get("source")
    fields: dict[str, Any] = {"doc": cfg, "source": source, "path": None, "synth": {}}

    def parse(name: str, parser: Callable, *args) -> None:
        try:
            fields[name] = parser(*args)
        except ConfigError as exc:
            problems.extend(exc.problems)

    if source in _FILE_SOURCES:
        parse("path", _path, data.get("path"), "data.path", base_dir)
    elif source in synth.SOURCES:
        parse("synth", _synth_kwargs, source, data.get("synth", {}))
    else:
        problems.append(f"unknown data.source {source!r}")
    parse("vocab_size", _integer, data.get("vocab_size", 1000), "data.vocab_size", 1)
    parse("resampling", resampling_from_config, data)
    parse("classifier", classifier_from_config, cfg["classifier"])
    parse("scenario", scenario_from_config, attack)
    strengths = fields["scenario"].strength.values if "scenario" in fields else None  # None: they did not parse
    if strengths is not None:
        family = fields["classifier"].family if "classifier" in fields else None  # a bad classifier is reported once
        problems.extend(sweep_problems(fields["scenario"], strengths, family))
    parse("metric", metric_from_config, ev)
    parse("seed", _integer, ev.get("seed", 0), "evaluation.seed")
    parse("repetitions", _integer, ev.get("repetitions", 1), "evaluation.repetitions", 1)
    parse("jobs", _integer, ev.get("jobs", 1), "evaluation.jobs", 1)
    try:
        fields["collect_roc"] = tuple(float(s) for s in ev.get("collect_roc") or [])
    except (TypeError, ValueError):
        problems.append("evaluation.collect_roc must be a numeric list")
    else:
        missing = [s for s in fields["collect_roc"] if strengths is not None and s not in strengths]
        if missing:
            problems.append(f"evaluation.collect_roc values {missing} are not among attack.strength.values")
    parse("out_dir", _path, cfg["output"].get("directory", "out"), "output.directory")
    if problems:
        raise ConfigError(*problems)
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def _key_problems(cfg: Mapping) -> list[str]:
    """Removed and unknown keys, per mapping of :data:`_KNOWN_KEYS`."""
    problems = []
    for path, known in _KNOWN_KEYS.items():
        section = cfg
        for part in path:
            section = section.get(part) if isinstance(section, Mapping) else None
        if not isinstance(section, Mapping):
            continue
        where = ".".join(path) or "top-level"
        removed = [k for k in section if (*path, k) in _REMOVED_KEYS]
        problems.extend(f"{where}.{k} is no longer supported; remove it" for k in removed)
        unknown = [k for k in section if k not in known and k not in removed]
        if unknown:
            problems.append(f"unknown {where} keys {unknown}; known: {', '.join(known)}")
    return problems


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any, name: str, lo: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value!r}")
    return value


def _path(value: Any, name: str, base_dir: Path = Path()) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return base_dir / value


def _synth_kwargs(source: str, section: Any) -> dict[str, int]:
    """Keyword arguments for a synthetic source's generator (seed 0 unless given)."""
    if not isinstance(section, Mapping):
        raise ConfigError(f"data.synth must be a mapping, got {section!r}")
    known = inspect.signature(synth.SOURCES[source]).parameters
    kwargs = {"seed": 0}
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"data.synth.{key} is not a {source} parameter; known: {', '.join(known)}")
        kwargs[key] = _integer(value, f"data.synth.{key}", None if key == "seed" else 0)
    return kwargs


def resampling_from_config(data_section: Mapping) -> ResampleMethod:
    rs = data_section.get("resampling")
    if not isinstance(rs, Mapping) or "method" not in rs:
        raise ConfigError("data.resampling.method is required")
    method = rs["method"]
    if data_section.get("source") == "emails" and method != "chronological":
        raise ConfigError("email ingestion needs chronological resampling (vocabulary is fitted on the training part)")
    if method == "chronological":
        return Chronological(_integer(rs.get("split_index"), "data.resampling.split_index", 1))
    if method == "cross_validation":
        return CrossValidation(_integer(rs.get("k", 5), "data.resampling.k", 2))
    if method == "bootstrap":
        return Bootstrap(_integer(rs.get("k", 5), "data.resampling.k", 1))
    raise ConfigError(f"unknown resampling method {method!r}")


def classifier_from_config(cls_section: Mapping) -> ClassifierConfig:
    family = cls_section.get("family")
    if family not in CLASSIFIER_PARAMS:
        raise ConfigError(f"classifier.family must be one of {', '.join(CLASSIFIER_PARAMS)}, got {family!r}")
    defaults = CLASSIFIER_PARAMS[family]
    params = {k: v for k, v in cls_section.items() if k != "family"}
    problems = [f"{family} needs a {k} parameter" for k, v in defaults.items() if v is None and k not in params]
    for key, value in params.items():
        if key not in defaults:
            problems.append(f"classifier.{key} is not a {family} parameter; known: {', '.join(defaults)}")
        elif key == "c_grid":
            if not (isinstance(value, list) and value and all(_is_number(c) for c in value)):
                problems.append(f"classifier.c_grid must be a non-empty list of numbers, got {value!r}")
        elif isinstance(defaults[key], int) and (isinstance(value, bool) or not isinstance(value, int)):
            problems.append(f"classifier.{key} must be an integer, got {value!r}")
        elif not _is_number(value):
            problems.append(f"classifier.{key} must be a number, got {value!r}")
    if problems:
        raise ConfigError(*problems)
    return ClassifierConfig(family=family, params=params)


def metric_from_config(eval_section: Mapping) -> Metric:
    metric = eval_section.get("metric", "auc10")
    if metric == "auc10":
        return Auc10()
    if isinstance(metric, Mapping) and "far_at_gar" in metric:
        gar = metric["far_at_gar"]
        if not (_is_number(gar) and 0.0 < gar <= 1.0):
            raise ConfigError(f"evaluation.metric.far_at_gar must be a number in (0, 1], got {gar!r}")
        return FarAtGar(gar=float(gar))
    raise ConfigError(f"unknown metric {metric!r}")


_REQUIRED = object()  # default of a key that must be present


def _typed(accepts: Callable[[Any], bool], what: str, convert: Callable[[Any], Any] = lambda v: v):
    """A value parser: ``convert(value)`` for a value it ``accepts``, else a problem saying it must be ``what``."""

    def parse(value: Any, where: str) -> Any:
        if not accepts(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return convert(value)

    return parse


def _optional(parse: Callable[[Any, str], Any]):
    return lambda value, where: None if value is None else parse(value, where)


def _member(kind: type[enum.Enum]):
    values = [m.value for m in kind]
    return _typed(lambda v: v in values, f"one of {', '.join(values)}", kind)


_flag = _typed(lambda v: isinstance(v, bool), "true or false")
_string = _typed(lambda v: isinstance(v, str), "a string")
_number = _typed(_is_number, "a number", float)
_numbers = _typed(
    lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers", lambda v: list(map(float, v))
)
_fraction = _typed(
    lambda v: v == "strength" or _is_number(v),
    "a number or 'strength'",
    lambda v: STRENGTH if v == "strength" else float(v),
)
_specificity = _typed(
    lambda v: v in ("indiscriminate", "targeted") or _is_number(v),
    "targeted, indiscriminate or a number",
    lambda v: {"indiscriminate": 0.0, "targeted": 1.0}[v] if isinstance(v, str) else float(v),
)


def _fraction_map(value: Any, where: str, parser: Callable = _fraction) -> dict[tuple[str, Label], Any]:
    """``{phase: {label: fraction}}`` keyed by (phase, :meth:`Label.parse` of the label); null is empty."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    out: dict[tuple[str, Label], Any] = {}
    for phase, by_label in value.items():
        if phase not in ("train", "test"):
            raise ConfigError(f"{where} has unknown phase {phase!r}; known: train, test")
        if not isinstance(by_label or {}, Mapping):
            raise ConfigError(f"{where}.{phase} must be a mapping, got {by_label!r}")
        for label, fraction in (by_label or {}).items():
            try:
                key = (phase, Label.parse(label))
            except ValueError as exc:
                raise ConfigError(f"{where}.{phase}: {exc}") from None
            if key in out:
                raise ConfigError(f"{where}.{phase} names label {key[1].value} twice")
            out[key] = parser(fraction, f"{where}.{phase}.{label}")
    return out


def scenario_from_config(attack_section: Mapping) -> AttackScenario:
    """The scenario an attack section describes.

    Raises :class:`ConfigError` naming every missing key and every value of the wrong type.
    """
    problems: list[str] = []

    def get(where: str, parser: Callable[[Any, str], Any], default: Any = _REQUIRED) -> Any:
        name, _, key = where.rpartition(".")
        section = attack_section.get(name, {}) if name else attack_section
        if not isinstance(section, Mapping):
            return None  # reported once, by the section check below
        if key not in section:
            if default is _REQUIRED:
                problems.append(f"attack.{where} is required")
                return None
            return default
        try:
            return parser(section[key], f"attack.{where}")
        except ConfigError as exc:
            problems.extend(exc.problems)
            return None

    for name in ("knowledge", "capability", "strategy", "strength"):
        if not isinstance(attack_section.get(name, {}), Mapping):
            problems.append(f"attack.{name} must be a mapping, got {attack_section[name]!r}")
    values = get("strength.values", _numbers, []) or []
    scenario = AttackScenario(
        name=get("name", _string),
        influence=get("influence", _member(Influence)),
        violation=get("violation", _member(Violation)),
        specificity=get("specificity", _specificity, 0.0),
        knowledge=Knowledge(**{k: get(f"knowledge.{k}", _flag, False) for k in _KNOWN_KEYS[("attack", "knowledge")]}),
        capability=Capability(
            affects_training=get("capability.affects_training", _flag),
            affects_testing=get("capability.affects_testing", _flag),
            prior_change_allowed=get("capability.prior_change_allowed", _flag, False),
            controllable=get("capability.controllable_fraction", partial(_fraction_map, parser=_number), {}),
            feature_constraints=get("capability.feature_constraints", _optional(_string), None),
        ),
        strategy=Strategy(
            generator=get("strategy.generator", _string),
            attacked_fraction=get("strategy.attacked_fraction", _fraction_map, {}),
            prior_override=get("strategy.prior_override", _optional(_fraction), None),
        ),
        strength=StrengthParam(
            name=get("strength.name", _string),
            lo=get("strength.lo", _number, min(values, default=0.0)),
            hi=get("strength.hi", _number, max(values, default=1.0)),
            values=tuple(values),
        ),
    )
    if problems:
        raise ConfigError(*problems)
    return scenario
