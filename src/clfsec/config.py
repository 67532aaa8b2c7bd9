"""Scenario configs and report documents: every document clfsec reads.

Configs are YAML documents with five sections (data, classifier, attack,
evaluation, output) and a schema ``version`` key.  The attack section
spells out the full adversary model, so canned scenarios ship as files a
user can diff after editing.

One schema (:func:`_schema`) declares every key once, with its parser and
its default; the classifier family and the data source pick the keys of
``classifier`` and ``data.synth``.  One reader (:func:`_read`) names each
unknown key, missing required key and bad value, in every section; the
rules that tie keys together follow it, in :func:`parse_config`.

A report is the JSON document ``evaluate`` writes
(:func:`report_document`) and ``report`` reads (:func:`load_report`).  Its
keys are declared once too, in ``_REPORT``, and read by the same reader.
"""

from __future__ import annotations

import importlib.resources
import inspect
import json
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np
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
from .evaluation import Auc10, EvaluationReport, FarAtGar, Metric, RocCurve, SecurityCurve

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
    "load_report",
    "report_document",
]

SCHEMA_VERSION = 1

_FILE_SOURCES = ("dense", "emails", "scores", "payloads")
_RESAMPLING = {"chronological": Chronological, "cross_validation": CrossValidation, "bootstrap": Bootstrap}


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
    out_dir: Path


def parse_config(cfg: Mapping, base_dir: Path = Path()) -> RunConfig:
    """Parse and check a whole config, or raise :class:`ConfigError` listing every problem found.

    A relative ``data.path`` is taken from ``base_dir``.
    """
    schema = _schema(cfg)
    problems = []
    if not _is(cfg.get("version"), SCHEMA_VERSION):
        problems.append(f"config version must be {SCHEMA_VERSION}, got {cfg.get('version')!r}")
    for name, spec in schema.items():
        if isinstance(spec, Mapping) and not isinstance(cfg.get(name), Mapping):
            problems.append(f"section {name!r} is missing or not a mapping")
    if problems:
        raise ConfigError(*problems)
    values = _read(cfg, schema, "", problems)

    # the rules that tie keys together, on the sections that parsed
    data, ev = values.get("data"), values.get("evaluation")
    if data is not None and data["source"] == "emails" and data["resampling"]["method"] != "chronological":
        problems.append("email ingestion needs chronological resampling (vocabulary is fitted on the training part)")
    scenario = _scenario(values["attack"]) if "attack" in values else None
    if scenario is not None:
        family = values["classifier"]["family"] if "classifier" in values else None  # a bad classifier is reported once
        problems.extend(sweep_problems(scenario, scenario.strength.values, family))
    if scenario is not None and ev is not None:
        missing = [s for s in ev["collect_roc"] if s not in scenario.strength.values]
        if missing:
            problems.append(f"evaluation.collect_roc values {missing} are not among attack.strength.values")
    if problems:
        raise ConfigError(*problems)

    ev.pop("jobs", None)  # checked above, read by nothing
    source, resampling = data["source"], data["resampling"]
    method = _RESAMPLING[resampling["method"]]
    return RunConfig(
        doc=cfg,
        source=source,
        path=base_dir / data["path"] if source in _FILE_SOURCES else None,
        synth=data["synth"] if source in synth.SOURCES else {},
        vocab_size=data["vocab_size"],
        resampling=method(resampling["split_index"] if method is Chronological else resampling["k"]),
        classifier=_classifier(values["classifier"]),
        scenario=scenario,
        out_dir=values["output"]["directory"],
        **ev,  # metric, seed, repetitions, collect_roc
    )


def scenario_from_config(attack_section: Mapping) -> AttackScenario:
    """The scenario an attack section describes; raises :class:`ConfigError` naming every problem."""
    return _scenario(_read_section(attack_section, _ATTACK, "attack"))


def classifier_from_config(cls_section: Mapping) -> ClassifierConfig:
    return _classifier(_read_section(cls_section, _classifier_schema(cls_section), "classifier"))


def load_report(path: str | Path) -> EvaluationReport:
    """Read a report document, or raise :class:`ConfigError` listing every problem found, each naming ``path``."""
    not_a_report = f"{path} is not a clfsec report:"
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{not_a_report} cannot be read ({exc.strerror})") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{not_a_report} not JSON ({exc})") from None
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{not_a_report} must be a JSON object, got {type(doc).__name__}")
    # the format and version first, as parse_config checks the version: another document gets one problem
    problems = [f"{key} must be {want!r}, got {doc.get(key)!r}" for key, want in _REPORT_FORMAT.items() if not _is(doc.get(key), want)]
    if not problems:
        values = _read(doc, _REPORT, "", problems)
        problems.extend(_list_lengths(values.get("curve", {}), "curve", at_least=1))
    if problems:
        raise ConfigError(*(f"{not_a_report} {problem}" for problem in problems))
    values["curve"] = SecurityCurve(**values["curve"])
    return EvaluationReport(**{key: v for key, v in values.items() if key not in _REPORT_FORMAT})  # _UNREAD keys come back


def report_document(report: EvaluationReport) -> dict:
    """The JSON document of ``report``, which :func:`load_report` reads back."""
    return {
        **_REPORT_FORMAT,
        "scenario": report.scenario,
        "classifier": report.classifier,
        "metric": report.metric,
        "folds": report.folds,
        "seed": report.seed,
        "config": dict(report.config) if report.config is not None else None,
        "curve": {
            "strength_name": report.curve.strength_name,
            "strengths": list(report.curve.strengths),
            "means": list(report.curve.means),
            "stds": list(report.curve.stds),
            "k": report.curve.k,
        },
        "roc_curves": {
            name: {"fp": c.fp.tolist(), "tp": c.tp.tolist(), "thresholds": c.thresholds.tolist()}
            for name, c in report.roc_curves.items()
        },
        "started_at": report.started_at,
        "elapsed_seconds": report.elapsed_seconds,
    }


def _scenario(attack: Mapping) -> AttackScenario:
    capability, strength = dict(attack["capability"]), attack["strength"]
    values = strength["values"]  # lo and hi default to the least and the greatest
    return AttackScenario(**{
        **attack,
        "knowledge": Knowledge(**attack["knowledge"]),
        "capability": Capability(controllable=capability.pop("controllable_fraction"), **capability),
        "strategy": Strategy(**attack["strategy"]),
        "strength": StrengthParam(**{"lo": min(values, default=0.0), "hi": max(values, default=1.0), **strength}),
    })


def _classifier(section: Mapping) -> ClassifierConfig:
    """The family and the parameters as given (a trainer fills in the defaults of the rest)."""
    return ClassifierConfig(family=section["family"], params={k: v for k, v in section.items() if k != "family"})


# --- the schema: each key's parser and default, and the one reader -------------


_REQUIRED = object()  # default of a key that must be given
_OMIT = object()  # default of a key that is left out of the parsed section when it is not given


class _Field(NamedTuple):  # a key: its value parser and its default, read as if given unless a sentinel
    parse: Callable[[Any, str], Any]
    default: Any = _REQUIRED


# value parsers: (value, where) -> parsed value, or ConfigError naming ``where``


def _typed(accepts: Callable[[Any], bool], what: str, convert: Callable[[Any], Any] = lambda v: v):
    """A value parser: ``convert(value)`` for a value it ``accepts``, else a problem saying it must be ``what``."""

    def parse(value: Any, where: str) -> Any:
        if not accepts(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return convert(value)

    return parse


def _is(value: Any, want: Any) -> bool:
    """Whether ``value`` equals ``want`` and has its type: true and 1.0 are not version 1."""
    return type(value) is type(want) and value == want


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(lo: int | None = None):
    """A parser of an integer (not a boolean), at least ``lo`` when given."""
    integer = _typed(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
    at_least = _typed(lambda v: lo is None or v >= lo, f">= {lo}")
    return lambda value, where: at_least(integer(value, where), where)


def _choice(options, convert: Callable[[Any], Any] = lambda v: v):
    """A parser of one of ``options``; compared by equality, so an unhashable value is rejected, not raised on."""
    options = list(options)
    return _typed(lambda v: v in options, f"one of {', '.join(options)}", convert)


def _optional(parse: Callable[[Any, str], Any]):
    return lambda value, where: None if value is None else parse(value, where)


def _removed(value: Any, where: str) -> None:
    raise ConfigError(f"{where} is no longer supported; remove it")


_UNREAD = _Field(lambda value, where: value, _OMIT)  # accepted but not read
_REMOVED = _Field(_removed, _OMIT)  # a removed key: silently ignoring it would change the curve

_flag = _typed(lambda v: isinstance(v, bool), "true or false")
_string = _typed(lambda v: isinstance(v, str), "a string")
_file_name = _typed(  # a name that output file names are built from
    lambda v: isinstance(v, str) and "/" not in v and "\0" not in v, "a string without '/' or NUL"
)
_path = _typed(lambda v: isinstance(v, str), "a path string", Path)
_mapping = _typed(lambda v: isinstance(v, Mapping), "a mapping")
_number = _typed(_is_number, "a number", float)
_raw_number = _typed(_is_number, "a number")  # the number as given: 1 stays 1
_grid = _typed(lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_number, v)), "a non-empty list of numbers")
_numbers = _typed(
    lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers", lambda v: tuple(map(float, v))
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


_FAR_AT_GAR = {"far_at_gar": _Field(_typed(lambda v: _is_number(v) and 0.0 < v <= 1.0, "a number in (0, 1]", float))}


def _metric(value: Any, where: str) -> Metric:
    if value == "auc10":
        return Auc10()
    if isinstance(value, Mapping) and "far_at_gar" in value:
        return FarAtGar(gar=_read_section(value, _FAR_AT_GAR, where)["far_at_gar"])
    raise ConfigError(f"unknown metric {value!r}")


def _fraction_map(value: Any, where: str, parser: Callable = _fraction) -> dict[tuple[str, Label], Any]:
    """``{phase: {label: fraction}}`` keyed by (phase, :meth:`Label.parse` of the label); null is empty."""
    if value is None:
        return {}
    out: dict[tuple[str, Label], Any] = {}
    for phase, by_label in _mapping(value, where).items():
        if phase not in ("train", "test"):
            raise ConfigError(f"{where} has unknown phase {phase!r}; known: train, test")
        for label, fraction in _mapping(by_label or {}, f"{where}.{phase}").items():
            try:
                key = (phase, Label.parse(label))
            except ValueError as exc:
                raise ConfigError(f"{where}.{phase}: {exc}") from None
            if key in out:
                raise ConfigError(f"{where}.{phase} names label {key[1].value} twice")
            out[key] = parser(fraction, f"{where}.{phase}.{label}")
    return out


_ROC = dict.fromkeys(("fp", "tp", "thresholds"), _Field(_numbers))


def _roc_curves(value: Any, where: str) -> dict[str, RocCurve]:
    """``{name: {fp, tp, thresholds}}``: one ROC per name, its three lists of equal lengths.

    Each list holds at least the ROC's two end points.
    """
    docs, problems = _mapping(value, where), []
    rocs = _read(docs, dict.fromkeys(docs, _ROC), where, problems)
    problems.extend(p for name, roc in rocs.items() for p in _list_lengths(roc, f"{where}.{name}", at_least=2))
    if problems:
        raise ConfigError(*problems)
    return {name: RocCurve(**{key: np.array(v) for key, v in roc.items()}) for name, roc in rocs.items()}


def _list_lengths(section: Mapping, where: str, at_least: int) -> list[str]:
    """A problem naming the lists of a read ``section`` (its tuple values) when their lengths differ or fall below ``at_least``."""
    lengths = {f"{where}.{key}": len(v) for key, v in section.items() if isinstance(v, tuple)}
    names, got = ", ".join(lengths), ", ".join(map(str, lengths.values()))
    if len(set(lengths.values())) > 1:
        return [f"{names} must have equal lengths, got {got}"]
    if min(lengths.values(), default=at_least) < at_least:
        return [f"{names} must have lengths of at least {at_least}, got {got}"]
    return []


_ATTACK = {
    "name": _Field(_file_name),
    "influence": _Field(_choice([m.value for m in Influence], Influence)),
    "violation": _Field(_choice([m.value for m in Violation], Violation)),
    "specificity": _Field(_specificity, 0.0),
    "knowledge": {f.name: _Field(_flag, False) for f in fields(Knowledge)},
    "capability": {
        "affects_training": _Field(_flag),
        "affects_testing": _Field(_flag),
        "prior_change_allowed": _Field(_flag, False),
        "controllable_fraction": _Field(partial(_fraction_map, parser=_number), {}),
        "feature_constraints": _Field(_optional(_string), None),
    },
    "strategy": {
        "generator": _Field(_string),
        "attacked_fraction": _Field(_fraction_map, {}),
        "prior_override": _Field(_optional(_fraction), None),
    },
    "strength": {
        "name": _Field(_string),
        "values": _Field(_numbers, []),
        "lo": _Field(_number, _OMIT),  # the least value when left out
        "hi": _Field(_number, _OMIT),  # the greatest value when left out
    },
}


def _read(doc: Mapping, schema: Mapping, where: str, problems: list[str]) -> dict:
    """The value of each key ``schema`` declares, parsed from ``doc``; appends each problem found to ``problems``.

    A nested mapping in ``schema`` is a section (absent: empty).  A key or section with a problem is left out.
    """
    unknown = [key for key in doc if key not in schema]
    if unknown:
        known = ", ".join(key for key, spec in schema.items() if spec is not _REMOVED)
        problems.append(f"unknown {where or 'top-level'} keys {unknown}; known: {known}")
    values = {}
    for key, spec in schema.items():
        name = f"{where}.{key}" if where else key
        found = len(problems)
        if isinstance(spec, Mapping):
            value = doc.get(key, {})
            if isinstance(value, Mapping):
                value = _read(value, spec, name, problems)
            else:
                problems.append(f"{name} must be a mapping, got {value!r}")
        elif key not in doc and spec.default is _OMIT:
            continue
        elif key not in doc and spec.default is _REQUIRED:
            problems.append(f"{name} is required")
        else:
            try:
                value = spec.parse(doc.get(key, spec.default), name)
            except ConfigError as exc:
                problems.extend(exc.problems)
        if len(problems) == found:
            values[key] = value
    return values


def _read_section(doc: Mapping, schema: Mapping, where: str) -> dict:
    problems: list[str] = []
    values = _read(doc, schema, where, problems)
    if problems:
        raise ConfigError(*problems)
    return values


def _get(doc: Any, key: str) -> Any:
    return doc.get(key) if isinstance(doc, Mapping) else None


def _schema(cfg: Mapping) -> dict:
    """Every key ``cfg`` may hold; a nested mapping is a section, and each section is required."""
    return {
        "version": _UNREAD,  # checked before the sections are read
        "data": _data_schema(_get(cfg, "data")),
        "classifier": _classifier_schema(_get(cfg, "classifier")),
        "attack": _ATTACK,
        "evaluation": {
            "metric": _Field(_metric, "auc10"),
            "seed": _Field(_integer(), 0),
            "repetitions": _Field(_integer(1), 1),
            "jobs": _Field(_integer(1), _OMIT),  # checked, then dropped: work items run one at a time
            "collect_roc": _Field(_numbers, []),
            "scale_train_with_prior": _REMOVED,
        },
        "output": {"directory": _Field(_path, "out"), "formats": _UNREAD},
    }


_REPORT_FORMAT = {"format": "clfsec-report", "version": 1}  # checked before the other keys are read
_REPORT = {  # a report document: the fields of EvaluationReport, with the curve's as a section
    **dict.fromkeys(_REPORT_FORMAT, _UNREAD),
    "scenario": _Field(_string),
    "classifier": _Field(_string),
    "metric": _Field(_string),
    "folds": _Field(_integer()),
    "seed": _Field(_optional(_integer()), None),
    "config": _Field(_optional(_mapping), None),
    "curve": {
        "strength_name": _Field(_string),
        **dict.fromkeys(("strengths", "means", "stds"), _Field(_numbers)),
        "k": _Field(_integer()),
    },
    "roc_curves": _Field(_roc_curves, {}),
    "started_at": _Field(_string, ""),
    "elapsed_seconds": _Field(_number, 0.0),
}


def _data_schema(section: Any) -> dict:
    """The data keys: the source picks whether ``path`` or ``synth`` is read, the method ``k`` or ``split_index``.

    A key the source or method does not read is unknown; with an unknown
    source or method, whose own problem is reported, neither of its keys is read.
    """
    source = _get(section, "source")
    method = _get(_get(section, "resampling"), "method")
    generator = next((g for name, g in synth.SOURCES.items() if name == source), None)
    # a missing source, path or split_index reads as null, which its parser rejects
    if source in _FILE_SOURCES:
        origin = {"path": _Field(_path, None)}
    elif generator is not None:
        origin = {"synth": {
            key: _Field(_integer(), 0) if key == "seed" else _Field(_integer(0), _OMIT)
            for key in inspect.signature(generator).parameters
        }}
    else:
        origin = {"path": _UNREAD, "synth": _UNREAD}
    if method == "chronological":
        split = {"split_index": _Field(_integer(1), None)}
    elif method in tuple(_RESAMPLING):  # by equality: an unhashable method is reported, not raised on
        split = {"k": _Field(_integer(2 if method == "cross_validation" else 1), 5)}
    else:
        split = {"k": _UNREAD, "split_index": _UNREAD}
    return {
        "source": _Field(_choice((*_FILE_SOURCES, *synth.SOURCES)), None),
        **origin,
        "vocab_size": _Field(_integer(1), 1000),
        "resampling": {"method": _Field(_choice(_RESAMPLING)), **split},
        "train_size": _REMOVED,
        "test_size": _REMOVED,
    }


def _classifier_schema(section: Any) -> dict:
    """``family`` and its keys, which keep the value given; the keys of an unknown family are not read."""
    family = _get(section, "family")
    params = next((p for name, p in CLASSIFIER_PARAMS.items() if name == family), None)
    schema = {"family": _Field(_choice(CLASSIFIER_PARAMS), None)}
    if params is None:
        return {**dict.fromkeys(section if isinstance(section, Mapping) else (), _UNREAD), **schema}
    for key, default in params.items():  # the default's type picks the parser; a default of None: required
        parse = _grid if isinstance(default, tuple) else _integer() if isinstance(default, int) else _raw_number
        schema[key] = _Field(parse, _REQUIRED if default is None else _OMIT)
    return schema
