"""The README documents what the code accepts."""

import argparse
import re
from collections.abc import Mapping
from pathlib import Path

import pytest

from clfsec import synth
from clfsec.classifiers import CLASSIFIER_PARAMS
from clfsec.cli import build_parser
from clfsec.config import _FILE_SOURCES, _REMOVED, _REPORT, _RESAMPLING, _schema, ConfigError, canned_config, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_data_sources() -> set[str]:
    """The names in the ``data.source`` row of README's key table (dotted names such as ``data.path`` are not sources)."""
    text = README.read_text(encoding="utf-8")
    row = re.search(r"^\| `data\.source` \|(.*)$", text, re.M).group(1)
    return set(re.findall(r"`([a-z][a-z-]*)`", row))


def _keys(schema: Mapping, where: str = "") -> set[str]:
    """The dotted name of every key ``schema`` declares outside a section (sections are named by their keys)."""
    names = set()
    for key, spec in schema.items():
        name = f"{where}.{key}" if where else key
        if isinstance(spec, Mapping):
            names |= _keys(spec, name)
        elif spec is not _REMOVED:
            names.add(name)
    return names


def _accepted_keys() -> set[str]:
    """The dotted name of every key ``parse_config`` accepts outside a section.

    Taken over every source, resampling method and classifier family, since these choose the keys read.
    """
    return {
        name
        for source in (*_FILE_SOURCES, *synth.SOURCES)
        for method in _RESAMPLING
        for family in CLASSIFIER_PARAMS
        for name in _keys(
            _schema({"data": {"source": source, "resampling": {"method": method}}, "classifier": {"family": family}})
        )
    }


def test_readme_lists_every_data_source_parse_config_accepts():
    assert _readme_data_sources() == set(_FILE_SOURCES) | set(synth.SOURCES)


def test_readme_names_every_key_parse_config_accepts():
    text = README.read_text(encoding="utf-8")
    assert {"version", "data.resampling.k", "classifier.epochs", "data.synth.n_train", "output.formats"} <= _accepted_keys()
    assert sorted(name for name in _accepted_keys() if f"`{name}`" not in text) == []


def test_readme_names_every_report_key():
    text = README.read_text(encoding="utf-8")
    assert {"format", "config", "curve.means", "roc_curves", "elapsed_seconds"} <= _keys(_REPORT)
    assert sorted(name for name in _keys(_REPORT) if f"`{name}`" not in text) == []


def _cli_options() -> set[str]:
    """Every option string of every ``clfsec`` subcommand, but argparse's own ``-h``/``--help``."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


def test_readme_names_every_cli_flag():
    text = README.read_text(encoding="utf-8")
    assert {"--config", "--scenario", "--seed", "--out", "--jobs"} <= _cli_options()
    # as a code span of its own, or one that goes on with the flag's value: `--seed <u64>`
    assert sorted(o for o in _cli_options() if not re.search(rf"`{re.escape(o)}[` ]", text)) == []


def test_removed_sparse_source_rejected():
    cfg = canned_config("ids_poison")
    cfg["data"] = {"source": "sparse", "path": "x", "resampling": cfg["data"]["resampling"]}
    with pytest.raises(ConfigError, match="data.source must be one of .*, got 'sparse'"):
        parse_config(cfg)
