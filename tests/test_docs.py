"""The README documents what the code accepts."""

import re
from pathlib import Path

import pytest

from clfsec import synth
from clfsec.config import ConfigError, _FILE_SOURCES, canned_config, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_data_sources() -> set[str]:
    """The names in README's ``data.source`` bullet (dotted names such as ``data.path`` are not sources)."""
    text = README.read_text(encoding="utf-8")
    bullet = re.search(r"^- `data\.source` is one of (.*?)^- ", text, re.S | re.M).group(1)
    return set(re.findall(r"`([a-z][a-z-]*)`", bullet))


def test_readme_lists_every_data_source_parse_config_accepts():
    assert _readme_data_sources() == set(_FILE_SOURCES) | set(synth.SOURCES)


def test_removed_sparse_source_rejected():
    cfg = canned_config("ids_poison")
    cfg["data"] = {"source": "sparse", "path": "x", "resampling": cfg["data"]["resampling"]}
    with pytest.raises(ConfigError, match="unknown data.source 'sparse'"):
        parse_config(cfg)
