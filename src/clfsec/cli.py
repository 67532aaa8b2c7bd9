"""Command-line front end.

Subcommands wire scenario configs to the pipeline: ``prepare`` ingests raw
corpora into canonical dataset files, ``evaluate`` (alias ``sweep``) runs a
security evaluation and writes curve CSVs plus a JSON report, ``report``
merges reports into plot-ready figure data, ``validate`` checks a config.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  Set
``CLFSEC_NO_COLOR`` to disable styled output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import synth
from .config import (
    ConfigError,
    canned_config,
    canned_scenario_names,
    classifier_from_config,
    load_config,
    metric_from_config,
    resampling_from_config,
    scenario_from_config,
    validate_config,
)
from .data_model import Chronological, Dataset, resample
from .evaluation import EvaluationReport, scenario_roc, security_sweep
from .ingestion import (
    information_gain_select,
    load_payloads,
    load_scores,
    load_tabular,
    tokenize_emails,
    vectorize_corpus,
    write_dense_csv,
)
from .reporting import write_figure_bundle


def _use_color() -> bool:
    return os.environ.get("CLFSEC_NO_COLOR") is None and sys.stderr.isatty()


def _err(msg: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color() else "error:"
    print(f"{prefix} {msg}", file=sys.stderr)


def _ok(msg: str) -> None:
    prefix = "\x1b[32mok:\x1b[0m" if _use_color() else "ok:"
    print(f"{prefix} {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# config and data plumbing
# ---------------------------------------------------------------------------


def _resolve_config(args) -> tuple[dict, Path]:
    """Load --config or --scenario; returns (config, base dir for paths)."""
    if args.scenario and args.config:
        raise ConfigError("give either --config or --scenario, not both")
    if args.scenario:
        return canned_config(args.scenario), Path.cwd()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        return load_config(path), path.parent
    raise ConfigError("a --config file or a --scenario name is required")


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("evaluation", {})["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg.setdefault("output", {})["directory"] = args.out
    if getattr(args, "jobs", None) is not None:
        cfg.setdefault("evaluation", {})["jobs"] = args.jobs
    return cfg


def _check_config(cfg: dict) -> None:
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("; ".join(problems))


_SYNTH_SOURCES = {
    "synthetic-spam": lambda p: synth.synthetic_spam_corpus(
        seed=int(p.get("seed", 0)), n=int(p.get("n", 2000)), d=int(p.get("d", 200))
    ),
    "synthetic-scores": lambda p: synth.synthetic_score_table(
        seed=int(p.get("seed", 0)),
        n_genuine=int(p.get("n_genuine", 400)),
        n_impostor=int(p.get("n_impostor", 1600)),
    ),
    "synthetic-ids": lambda p: synth.synthetic_ids_traffic(
        seed=int(p.get("seed", 0)),
        n_train=int(p.get("n_train", 300)),
        n_test_legit=int(p.get("n_test_legit", 300)),
        n_test_malicious=int(p.get("n_test_malicious", 100)),
    ),
}


def _data_path(data_cfg: dict, base_dir: Path) -> Path:
    if "path" not in data_cfg:
        raise ConfigError("data.path is required for file-backed sources")
    p = Path(data_cfg["path"])
    return p if p.is_absolute() else base_dir / p


def _ingest(cfg: dict, base_dir: Path) -> tuple[Dataset, dict]:
    """Run the ingestion stage; returns the design set and manifest extras."""
    data_cfg = cfg["data"]
    source = data_cfg.get("source")
    extras: dict = {"source": source}
    if source in _SYNTH_SOURCES:
        return _SYNTH_SOURCES[source](data_cfg.get("synth", {})), extras
    if source in ("dense", "sparse"):
        return load_tabular(_data_path(data_cfg, base_dir)), extras
    if source == "scores":
        table = load_scores(_data_path(data_cfg, base_dir))
        extras["normalization_bounds"] = {"lo": list(table.bounds.lo), "hi": list(table.bounds.hi)}
        return table.dataset, extras
    if source == "payloads":
        return load_payloads(_data_path(data_cfg, base_dir)), extras
    if source == "emails":
        index = _data_path(data_cfg, base_dir)
        if not index.is_file():
            raise ConfigError(f"missing index file: {index}")
        method = resampling_from_config(data_cfg)
        if not isinstance(method, Chronological):
            raise ConfigError("email ingestion needs chronological resampling (vocabulary is fitted on the training part)")
        token_sets, labels, skipped = tokenize_emails(index)
        if skipped:
            print(f"skipped {skipped} undecodable document(s)", file=sys.stderr)
        split = method.split_index
        vocab = information_gain_select(
            token_sets[:split], labels[:split], int(data_cfg.get("vocab_size", 1000))
        )
        extras["vocabulary_size"] = len(vocab)
        extras["skipped_documents"] = skipped
        return vectorize_corpus(token_sets, labels, vocab), extras
    raise ConfigError(f"unknown data source {source!r}")


def _load_design_set(cfg: dict, base_dir: Path) -> Dataset:
    """Load the prepared dataset if there is one (it must match the data section), else ingest."""
    out_dir = Path(cfg["output"].get("directory", "out"))
    prepared = out_dir / "dataset.csv"
    if prepared.is_file():
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.is_file() else {}
        if manifest.get("config", {}).get("data") != cfg["data"]:
            raise ConfigError(
                f"{prepared} was not prepared from this config's data section "
                "(manifest.json missing or different); rerun prepare or use another output directory"
            )
        return load_tabular(prepared)
    dataset, _ = _ingest(cfg, base_dir)
    return dataset


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_prepare(args) -> int:
    cfg, base_dir = _resolve_config(args)
    cfg = _apply_overrides(cfg, args)
    _check_config(cfg)
    out_dir = Path(cfg["output"].get("directory", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        dataset, extras = _ingest(cfg, base_dir)
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeError(f"ingestion stage failed: {exc}") from exc
    try:
        dataset_path = out_dir / "dataset.csv"
        write_dense_csv(dataset, dataset_path)
    except Exception as exc:
        raise RuntimeError(f"dataset writing stage failed: {exc}") from exc
    manifest = {
        "config": cfg,
        "samples": len(dataset),
        "dimension": dataset.dimension,
        "class_counts": {lab.value: n for lab, n in dataset.class_counts().items()},
        "files": {dataset_path.name: _sha256(dataset_path)},
    }
    manifest.update(extras)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"dataset={dataset_path}")
    print(f"manifest={manifest_path}")
    print(f"samples={len(dataset)}")
    print(f"dimension={dataset.dimension}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, base_dir = _resolve_config(args)
    cfg = _apply_overrides(cfg, args)
    _check_config(cfg)
    scenario = scenario_from_config(cfg["attack"])
    classifier = classifier_from_config(cfg["classifier"])
    metric = metric_from_config(cfg["evaluation"])
    eval_cfg = cfg["evaluation"]
    seed = int(eval_cfg.get("seed", 0))
    out_dir = Path(cfg["output"].get("directory", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t0 = time.perf_counter()
    data = _load_design_set(cfg, base_dir)
    folds = resample(data, resampling_from_config(cfg["data"]), seed=seed)
    strengths = [float(s) for s in cfg["attack"]["strength"]["values"]]
    curve = security_sweep(
        folds,
        scenario,
        classifier,
        strengths,
        metric,
        seed=seed,
        repetitions=int(eval_cfg.get("repetitions", 1)),
        jobs=int(eval_cfg.get("jobs", 1)),
    )

    report = EvaluationReport(
        scenario=scenario.name,
        classifier=classifier.describe(),
        metric=metric.name,
        folds=folds.k,
        curve=curve,
        config=cfg,
        seed=seed,
        started_at=started,
    )
    roc_strengths = [float(s) for s in eval_cfg.get("collect_roc", []) or []]
    if roc_strengths:
        curves = scenario_roc(curve, roc_strengths)
        report.roc_curves = {f"strength_{s:g}": c for s, c in zip(roc_strengths, curves)}
    report.elapsed_seconds = time.perf_counter() - t0

    tag = f"{scenario.name}_{classifier.family}"
    csv_path = out_dir / f"curve_{tag}.csv"
    csv_path.write_text(curve.to_csv_text(), encoding="utf-8")
    report_path = out_dir / f"report_{tag}.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=1) + "\n", encoding="utf-8")

    strength0 = curve.means[curve.strengths.index(0.0)]
    worst = type(metric).worst(curve.means)
    print(f"scenario={scenario.name}")
    print(f"classifier={classifier.describe()}")
    print(f"metric={metric.name}")
    print(f"strength0={strength0!r}")
    print(f"worst={worst!r}")
    print(f"curve_csv={csv_path}")
    print(f"report={report_path}")
    return 0


def _cmd_report(args) -> int:
    if not args.reports:
        raise ConfigError("at least one report file is required")
    reports = []
    for p in args.reports:
        path = Path(p)
        if not path.is_file():
            raise ConfigError(f"report file not found: {path}")
        reports.append(EvaluationReport.from_dict(json.loads(path.read_text(encoding="utf-8"))))
    try:
        written = write_figure_bundle(reports, args.out or "figures")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for path in written:
        print(f"wrote={path}")
    return 0


def _cmd_validate(args) -> int:
    cfg, _ = _resolve_config(args)
    cfg = _apply_overrides(cfg, args)
    problems = validate_config(cfg)
    if problems:
        for p in problems:
            _err(p)
        return 2
    _ok("configuration is valid")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a scenario config file")
    parser.add_argument(
        "--scenario",
        help=f"name of a canned scenario ({', '.join(canned_scenario_names())})",
    )
    parser.add_argument("--seed", type=int, help="override evaluation.seed")
    parser.add_argument("--out", help="override output.directory")
    parser.add_argument("--jobs", type=int, help="bound on concurrent work items")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clfsec",
        description="Empirical security evaluation of binary pattern classifiers under attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest raw inputs into canonical dataset files")
    _add_common(p)
    p.set_defaults(func=_cmd_prepare)

    for name, help_text in (
        ("evaluate", "run a security evaluation sweep"),
        ("sweep", "alias of evaluate"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="merge evaluation reports into figure data")
    p.add_argument("reports", nargs="*", help="report JSON files")
    p.add_argument("--out", help="figure output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("validate", help="check a config without running anything")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return 2
    except Exception as exc:  # runtime failure
        _err(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
