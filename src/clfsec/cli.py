"""Command-line front end.

Subcommands wire scenario configs to the pipeline: ``prepare`` ingests the
source a config names and exports it as a dense-CSV ``dataset.csv`` with a
``manifest.json``, ``evaluate`` (alias ``sweep``) ingests the same way and
runs a security evaluation, writing curve CSVs plus a JSON report,
``report`` merges reports into plot-ready figure data, ``validate`` checks
a config.  Ingestion is the only way a design set enters a run; to
evaluate an export, point ``data`` at it with ``source: dense``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  Set
``CLFSEC_NO_COLOR`` to disable styled output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import synth
from .config import ConfigError, RunConfig, canned_config, canned_scenario_names, load_config, load_report, parse_config, report_document
from .data_model import Dataset, resample
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

# What the imports built lives until the process exits: moving it out of the
# collector's reach spares each collection, and the one at interpreter exit,
# a walk over tens of thousands of objects.  Later objects are still collected.
gc.freeze()


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


def _load_run(args) -> RunConfig:
    """Load --config or --scenario, apply the --seed/--out/--jobs flags, and parse it."""
    if args.scenario and args.config:
        raise ConfigError("give either --config or --scenario, not both")
    if args.scenario:
        cfg, base_dir = canned_config(args.scenario), Path.cwd()
    elif args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        cfg, base_dir = load_config(path), path.parent
    else:
        raise ConfigError("a --config file or a --scenario name is required")
    for section, key, value in (
        ("evaluation", "seed", args.seed),
        ("output", "directory", args.out),
        ("evaluation", "jobs", args.jobs),
    ):
        if value is not None and isinstance(cfg.setdefault(section, {}), dict):
            cfg[section][key] = value
    return parse_config(cfg, base_dir)


def _ingest(run: RunConfig) -> tuple[Dataset, dict]:
    """Run the ingestion stage; returns the design set and manifest extras."""
    extras: dict = {"source": run.source}
    if run.source in synth.SOURCES:
        return synth.SOURCES[run.source](**run.synth), extras
    if not run.path.is_file():
        raise ConfigError(f"data.path is not a file: {run.path}")
    if run.source == "dense":
        return load_tabular(run.path), extras
    if run.source == "scores":
        table = load_scores(run.path)
        extras["normalization_bounds"] = {"lo": list(table.bounds.lo), "hi": list(table.bounds.hi)}
        return table.dataset, extras
    if run.source == "payloads":
        return load_payloads(run.path), extras
    # emails, with chronological resampling (parse_config admits no other source)
    corpus, labels, skipped = tokenize_emails(run.path)
    if skipped:
        print(f"skipped {skipped} undecodable document(s)", file=sys.stderr)
    split = run.resampling.split_index
    vocab = information_gain_select(corpus[:split], labels[:split], run.vocab_size)
    extras["vocabulary_size"] = len(vocab)
    extras["skipped_documents"] = skipped
    return vectorize_corpus(corpus, labels, vocab), extras


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_prepare(args) -> int:
    run = _load_run(args)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    dataset, extras = _ingest(run)
    try:
        dataset_path = run.out_dir / "dataset.csv"
        write_dense_csv(dataset, dataset_path)
    except Exception as exc:
        raise RuntimeError(f"dataset writing stage failed: {exc}") from exc
    manifest = {
        "config": run.doc,
        "samples": len(dataset),
        "dimension": dataset.dimension,
        "class_counts": {lab.value: n for lab, n in dataset.class_counts().items()},
        "files": {dataset_path.name: hashlib.sha256(dataset_path.read_bytes()).hexdigest()},
    }
    manifest.update(extras)
    manifest_path = run.out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"dataset={dataset_path}")
    print(f"manifest={manifest_path}")
    print(f"samples={len(dataset)}")
    print(f"dimension={dataset.dimension}")
    return 0


def _cmd_evaluate(args) -> int:
    run = _load_run(args)
    run.out_dir.mkdir(parents=True, exist_ok=True)

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t0 = time.perf_counter()
    data, _ = _ingest(run)
    folds = resample(data, run.resampling, seed=run.seed)
    curve = security_sweep(
        folds,
        run.scenario,
        run.classifier,
        run.scenario.strength.values,
        run.metric,
        seed=run.seed,
        repetitions=run.repetitions,
    )

    report = EvaluationReport(
        scenario=run.scenario.name,
        classifier=run.classifier.describe(),
        metric=run.metric.name,
        folds=folds.k,
        curve=curve,
        config=run.doc,
        seed=run.seed,
        started_at=started,
    )
    if run.collect_roc:
        curves = scenario_roc(curve, run.collect_roc)
        report.roc_curves = {f"strength_{s:g}": c for s, c in zip(run.collect_roc, curves)}
    report.elapsed_seconds = time.perf_counter() - t0

    tag = f"{run.scenario.name}_{run.classifier.family}"
    csv_path = run.out_dir / f"curve_{tag}.csv"
    csv_path.write_text(curve.to_csv_text(), encoding="utf-8")
    report_path = run.out_dir / f"report_{tag}.json"
    report_path.write_text(json.dumps(report_document(report), indent=1) + "\n", encoding="utf-8")

    strength0 = curve.means[curve.strengths.index(0.0)]
    worst = type(run.metric).worst(curve.means)
    print(f"scenario={run.scenario.name}")
    print(f"classifier={run.classifier.describe()}")
    print(f"metric={run.metric.name}")
    print(f"strength0={strength0!r}")
    print(f"worst={worst!r}")
    print(f"curve_csv={csv_path}")
    print(f"report={report_path}")
    return 0


def _cmd_report(args) -> int:
    if not args.reports:
        raise ConfigError("at least one report file is required")
    reports = [load_report(path) for path in args.reports]
    try:
        written = write_figure_bundle(reports, args.out or "figures")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for path in written:
        print(f"wrote={path}")
    return 0


def _cmd_validate(args) -> int:
    _load_run(args)
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
    parser.add_argument("--jobs", type=int, help="override evaluation.jobs (checked, not read)")


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
        for problem in exc.problems:
            _err(problem)
        return 2
    except Exception as exc:  # runtime failure
        _err(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
