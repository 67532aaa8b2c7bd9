"""Traced ``clfsec`` entry point: ``trace_child.py <trace.json> <clfsec args...>``.

Wraps the public functions of each layer at the site the caller looks
them up, runs ``clfsec.cli.main`` and writes the spans and counts to
``<trace.json>`` when it exits.  A name that is no longer where this file
expects it raises ``AttributeError`` before ``main`` starts, so a refactor
cannot silently drop a layer from the trace.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import clfsec
import clfsec.attacks
import clfsec.classifiers
import clfsec.cli
import clfsec.evaluation
from tracing import Tracer

MB = 1024.0 * 1024.0


def _linear_support_vectors(model, train) -> int:
    """Training rows on or inside the margin, y (w.x + b) <= 1."""
    margins = train.signed_labels() * (train.features @ model.weights + model.bias)
    return int(np.count_nonzero(margins <= 1.0 + 1e-9))


def install(tracer: Tracer) -> None:
    """Replace the traced functions with span-recording wrappers."""
    cli = clfsec.cli
    ev = clfsec.evaluation
    att = clfsec.attacks
    clf = clfsec.classifiers

    def patch(owner, attr, span, after=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), span, after))

    def count(name, value):
        tracer.count(name, value)

    # ingestion, at the CLI's import site
    patch(cli, "tokenize_emails", "ingestion.tokenize",
          lambda r, *a, **k: count("ingestion.docs", len(r[0])))
    patch(cli, "information_gain_select", "ingestion.ig_select",
          lambda r, token_sets, *a, **k: count("ingestion.terms_ranked", len(set().union(*token_sets))))

    def design_set(dataset):
        count("ingestion.rows", len(dataset))
        count("ingestion.matrix_mb", dataset.features.nbytes / MB)

    patch(cli, "vectorize_corpus", "ingestion.vectorize", lambda r, *a, **k: design_set(r))
    patch(cli, "load_payloads", "ingestion.load", lambda r, *a, **k: design_set(r))
    patch(cli, "load_scores", "ingestion.load", lambda r, *a, **k: design_set(r.dataset))

    # data model
    patch(cli, "resample", "data_model.resample")
    patch(ev, "build_scenario_pools", "data_model.build_pools")
    patch(ev, "sample_dataset", "data_model.sample_dataset",
          lambda r, *a, **k: count("data_model.sampled_rows", len(r)))

    # classifiers
    def trained(model, config, train, *a, **k):
        count("classifiers.train_rows", len(train))
        if isinstance(model, clf.OneClassModel):
            count("classifiers.support_vectors", len(model.dual_coefficients))
        elif isinstance(model, clf.LinearModel):
            count("classifiers.support_vectors", _linear_support_vectors(model, train))

    patch(ev, "train_classifier", "classifiers.train", trained)
    patch(ev, "decision_scores", "classifiers.score",
          lambda r, *a, **k: count("classifiers.score_rows", len(r)))

    rbf_kernel = clf.rbf_kernel
    kernel_sum = clf.OneClassModel.kernel_sum

    def counted_rbf_kernel(u, v, gamma):
        out = rbf_kernel(u, v, gamma)
        count("classifiers.kernel_gflop", 3e-9 * out.size * np.atleast_2d(u).shape[1])
        return out

    def counted_kernel_sum(self, x):
        out = kernel_sum(self, x)
        sv = self.support_vectors
        count("classifiers.kernel_gflop", 3e-9 * len(out) * sv.shape[0] * sv.shape[1])
        return out

    clf.rbf_kernel = counted_rbf_kernel
    clf.OneClassModel.kernel_sum = counted_kernel_sum

    # attacks
    def attacked(result, source, *a, **k):
        count("attacks.attacked_rows", len(result))
        count("attacks.flips", int(np.count_nonzero(result.features != source.features)))

    patch(att, "gwi_bwo_pool", "attacks.gwi_bwo", attacked)
    patch(att, "build_spoof_pool", "attacks.spoof",
          lambda r, *a, **k: count("attacks.attacked_rows", len(r)))
    patch(ev, "scenario_distribution_specs", "attacks.specs")

    # evaluation
    patch(cli, "security_sweep", "evaluation.sweep",
          lambda r, *a, **k: count("evaluation.points", r.k * len(r.strengths)))
    patch(cli, "scenario_roc", "evaluation.collect_roc")
    patch(ev, "roc", "evaluation.roc")
    patch(ev.Auc10, "compute", "evaluation.metric")
    patch(ev.FarAtGar, "compute", "evaluation.metric")


def run(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_child.py <trace.json> <clfsec args...>", file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    main_entered = time.monotonic()
    try:
        return clfsec.cli.main(args)
    finally:
        tracer.dump(out_path, main_entered=main_entered, clfsec_file=clfsec.__file__)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
