import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from clfsec.attacks import build_scenario_pools, scenario_distribution_specs
from clfsec.cli import main
from clfsec.config import (
    canned_config,
    canned_scenario_names,
    parse_config,
    scenario_from_config,
)
from clfsec.data_model import (
    AttackFlag,
    Dataset,
    Label,
    resample,
    Chronological,
)
from clfsec.evaluation import Auc10, FarAtGar
from clfsec.synth import synthetic_ids_traffic, synthetic_score_table, synthetic_spam_corpus

L, M = Label.LEGITIMATE, Label.MALICIOUS
F, T = AttackFlag.CLEAN, AttackFlag.ATTACKED


@pytest.fixture
def email_fixture(tmp_path):
    docs = {
        "m1.txt": ("spam", "buy cheap pills now limited offer"),
        "h1.txt": ("ham", "meeting notes from the standup today"),
        "m2.txt": ("spam", "cheap pills fast shipping offer"),
        "h2.txt": ("ham", "please review the attached report"),
        "m3.txt": ("spam", "win money fast lottery prize"),
        "h3.txt": ("ham", "lunch plans for friday team outing"),
        "m4.txt": ("spam", "claim your prize money now"),
        "h4.txt": ("ham", "quarterly report draft attached for review"),
        "m5.txt": ("spam", "cheap offer win lottery pills"),
        "h5.txt": ("ham", "agenda for the project meeting tomorrow"),
    }
    for name, (_lab, text) in docs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    index = tmp_path / "index"
    index.write_text(
        "".join(f"{lab} {name}\n" for name, (lab, _) in docs.items()), encoding="utf-8"
    )
    config = {
        "version": 1,
        "data": {
            "source": "emails",
            "path": "index",
            "vocab_size": 1000,
            "resampling": {"method": "chronological", "split_index": 5},
        },
        "classifier": {"family": "linear_svm", "c": 1.0},
        "attack": canned_config("spam_gwi_bwo")["attack"],
        "evaluation": {"metric": "auc10", "seed": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "spam.yaml"
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return tmp_path, cfg_path


class TestPrepare:
    def test_email_fixture_dimension_bound(self, email_fixture, capsys):
        tmp_path, cfg_path = email_fixture
        assert main(["prepare", "--config", str(cfg_path)]) == 0
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        distinct_terms_in_train = manifest["vocabulary_size"]
        assert int(out["dimension"]) == min(1000, distinct_terms_in_train)
        assert int(out["samples"]) == 10

    def test_rerun_identical_hashes(self, email_fixture):
        tmp_path, cfg_path = email_fixture
        assert main(["prepare", "--config", str(cfg_path)]) == 0
        first = json.loads((tmp_path / "out" / "manifest.json").read_text())["files"]
        assert main(["prepare", "--config", str(cfg_path)]) == 0
        second = json.loads((tmp_path / "out" / "manifest.json").read_text())["files"]
        assert first == second

    @pytest.mark.parametrize("source", ["dense", "emails", "scores", "payloads"])
    def test_missing_data_path_exits_2(self, source, capsys, tmp_path):
        cfg = canned_config({"emails": "spam_gwi_bwo", "scores": "bio_spoof_face"}.get(source, "ids_poison"))
        resampling = {"method": "chronological", "split_index": 5} if source == "emails" else cfg["data"]["resampling"]
        cfg["data"] = {"source": source, "path": "nowhere/missing-input", "resampling": resampling}
        cfg["output"]["directory"] = str(tmp_path / "out")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        for command in ("prepare", "evaluate"):
            capsys.readouterr()
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"error: data.path is not a file: {tmp_path / 'nowhere/missing-input'}\n"

    def test_ingestion_error_reported_alike(self, capsys, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text("f0,f1,label\n0,1,L\n1,0,M\nnan,1,M\n1,1,L\n", encoding="utf-8")
        cfg = canned_config("ids_poison")
        cfg["data"] = {"source": "dense", "path": str(data), "resampling": {"method": "chronological", "split_index": 2}}
        cfg["output"]["directory"] = str(tmp_path / "out")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        errors = []
        for command in ("prepare", "evaluate"):
            capsys.readouterr()
            assert main([command, "--config", str(path)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ValueError: ") and f"{data}:4" in errors[0], errors[0]

    def test_synthetic_prepare(self, tmp_path):
        assert main(["prepare", "--scenario", "ids_poison", "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["dimension"] == 2
        assert (tmp_path / "o" / "dataset.csv").is_file()

    def test_scores_source_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["user_id,claimed_id,fing_score,face_score,label"]
        for i in range(60):
            rows.append(f"u{i},u0,{rng.gamma(18, 0.04):.6f},{rng.gamma(6, 0.07):.6f},genuine")
        for i in range(240):
            rows.append(f"v{i},u0,{rng.gamma(6, 0.05):.6f},{rng.gamma(3, 0.07):.6f},impostor")
        (tmp_path / "scores.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = canned_config("bio_spoof_fingerprint")
        cfg["data"] = {
            "source": "scores",
            "path": "scores.csv",
            "resampling": {"method": "cross_validation", "k": 3},
        }
        cfg["evaluation"]["collect_roc"] = []
        cfg["output"]["directory"] = str(tmp_path / "out")
        (tmp_path / "c.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["prepare", "--config", str(tmp_path / "c.yaml")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["dimension"] == 2
        assert "normalization_bounds" in manifest
        # evaluate ingests scores.csv again; the exported dataset.csv is not read
        assert main(["evaluate", "--config", str(tmp_path / "c.yaml")]) == 0
        csv = (tmp_path / "out" / "curve_bio_spoof_fingerprint_gamma_fusion.csv").read_text()
        rows = csv.strip().splitlines()
        assert len(rows) == 3  # header + strengths {0, 1}

    def test_payloads_source_prepare(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = []
        for _ in range(20):
            payload = bytes(rng.integers(97, 110, size=rng.integers(4, 30)))
            lines.append(payload.hex() + ",L")
        for _ in range(5):
            payload = bytes(rng.integers(0, 256, size=rng.integers(4, 30)))
            lines.append(payload.hex() + ",M")
        (tmp_path / "pkts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = canned_config("ids_poison")
        cfg["data"] = {
            "source": "payloads",
            "path": "pkts.txt",
            "resampling": {"method": "chronological", "split_index": 15},
        }
        cfg["output"]["directory"] = str(tmp_path / "out")
        (tmp_path / "c.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["prepare", "--config", str(tmp_path / "c.yaml")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["dimension"] == 256
        assert manifest["samples"] == 25

    def test_config_and_scenario_both_rejected(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("version: 1\n", encoding="utf-8")
        assert main(["validate", "--config", str(p), "--scenario", "ids_poison"]) == 2
        assert "not both" in capsys.readouterr().err


class TestEvaluate:
    def test_canned_spam_curve_shape(self, tmp_path, capsys):
        assert main(["evaluate", "--scenario", "spam_gwi_bwo", "--out", str(tmp_path)]) == 0
        keys = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        csv_lines = (tmp_path / "curve_spam_gwi_bwo_linear_svm.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "strength,mean,std,k"
        assert len(csv_lines) == 12  # 11 strengths 0..10
        means = [float(l.split(",")[1]) for l in csv_lines[1:]]
        assert all(a >= b - 1e-15 for a, b in zip(means, means[1:]))
        assert float(keys["strength0"]) == means[0]

    def test_poison_with_only_zero_equals_plain(self, tmp_path, capsys):
        cfg = canned_config("ids_poison")
        cfg["attack"]["strength"]["values"] = [0]
        cfg["output"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 0
        keys = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        # attack-free reduction: mean equals plain evaluation of the same fold
        from clfsec.classifiers import ClassifierConfig, decision_scores, train_classifier
        from clfsec.evaluation import Auc10, roc
        from clfsec.rng import derive_subseed

        traffic = synthetic_ids_traffic(seed=5)
        folds = resample(traffic, Chronological(300), seed=42)
        d_tr, d_ts = folds.pairs[0]
        model = train_classifier(
            ClassifierConfig("one_class_svm", {"nu": 0.01, "gamma": 0.5}),
            d_tr,
            seed=derive_subseed(42, "fold", 0, "rep", 0, "train"),
        )
        plain = Auc10().compute(roc(decision_scores(model, d_ts.features), d_ts.label_codes))
        assert float(keys["strength0"]) == plain

    def test_evaluate_ingests_what_the_config_names(self, tmp_path):
        # a dataset.csv that prepare left in the output directory is not read
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        assert main(["prepare", "--scenario", "ids_poison", "--out", str(out)]) == 0
        cfg = canned_config("ids_poison")
        cfg["data"]["synth"]["n_train"] = 120
        path = tmp_path / "c.yaml"
        csv_name = "curve_ids_poison_one_class_svm.csv"
        for directory in (out, fresh):
            cfg["output"]["directory"] = str(directory)
            path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            assert main(["evaluate", "--config", str(path)]) == 0
        assert (out / csv_name).read_bytes() == (fresh / csv_name).read_bytes()
        canned = tmp_path / "canned"
        assert main(["evaluate", "--scenario", "ids_poison", "--out", str(canned)]) == 0
        assert (out / csv_name).read_bytes() != (canned / csv_name).read_bytes()

    def test_prepared_export_evaluates_to_the_same_curve(self, tmp_path):
        export, own = tmp_path / "export", tmp_path / "own"
        assert main(["prepare", "--scenario", "ids_poison", "--out", str(export)]) == 0
        assert main(["evaluate", "--scenario", "ids_poison", "--out", str(own)]) == 0
        cfg = canned_config("ids_poison")
        cfg["data"] = {"source": "dense", "path": "export/dataset.csv", "resampling": cfg["data"]["resampling"]}
        cfg["output"]["directory"] = str(tmp_path / "from_export")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 0
        csv_name = "curve_ids_poison_one_class_svm.csv"
        assert (tmp_path / "from_export" / csv_name).read_bytes() == (own / csv_name).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "o"
        csv_name = "curve_ids_poison_one_class_svm.csv"
        report_name = "report_ids_poison_one_class_svm.json"
        snapshots = []
        for _ in range(2):
            assert main(["evaluate", "--scenario", "ids_poison", "--out", str(out), "--seed", "7"]) == 0
            doc = json.loads((out / report_name).read_text())
            doc.pop("started_at")
            doc.pop("elapsed_seconds")
            snapshots.append(((out / csv_name).read_bytes(), doc))
        assert snapshots[0][0] == snapshots[1][0]  # byte-identical CSV
        # the report reproduces bit-exactly apart from wall-clock metadata
        assert snapshots[0][1] == snapshots[1][1]

    def test_sweep_alias(self, tmp_path):
        cfg = canned_config("spam_gwi_bwo")
        cfg["attack"]["strength"]["values"] = [0, 5]
        cfg["output"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["sweep", "--config", str(path)]) == 0

    def test_item_zero_trained_once(self, tmp_path, monkeypatch):
        import clfsec.evaluation

        calls = []
        train = clfsec.evaluation.train_classifier

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(clfsec.evaluation, "train_classifier", counted)
        assert main(["evaluate", "--scenario", "bio_spoof_fingerprint", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report_bio_spoof_fingerprint_gamma_fusion.json").read_text())
        assert sorted(report["roc_curves"]) == ["strength_0", "strength_1"]
        # one model per fold (k = 5); the report's ROCs reuse the sweep's item 0
        assert len(calls) == 5

    def test_roc_curves_independent_of_jobs(self, tmp_path):
        docs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["evaluate", "--scenario", "bio_spoof_face", "--out", str(out), "--jobs", jobs]) == 0
            docs.append(json.loads((out / "report_bio_spoof_face_gamma_fusion.json").read_text()))
        assert docs[0]["roc_curves"] and docs[0]["roc_curves"] == docs[1]["roc_curves"]
        assert docs[0]["curve"] == docs[1]["curve"]

    def test_items_run_on_the_calling_thread_in_order(self, tmp_path, monkeypatch):
        import threading

        import clfsec.evaluation
        from clfsec.rng import derive_subseed

        calls = []
        train = clfsec.evaluation.train_classifier

        def recorded(config, data, seed):
            calls.append((threading.get_ident(), seed))
            return train(config, data, seed=seed)

        monkeypatch.setattr(clfsec.evaluation, "train_classifier", recorded)
        assert main(["evaluate", "--scenario", "bio_spoof_face", "--out", str(tmp_path), "--jobs", "2"]) == 0
        cfg = canned_config("bio_spoof_face")
        seed, k = cfg["evaluation"]["seed"], cfg["data"]["resampling"]["k"]
        # an exploratory scenario trains once per item, with the item's own seed
        assert calls == [(threading.get_ident(), derive_subseed(seed, "fold", fi, "rep", 0, "train")) for fi in range(k)]

    def test_inconsistent_scenario_exits_2_before_training(self, tmp_path, capsys):
        cfg = canned_config("spam_gwi_bwo")
        cfg["attack"]["knowledge"]["parameters"] = False  # generator needs k.iv
        cfg["output"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["evaluate", "--config", str(path)]) == 2
        assert "k.iv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestValidateCommand:
    def test_canned_configs_valid(self):
        for name in canned_scenario_names():
            assert main(["validate", "--scenario", name]) == 0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("version: 99\n", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [("data", "train_size"), ("data", "test_size"), ("evaluation", "scale_train_with_prior")],
    )
    def test_removed_key_exits_2(self, section, key, tmp_path, capsys):
        cfg = canned_config("ids_poison")
        cfg[section][key] = 100
        cfg["output"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        for command in ("validate", "evaluate"):
            assert main([command, "--config", str(path)]) == 2
            assert f"{section}.{key} is no longer supported" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "spam_gwi_bwo",
                lambda c: c["data"]["resampling"].update(k=3),
                "unknown data.resampling keys ['k']; known: method, split_index",
            ),
            (
                "bio_spoof_face",
                lambda c: c["data"]["resampling"].update(split_index=100),
                "unknown data.resampling keys ['split_index']; known: method, k",
            ),
            (
                "ids_poison",
                lambda c: c["data"].update(path="payloads.hex"),
                "unknown data keys ['path']; known: source, synth, vocab_size, resampling",
            ),
            (
                "ids_poison",
                lambda c: c["data"].update(source="payloads", path="payloads.hex"),
                "unknown data keys ['synth']; known: source, path, vocab_size, resampling",
            ),
            (
                "bio_spoof_face",
                lambda c: c["evaluation"].update(metric={"far_at_gar": 0.9, "x": 1}),
                "unknown evaluation.metric keys ['x']; known: far_at_gar",
            ),
            (
                "bio_spoof_face",
                lambda c: c["evaluation"].update(metric={"far_at_gar": 0.9, "auc10": True}),
                "unknown evaluation.metric keys ['auc10']; known: far_at_gar",
            ),
        ],
        ids=["k-chronological", "split-index-cross-validation", "path-synthetic", "synth-file", "metric-x", "metric-auc10"],
    )
    def test_key_that_is_not_read_exits_2(self, name, edit, message, tmp_path, capsys):
        cfg = canned_config(name)
        cfg["output"]["directory"] = str(tmp_path / "o")
        edit(cfg)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        for command in ("validate", "evaluate"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("ids_poison", lambda c: c["attack"]["strength"].update(hi=0.4), "outside the scenario's p_max range"),
            ("ids_poison", lambda c: c["evaluation"].update(collect_roc=["x"]), "evaluation.collect_roc must be a list of numbers, got ['x']"),
            ("bio_spoof_face", lambda c: c["evaluation"].update(collect_roc="01"), "evaluation.collect_roc must be a list of numbers, got '01'"),
            ("bio_spoof_face", lambda c: c["evaluation"].update(collect_roc=[True]), "evaluation.collect_roc must be a list of numbers, got [True]"),
            ("bio_spoof_face", lambda c: c["evaluation"].update(collect_roc=[0, "1"]), "evaluation.collect_roc must be a list of numbers, got [0, '1']"),
            ("ids_poison", lambda c: c["evaluation"].update(collect_roc=[0, 0.9]), "[0.9] are not among"),
            ("bio_spoof_face", lambda c: c["evaluation"].update(collect_roc=[0, 3]), "[3.0] are not among"),
            ("ids_poison", lambda c: c["evaluation"].update(repetitions=0), "evaluation.repetitions must be >= 1"),
            ("ids_poison", lambda c: c["evaluation"].update(repetitions="x"), "evaluation.repetitions must be an integer"),
            ("ids_poison", lambda c: c["evaluation"].update(jobs="x"), "evaluation.jobs must be an integer"),
            ("ids_poison", lambda c: c["attack"].update(name="ids/poison"), "attack.name must be a string without '/' or NUL, got 'ids/poison'"),
            ("ids_poison", lambda c: c["attack"].update(name="ids\0poison"), "attack.name must be a string without '/' or NUL"),
            ("ids_poison", lambda c: c["evaluation"].update(seed="x"), "evaluation.seed must be an integer"),
            ("bio_spoof_face", lambda c: c["data"]["resampling"].update(k=0), "data.resampling.k must be >= 2"),
            ("bio_spoof_face", lambda c: c["data"]["resampling"].update(k="x"), "data.resampling.k must be an integer"),
            ("ids_poison", lambda c: c["data"]["synth"].update(n_train="x"), "data.synth.n_train must be an integer"),
            ("bio_spoof_face", lambda c: c["evaluation"].update(metric={"far_at_gar": 2}), "far_at_gar must be a number in (0, 1]"),
            ("ids_poison", lambda c: c["classifier"].update(gamma="x"), "classifier.gamma must be a number"),
            ("ids_poison", lambda c: c.update(output=None), "section 'output' is missing or not a mapping"),
            (
                "ids_poison",
                lambda c: c["data"].update(source="payloads"),
                ("unknown data keys ['synth']; known: source, path, vocab_size, resampling", "data.path must be a path string"),
            ),
            (
                "spam_gwi_bwo",
                lambda c: c.update(data={"source": "emails", "path": "index", "resampling": {"method": "cross_validation"}}),
                "email ingestion needs chronological resampling",
            ),
            ("spam_gwi_bwo", lambda c: c["classifier"].update(C=10), "unknown classifier keys ['C']; known: family, c, tolerance, c_grid"),
            ("ids_poison", lambda c: c["data"].update(source=["dense"]), "data.source must be one of dense, emails, scores, payloads, synthetic-spam, synthetic-scores, synthetic-ids, got ['dense']"),
            ("ids_poison", lambda c: c["data"]["resampling"].update(method=["chronological"]), "data.resampling.method must be one of chronological, cross_validation, bootstrap, got ['chronological']"),
            ("spam_gwi_bwo", lambda c: c["classifier"].update(family=["linear_svm"]), "classifier.family must be one of linear_svm, logistic_regression, one_class_svm, gamma_fusion, got ['linear_svm']"),
            ("ids_poison", lambda c: c["evaluation"].update(repetition=3), "unknown evaluation keys ['repetition']"),
            ("spam_gwi_bwo", lambda c: c["classifier"].update(c_grid=1.0), "c_grid must be a non-empty list of numbers"),
            ("spam_gwi_bwo", lambda c: c["classifier"].update(tolerance="1e-6"), "classifier.tolerance must be a number"),
            ("spam_gwi_bwo_lr", lambda c: c["classifier"].update(epochs=2.5), "classifier.epochs must be an integer, got 2.5"),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["strategy"]["attacked_fraction"]["test"].update(M=1.5),
                (
                    "attacked fraction of M test samples out of range: 1.5",
                    "strategy attacks up to 1.5 of M test samples but capability controls 1",
                ),
            ),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["strategy"]["attacked_fraction"]["test"].update(M=-0.5),
                "attacked fraction of M test samples out of range: -0.5",
            ),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["strength"].update(hi=1.5, values=[0, 1, 1.5]),
                (
                    "attacked fraction of M test samples is the strength, whose range [0, 1.5] leaves [0, 1]",
                    "strategy attacks up to 1.5 of M test samples but capability controls 1",
                ),
            ),
            (
                "ids_poison",
                lambda c: c["attack"]["strength"].update(hi=1.2, values=[0, 0.5, 1.2]),
                "prior override is the strength, whose range [0, 1.2] leaves [0, 1]",
            ),
            (
                "spam_gwi_bwo",
                lambda c: (
                    c["attack"]["capability"]["controllable_fraction"]["test"].update(L=0.5),
                    c["attack"]["strategy"]["attacked_fraction"]["test"].update(L=0.5),
                ),
                "strategy attacks L test samples but generator gwi_bwo replaces only M test samples",
            ),
            (
                "ids_poison",
                lambda c: (
                    c["attack"]["capability"].update(affects_testing=True, controllable_fraction={"train": {"M": 1.0}, "test": {"M": 1.0}}),
                    c["attack"]["strategy"]["attacked_fraction"].update(test={"M": 0.5}),
                ),
                "strategy attacks M test samples but generator poison_injection replaces only M train samples",
            ),
            (
                "bio_spoof_face",
                lambda c: (
                    c["attack"].update(influence="causative"),
                    c["attack"]["capability"].update(affects_training=True, controllable_fraction={"train": {"M": 1.0}, "test": {"M": 1.0}}),
                    c["attack"]["strategy"]["attacked_fraction"].update(train={"M": "strength"}),
                ),
                "strategy attacks M train samples but generator spoof_face replaces only M test samples",
            ),
            (
                "spam_gwi_bwo",
                lambda c: c.update(classifier={"family": "one_class_svm", "nu": 0.1, "gamma": 0.5}),
                "generator gwi_bwo reads the parameters of a linear_svm or logistic_regression model (k.iv), not of a one_class_svm",
            ),
            ("ids_poison", lambda c: c["output"].update(directry="elsewhere"), "unknown output keys ['directry']"),
            ("spam_gwi_bwo", lambda c: c["data"].update(vocab_sise=50), "unknown data keys ['vocab_sise']"),
            ("spam_gwi_bwo", lambda c: c["attack"].update(strenght={"values": [0, 5]}), "unknown attack keys ['strenght']"),
            ("ids_poison", lambda c: c["attack"]["strategy"].update(prior_overide=0.1), "unknown attack.strategy keys ['prior_overide']"),
            ("ids_poison", lambda c: c.update(evalution={"seed": 1}), "unknown top-level keys ['evalution']"),
            (
                "spam_gwi_bwo",
                lambda c: c["attack"]["knowledge"].update(parameters="no"),
                "attack.knowledge.parameters must be true or false, got 'no'",
            ),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["capability"].update(affects_training="false"),
                "attack.capability.affects_training must be true or false, got 'false'",
            ),
            (
                "ids_poison",
                lambda c: c["attack"]["capability"].update(prior_change_allowed=1),
                "attack.capability.prior_change_allowed must be true or false, got 1",
            ),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["strategy"]["attacked_fraction"]["test"].update(M=True),
                "attack.strategy.attacked_fraction.test.M must be a number or 'strength', got True",
            ),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["capability"]["controllable_fraction"]["test"].update(M="1.0"),
                "attack.capability.controllable_fraction.test.M must be a number, got '1.0'",
            ),
            (
                "ids_poison",
                lambda c: c["attack"]["strategy"].update(prior_override=True),
                "attack.strategy.prior_override must be a number or 'strength', got True",
            ),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["strategy"]["attacked_fraction"].update(test={"X": 1.0}),
                "attack.strategy.attacked_fraction.test: unknown label 'X'",
            ),
            ("ids_poison", lambda c: c["attack"].pop("name"), "attack.name is required"),
            (
                "ids_poison",
                lambda c: c["attack"]["capability"].pop("affects_testing"),
                "attack.capability.affects_testing is required",
            ),
            ("spam_gwi_bwo", lambda c: c["attack"].pop("strategy"), "attack.strategy.generator is required"),
            ("spam_gwi_bwo", lambda c: c["attack"].update(influence="passive"), "attack.influence must be one of"),
            (
                "bio_spoof_face",
                lambda c: c["attack"]["strength"].update(values=[0, "x"]),
                "attack.strength.values must be a list of numbers, got [0, 'x']",
            ),
            (
                "bio_spoof_face",
                lambda c: (
                    c["attack"]["strength"].update(values=[0]),
                    c["evaluation"].update(collect_roc=[0]),
                    c["attack"]["strategy"]["attacked_fraction"].update(train={"M": "strength"}),
                ),
                (
                    "exploratory attacks affect only testing data",
                    "strategy modifies training data without the capability",
                    "strategy attacks M train samples but generator spoof_face replaces only M test samples",
                ),
            ),
            (
                "bio_spoof_face",
                lambda c: (
                    c["attack"].update(influence="causative"),
                    c["attack"]["capability"].update(prior_change_allowed=True),
                    c["attack"]["strategy"].update(prior_override=0.5),
                ),
                "inconsistent scenario: strategy overrides the training prior without the capability to modify training data",
            ),
        ],
        ids=[
            "strength-above-hi", "collect-roc-not-numeric", "collect-roc-outside-range", "collect-roc-not-a-strength",
            "collect-roc-string", "collect-roc-boolean", "collect-roc-numeric-string",
            "repetitions-zero", "repetitions-not-integer", "jobs-not-integer", "attack-name-slash", "attack-name-nul",
            "seed-not-integer",
            "folds-zero", "folds-not-integer", "synth-count-not-integer", "gar-above-one",
            "classifier-value-not-numeric", "output-null", "file-source-without-path", "emails-cross-validation",
            "classifier-key-typo", "source-list", "method-list", "family-list", "evaluation-key-typo", "c-grid-not-a-list", "classifier-value-string",
            "epochs-not-integer", "attacked-fraction-above-one", "attacked-fraction-negative",
            "strength-fraction-above-one", "strength-prior-above-one",
            "gwi-bwo-legitimate-test-cell", "poison-test-cell", "spoof-train-cell", "gwi-bwo-one-class-svm",
            "output-key-typo", "data-key-typo", "attack-key-typo", "strategy-key-typo", "top-level-key-typo",
            "knowledge-string-flag", "capability-string-flag", "capability-integer-flag", "fraction-boolean",
            "controllable-fraction-string", "prior-override-boolean", "fraction-unknown-label",
            "attack-name-missing", "capability-key-missing", "strategy-missing", "influence-unknown",
            "strength-values-not-numeric", "strength-train-fraction-zero-range", "train-prior-override-without-capability",
        ],
    )
    def test_validate_and_evaluate_reject_alike(self, name, edit, message, tmp_path, capsys):
        cfg = canned_config(name)
        cfg["output"]["directory"] = str(tmp_path / "o")
        edit(cfg)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        messages = (message,) if isinstance(message, str) else message  # one per problem line, in order
        for command in ("validate", "evaluate"):
            assert main([command, "--config", str(path)]) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == len(messages), lines
            assert all(m in line for m, line in zip(messages, lines)), lines
        assert not (tmp_path / "o").exists()

    def test_missing_family_reported_once(self, tmp_path, capsys):
        cfg = canned_config("spam_gwi_bwo")
        cfg["classifier"] = {"c": 1.0}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "classifier.family must be one of" in lines[0]

    def test_jobs_zero_exits_2(self, tmp_path, capsys):
        for command in ("validate", "evaluate"):
            assert main([command, "--scenario", "bio_spoof_face", "--jobs", "0", "--out", str(tmp_path / "o")]) == 2
            assert "evaluation.jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_problem_on_its_own_line(self, tmp_path, capsys):
        cfg = canned_config("ids_poison")
        cfg["evaluation"].update(seed="x", jobs=0)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 2
        assert "evaluation.seed must be an integer" in lines[0] and "evaluation.jobs must be >= 1" in lines[1]

    def test_missing_config_exits_2(self):
        assert main(["validate", "--config", "/nonexistent/x.yaml"]) == 2

    def test_no_color_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CLFSEC_NO_COLOR", "1")
        path = tmp_path / "bad.yaml"
        path.write_text("version: 99\n", encoding="utf-8")
        main(["validate", "--config", str(path)])
        assert "\x1b[" not in capsys.readouterr().err


class TestReportCommand:
    def _run_two(self, tmp_path):
        for scen, sub in (("spam_gwi_bwo", "a"), ("spam_gwi_bwo_lr", "b")):
            cfg = canned_config(scen)
            cfg["attack"]["strength"]["values"] = [0, 2, 4]
            cfg["output"]["directory"] = str(tmp_path / sub)
            p = tmp_path / f"{sub}.yaml"
            p.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            assert main(["evaluate", "--config", str(p)]) == 0
        return (
            tmp_path / "a" / "report_spam_gwi_bwo_linear_svm.json",
            tmp_path / "b" / "report_spam_gwi_bwo_logistic_regression.json",
        )

    def test_two_series_merge(self, tmp_path):
        import csv

        r1, r2 = self._run_two(tmp_path)
        assert main(["report", str(r1), str(r2), "--out", str(tmp_path / "figs")]) == 0
        with open(tmp_path / "figs" / "security_curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 3  # strength + two series columns
        assert len(rows) == 4
        assert (tmp_path / "figs" / "security_curves.svg").is_file()
        hints = json.loads((tmp_path / "figs" / "figure_hints.json").read_text())
        assert "security_curves" in hints

    def test_single_report_pass_through(self, tmp_path):
        import csv

        r1, _ = self._run_two(tmp_path)
        assert main(["report", str(r1), "--out", str(tmp_path / "figs1")]) == 0
        with open(tmp_path / "figs1" / "security_curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 2

    def test_union_grid_with_gaps(self, tmp_path):
        r1, r2 = self._run_two(tmp_path)
        doc = json.loads(r2.read_text())
        doc["curve"]["strengths"] = [0.0, 2.0, 8.0]  # diverging grid
        r2.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", str(r1), str(r2), "--out", str(tmp_path / "figs2")]) == 0
        lines = (tmp_path / "figs2" / "security_curves.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # union grid {0, 2, 4, 8}
        row8 = lines[-1].split(",")
        assert row8[1] == ""  # series 1 has no value at strength 8

    def test_mismatched_metrics_error(self, tmp_path, capsys):
        r1, r2 = self._run_two(tmp_path)
        doc = json.loads(r2.read_text())
        doc["metric"] = "far_at_gar_0.9"
        r2.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", str(r1), str(r2), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "auc10" in err and "far_at_gar_0.9" in err

    @pytest.mark.parametrize(
        "text",
        ["{}", "not json", '{"format": "clfsec-report", "version": 1}', "[]"],
        ids=["empty-object", "not-json", "no-curve", "json-list"],
    )
    def test_not_a_report_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(text, encoding="utf-8")
        assert main(["report", str(path), "--out", str(tmp_path / "f")]) == 2
        assert f"{path} is not a clfsec report" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    @pytest.fixture(scope="class")
    def bio_report(self, tmp_path_factory) -> Path:
        """The report of a small ``bio_spoof_face`` run, which holds ROC curves."""
        root = tmp_path_factory.mktemp("bio")
        cfg = canned_config("bio_spoof_face")
        cfg["data"]["synth"] = {"seed": 11, "n_genuine": 120, "n_impostor": 400}
        cfg["data"]["resampling"] = {"method": "cross_validation", "k": 3}
        cfg["output"]["directory"] = str(root)
        p = root / "bio.yaml"
        p.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["evaluate", "--config", str(p)]) == 0
        return root / "report_bio_spoof_face_gamma_fusion.json"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["curve"].update(strength_name=5), "curve.strength_name must be a string, got 5"),
            (lambda doc: doc["curve"].update(means="0.1 0.2"), "curve.means must be a list of numbers"),
            (
                lambda doc: doc["roc_curves"]["strength_0"].update(fp=0.5),
                "roc_curves.strength_0.fp must be a list of numbers, got 0.5",
            ),
            (lambda doc: doc.update(extra_key=1), "unknown top-level keys ['extra_key']"),
            (
                lambda doc: doc["curve"]["means"].pop(),
                "curve.strengths, curve.means, curve.stds must have equal lengths, got 2, 1, 2",
            ),
            (
                lambda doc: doc["roc_curves"]["strength_0"].update(tp=doc["roc_curves"]["strength_0"]["tp"][:2]),
                "roc_curves.strength_0.fp, roc_curves.strength_0.tp, roc_curves.strength_0.thresholds"
                " must have equal lengths, got ",
            ),
        ],
        ids=["non-string-name", "string-means", "non-list-fp", "unknown-key", "short-means", "short-tp"],
    )
    def test_field_of_the_wrong_type_exits_2(self, edit, message, bio_report, tmp_path, capsys):
        # such a report used to exit 1 with a TypeError from the figure writer
        doc = json.loads(bio_report.read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", str(bio_report), "--out", str(tmp_path / "ok")]) == 0
        assert main(["report", str(path), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert f"{path} is not a clfsec report" in err and message in err
        assert not (tmp_path / "f").exists()

    def test_roc_bundle_with_log_hint(self, tmp_path):
        cfg = canned_config("bio_spoof_fingerprint")
        cfg["data"]["synth"] = {"seed": 11, "n_genuine": 120, "n_impostor": 400}
        cfg["data"]["resampling"] = {"method": "cross_validation", "k": 3}
        cfg["output"]["directory"] = str(tmp_path / "bio")
        p = tmp_path / "bio.yaml"
        p.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["evaluate", "--config", str(p)]) == 0
        report = tmp_path / "bio" / "report_bio_spoof_fingerprint_gamma_fusion.json"
        assert main(["report", str(report), "--out", str(tmp_path / "figs3")]) == 0
        hints = json.loads((tmp_path / "figs3" / "figure_hints.json").read_text())
        assert hints["roc_curves"]["x_axis"] == "log"
        assert (tmp_path / "figs3" / "roc_curves.csv").is_file()

    def test_artefacts_parse_whatever_the_names(self, tmp_path):
        import csv
        import xml.etree.ElementTree as ET

        name = 'bio <&> "face",\x01 spoof'
        cfg = canned_config("bio_spoof_face")
        cfg["attack"]["name"] = name
        cfg["attack"]["strength"]["name"] = "spoof, <fraction>"
        cfg["output"]["directory"] = str(tmp_path / "bio")
        p = tmp_path / "bio.yaml"
        p.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["evaluate", "--config", str(p)]) == 0
        report = tmp_path / "bio" / f"report_{name}_gamma_fusion.json"
        figs = tmp_path / "figs"
        assert main(["report", str(report), "--out", str(figs)]) == 0
        with open(figs / "roc_curves.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["series", "far", "gar"]
        assert {row[0] for row in rows} == {f"{name}/strength_0", f"{name}/strength_1"}
        assert all(len(row) == 3 and 0.0 <= float(row[1]) <= 1.0 and 0.0 <= float(row[2]) <= 1.0 for row in rows)
        with open(figs / "security_curves.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["spoof, <fraction>", f"{name}/gamma_fusion(threshold=1.0)"]
        assert [float(row[0]) for row in rows] == [0.0, 1.0] and all(float(row[1]) >= 0.0 for row in rows)
        for svg in ("security_curves.svg", "roc_curves.svg"):
            texts = [t.text for t in ET.parse(figs / svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
            assert any(name.replace("\x01", "\ufffd") in text for text in texts), texts


class TestCannedConfigs:
    def test_every_canned_config_validates(self):
        for name in canned_scenario_names():
            cfg = canned_config(name)
            run = parse_config(cfg)
            assert run.doc is cfg
            assert run.scenario.name == cfg["attack"]["name"]
            assert run.classifier.family == cfg["classifier"]["family"]
            assert run.scenario.strength.values == tuple(float(s) for s in cfg["attack"]["strength"]["values"])
            assert run.seed == cfg["evaluation"]["seed"]


    def test_benchmark_configs_parse(self):
        """The benchmark's own configs, which carry ``output.formats`` and an explicit ``prior_override: null``."""
        spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        expected = [
            (gen.spam_config(), "emails", "linear_svm", "gwi_bwo", gen.SPAM_N_MAX, Auc10(), 1),
            (gen.ids_config(1.0), "payloads", "one_class_svm", "poison_injection", gen.IDS_P_MAX, Auc10(), 1),
            (gen.bio_config(), "scores", "gamma_fusion", "spoof_face", gen.BIO_SPOOF, FarAtGar(0.9), gen.BIO_JOBS),
        ]
        for cfg, source, family, generator, strengths, metric, jobs in expected:
            assert cfg["output"]["formats"] and "prior_override" in cfg["attack"]["strategy"]
            assert cfg["evaluation"]["jobs"] == jobs  # checked, though no longer read
            run = parse_config(cfg)
            assert (run.source, run.classifier.family, run.scenario.strategy.generator) == (source, family, generator)
            assert run.scenario.strength.values == tuple(map(float, strengths))
            assert run.metric == metric

    def test_fraction_maps_take_every_label_name(self):
        attack = canned_config("bio_spoof_face")["attack"]
        attack["capability"]["controllable_fraction"] = {"test": {"M": 1.0, "L": 0.0}}
        renamed = canned_config("bio_spoof_face")["attack"]
        renamed["capability"]["controllable_fraction"] = {"test": {"spam": 1.0, " Genuine ": 0.0}}
        renamed["strategy"]["attacked_fraction"] = {"test": {"impostor": "strength"}}
        scen = scenario_from_config(attack)
        assert scenario_from_config(renamed) == scen
        assert scen.capability.controllable == {("test", M): 1.0, ("test", L): 0.0}


class TestTableOneInstantiation:
    """The three canned scenarios must reproduce the published data-model rows."""

    def test_spam_column(self):
        scen = scenario_from_config(canned_config("spam_gwi_bwo")["attack"])
        corpus = synthetic_spam_corpus(seed=7, n=400, d=60)
        folds = resample(corpus, Chronological(200), seed=1)
        d_tr, d_ts = folds.pairs[0]
        from clfsec.classifiers import train_linear_svm

        model = train_linear_svm(d_tr, 1.0)
        # training untouched: p_tr = p_D
        assert scen.untouched("train", 10, d_tr)
        pools = build_scenario_pools(scen, "test", d_ts.label_slices(), model, 10, 0)
        ts_spec, n = scenario_distribution_specs(scen, "test", 10, d_ts.label_slices(), pools)
        assert n == len(d_ts)
        # p_ts(Y) = p_D(Y); p_ts(A=T|L) = 0; p_ts(A=T|M) = 1
        assert ts_spec.prior_malicious == d_ts.empirical_prior_malicious()
        assert ts_spec.attack_prob[L] == 0.0
        assert ts_spec.attack_prob[M] == 1.0
        # p_ts(X|L, F) = p_D(X|L) (empirical slice); attack component empirical;
        # the (M, F) cell has no mass, so no pool
        assert ts_spec.components[(L, F)] == d_ts.restrict(label=L)
        assert (M, F) not in ts_spec.components
        assert isinstance(ts_spec.components[(M, T)], Dataset)
        assert len(ts_spec.components[(M, T)]) == len(d_ts.restrict(label=M))

    def test_biometric_column(self):
        scen = scenario_from_config(canned_config("bio_spoof_fingerprint")["attack"])
        table = synthetic_score_table(seed=11, n_genuine=100, n_impostor=300)
        folds = resample(table, Chronological(300), seed=1)
        d_tr, d_ts = folds.pairs[0]
        assert scen.untouched("train", 1.0, d_tr)  # p_tr = p_D
        pools = build_scenario_pools(scen, "test", d_ts.label_slices(), None, 1.0, 0)
        ts_spec, n = scenario_distribution_specs(scen, "test", 1.0, d_ts.label_slices(), pools)
        assert n == len(d_ts)
        assert ts_spec.prior_malicious == d_ts.empirical_prior_malicious()
        assert ts_spec.attack_prob[L] == 0.0
        assert ts_spec.attack_prob[M] == 1.0
        assert ts_spec.components[(L, F)] == d_ts.restrict(label=L)
        assert isinstance(ts_spec.components[(M, T)], Dataset)

    def test_ids_column(self):
        scen = scenario_from_config(canned_config("ids_poison")["attack"])
        traffic = synthetic_ids_traffic(seed=5, n_train=100, n_test_legit=100, n_test_malicious=30)
        folds = resample(traffic, Chronological(100), seed=1)
        d_tr, d_ts = folds.pairs[0]
        assert scen.untouched("test", 0.4, d_ts)  # testing untouched: p_ts = p_D
        pools = build_scenario_pools(scen, "train", d_ts.label_slices(), None, 0.4, 0)
        tr_spec, n = scenario_distribution_specs(scen, "train", 0.4, d_tr.label_slices(), pools)
        # the legitimate part keeps the fold's expected size: n (1 - p_max) = len(d_tr)
        assert n == round(len(d_tr) / 0.6)
        # p_tr(M) = p_max; p_tr(A=T|L) = 0; p_tr(A=T|M) = 1
        assert tr_spec.prior_malicious == 0.4
        assert tr_spec.attack_prob[L] == 0.0
        assert tr_spec.attack_prob[M] == 1.0
        # p_tr(X|L,F) = p_D(X|L); attack pool equals the malicious testing pool
        assert tr_spec.components[(L, F)] == d_tr.restrict(label=L)
        attacked = tr_spec.components[(M, T)]
        np.testing.assert_array_equal(
            attacked.features, d_ts.restrict(label=M).features
        )
        # one-class training has no clean malicious mass
        assert (M, F) not in tr_spec.components
