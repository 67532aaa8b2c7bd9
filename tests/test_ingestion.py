import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clfsec import ingestion
from clfsec.data_model import Dataset, Label
from clfsec.ingestion import (
    MinMaxBounds,
    TermCorpus,
    Vocabulary,
    information_gain_select,
    load_payloads,
    load_scores,
    load_tabular,
    payload_histogram,
    tokenize_emails,
    tokenize_text,
    vectorize_corpus,
    write_dense_csv,
)

from oracles import information_gain_reference

L, M = Label.LEGITIMATE, Label.MALICIOUS


def _corpus(token_sets) -> TermCorpus:
    return TermCorpus.from_documents(token_sets)


def _term_sets(corpus: TermCorpus) -> list[frozenset[str]]:
    return [frozenset(corpus.terms[i] for i in doc.tolist()) for doc in corpus]


class TestTokenizer:
    def test_presence_semantics(self):
        assert tokenize_text("buy viagra buy") == {"buy", "viagra"}

    def test_empty_document(self):
        assert tokenize_text("") == frozenset()

    def test_identical_documents_identical_sets(self):
        text = "Cheap Meds!! visit http://pills.example now"
        assert tokenize_text(text) == tokenize_text(text)

    def test_lowercase_split_and_length_filter(self):
        toks = tokenize_text("A BB " + "x" * 41 + " good-word under_score café")
        assert "a" not in toks  # too short
        assert "bb" in toks and "good" in toks and "word" in toks
        assert "x" * 41 not in toks  # too long
        assert "under" in toks and "score" in toks

    def test_corpus_index(self, tmp_path):
        (tmp_path / "a.txt").write_text("buy viagra now", encoding="utf-8")
        (tmp_path / "b.txt").write_text("meeting agenda attached", encoding="utf-8")
        (tmp_path / "c.txt").write_bytes(b"\xff\xfe invalid \xff utf8")
        index = tmp_path / "index"
        index.write_text("spam a.txt\nham b.txt\nspam c.txt\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="skipping"):
            corpus, labels, skipped = tokenize_emails(index)
        assert skipped == 1
        assert labels == [M, L]
        assert len(corpus) == 2
        assert _term_sets(corpus)[0] == {"buy", "viagra", "now"}
        assert corpus.terms == ("buy", "viagra", "now", "meeting", "agenda", "attached")  # first appearance

    def test_index_comments_skipped_and_malformed_line_named(self, tmp_path):
        (tmp_path / "a.txt").write_text("buy now", encoding="utf-8")
        index = tmp_path / "index"
        index.write_text("# TREC-style index\n\nspam a.txt\n", encoding="utf-8")
        assert tokenize_emails(index)[1] == [M]
        index.write_text("spam a.txt\nham\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"malformed index line at .*index:2$"):
            tokenize_emails(index)

    def test_index_in_subdirectory_with_parent_paths(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        (tmp_path / "full").mkdir()
        texts = {"a.txt": "Buy cheap meds now", "b.txt": "Agenda for the meeting, attached."}
        for name, text in texts.items():
            (data / name).write_text(text, encoding="utf-8")
        (tmp_path / "full" / "index").write_text(
            "spam ../data/a.txt\nham ../data/missing.txt\nham ../full/../data/b.txt\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)  # a relative index path still yields an absolute name
        with pytest.warns(UserWarning, match="skipping") as record:
            corpus, labels, skipped = tokenize_emails("full/index")
        assert skipped == 1
        assert labels == [M, L]
        assert _term_sets(corpus) == [tokenize_text(texts["a.txt"]), tokenize_text(texts["b.txt"])]
        (message,) = [str(w.message) for w in record]
        assert message.startswith(f"skipping {(data / 'missing.txt').resolve()}: ")


class TestInformationGain:
    def _entropy(self, *counts):
        total = sum(counts)
        return -sum(c / total * math.log2(c / total) for c in counts if c)

    def test_perfect_term_has_full_entropy_gain(self):
        token_sets = [{"win"}, {"win"}, {"hello"}, {"hello"}]
        labels = [M, M, L, L]
        vocab = information_gain_select(_corpus(token_sets), labels, 2)
        assert vocab.terms[0] in ("hello", "win")
        assert vocab.gains[0] == pytest.approx(self._entropy(2, 2), abs=1e-12)

    def test_constant_term_gains_nothing(self):
        token_sets = [{"the", "win"}, {"the"}, {"the"}, {"the", "x"}]
        labels = [M, M, L, L]
        vocab = information_gain_select(_corpus(token_sets), labels, 10)
        gain = dict(zip(vocab.terms, vocab.gains))
        assert gain["the"] == pytest.approx(0.0, abs=1e-15)

    def test_four_document_hand_oracle(self):
        # docs: M:{a,b} M:{a} L:{b} L:{c}; hand entropy arithmetic in bits
        token_sets = [{"a", "b"}, {"a"}, {"b"}, {"c"}]
        labels = [M, M, L, L]
        vocab = information_gain_select(_corpus(token_sets), labels, 3)
        gain = dict(zip(vocab.terms, vocab.gains))
        h_y = 1.0
        # a: present in 2 (both M), absent in 2 (both L) -> IG = 1 bit
        assert gain["a"] == pytest.approx(h_y, abs=1e-12)
        # b: present in 2 (one each), absent in 2 (one each) -> IG = 0
        assert gain["b"] == pytest.approx(0.0, abs=1e-12)
        # c: present in 1 (L), absent in 3 (2 M, 1 L)
        ig_c = h_y - (1 / 4) * 0.0 - (3 / 4) * self._entropy(2, 1)
        assert gain["c"] == pytest.approx(ig_c, abs=1e-12)

    def test_oversized_vocab_warns_and_keeps_all(self):
        token_sets = [{"a"}, {"b"}]
        with pytest.warns(UserWarning, match="distinct terms"):
            vocab = information_gain_select(_corpus(token_sets), [M, L], 10)
        assert len(vocab) == 2

    def test_ordering_gain_then_lexicographic(self):
        token_sets = [{"zz", "aa", "mm"}, {"zz", "aa", "mm"}, set(), set()]
        labels = [M, M, L, L]
        vocab = information_gain_select(_corpus(token_sets), labels, 3)
        assert list(vocab.terms) == ["aa", "mm", "zz"]  # equal gains, lexicographic

    def test_vocabulary_deterministic(self, rng):
        words = [f"w{i}" for i in range(25)]
        token_sets = [frozenset(w for w in words if rng.random() < 0.4) for _ in range(30)]
        labels = [M] * 15 + [L] * 15
        a = information_gain_select(_corpus(token_sets), labels, 15)
        b = information_gain_select(_corpus(list(token_sets)), list(labels), 15)
        assert a == b

    def test_nonnegative_gains(self, rng):
        words = [f"w{i}" for i in range(30)]
        token_sets = [frozenset(w for w in words if rng.random() < 0.3) for _ in range(40)]
        labels = [M if rng.random() < 0.5 else L for _ in range(40)]
        if labels.count(M) in (0, 40):
            labels[0] = L if labels[0] is M else M
        vocab = information_gain_select(_corpus(token_sets), labels, 30)
        assert all(g >= -1e-15 for g in vocab.gains)


    @given(
        seed=st.integers(0, 2**32 - 1),
        n_docs=st.integers(2, 30),
        n_patterns=st.integers(1, 6),
        n_terms=st.integers(1, 60),
        vocab_size=st.integers(1, 70),
    )
    def test_matches_per_term_reference(self, seed, n_docs, n_patterns, n_terms, vocab_size):
        # few presence patterns over many terms: most terms share their
        # (docs present, malicious docs present) pair and so tie on gain,
        # and short names over two letters make the lexicographic tie order matter
        rng = np.random.default_rng(seed)
        malicious = rng.random(n_docs) < 0.5
        malicious[:2] = [True, False]
        patterns = rng.random((n_patterns, n_docs)) < rng.uniform(0.05, 0.95, size=(n_patterns, 1))
        names = [bin(k + 2)[3:].replace("0", "a").replace("1", "b") for k in range(n_terms)]
        term_pattern = rng.integers(0, n_patterns, size=len(names))
        token_sets = [
            frozenset(t for t, p in zip(names, term_pattern) if patterns[p, r]) for r in range(n_docs)
        ]
        labels = [M if y else L for y in malicious]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                vocab = information_gain_select(_corpus(token_sets), labels, vocab_size)
            except ValueError:
                assert not any(token_sets)  # no term at all: nothing to rank
                return
        terms, gains = information_gain_reference(token_sets, malicious.tolist(), vocab_size)
        assert vocab.terms == terms
        assert vocab.gains == gains


class TestVectorize:
    VOCAB = Vocabulary(terms=("alpha", "beta", "gamma"), gains=(0.5, 0.3, 0.1))

    def _row(self, tokens):
        return vectorize_corpus(_corpus([tokens]), [L], self.VOCAB).features[0]

    def test_empty_token_set(self):
        np.testing.assert_array_equal(self._row(set()), [0, 0, 0])

    def test_superset_gives_ones(self):
        toks = {"alpha", "beta", "gamma", "delta"}
        np.testing.assert_array_equal(self._row(toks), [1, 1, 1])

    def test_disjoint_gives_zeros(self):
        np.testing.assert_array_equal(self._row({"x", "y"}), [0, 0, 0])

    def test_corpus_vectorization(self):
        ds = vectorize_corpus(_corpus([{"alpha"}, {"beta", "zz"}]), [M, L], self.VOCAB)
        assert ds.dimension == 3
        np.testing.assert_array_equal(ds.features, [[1, 0, 0], [0, 1, 0]])

    def test_out_of_vocabulary_documents(self):
        token_sets = [frozenset({"delta", "zz"}), frozenset(), frozenset({"beta"}), frozenset({"x"})]
        ds = vectorize_corpus(_corpus(token_sets), [M, L, M, L], self.VOCAB)
        assert ds.features.shape == (4, 3)
        np.testing.assert_array_equal(ds.features, [[0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert ds.label_codes.tolist() == [1, 0, 1, 0]

    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 25), n_vocab=st.integers(0, 12))
    def test_matches_dense_reference(self, seed, n_docs, n_vocab):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(16)]
        terms = tuple(rng.permutation(words)[:n_vocab].tolist())
        vocab = Vocabulary(terms=terms, gains=tuple(1.0 / (i + 1) for i in range(len(terms))))
        token_sets = [frozenset(w for w in words if rng.random() < 0.4) for _ in range(n_docs)]
        labels = [M if rng.random() < 0.5 else L for _ in range(n_docs)]
        ds = vectorize_corpus(_corpus(token_sets), labels, vocab)
        want = np.array([[1.0 if t in toks else 0.0 for t in terms] for toks in token_sets])
        assert ds.features.dtype == np.float64
        np.testing.assert_array_equal(ds.features, want.reshape(n_docs, len(terms)))


class TestTermCorpus:
    def test_ids_in_order_of_first_appearance_and_sorted_per_document(self):
        corpus = TermCorpus.from_documents([["bb", "aa", "bb"], [], ["cc", "aa"]])
        assert corpus.terms == ("bb", "aa", "cc")
        assert len(corpus) == 3 and corpus.ids.dtype == np.int32
        assert [doc.tolist() for doc in corpus] == [[0, 1], [], [1, 2]]

    def test_slices_share_the_term_table(self):
        corpus = TermCorpus.from_documents([["bb", "aa"], ["cc"], ["aa", "dd"]])
        tail = corpus[1:]
        assert tail.terms == corpus.terms
        assert [doc.tolist() for doc in tail] == [[2], [1, 3]]
        assert [doc.tolist() for doc in corpus[:1]] == [[0, 1]]
        assert len(corpus[:0]) == 0 and len(corpus[5:]) == 0 and len(corpus[2:1]) == 0
        with pytest.raises(ValueError, match="consecutive"):
            corpus[::2]

    def test_one_label_per_document(self):
        corpus = TermCorpus.from_documents([["aa"], ["bb"], ["aa"]])
        with pytest.raises(ValueError, match="2 labels for 3 documents"):
            information_gain_select(corpus, [M, L], 5)
        with pytest.raises(ValueError, match="4 labels for 3 documents"):
            vectorize_corpus(corpus, [M, L, M, L], Vocabulary(terms=("aa",), gains=(1.0,)))

    def test_ranks_only_terms_of_its_documents(self):
        # a term of a later document (a testing document, in the CLI's split) is not ranked
        corpus = TermCorpus.from_documents([["aa", "bb"], ["bb"], ["zz"]])
        with pytest.warns(UserWarning, match="the 2 distinct terms"):
            vocab = information_gain_select(corpus[:2], [M, L], 5)
        assert sorted(vocab.terms) == ["aa", "bb"]


class TestVectorizeRowBlocks:
    @pytest.mark.parametrize("extra", [-1, 0, 1, ingestion._VECTORIZE_ROWS + 1])
    def test_matches_dense_reference_around_a_block(self, extra):
        n_docs = ingestion._VECTORIZE_ROWS + extra
        rng = np.random.default_rng(n_docs)
        words = [f"w{i}" for i in range(16)]
        terms = tuple(rng.permutation(words)[:9].tolist())
        vocab = Vocabulary(terms=terms, gains=tuple(1.0 / (i + 1) for i in range(len(terms))))
        token_sets = [[w for w in words if rng.random() < 0.3] for _ in range(n_docs)]
        labels = [M if rng.random() < 0.5 else L for _ in range(n_docs)]
        ds = vectorize_corpus(_corpus(token_sets), labels, vocab)
        want = np.array([[1.0 if t in toks else 0.0 for t in terms] for toks in token_sets])
        np.testing.assert_array_equal(ds.features, want)
        np.testing.assert_array_equal(ds.label_codes, [1 if lab is M else 0 for lab in labels])


class TestPayloadHistogram:
    def test_uniform_single_byte(self):
        h = payload_histogram(b"\x41\x41\x41\x41")
        assert h[65] == 1.0 and h.sum() == 1.0 and np.count_nonzero(h) == 1

    def test_two_bytes(self):
        h = payload_histogram(b"\x00\x01")
        assert h[0] == 0.5 and h[1] == 0.5

    @given(st.binary(min_size=1, max_size=300))
    def test_simplex(self, payload):
        h = payload_histogram(payload)
        assert h.shape == (256,)
        assert np.all(h >= 0)
        assert abs(h.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty payload"):
            payload_histogram(b"")

    def test_load_payload_file(self, tmp_path):
        p = tmp_path / "pcap.txt"
        p.write_text("41414141,L\n0001,M\n", encoding="utf-8")
        ds = load_payloads(p)
        assert ds.dimension == 256 and len(ds) == 2
        assert ds.features[0][65] == 1.0
        assert ds.label_codes.tolist() == [0, 1]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "pcap.txt"
        p.write_text("# captured traffic\n\n41414141,L\n  # a probe\n0001,M\n", encoding="utf-8")
        ds = load_payloads(p)
        assert len(ds) == 2 and ds.label_codes.tolist() == [0, 1]

    def test_bad_hex_names_line(self, tmp_path):
        p = tmp_path / "pcap.txt"
        p.write_text("41414141,L\n0z01,M\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad hex payload .* at .*pcap\.txt:2$"):
            load_payloads(p)

    def test_unknown_label_names_line(self, tmp_path):
        p = tmp_path / "pcap.txt"
        p.write_text("41414141,spam\n0001,legit\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"unknown label 'legit' at .*pcap\.txt:2$"):
            load_payloads(p)


class TestScores:
    def test_min_max_normalization(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(
            "user_id,claimed_id,fing_score,face_score,label\n"
            "u1,u1,2,10,genuine\n"
            "u2,u1,4,30,impostor\n"
            "u3,u1,6,20,impostor\n",
            encoding="utf-8",
        )
        table = load_scores(p)
        # each matcher is normalized on its own; rows keep file order
        np.testing.assert_array_equal(table.dataset.features, [[0.0, 0.0], [0.5, 1.0], [1.0, 0.5]])
        assert table.dataset.label_codes.tolist() == [0, 1, 1]

    def test_non_numeric_score_names_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(
            "user_id,claimed_id,fing_score,face_score,label\nu1,u1,0.2,0.1,genuine\nu1,u1,0.5,abc,genuine\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"non-numeric score at .*scores\.csv:3$"):
            load_scores(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_names_line(self, value, tmp_path):
        # a NaN used to turn the whole face column into NaN through the min-max bounds
        p = tmp_path / "scores.csv"
        p.write_text(
            "user_id,claimed_id,fing_score,face_score,label\n"
            "u1,u1,0.1,0.2,genuine\n\n"
            f"u2,u1,0.5,{value},impostor\n"
            "u3,u1,0.3,0.4,impostor\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"non-finite value at .*scores\.csv:4$"):
            load_scores(p)

    def test_header_must_be_line_one_and_comments_are_rows(self, tmp_path):
        p = tmp_path / "scores.csv"
        rows = "u1,u1,2,10,L\nu2,u1,4,30,M\n"
        p.write_text("\nuser_id,claimed_id,fing_score,face_score,label\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match="must start with header"):
            load_scores(p)
        p.write_text("user_id,claimed_id,fing_score,face_score,label\n# note\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match=r"malformed score row at .*scores\.csv:2$"):
            load_scores(p)

    def test_unknown_label_names_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(
            "user_id,claimed_id,fing_score,face_score,label\nu1,u1,2,10, Genuine\nu2,u1,4,30,M\nu3,u1,6,20,imposter\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"unknown label 'imposter' at .*scores\.csv:4$"):
            load_scores(p)

    def test_each_label_token_parsed_once(self, tmp_path, monkeypatch):
        # a token seen before is not parsed again; an unknown one still names the first line holding it
        parsed = []
        parse = Label.parse.__func__
        monkeypatch.setattr(Label, "parse", classmethod(lambda cls, token: parsed.append(token) or parse(cls, token)))
        p = tmp_path / "scores.csv"
        tokens = ["genuine", "impostor", "genuine", "M", "impostor", " Genuine"]
        rows = "".join(f"u{i},u0,{i},{10 - i},{token}\n" for i, token in enumerate(tokens))
        p.write_text("user_id,claimed_id,fing_score,face_score,label\n" + rows, encoding="utf-8")
        assert load_scores(p).dataset.label_codes.tolist() == [0, 1, 0, 1, 1, 0]
        assert parsed == ["genuine", "impostor", "M", " Genuine"]
        p.write_text(
            "user_id,claimed_id,fing_score,face_score,label\nu1,u1,2,10,M\nu2,u1,4,30,imposter\nu3,u1,6,20,imposter\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"unknown label 'imposter' at .*scores\.csv:3$"):
            load_scores(p)

    def test_constant_matcher_rejected(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(
            "user_id,claimed_id,fing_score,face_score,label\nu1,u1,2,5,L\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="degenerate scores"):
            load_scores(p)

    def test_bounds_clip_out_of_range(self):
        b = MinMaxBounds(lo=(0.0, 0.0), hi=(1.0, 1.0))
        out = b.apply(np.array([[1.5, -0.5]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_normalization_idempotent_on_unit_bounds(self, rng):
        b = MinMaxBounds(lo=(0.0, 0.0), hi=(1.0, 1.0))
        X = rng.random((20, 2))
        np.testing.assert_array_equal(b.apply(X), X)


class TestTabularIO:
    def test_dense_file_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n1,2,L\n3,4,M\n", encoding="utf-8")
        ds = load_tabular(p)
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])
        assert ds.label_codes.tolist() == [0, 1]

    def test_dense_round_trip(self, tmp_path):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            scale = 10.0 ** rng.integers(-12, 12, (6, 4))
            X = np.where(
                rng.random((6, 4)) < 0.3,
                rng.normal(size=(6, 4)) * scale,
                rng.integers(-3, 4, (6, 4)).astype(float),
            )
            ds = Dataset.from_arrays(X, [M if v < 0.5 else L for v in rng.random(6)])
            path = tmp_path / f"rt{seed}.csv"
            write_dense_csv(ds, path)
            assert load_tabular(path) == ds

    def test_ragged_dense_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1,2,L\n3,M\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"ragged row .* at .*bad\.csv:3$"):
            load_tabular(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_dense_names_line(self, value, tmp_path):
        # such a file used to load, and then failed in write_dense_csv with "cannot convert float NaN to integer"
        p = tmp_path / "bad.csv"
        p.write_text(f"f0,f1,label\n1,2,L\n\n3,{value},M\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"non-finite value at .*bad\.csv:4$"):
            load_tabular(p)

    def test_dense_comment_line_is_a_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,label\n1,L\n# note\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv:3$"):
            load_tabular(p)

    def test_unknown_label_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,label\n1,L\n2,Q\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            load_tabular(p)

    def test_flags_not_persisted(self, tmp_path):
        ds = Dataset(np.ones((2, 2)), np.array([1, 1]), np.array([1, 0]))
        path = tmp_path / "f.csv"
        write_dense_csv(ds, path)
        back = load_tabular(path)
        assert np.all(back.flag_codes == 0)  # provenance is in-process only


class TestEmailPathGolden:
    """Real email ingestion (tokenize -> IG -> vectorize) on a seeded corpus.

    The canned spam scenarios read ``synthetic-spam`` features, so this is
    the tier-1 guard for the email path.  The hashes pin the vocabulary
    (terms and the ``repr`` of every gain as a Python float) and the design matrix; a change
    that moves them changes every spam curve built from email files.
    """

    VOCAB_SHA256 = "dee8c5cf45f8449df27bdf35293d56bbb734c440a45ab3db364deebc04e6d2e5"
    MATRIX_SHA256 = "146e94af06b89cb913045bb7b2fddcfbef5a783a33747cd1c3e3eba5c45bf976"

    @staticmethod
    def _write_corpus(root, seed=2024, n_docs=300):
        rnd = random.Random(seed)
        neutral = [f"n{i}" for i in range(1500)]
        spam_words = [f"s{i}" for i in range(60)]
        ham_words = [f"h{i}" for i in range(60)]
        data = root / "data"
        data.mkdir()
        (root / "full").mkdir()
        lines = []
        for i in range(n_docs):
            spam = rnd.random() < 0.5
            words = [neutral[int(len(neutral) * rnd.random() ** 3)] for _ in range(rnd.randrange(20, 60))]
            mine, theirs = (spam_words, ham_words) if spam else (ham_words, spam_words)
            words += [w for w in mine if rnd.random() < 0.12]
            words += [w for w in theirs if rnd.random() < 0.03]
            rnd.shuffle(words)
            text = f"Subject: {' '.join(words[:5])}\n\n{', '.join(words[5:])}!\n"
            (data / f"msg.{i}").write_text(text, encoding="utf-8")
            lines.append(f"{'spam' if spam else 'ham'} ../data/msg.{i}\n")
        index = root / "full" / "index"
        index.write_text("".join(lines), encoding="utf-8")
        return index

    def test_vocabulary_and_matrix_pinned(self, tmp_path):
        corpus, labels, skipped = tokenize_emails(self._write_corpus(tmp_path))
        assert skipped == 0 and len(corpus) == 300
        vocab = information_gain_select(corpus, labels, 200)
        ds = vectorize_corpus(corpus, labels, vocab)
        vocab_text = "\n".join(f"{t} {float(g)!r}" for t, g in zip(vocab.terms, vocab.gains))
        matrix = hashlib.sha256(repr(ds.features.shape).encode())
        matrix.update(ds.features.astype("<f8").tobytes())
        matrix.update(ds.label_codes.tobytes())
        assert hashlib.sha256(vocab_text.encode()).hexdigest() == self.VOCAB_SHA256
        assert matrix.hexdigest() == self.MATRIX_SHA256

    # tokenizes the corpus at argv[1] and prints its term ids, vocabulary and matrix fingerprints
    _FINGERPRINT = """
import hashlib, json, sys
from clfsec.ingestion import information_gain_select, tokenize_emails, vectorize_corpus
corpus, labels, _ = tokenize_emails(sys.argv[1])
vocab = information_gain_select(corpus, labels, 200)
ds = vectorize_corpus(corpus, labels, vocab)
matrix = hashlib.sha256(repr(ds.features.shape).encode())
matrix.update(ds.features.astype("<f8").tobytes())
matrix.update(ds.label_codes.tobytes())
ids = hashlib.sha256(corpus.ids.astype("<i4").tobytes() + corpus.offsets.astype("<i8").tobytes())
vocab_text = "\\n".join(f"{t} {float(g)!r}" for t, g in zip(vocab.terms, vocab.gains))
print(json.dumps({
    "terms": corpus.terms,
    "ids": ids.hexdigest(),
    "vocab": hashlib.sha256(vocab_text.encode()).hexdigest(),
    "matrix": matrix.hexdigest(),
}))
"""

    def test_independent_of_the_hash_seed(self, tmp_path):
        # frozenset iteration order changes with the hash seed, so term ids must not be taken from it
        import clfsec

        index = self._write_corpus(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(clfsec.__file__).parent.parent), env.get("PYTHONPATH")]))
        runs = []
        for hash_seed in ("0", "4242"):
            done = subprocess.run(
                [sys.executable, "-c", self._FINGERPRINT, str(index)],
                env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        assert runs[0]["vocab"] == self.VOCAB_SHA256 and runs[0]["matrix"] == self.MATRIX_SHA256
