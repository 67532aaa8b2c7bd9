"""Corpus loaders and featurizers.

Turns raw material into :class:`~clfsec.data_model.Dataset` objects:

* email text -> a :class:`TermCorpus` of term ids -> binary bag-of-words
  over an information-gain vocabulary;
* network packet payloads -> 256-bin byte-frequency histograms (1-grams);
* biometric matcher scores -> min-max normalized (fingerprint, face) pairs;
* dense-CSV dataset files, the one dataset file format, which
  :func:`write_dense_csv` writes and :func:`load_tabular` reads back
  bit-exactly.

File formats
------------
Dense CSV            header ``f0,...,f{d-1},label``.
Email corpus index   lines ``<label> <path>``, paths relative to the index file.
Score table CSV      header ``user_id,claimed_id,fing_score,face_score,label``.
Payload file         one ``<hex>,<label>`` line per packet.
Labels               any name :meth:`~clfsec.data_model.Label.parse` reads.

Every reader walks the file with one line loop: blank lines are skipped
everywhere, ``#`` comment lines in the index and payload files only, and
an error names the offending ``<path>:<line>``.  The two CSV tables start
with their header on line 1 and reject non-finite numbers.

An email corpus is held as term ids, not as sets of strings: each term
gets one id, in order of first appearance in the text, and each document
is the sorted int32 array of its distinct ids, in compressed sparse row
layout (Saad 2003).  Information gain needs only each term's per-class
document frequencies (Yang & Pedersen 1997), which one ``np.bincount``
per class gives.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data_model import Dataset, Label, encode_labels

__all__ = [
    "TermCorpus",
    "Vocabulary",
    "ScoreTable",
    "MinMaxBounds",
    "tokenize_text",
    "tokenize_emails",
    "information_gain_select",
    "vectorize_corpus",
    "payload_histogram",
    "load_payloads",
    "load_scores",
    "load_tabular",
    "write_dense_csv",
]

# a token is a maximal run of [a-z0-9] of length 2-40; the lookarounds keep a
# longer run from matching in pieces
_TOKEN_RE = re.compile(r"(?<![a-z0-9])[a-z0-9]{2,40}(?![a-z0-9])")


def _lines(path: Path, comments: bool = False) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each stripped, non-blank line; ``comments`` also skips ``#`` lines."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not (comments and line[0] == "#"):
                yield lineno, line


def _csv_lines(path: Path) -> tuple[str, Iterator[tuple[int, str]]]:
    """A CSV table's header (``""`` unless it is on line 1) and its numbered data lines."""
    lines = _lines(path)
    lineno, header = next(lines, (1, ""))
    return (header if lineno == 1 else ""), lines


def _bad(path: Path, lineno: int, what: str) -> ValueError:
    """The error for a bad line: ``<what> at <path>:<line>``."""
    return ValueError(f"{what} at {path}:{lineno}")


def _parse_label(token: str, path: Path, lineno: int) -> Label:
    try:
        return Label.parse(token)
    except ValueError as exc:
        raise _bad(path, lineno, str(exc)) from None


def _check_finite(values: np.ndarray, path: Path) -> None:
    """Reject NaN and infinities in a CSV table's parsed rows (row ``i`` is data line ``i`` of :func:`_csv_lines`)."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        lineno, _ = next(islice(_lines(path), bad[0] + 1, None))
        raise _bad(path, lineno, "non-finite value")


# ---------------------------------------------------------------------------
# email tokenization and feature selection
# ---------------------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    """Lowercase alphanumeric tokens of length 2-40, in text order, repeats included."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_text(text: str) -> frozenset[str]:
    """Distinct lowercase alphanumeric tokens of length 2-40 (presence only)."""
    return frozenset(_tokens(text))


@dataclass(frozen=True, eq=False)
class TermCorpus:
    """Documents as sets of term ids, in compressed sparse row layout.

    ``terms[i]`` is the term of id ``i``.  Document ``r`` is
    ``ids[offsets[r]:offsets[r + 1]]``: its distinct term ids, increasing,
    as int32.  Iterating yields these arrays, one per document.
    """

    terms: tuple[str, ...]
    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_documents(cls, documents: Iterable[Iterable[str]]) -> "TermCorpus":
        """Give each term an id in order of first appearance, walking each document in its own order.

        Documents are consumed one at a time; only their ids are kept.
        """
        term_id: dict[str, int] = {}
        docs: list[np.ndarray] = []
        for doc in documents:
            terms = dict.fromkeys(doc)  # distinct, in first-appearance order
            ids = np.fromiter((term_id.setdefault(t, len(term_id)) for t in terms), np.int32, len(terms))
            ids.sort()
            docs.append(ids)
        offsets = np.concatenate(([0], np.cumsum([len(ids) for ids in docs], dtype=np.int64)))
        ids = np.concatenate(docs) if docs else np.zeros(0, dtype=np.int32)
        return cls(tuple(term_id), ids, offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[np.ndarray]:
        bounds = self.offsets.tolist()
        return (self.ids[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    def __getitem__(self, rows: slice) -> "TermCorpus":
        """The documents ``rows`` (consecutive ones), over the same term table."""
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a corpus slice takes consecutive documents")
        offsets = self.offsets[start:max(start, stop) + 1]
        return TermCorpus(self.terms, self.ids[offsets[0]:offsets[-1]], offsets - offsets[0])


def tokenize_emails(index_path: str | Path) -> tuple[TermCorpus, list[Label], int]:
    """Tokenize a labelled email corpus into a :class:`TermCorpus`.

    ``index_path`` lists one ``<label> <path>`` pair per line, paths
    relative to the index file.  Term ids follow the order in which terms
    first appear in the text, so they do not depend on the string hash
    seed.  Documents that cannot be decoded as UTF-8 or read are skipped
    with a warning; the skip count is returned.
    """
    index_path = Path(index_path)
    labels: list[Label] = []
    skipped = 0

    def documents() -> Iterator[list[str]]:
        nonlocal skipped
        for lineno, line in _lines(index_path, comments=True):
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise _bad(index_path, lineno, "malformed index line")
            lab = _parse_label(parts[0], index_path, lineno)
            doc_path = index_path.parent / parts[1]
            try:
                text = doc_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                warnings.warn(f"skipping {doc_path.resolve()}: {exc}", stacklevel=4)  # the caller of tokenize_emails
                skipped += 1
                continue
            labels.append(lab)
            yield _tokens(text)

    return TermCorpus.from_documents(documents()), labels, skipped


@dataclass(frozen=True)
class Vocabulary:
    """Terms ordered by descending information gain, ties lexicographic."""

    terms: tuple[str, ...]
    gains: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of an (unnormalized) count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _one_label_per_document(corpus: TermCorpus, labels: Sequence[Label]) -> np.ndarray:
    codes = encode_labels(labels)
    if len(codes) != len(corpus):
        raise ValueError(f"{len(codes)} labels for {len(corpus)} documents")
    return codes


def information_gain_select(corpus: TermCorpus, labels: Sequence[Label], vocab_size: int) -> Vocabulary:
    """Rank terms by IG(term) = H(Y) - H(Y | term presence); keep the top ones.

    Only terms present in some document of ``corpus`` are ranked.  A
    term's gain depends only on its count pair (documents present,
    malicious documents present), so it is computed once per distinct pair.
    """
    codes = _one_label_per_document(corpus, labels)
    n = len(codes)
    n_m = int(np.count_nonzero(codes))
    n_l = n - n_m
    if n_l == 0 or n_m == 0:
        raise ValueError("information gain needs both classes present")
    h_y = _entropy(np.array([n_l, n_m], dtype=np.float64))

    in_malicious = np.repeat(codes.astype(bool), np.diff(corpus.offsets))  # per (document, term) entry
    present = np.bincount(corpus.ids, minlength=len(corpus.terms))
    present_m = np.bincount(corpus.ids[in_malicious], minlength=len(corpus.terms))
    seen = np.flatnonzero(present)

    # (-gain, term) pairs; the negated gain is a plain float, so the sort
    # compares floats directly instead of numpy scalars
    neg_gain_of: dict[tuple[int, int], float] = {}
    ranked: list[tuple[float, str]] = []
    for i, n_p, m_p in zip(seen.tolist(), present[seen].tolist(), present_m[seen].tolist()):
        neg_gain = neg_gain_of.get((n_p, m_p))
        if neg_gain is None:
            cond = np.array(
                [[n_p - m_p, m_p], [n_l - (n_p - m_p), n_m - m_p]], dtype=np.float64
            )  # rows: present / absent; cols: L / M
            h_cond = sum(row.sum() / n * _entropy(row) for row in cond)
            neg_gain = neg_gain_of[n_p, m_p] = -float(h_y - h_cond)
        ranked.append((neg_gain, corpus.terms[i]))

    ranked.sort()  # descending gain, ties lexicographic
    if vocab_size > len(ranked):
        warnings.warn(
            f"vocab_size {vocab_size} exceeds the {len(ranked)} distinct terms; keeping all",
            stacklevel=2,
        )
        vocab_size = len(ranked)
    top = ranked[:vocab_size]
    return Vocabulary(terms=tuple(t for _, t in top), gains=tuple(-g for g, _ in top))


# vectorize_corpus sets a block of this many documents' ones at a time, so its
# index temporaries stay small however large the corpus
_VECTORIZE_ROWS = 1 << 10


def vectorize_corpus(corpus: TermCorpus, labels: Sequence[Label], vocab: Vocabulary) -> Dataset:
    """Binary bag-of-words: ``X[r, c] = 1`` when document ``r`` holds term ``vocab.terms[c]``."""
    codes = _one_label_per_document(corpus, labels)
    idx = vocab.index()
    column = np.array([idx.get(t, -1) for t in corpus.terms], dtype=np.intp)  # term id -> column; -1: not selected
    X = np.zeros((len(corpus), len(vocab)))
    offsets = corpus.offsets
    for at in range(0, len(corpus), _VECTORIZE_ROWS):
        stop = min(at + _VECTORIZE_ROWS, len(corpus))
        cols = column[corpus.ids[offsets[at]:offsets[stop]]]
        rows = np.repeat(np.arange(at, stop), np.diff(offsets[at:stop + 1]))
        kept = cols >= 0
        X[rows[kept], cols[kept]] = 1.0
    return Dataset.from_arrays(X, codes)


# ---------------------------------------------------------------------------
# packet payload histograms
# ---------------------------------------------------------------------------


def payload_histogram(payload: bytes) -> np.ndarray:
    """Normalized 256-bin histogram of byte values (the 1-gram representation)."""
    if len(payload) == 0:
        raise ValueError("empty payload has no byte histogram")
    counts = np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256)
    return counts / len(payload)


def load_payloads(path: str | Path) -> Dataset:
    """Read ``<hex>,<label>`` lines into a 256-dimensional histogram dataset."""
    path = Path(path)
    rows = []
    labels = []
    for lineno, line in _lines(path, comments=True):
        try:
            hex_part, label_part = line.rsplit(",", 1)
        except ValueError:
            raise _bad(path, lineno, "malformed payload line") from None
        try:
            payload = bytes.fromhex(hex_part.strip())
        except ValueError as exc:
            raise _bad(path, lineno, f"bad hex payload ({exc})") from None
        if len(payload) == 0:
            raise _bad(path, lineno, "empty payload")
        rows.append(payload_histogram(payload))
        labels.append(_parse_label(label_part, path, lineno))
    if not rows:
        raise ValueError(f"no payloads in {path}")
    return Dataset.from_arrays(np.stack(rows), labels)


# ---------------------------------------------------------------------------
# biometric score tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinMaxBounds:
    """Per-matcher normalization bounds fitted on the full score set."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def apply(self, raw: np.ndarray) -> np.ndarray:
        """Map raw scores into [0, 1]; out-of-range test values clip."""
        raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return np.clip((raw - lo) / (hi - lo), 0.0, 1.0)


@dataclass(frozen=True)
class ScoreTable:
    dataset: Dataset
    bounds: MinMaxBounds


_SCORE_HEADER = ["user_id", "claimed_id", "fing_score", "face_score", "label"]


def load_scores(path: str | Path) -> ScoreTable:
    """Load a matcher-score CSV and min-max normalize each matcher to [0, 1]."""
    path = Path(path)
    header, lines = _csv_lines(path)
    if [h.strip() for h in header.lower().split(",")] != _SCORE_HEADER:
        raise ValueError(f"score table {path} must start with header {','.join(_SCORE_HEADER)}")
    raw = []
    codes = []
    parsed: dict[str, int] = {}  # the class code of each distinct label token, parsed once
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 5:
            raise _bad(path, lineno, "malformed score row")
        try:
            raw.append((float(parts[2]), float(parts[3])))
        except ValueError:
            raise _bad(path, lineno, "non-numeric score") from None
        code = parsed.get(parts[4])
        if code is None:
            code = parsed[parts[4]] = int(_parse_label(parts[4], path, lineno) is Label.MALICIOUS)
        codes.append(code)
    if not raw:
        raise ValueError(f"no score rows in {path}")
    raw_arr = np.array(raw)
    _check_finite(raw_arr, path)
    lo = raw_arr.min(axis=0)
    hi = raw_arr.max(axis=0)
    for m, name in enumerate(("fing_score", "face_score")):
        if hi[m] == lo[m]:
            raise ValueError(f"degenerate scores: matcher {name} is constant")
    bounds = MinMaxBounds(lo=(float(lo[0]), float(lo[1])), hi=(float(hi[0]), float(hi[1])))
    dataset = Dataset.from_arrays(bounds.apply(raw_arr), np.array(codes, dtype=np.uint8))
    return ScoreTable(dataset=dataset, bounds=bounds)


# ---------------------------------------------------------------------------
# dense-CSV dataset files
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def write_dense_csv(dataset: Dataset, path: str | Path) -> None:
    d = dataset.dimension
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n")
        for i in range(len(dataset)):
            row = ",".join(_fmt(v) for v in dataset.features[i])
            lab = "M" if dataset.label_codes[i] else "L"
            fh.write(f"{row},{lab}\n" if d else f"{lab}\n")


def load_tabular(path: str | Path) -> Dataset:
    """Load a dense-CSV dataset file, as :func:`write_dense_csv` writes it."""
    path = Path(path)
    header, lines = _csv_lines(path)
    columns = header.split(",")
    if columns[-1] != "label":
        raise ValueError(f"dense file {path} must end its header with 'label'")
    d = len(columns) - 1
    rows = []
    labels = []
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != d + 1:
            raise _bad(path, lineno, f"ragged row ({len(parts) - 1} values, expected {d})")
        try:
            rows.append([float(v) for v in parts[:-1]])
        except ValueError:
            raise _bad(path, lineno, "non-numeric value") from None
        labels.append(_parse_label(parts[-1], path, lineno))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    features = np.array(rows, dtype=np.float64)
    _check_finite(features, path)
    return Dataset.from_arrays(features, labels)
