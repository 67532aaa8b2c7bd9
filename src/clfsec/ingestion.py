"""Corpus loaders and featurizers.

Turns raw material into :class:`~clfsec.data_model.Dataset` objects:

* email text -> binary bag-of-words over an information-gain vocabulary;
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
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .data_model import Dataset, Label, encode_labels

__all__ = [
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

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MIN_TOKEN_LEN = 2
_MAX_TOKEN_LEN = 40


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


def tokenize_text(text: str) -> frozenset[str]:
    """Distinct lowercase alphanumeric tokens of length 2-40 (presence only)."""
    return frozenset(
        t for t in _TOKEN_RE.findall(text.lower()) if _MIN_TOKEN_LEN <= len(t) <= _MAX_TOKEN_LEN
    )


def tokenize_emails(index_path: str | Path) -> tuple[list[frozenset[str]], list[Label], int]:
    """Tokenize a labelled email corpus.

    ``index_path`` lists one ``<label> <path>`` pair per line, paths
    relative to the index file.  Documents that cannot be decoded as UTF-8
    or read are skipped with a warning; the skip count is returned.
    """
    index_path = Path(index_path)
    token_sets: list[frozenset[str]] = []
    labels: list[Label] = []
    skipped = 0
    for lineno, line in _lines(index_path, comments=True):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise _bad(index_path, lineno, "malformed index line")
        lab = _parse_label(parts[0], index_path, lineno)
        doc_path = index_path.parent / parts[1]
        try:
            text = doc_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            warnings.warn(f"skipping {doc_path.resolve()}: {exc}", stacklevel=2)
            skipped += 1
            continue
        token_sets.append(tokenize_text(text))
        labels.append(lab)
    return token_sets, labels, skipped


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


def information_gain_select(
    token_sets: Sequence[frozenset[str]], labels: Sequence[Label], vocab_size: int
) -> Vocabulary:
    """Rank terms by IG(term) = H(Y) - H(Y | term presence); keep the top ones.

    A term's gain depends only on its count pair (documents present,
    malicious documents present), so it is computed once per distinct pair.
    """
    labs = encode_labels(labels).tolist()  # Python ints: a sum of uint8 wraps at 256
    n = len(labs)
    n_m = sum(labs)
    n_l = n - n_m
    if n_l == 0 or n_m == 0:
        raise ValueError("information gain needs both classes present")
    h_y = _entropy(np.array([n_l, n_m], dtype=np.float64))

    present_m = Counter(chain.from_iterable(t for t, y in zip(token_sets, labs) if y))
    present = Counter(chain.from_iterable(t for t, y in zip(token_sets, labs) if not y))
    present.update(present_m)

    # (-gain, term) pairs; the negated gain is a plain float, so the sort
    # compares floats directly instead of numpy scalars
    neg_gain_of: dict[tuple[int, int], float] = {}
    ranked: list[tuple[float, str]] = []
    for term, n_p in present.items():
        m_p = present_m[term]
        neg_gain = neg_gain_of.get((n_p, m_p))
        if neg_gain is None:
            cond = np.array(
                [[n_p - m_p, m_p], [n_l - (n_p - m_p), n_m - m_p]], dtype=np.float64
            )  # rows: present / absent; cols: L / M
            h_cond = sum(row.sum() / n * _entropy(row) for row in cond)
            neg_gain = neg_gain_of[n_p, m_p] = -float(h_y - h_cond)
        ranked.append((neg_gain, term))

    ranked.sort()  # descending gain, ties lexicographic
    if vocab_size > len(ranked):
        warnings.warn(
            f"vocab_size {vocab_size} exceeds the {len(ranked)} distinct terms; keeping all",
            stacklevel=2,
        )
        vocab_size = len(ranked)
    top = ranked[:vocab_size]
    return Vocabulary(terms=tuple(t for _, t in top), gains=tuple(-g for g, _ in top))


def vectorize_corpus(
    token_sets: Sequence[frozenset[str]], labels: Sequence[Label], vocab: Vocabulary
) -> Dataset:
    idx = vocab.index()
    X = np.zeros((len(token_sets), len(vocab)))
    for r, toks in enumerate(token_sets):
        X[r, [idx[t] for t in toks & idx.keys()]] = 1.0
    return Dataset.from_arrays(X, list(labels))


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
    labels = []
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 5:
            raise _bad(path, lineno, "malformed score row")
        try:
            raw.append((float(parts[2]), float(parts[3])))
        except ValueError:
            raise _bad(path, lineno, "non-numeric score") from None
        labels.append(_parse_label(parts[4], path, lineno))
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
    return ScoreTable(dataset=Dataset.from_arrays(bounds.apply(raw_arr), labels), bounds=bounds)


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
