"""Corpus loaders and featurizers.

Turns raw material into :class:`~clfsec.data_model.Dataset` objects:

* email text -> binary bag-of-words over an information-gain vocabulary;
* network packet payloads -> 256-bin byte-frequency histograms (1-grams);
* biometric matcher scores -> min-max normalized (fingerprint, face) pairs;
* generic dense-CSV and sparse-triplet tabular files, round-trippable with
  the matching writers.

File formats
------------
Dense CSV            header ``f0,...,f{d-1},label``.
Sparse triplet       ``<d> <idx>:<val> ... ,<label>`` with 0-based indices.
Email corpus index   lines ``<label> <path>``, paths relative to the index file.
Score table CSV      header ``user_id,claimed_id,fing_score,face_score,label``.
Payload file         one ``<hex>,<label>`` line per packet.
Labels               any name :meth:`~clfsec.data_model.Label.parse` reads.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

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
    "write_sparse",
]

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MIN_TOKEN_LEN = 2
_MAX_TOKEN_LEN = 40


def _parse_label(token: str, where: str) -> Label:
    try:
        return Label.parse(token)
    except ValueError as exc:
        raise ValueError(f"{exc} at {where}") from None


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
    with open(index_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"malformed index line {lineno} in {index_path}")
            lab = _parse_label(parts[0], f"{index_path}:{lineno}")
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
    rows = []
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                hex_part, label_part = line.rsplit(",", 1)
            except ValueError:
                raise ValueError(f"malformed payload line {lineno} in {path}") from None
            try:
                payload = bytes.fromhex(hex_part.strip())
            except ValueError as exc:
                raise ValueError(f"bad hex payload at line {lineno} in {path}: {exc}") from None
            if len(payload) == 0:
                raise ValueError(f"empty payload at line {lineno} in {path}")
            rows.append(payload_histogram(payload))
            labels.append(_parse_label(label_part, f"{path}:{lineno}"))
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
    user_ids: tuple[str, ...]
    claimed_ids: tuple[str, ...]


def load_scores(path: str | Path) -> ScoreTable:
    """Load a matcher-score CSV and min-max normalize each matcher to [0, 1]."""
    raw = []
    labels = []
    users = []
    claimed = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().lower().split(",")
        expected = ["user_id", "claimed_id", "fing_score", "face_score", "label"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"score table {path} must start with header {','.join(expected)}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"malformed score row at line {lineno} in {path}")
            users.append(parts[0].strip())
            claimed.append(parts[1].strip())
            raw.append((float(parts[2]), float(parts[3])))
            labels.append(_parse_label(parts[4], f"{path}:{lineno}"))
    if not raw:
        raise ValueError(f"no score rows in {path}")
    raw_arr = np.array(raw)
    lo = raw_arr.min(axis=0)
    hi = raw_arr.max(axis=0)
    for m, name in enumerate(("fing_score", "face_score")):
        if hi[m] == lo[m]:
            raise ValueError(f"degenerate scores: matcher {name} is constant")
    bounds = MinMaxBounds(lo=(float(lo[0]), float(lo[1])), hi=(float(hi[0]), float(hi[1])))
    return ScoreTable(
        dataset=Dataset.from_arrays(bounds.apply(raw_arr), labels),
        bounds=bounds,
        user_ids=tuple(users),
        claimed_ids=tuple(claimed),
    )


# ---------------------------------------------------------------------------
# generic tabular IO
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


def write_sparse(dataset: Dataset, path: str | Path) -> None:
    d = dataset.dimension
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(dataset)):
            nz = np.flatnonzero(dataset.features[i])
            cells = " ".join(f"{j}:{_fmt(dataset.features[i][j])}" for j in nz)
            lab = "M" if dataset.label_codes[i] else "L"
            fh.write(f"{d} {cells},{lab}\n" if len(nz) else f"{d} ,{lab}\n")


def load_tabular(path: str | Path) -> Dataset:
    """Load a dense-CSV or sparse-triplet dataset file (format sniffed)."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("f0,") or first.strip() == "label":
        return _load_dense(path)
    return _load_sparse(path)


def _load_dense(path: Path) -> Dataset:
    rows = []
    labels = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "label":
            raise ValueError(f"dense file {path} must end its header with 'label'")
        d = len(header) - 1
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise ValueError(f"ragged row at line {lineno} in {path}: {len(parts) - 1} values, expected {d}")
            try:
                rows.append([float(v) for v in parts[:-1]])
            except ValueError:
                raise ValueError(f"non-numeric value at line {lineno} in {path}") from None
            labels.append(_parse_label(parts[-1], f"{path}:{lineno}"))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return Dataset.from_arrays(np.array(rows, dtype=np.float64), labels)


def _load_sparse(path: Path) -> Dataset:
    parsed: list[list[tuple[int, float]]] = []
    labels = []
    declared = None
    width = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                left, label_part = line.rsplit(",", 1)
            except ValueError:
                raise ValueError(f"malformed sparse row at line {lineno} in {path}") from None
            fields = left.split()
            try:
                d = int(fields[0])
            except (IndexError, ValueError):
                raise ValueError(f"missing dimension at line {lineno} in {path}") from None
            if declared is None:
                declared = d
            elif d != declared:
                raise ValueError(f"ragged row at line {lineno} in {path}: dimension {d} != {declared}")
            cells = []
            for cell in fields[1:]:
                try:
                    idx_s, val_s = cell.split(":")
                    idx = int(idx_s)
                    val = float(val_s)
                except (ValueError, IndexError):
                    raise ValueError(f"bad cell {cell!r} at line {lineno} in {path}") from None
                if idx < 0:
                    raise ValueError(f"negative index at line {lineno} in {path}")
                cells.append((idx, val))
                width = max(width, idx + 1)
            parsed.append(cells)
            labels.append(_parse_label(label_part, f"{path}:{lineno}"))
    if not parsed:
        raise ValueError(f"no data rows in {path}")
    # indices beyond the declared dimension widen the dataset
    dim = max(declared, width)
    X = np.zeros((len(parsed), dim))
    for r, cells in enumerate(parsed):
        for idx, val in cells:
            X[r, idx] = val
    return Dataset.from_arrays(X, labels)
