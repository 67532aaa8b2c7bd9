"""Seeded input generators and scenario configs for the benchmark workloads.

Each generator is a pure function of its seed: the same seed writes the
same bytes.  The program under test sees only the files written here and
the YAML config that points at them.

* ``spam-email``: TREC-style corpus, one text file per email plus a
  ``full/index`` of ``spam|ham ../data/inmail.N`` lines.
* ``ids-payload``: one ``<hex>,<label>`` line per packet; HTTP-like
  legitimate requests and NOP-sled-like malicious ones.
* ``bio-scores``: matcher-score table
  ``user_id,claimed_id,fing_score,face_score,label``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np
import yaml

# --- spam-email -------------------------------------------------------------

SPAM_DOCS = 6_000
SPAM_SPLIT = 3_000
SPAM_VOCAB = 1_000
SPAM_NEUTRAL_TERMS = 50_000
SPAM_CLASS_TERMS = 400  # per class
SPAM_N_MAX = [0, 10, 20, 30, 40, 50, 60]

# --- ids-payload ------------------------------------------------------------

IDS_TRAIN = 400
IDS_TEST_LEGIT = 500
IDS_TEST_MALICIOUS = 200
IDS_NU = 0.05
IDS_P_MAX = [0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]

# --- bio-scores -------------------------------------------------------------

BIO_GENUINE = 4_000
BIO_IMPOSTOR = 16_000
BIO_USERS = 400
BIO_FOLDS = 5
BIO_REPETITIONS = 40
BIO_JOBS = 2
BIO_SPOOF = [round(0.1 * i, 1) for i in range(11)]
BIO_COLLECT_ROC = [0, 1]
# raw matcher scores on a 0-100 scale (shape, scale) per (fingerprint, face)
BIO_GENUINE_GAMMA = ((18.0, 3.8), (6.0, 6.5))
BIO_IMPOSTOR_GAMMA = ((6.0, 5.0), (3.0, 7.0))

# the program's seed inside each config; the workload seed varies the inputs
EVALUATION_SEED = 42

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(i: int, min_len: int = 3) -> str:
    """Distinct lowercase letter string for each nonnegative index."""
    out = []
    while True:
        i, r = divmod(i, 26)
        out.append(_LETTERS[r])
        if i == 0 and len(out) >= min_len:
            break
    return "".join(reversed(out))


def _rng(seed: int, tag: str) -> np.random.Generator:
    words = [seed & 0xFFFFFFFF, seed >> 32] + list(tag.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path: Path, data: bytes) -> None:
    """Write ``data`` as the whole file, reusing its blocks if it exists.

    The benchmark writes every run's inputs over the previous run's files.
    Opening with ``O_TRUNC`` frees each file's blocks before they are
    allocated again, which for thousands of small files cost 1-2 s of
    kernel time and made set-up time swing with disk activity; writing
    over the old bytes and then cutting the file to length does not.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def write_spam_corpus(seed: int, root: Path) -> dict[str, str]:
    """Write the email corpus under ``root``; returns sha256 per input."""
    rng = _rng(seed, "spam-email")
    neutral = [_word(i) for i in range(SPAM_NEUTRAL_TERMS)]
    spam_words = [f"s{i}{_word(i, 2)}" for i in range(SPAM_CLASS_TERMS)]
    ham_words = [f"h{i}{_word(i, 2)}" for i in range(SPAM_CLASS_TERMS)]
    # Zipf tail over neutral terms, shared by both classes
    zipf = 1.0 / (np.arange(SPAM_NEUTRAL_TERMS) + 10.0)
    cdf = np.cumsum(zipf / zipf.sum())
    # per-word presence rates: own class 1-15 %, the other class a fifth of it
    own_rate = rng.uniform(0.01, 0.15, size=SPAM_CLASS_TERMS)

    is_spam = rng.random(SPAM_DOCS) < 0.5
    n_neutral = rng.integers(40, 160, size=SPAM_DOCS)
    neutral_ids = np.searchsorted(cdf, rng.random(int(n_neutral.sum())))
    neutral_ids = np.minimum(neutral_ids, SPAM_NEUTRAL_TERMS - 1)
    own = rng.random((SPAM_DOCS, SPAM_CLASS_TERMS)) < own_rate
    other = rng.random((SPAM_DOCS, SPAM_CLASS_TERMS)) < own_rate / 5.0

    data_dir = root / "data"
    index_dir = root / "full"
    data_dir.mkdir(parents=True, exist_ok=True)
    index_dir.mkdir(parents=True, exist_ok=True)
    corpus_hash = hashlib.sha256()
    index_lines = []
    pos = 0
    for i in range(SPAM_DOCS):
        words = [neutral[j] for j in neutral_ids[pos : pos + n_neutral[i]]]
        pos += n_neutral[i]
        mine, theirs = (spam_words, ham_words) if is_spam[i] else (ham_words, spam_words)
        words += [mine[j] for j in np.flatnonzero(own[i])]
        words += [theirs[j] for j in np.flatnonzero(other[i])]
        order = rng.permutation(len(words))
        words = [words[j] for j in order]
        body = "\n".join(" ".join(words[k : k + 12]) for k in range(6, len(words), 12))
        text = f"Subject: {' '.join(words[:6])}\n\n{body}\n"
        name = f"inmail.{i + 1}"
        blob = text.encode("utf-8")
        _write(data_dir / name, blob)
        corpus_hash.update(blob)
        index_lines.append(f"{'spam' if is_spam[i] else 'ham'} ../data/{name}\n")
    index = index_dir / "index"
    _write(index, "".join(index_lines).encode("utf-8"))
    return {"full/index": _sha256_file(index), "data/*": corpus_hash.hexdigest()}


_HTTP_PATHS = ["index", "images", "static", "api", "v1", "users", "login", "search",
               "cart", "item", "news", "css", "js", "assets", "docs", "profile"]
_HTTP_AGENTS = ["Mozilla/5.0 (X11; Linux x86_64)", "Mozilla/5.0 (Windows NT 10.0; Win64)",
                "curl/8.4.0", "Wget/1.21", "Mozilla/5.0 (Macintosh; Intel Mac OS X 13_1)"]
_ALNUM = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)


def _http_request(rng: np.random.Generator) -> bytes:
    def token(n: int) -> str:
        return _ALNUM[rng.integers(0, len(_ALNUM), size=n)].tobytes().decode("ascii")

    path = "/".join(_HTTP_PATHS[j] for j in rng.integers(0, len(_HTTP_PATHS), size=rng.integers(1, 5)))
    query = "&".join(f"{token(rng.integers(2, 8))}={token(rng.integers(2, 24))}"
                     for _ in range(rng.integers(0, 6)))
    method = "GET" if rng.random() < 0.8 else "POST"
    lines = [
        f"{method} /{path}{'?' + query if query else ''} HTTP/1.1",
        f"Host: www.{token(rng.integers(4, 10))}.com",
        f"User-Agent: {_HTTP_AGENTS[rng.integers(0, len(_HTTP_AGENTS))]}",
        "Accept: text/html,application/xhtml+xml;q=0.9,*/*;q=0.8",
        f"Cookie: session={token(rng.integers(16, 40))}",
        "Connection: keep-alive",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _nop_sled_request(rng: np.random.Generator) -> bytes:
    sled = b"\x90" * int(rng.integers(100, 400))
    shellcode = rng.integers(0, 256, size=int(rng.integers(50, 150)), dtype=np.uint8).tobytes()
    return b"GET /" + sled + shellcode + b" HTTP/1.1\r\nHost: target\r\n\r\n"


def payload_histograms(payloads: list[bytes]) -> np.ndarray:
    """256-bin byte-frequency histograms, one row per payload."""
    return np.stack([
        np.bincount(np.frombuffer(p, dtype=np.uint8), minlength=256) / len(p) for p in payloads
    ])


def median_distance_gamma(histograms: np.ndarray) -> float:
    """RBF width 1 / median squared pairwise distance over distinct pairs."""
    sq = (histograms * histograms).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * histograms @ histograms.T, 0.0)
    return float(1.0 / np.median(d2[np.triu_indices(len(histograms), k=1)]))


def write_payloads(seed: int, root: Path) -> tuple[dict[str, str], float]:
    """Write the payload file; returns (sha256 per input, RBF gamma)."""
    rng = _rng(seed, "ids-payload")
    train = [_http_request(rng) for _ in range(IDS_TRAIN)]
    test = [(_http_request(rng), "L") for _ in range(IDS_TEST_LEGIT)]
    test += [(_nop_sled_request(rng), "M") for _ in range(IDS_TEST_MALICIOUS)]
    test = [test[j] for j in rng.permutation(len(test))]
    rows = [(p, "L") for p in train] + test
    root.mkdir(parents=True, exist_ok=True)
    path = root / "payloads.hex"
    _write(path, "".join(f"{p.hex()},{lab}\n" for p, lab in rows).encode("ascii"))
    return {"payloads.hex": _sha256_file(path)}, median_distance_gamma(payload_histograms(train))


def write_scores(seed: int, root: Path) -> dict[str, str]:
    """Write the matcher-score table; returns sha256 per input."""
    rng = _rng(seed, "bio-scores")

    def draw(params, n):
        return np.column_stack([rng.gamma(k, th, size=n) for k, th in params])

    genuine = draw(BIO_GENUINE_GAMMA, BIO_GENUINE)
    impostor = draw(BIO_IMPOSTOR_GAMMA, BIO_IMPOSTOR)
    users = rng.integers(0, BIO_USERS, size=BIO_GENUINE + BIO_IMPOSTOR)
    # an impostor claims someone else's identity
    offset = rng.integers(1, BIO_USERS, size=BIO_IMPOSTOR)
    claimed = np.r_[users[:BIO_GENUINE], (users[BIO_GENUINE:] + offset) % BIO_USERS]
    scores = np.vstack([genuine, impostor])
    labels = ["genuine"] * BIO_GENUINE + ["impostor"] * BIO_IMPOSTOR
    lines = ["user_id,claimed_id,fing_score,face_score,label\n"]
    for r in rng.permutation(len(scores)):
        lines.append(
            f"u{users[r]:04d},u{claimed[r]:04d},{float(scores[r, 0])!r},{float(scores[r, 1])!r},{labels[r]}\n"
        )
    root.mkdir(parents=True, exist_ok=True)
    path = root / "scores.csv"
    _write(path, "".join(lines).encode("ascii"))
    return {"scores.csv": _sha256_file(path)}


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def _attack(name, influence, specificity, knowledge, capability, strategy, strength):
    return {
        "name": name,
        "influence": influence,
        "violation": "integrity",
        "specificity": specificity,
        "knowledge": knowledge,
        "capability": capability,
        "strategy": strategy,
        "strength": strength,
    }


def _config(data, classifier, attack, evaluation) -> dict:
    evaluation = {"repetitions": 1, "seed": EVALUATION_SEED, "jobs": 1, **evaluation}
    return {
        "version": 1,
        "data": data,
        "classifier": classifier,
        "attack": attack,
        "evaluation": evaluation,
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }


def spam_config() -> dict:
    return _config(
        data={
            "source": "emails",
            "path": "full/index",
            "vocab_size": SPAM_VOCAB,
            "resampling": {"method": "chronological", "split_index": SPAM_SPLIT},
        },
        classifier={"family": "linear_svm", "c": 1.0, "tolerance": 1.0e-6},
        attack=_attack(
            "spam_gwi_bwo", "exploratory", "indiscriminate",
            knowledge={"training_data": False, "feature_set": True, "algorithm": True,
                       "parameters": True, "feedback": False},
            capability={"affects_training": False, "affects_testing": True,
                        "prior_change_allowed": False, "controllable_fraction": {"test": {"M": 1.0}},
                        "feature_constraints": "binary features; at most n_max flips per sample"},
            strategy={"generator": "gwi_bwo", "attacked_fraction": {"test": {"M": 1.0}},
                      "prior_override": None},
            strength={"name": "n_max", "values": list(SPAM_N_MAX)},
        ),
        evaluation={"metric": "auc10"},
    )


def ids_config(gamma: float) -> dict:
    return _config(
        data={
            "source": "payloads",
            "path": "payloads.hex",
            "resampling": {"method": "chronological", "split_index": IDS_TRAIN},
        },
        classifier={"family": "one_class_svm", "nu": IDS_NU, "gamma": gamma},
        attack=_attack(
            "ids_poison", "causative", "indiscriminate",
            knowledge={"training_data": False, "feature_set": True, "algorithm": True,
                       "parameters": False, "feedback": False},
            capability={"affects_training": True, "affects_testing": False,
                        "prior_change_allowed": True, "controllable_fraction": {"train": {"M": 1.0}},
                        "feature_constraints": "full control of injected samples' features"},
            strategy={"generator": "poison_injection", "attacked_fraction": {"train": {"M": 1.0}},
                      "prior_override": "strength"},
            strength={"name": "p_max", "values": list(IDS_P_MAX)},
        ),
        evaluation={"metric": "auc10"},
    )


def bio_config() -> dict:
    return _config(
        data={
            "source": "scores",
            "path": "scores.csv",
            "resampling": {"method": "cross_validation", "k": BIO_FOLDS},
        },
        classifier={"family": "gamma_fusion", "threshold": 1.0},
        attack=_attack(
            "bio_spoof_face", "exploratory", "targeted",
            knowledge={"training_data": True, "feature_set": True, "algorithm": False,
                       "parameters": False, "feedback": False},
            capability={"affects_training": False, "affects_testing": True,
                        "prior_change_allowed": False, "controllable_fraction": {"test": {"M": 1.0}},
                        "feature_constraints": "replaces only the face score"},
            strategy={"generator": "spoof_face", "attacked_fraction": {"test": {"M": "strength"}},
                      "prior_override": None},
            strength={"name": "spoof_fraction", "values": list(BIO_SPOOF)},
        ),
        evaluation={
            "metric": {"far_at_gar": 0.9},
            "repetitions": BIO_REPETITIONS,
            "jobs": BIO_JOBS,
            "collect_roc": list(BIO_COLLECT_ROC),
        },
    )


def write_workload(workload: str, seed: int, root: Path) -> dict[str, str]:
    """Generate one workload's inputs and ``config.yaml`` under ``root``.

    Returns the sha256 of every generated input, the config included.
    """
    if workload == "spam-email":
        hashes, cfg = write_spam_corpus(seed, root), spam_config()
    elif workload == "ids-payload":
        hashes, gamma = write_payloads(seed, root)
        cfg = ids_config(gamma)
    elif workload == "bio-scores":
        hashes, cfg = write_scores(seed, root), bio_config()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config = root / "config.yaml"
    _write(config, yaml.safe_dump(cfg, sort_keys=False).encode("utf-8"))
    hashes["config.yaml"] = _sha256_file(config)
    return hashes
