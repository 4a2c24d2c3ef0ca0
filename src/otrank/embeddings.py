"""Precomputed token embeddings and the question word-frequency table.

Token vectors arrive through a binary file contract (no encoder runs here).
Each record keys one token vector by (instance id, window id, role, token
index); question sentences use the placeholder window id ``"-"``. The
word-frequency table drives the probability marginals used by the optimal
transport alignment: a word's weight is the number of distinct training
questions it appears in, floored at 1 so unseen words never zero out a
distribution.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Token
from .errors import EmbeddingKeyError, EmbeddingStoreError, EmptyInputError

MAGIC = b"OTRK"
FORMAT_VERSION = 1

# Role bytes used in store keys.
ROLE_Q = "q"
ROLE_C = "c"
ROLE_P = "p"
ROLE_N = "n"
_ROLES = (ROLE_Q, ROLE_C, ROLE_P, ROLE_N)

QUESTION_WINDOW_ID = "-"


@dataclass
class FrequencyTable:
    """Per-word question counts over the training split."""

    counts: dict[str, int]
    num_questions: int

    def smoothed(self, word: str) -> int:
        """Count for ``word``, floored at 1 so sums are never zero."""
        return max(self.counts.get(word, 0), 1)


def build_frequency_table(train: Corpus) -> FrequencyTable:
    """Count, for every normalized word, the distinct training questions containing it.

    A word occurring twice in one question still counts once. All question
    tokens participate (filtering happens later, at alignment time).
    """
    if train.split != "train":
        raise ValueError(f"frequency table requires the train split, got {train.split!r}")
    if not train.instances:
        raise EmptyInputError("cannot build a frequency table from an empty corpus")
    counts: Counter[str] = Counter()
    for inst in train.instances:
        for word in {t.normalized for t in inst.question.tokens}:
            counts[word] += 1
    return FrequencyTable(counts=dict(counts), num_questions=len(train.instances))


def marginal_distribution(tokens: list[Token], ft: FrequencyTable) -> np.ndarray:
    """Sum-normalized smoothed frequencies of ``tokens``; entries sum to 1."""
    if not tokens:
        raise ValueError("cannot build a marginal distribution over zero tokens")
    weights = np.array([ft.smoothed(t.normalized) for t in tokens], dtype=np.float64)
    return weights / weights.sum()


@dataclass
class EmbeddingStore:
    """In-memory map from (instance, window, role) to a (tokens x dim) array.

    Vectors are held as float64 for downstream numerics but serialized as
    float32, matching the file contract. Immutable once loaded; concurrent
    reads are safe.
    """

    dim: int
    _sentences: dict[tuple[str, str, str], np.ndarray] = field(default_factory=dict)

    def add_sentence(self, instance_id: str, window_id: str, role: str, vectors) -> None:
        if role not in _ROLES:
            raise ValueError(f"unknown role {role!r}")
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected shape (tokens, {self.dim}), got {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("a sentence needs at least one token vector")
        self._sentences[(instance_id, window_id, role)] = arr

    def sentence_vectors(self, instance_id: str, window_id: str, role: str) -> np.ndarray:
        """Token vectors for one sentence, in token order."""
        key = (instance_id, window_id, role)
        try:
            return self._sentences[key]
        except KeyError:
            raise EmbeddingKeyError(
                f"no embeddings for instance={instance_id!r} window={window_id!r} role={role!r}"
            ) from None

    @property
    def num_records(self) -> int:
        """Total number of token vectors across all sentences."""
        return sum(arr.shape[0] for arr in self._sentences.values())

    def sorted_items(self):
        return sorted(self._sentences.items(), key=lambda kv: kv[0])


def _write_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def write_embedding_store(path: str | Path, store: EmbeddingStore) -> None:
    """Serialize a store to its binary file plus a JSON sidecar.

    Little-endian layout: magic ``OTRK``, version u32, dim u32, record count
    u64, then one record per token vector (instance id and window id as
    length-prefixed UTF-8, one role byte, token index u32, dim float32
    values). Records are emitted in sorted key order so writing is
    deterministic and save/load/save is byte-identical.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQ", FORMAT_VERSION, store.dim, store.num_records))
        for (inst, win, role), arr in store.sorted_items():
            data32 = arr.astype(np.float32)
            for idx in range(arr.shape[0]):
                _write_str(fh, inst)
                _write_str(fh, win)
                fh.write(role.encode("ascii"))
                fh.write(struct.pack("<I", idx))
                fh.write(data32[idx].tobytes())
    sidecar = {"dim": store.dim, "count": store.num_records}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n", "utf-8")


class _Reader:
    def __init__(self, raw: bytes, path: Path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise EmbeddingStoreError(f"{self.path.name}: truncated file")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def read_str(self) -> str:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n).decode("utf-8")


def load_embedding_store(path: str | Path) -> EmbeddingStore:
    """Read a binary embedding file back into an :class:`EmbeddingStore`.

    Validates the magic/version, the declared record count, and that every
    sentence has contiguous token indices 0..T-1.
    """
    path = Path(path)
    rd = _Reader(path.read_bytes(), path)
    if rd.take(4) != MAGIC:
        raise EmbeddingStoreError(f"{path.name}: bad magic, not an embedding store")
    version, dim, count = struct.unpack("<IIQ", rd.take(16))
    if version != FORMAT_VERSION:
        raise EmbeddingStoreError(f"{path.name}: unsupported format version {version}")
    if dim == 0:
        raise EmbeddingStoreError(f"{path.name}: dimension must be positive")

    tokens: dict[tuple[str, str, str], dict[int, np.ndarray]] = {}
    for _ in range(count):
        inst = rd.read_str()
        win = rd.read_str()
        role = rd.take(1).decode("ascii")
        if role not in _ROLES:
            raise EmbeddingStoreError(f"{path.name}: unknown role byte {role!r}")
        (idx,) = struct.unpack("<I", rd.take(4))
        vec = np.frombuffer(rd.take(4 * dim), dtype="<f4").astype(np.float64)
        sent = tokens.setdefault((inst, win, role), {})
        if idx in sent:
            raise EmbeddingStoreError(
                f"{path.name}: duplicate token index {idx} for ({inst!r}, {win!r}, {role!r})"
            )
        sent[idx] = vec
    if rd.pos != len(rd.raw):
        raise EmbeddingStoreError(f"{path.name}: {len(rd.raw) - rd.pos} trailing bytes")

    store = EmbeddingStore(dim=dim)
    for key, by_idx in tokens.items():
        n = len(by_idx)
        if sorted(by_idx) != list(range(n)):
            raise EmbeddingStoreError(
                f"{path.name}: token indices for {key!r} are not contiguous from 0"
            )
        store._sentences[key] = np.stack([by_idx[i] for i in range(n)])
    return store

