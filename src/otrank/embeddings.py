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

    Each sentence is held as it was given: float64 from :meth:`add_sentence`,
    or, for a loaded store, read-only float32 views of the file's bytes.
    :meth:`stored_vectors` returns a sentence as held; alignment reads it so,
    and widens only the content rows it gathers. Widening is exact, so the
    numerics downstream see the same values either way. Immutable once
    loaded; concurrent reads are safe.
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

    def stored_vectors(self, instance_id: str, window_id: str, role: str) -> np.ndarray:
        """Token vectors for one sentence, in token order, as held (float64 or float32)."""
        try:
            return self._sentences[(instance_id, window_id, role)]
        except KeyError:
            raise EmbeddingKeyError(
                f"no embeddings for instance={instance_id!r} window={window_id!r} role={role!r}"
            ) from None

    @property
    def num_records(self) -> int:
        """Total number of token vectors across all sentences."""
        return sum(arr.shape[0] for arr in self._sentences.values())

    def sorted_items(self):
        """Every (key, array) pair in key order, each array as held."""
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


_U32 = struct.Struct("<I")


def load_embedding_store(path: str | Path) -> EmbeddingStore:
    """Read a binary embedding file back into an :class:`EmbeddingStore`.

    Validates the magic/version, the declared record count, and that every
    sentence has token indices 0..T-1, each once. The records of one sentence
    are parsed as a run: the records that follow with the same key header
    are taken as one strided view of indices and one of float32 vectors over
    the file's bytes, without copying. A sentence whose records come in
    several runs or out of index order is joined and put in index order.
    A run's key header is read with ``struct.unpack_from`` on the bytes, with
    its bounds and UTF-8 checks written inline, since per-run method calls
    were most of the load time at small ``dim``.
    """
    path = Path(path)
    raw = path.read_bytes()
    truncated = f"{path.name}: truncated file"
    end = len(raw)
    if end >= 4 and raw[:4] != MAGIC:
        raise EmbeddingStoreError(f"{path.name}: bad magic, not an embedding store")
    if end < 20:
        raise EmbeddingStoreError(truncated)
    version, dim, count = struct.unpack_from("<IIQ", raw, 4)
    if version != FORMAT_VERSION:
        raise EmbeddingStoreError(f"{path.name}: unsupported format version {version}")
    if dim == 0:
        raise EmbeddingStoreError(f"{path.name}: dimension must be positive")

    record = 4 + 4 * dim  # a record's token index and vector
    runs: dict[tuple[str, str, str], list[tuple[np.ndarray, np.ndarray]]] = {}
    pos = 20
    done = 0
    while done < count:
        start = pos
        key = []
        for _ in range(2):  # instance id, window id
            if pos + 4 > end:
                raise EmbeddingStoreError(truncated)
            (n,) = _U32.unpack_from(raw, pos)
            if pos + 4 + n > end:
                raise EmbeddingStoreError(truncated)
            try:
                key.append(str(raw[pos + 4 : pos + 4 + n], "utf-8"))
            except UnicodeDecodeError:
                raise EmbeddingStoreError(
                    f"{path.name}: string at byte {pos} is not UTF-8") from None
            pos += 4 + n
        if pos >= end:
            raise EmbeddingStoreError(truncated)
        role = chr(raw[pos])
        if role not in _ROLES:
            raise EmbeddingStoreError(f"{path.name}: unknown role byte {role!r}")
        pos += 1
        if pos + record > end:  # the run's first record must be whole
            raise EmbeddingStoreError(truncated)
        prefix = raw[start:pos]
        size = pos + record - start
        limit = min(count - done, (end - start) // size)
        n = 1
        while n < limit and raw.startswith(prefix, start + n * size):
            n += 1
        idx = np.ndarray((n,), "<u4", raw, pos, (size,))
        vecs = np.ndarray((n, dim), "<f4", raw, pos + 4, (size, 4))
        runs.setdefault((key[0], key[1], role), []).append((idx, vecs))
        pos = start + n * size
        done += n
    if pos != end:
        raise EmbeddingStoreError(f"{path.name}: {end - pos} trailing bytes")

    # The bytes of the indices 0, 1, 2, ..., to check a sentence's indices in one compare.
    counting = np.arange(done, dtype="<u4").tobytes()
    store = EmbeddingStore(dim=dim)
    for key, parts in runs.items():
        idx, vecs = parts[0] if len(parts) == 1 else (
            np.concatenate([i for i, _ in parts]), np.concatenate([v for _, v in parts]))
        if idx.tobytes() != counting[: 4 * len(idx)]:
            order = np.argsort(idx, kind="stable")
            idx, vecs = idx[order], vecs[order]
            dup = idx[1:][idx[1:] == idx[:-1]]
            if dup.size:
                raise EmbeddingStoreError(
                    f"{path.name}: duplicate token index {dup[0]} for {key!r}"
                )
            if idx.tobytes() != counting[: 4 * len(idx)]:
                raise EmbeddingStoreError(
                    f"{path.name}: token indices for {key!r} are not contiguous from 0"
                )
        store._sentences[key] = vecs
    return store
