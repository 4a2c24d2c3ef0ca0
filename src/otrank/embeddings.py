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
import mmap
import struct
from collections import Counter
from collections.abc import Container
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
    or, for a loaded store, a read-only float32 slice of the one buffer that
    holds every loaded sentence.
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

    Raises ``ValueError``, naming the key and token index, before the file is
    opened when a finite value is beyond float32's range; NaN and infinite
    values are written as they are.
    """
    path = Path(path)
    items = []
    for key, arr in store.sorted_items():
        with np.errstate(over="ignore"):
            data32 = arr.astype(np.float32, copy=False)
        overflow = np.isinf(data32) & np.isfinite(arr)
        if overflow.any():
            idx = int(np.argwhere(overflow)[0, 0])
            raise ValueError(f"the vector of token {idx} of {key} holds a finite value beyond "
                             "float32's range")
        items.append((key, data32))
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQ", FORMAT_VERSION, store.dim, store.num_records))
        for (inst, win, role), data32 in items:
            for idx in range(data32.shape[0]):
                _write_str(fh, inst)
                _write_str(fh, win)
                fh.write(role.encode("ascii"))
                fh.write(struct.pack("<I", idx))
                fh.write(data32[idx].tobytes())
    sidecar = {"dim": store.dim, "count": store.num_records}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n", "utf-8")


_U32 = struct.Struct("<I")
# The walk hands its mapped pages back to the OS every this many bytes, so that
# the file's bytes are never resident at once; without madvise they stay until
# the mapping closes.
_RELEASE_BYTES = 1 << 20
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def load_embedding_store(path: str | Path,
                         keys: Container[tuple[str, str, str]] | None = None) -> EmbeddingStore:
    """Read a binary embedding file back into an :class:`EmbeddingStore`.

    ``keys`` holds the ``(instance, window, role)`` tuples of the sentences to
    keep; ``None`` keeps every one. A key the file lacks is not an error here:
    looking it up raises :class:`EmbeddingKeyError`.

    Every record is checked, kept or not: the magic and version, the declared
    record count, the key strings and role byte, and that every sentence has
    token indices 0..T-1, each once. The kept sentences' float32 vectors are
    copied into one ``(T, dim)`` buffer, and each sentence is held as a
    read-only, C-contiguous slice of it, in index order also when its records
    come in several runs or out of order. The file is mapped and walked once;
    the walked pages are handed back as it goes and the mapping is closed
    before returning, so none of the file's bytes stay resident.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(20)
        if len(head) >= 4 and head[:4] != MAGIC:
            raise EmbeddingStoreError(f"{path.name}: bad magic, not an embedding store")
        if len(head) < 20:  # an empty file cannot be mapped
            raise EmbeddingStoreError(f"{path.name}: truncated file")
        version, dim, count = struct.unpack_from("<IIQ", head, 4)
        if version != FORMAT_VERSION:
            raise EmbeddingStoreError(f"{path.name}: unsupported format version {version}")
        if dim == 0:
            raise EmbeddingStoreError(f"{path.name}: dimension must be positive")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as raw:
            buf, index, odd = _walk_records(raw, path.name, dim, count, keys)
    store = EmbeddingStore(dim=dim)
    store._sentences = _check_indices(buf, index, odd, path.name)
    return store


def _walk_records(raw, name: str, dim: int, count: int, keys):
    """Walk every record of the mapped file ``raw`` after its header.

    A run is a stretch of records with one key header whose token indices
    count up by one. Returns the kept runs' rows in file order as one
    ``(rows, dim)`` float32 array; an index from each key to its first run's
    row in that array (-1 when not kept) and length; and, for each sentence
    not given as one run from index 0, its runs as ``(row, first index,
    length)``. A run's key header is read with ``struct.unpack_from`` on the
    mapping, with its bounds and UTF-8 checks written inline, since per-run
    method calls are most of the load time at small ``dim``.
    """
    truncated = f"{name}: truncated file"
    end = len(raw)
    record = 4 + 4 * dim  # a record's token index and vector
    # No more records fit in the file than ones with two empty strings.
    rows = np.empty((min(count, (end - 20) // (record + 9)), dim), "<f4")
    index: dict[tuple[str, str, str], tuple[int, int]] = {}
    odd: dict[tuple[str, str, str], list[tuple[int, int, int]]] = {}
    pending = []  # views of the kept runs not yet copied into ``rows``
    kept = copied = 0  # rows kept so far, and rows of those copied
    released = 0  # the mapping's pages below this offset are handed back
    pos = 20
    done = 0
    try:
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
                        f"{name}: string at byte {pos} is not UTF-8") from None
                pos += 4 + n
            if pos >= end:
                raise EmbeddingStoreError(truncated)
            role = chr(raw[pos])
            if role not in _ROLES:
                raise EmbeddingStoreError(f"{name}: unknown role byte {role!r}")
            pos += 1
            if pos + record > end:  # the run's first record must be whole
                raise EmbeddingStoreError(truncated)
            prefix = raw[start:pos]
            size = pos + record - start
            limit = min(count - done, (end - start) // size)
            (first,) = _U32.unpack_from(raw, pos)
            n = 1
            nxt = start + size
            header = pos + 4 - start  # a record's key header and token index
            # The run goes on while a record's key header and token index are its next.
            while n < limit and raw[nxt : nxt + header] == prefix + _U32.pack(first + n):
                n += 1
                nxt += size
            key = (key[0], key[1], role)
            row = -1
            if keys is None or key in keys:
                pending.append(np.ndarray((n, dim), "<f4", raw, pos + 4, (size, 4)))
                row = kept
                kept += n
            if key not in index:
                index[key] = (row, n)
                if first:
                    odd[key] = [(row, first, n)]
            else:
                first_row, first_n = index[key]
                odd.setdefault(key, [(first_row, 0, first_n)]).append((row, first, n))
            pos = nxt
            done += n
            if pos - released >= _RELEASE_BYTES:
                copied = _copy_pending(pending, rows, copied)
                page = pos - pos % mmap.PAGESIZE
                if _MADV_DONTNEED is not None:
                    raw.madvise(_MADV_DONTNEED, released, page - released)
                released = page
        if pos != end:
            raise EmbeddingStoreError(f"{name}: {end - pos} trailing bytes")
        _copy_pending(pending, rows, copied)
    finally:
        # numpy's views hold no buffer export, so closing the mapping would leave any
        # view still referenced after an error dangling.
        pending.clear()
    return rows if kept == len(rows) else rows[:kept].copy(), index, odd


def _copy_pending(pending: list, rows: np.ndarray, copied: int) -> int:
    """Copy the ``pending`` runs into ``rows`` from row ``copied`` on, in one join;
    return the number of rows copied so far."""
    if pending:
        n = sum(len(v) for v in pending)
        np.concatenate(pending, out=rows[copied : copied + n])
        copied += n
        pending.clear()
    return copied


def _check_indices(rows: np.ndarray, index, odd, name: str):
    """The kept sentences of :func:`_walk_records`' results as read-only slices of
    ``rows``, once each sentence of ``odd`` is known to hold each token index
    0..T-1 once. Those are checked in the order they first appear in the file;
    kept ones among them are gathered into index order."""
    gathered = {}  # a kept odd sentence's rows in token order
    for key in (k for k in index if k in odd):
        parts = odd[key]
        idx = np.concatenate([np.arange(first, first + n) for _, first, n in parts])
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        dup = idx[1:][idx[1:] == idx[:-1]]
        if dup.size:
            raise EmbeddingStoreError(f"{name}: duplicate token index {dup[0]} for {key!r}")
        if np.any(idx != np.arange(len(idx))):
            raise EmbeddingStoreError(
                f"{name}: token indices for {key!r} are not contiguous from 0"
            )
        if parts[0][0] >= 0:
            gathered[key] = np.concatenate(
                [np.arange(row, row + n) for row, _, n in parts])[order]
    spans = {key: span for key, span in index.items() if span[0] >= 0}
    if gathered:
        takes, start = [], 0
        for key, (row, n) in spans.items():
            takes.append(gathered.get(key, np.arange(row, row + n)))
            spans[key] = (start, len(takes[-1]))
            start += len(takes[-1])
        rows = rows[np.concatenate(takes)]
    rows.flags.writeable = False
    return {key: rows[row : row + n] for key, (row, n) in spans.items()}
