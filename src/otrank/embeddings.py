"""Precomputed token embeddings and the question word-frequency table.

Token vectors arrive through a binary file contract (no encoder runs here).
Each sentence is keyed by (instance id, window id, role); question sentences
use the placeholder window id ``"-"``. The file (format 2, little-endian) holds
the magic ``OTRK``, the version and dim as u32, the key directory's length as
u64, the directory, and one ``(rows, dim)`` float32 matrix. The directory is a
UTF-8 JSON array of ``[instance id, window id, role, rows]``, one entry per
sentence in sorted key order; each sentence's rows follow one another in the
matrix, in directory order. The word-frequency table drives the probability
marginals used by the optimal transport alignment: a word's weight is the
number of distinct training questions it appears in, floored at 1 so unseen
words never zero out a distribution.
"""

from __future__ import annotations

import json
import os
import struct
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Token
from .errors import EmbeddingKeyError, EmbeddingStoreError, EmptyInputError

MAGIC = b"OTRK"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, directory length

# The roles of a sentence in store keys.
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

    Every sentence's vectors are a run of consecutive rows of one ``(R, dim)``
    row matrix, :attr:`matrix`; a span table maps each key to its first row
    and row count. A loaded store's matrix is the read-only float32 buffer
    the loader reads the kept rows into. :meth:`add_sentence` queues float64
    rows, and the first read after it packs every queued row into the matrix
    with one concatenation; a key is added once. Alignment takes the store
    and each side's key (see :func:`~otrank.sinkhorn.align_sentences`), reads
    the rows of the key's span by row number and widens the rows it gathers;
    widening is exact, so the numerics downstream see the same values either
    way. Once nothing more is added, concurrent reads are safe.
    """

    dim: int
    _spans: dict[tuple[str, str, str], tuple[int, int]] = field(default_factory=dict)
    _matrix: np.ndarray | None = None
    _queued: list[np.ndarray] = field(default_factory=list, init=False)
    _rows: int = field(init=False)  # the matrix's rows and the queued ones

    def __post_init__(self):
        if self._matrix is None:
            self._matrix = np.empty((0, self.dim))
        self._rows = len(self._matrix)

    def add_sentence(self, instance_id: str, window_id: str, role: str, vectors) -> None:
        """Queue one sentence's ``(tokens, dim)`` vectors under a key not yet held."""
        key = (instance_id, window_id, role)
        if role not in _ROLES:
            raise ValueError(f"unknown role {role!r}")
        if key in self._spans:
            raise ValueError(f"the store already holds {key!r}")
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected shape (tokens, {self.dim}), got {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("a sentence needs at least one token vector")
        self._queued.append(arr)
        self._spans[key] = (self._rows, len(arr))
        self._rows += len(arr)

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``(R, dim)`` row matrix that holds every sentence."""
        if self._queued:
            self._matrix = np.concatenate([self._matrix, *self._queued])
            self._matrix.flags.writeable = False
            self._queued = []
        return self._matrix

    def span(self, instance_id: str, window_id: str, role: str) -> tuple[int, int]:
        """First row and row count of one sentence's vectors in :attr:`matrix`."""
        try:
            return self._spans[(instance_id, window_id, role)]
        except KeyError:
            raise EmbeddingKeyError(
                f"no embeddings for instance={instance_id!r} window={window_id!r} role={role!r}"
            ) from None

    def stored_vectors(self, instance_id: str, window_id: str, role: str) -> np.ndarray:
        """Token vectors for one sentence, in token order: a read-only view of
        :attr:`matrix` (float32 when loaded, float64 when added)."""
        first, rows = self.span(instance_id, window_id, role)
        return self.matrix[first : first + rows]

    @property
    def num_records(self) -> int:
        """Number of token vectors held for the stored sentences; for a keyed
        load, those of the kept sentences only."""
        return sum(rows for _, rows in self._spans.values())

    def sorted_items(self):
        """Every (key, array) pair in key order, each array as :meth:`stored_vectors` gives it."""
        return [(key, self.stored_vectors(*key)) for key in sorted(self._spans)]


def write_embedding_store(path: str | Path, store: EmbeddingStore) -> None:
    """Serialize a store to its binary file (format 2, described in the module).

    Sentences are written in sorted key order, so writing is deterministic and
    save/load/save is byte-identical.

    Raises ``ValueError``, naming the key and token index, before the file is
    opened when a finite value is beyond float32's range; NaN and infinite
    values are written as they are.
    """
    items = []
    for key, arr in store.sorted_items():
        with np.errstate(over="ignore"):
            data32 = arr.astype("<f4", copy=False)
        overflow = np.isinf(data32) & np.isfinite(arr)
        if overflow.any():
            idx = int(np.argwhere(overflow)[0, 0])
            raise ValueError(f"the vector of token {idx} of {key} holds a finite value beyond "
                             "float32's range")
        items.append((key, data32))
    directory = json.dumps([[*key, len(data32)] for key, data32 in items],
                           separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, store.dim, len(directory)))
        fh.write(directory)
        for _, data32 in items:
            fh.write(data32.tobytes())


def load_embedding_store(path: str | Path,
                         keys: Container[tuple[str, str, str]] | None = None) -> EmbeddingStore:
    """Read a binary embedding file back into an :class:`EmbeddingStore`.

    ``keys`` holds the ``(instance, window, role)`` tuples of the sentences to
    keep; ``None`` keeps every one. A key the file lacks is not an error here:
    looking it up raises :class:`EmbeddingKeyError`.

    The header and the whole key directory are read and checked before any
    vector is, kept or not: the magic and version, a positive dim, each
    entry's shape, role and row count, keys in strictly increasing order, and
    a file size of exactly the header, the directory and the rows it counts.
    So a corrupt file fails alike whatever ``keys`` is. Only the kept
    sentences' rows are then read, each stretch of adjacent kept sentences in
    one read, into one ``(rows, dim)`` float32 buffer, which becomes the
    store's read-only :attr:`~EmbeddingStore.matrix`.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) >= 4 and head[:4] != MAGIC:
            raise EmbeddingStoreError(f"{path.name}: bad magic, not an embedding store")
        if len(head) < _HEADER.size:
            raise EmbeddingStoreError(f"{path.name}: truncated file")
        _, version, dim, dir_len = _HEADER.unpack(head)
        if version != FORMAT_VERSION:
            raise EmbeddingStoreError(f"{path.name}: unsupported format version {version}")
        if dim == 0:
            raise EmbeddingStoreError(f"{path.name}: dimension must be positive")
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + dir_len:
            raise EmbeddingStoreError(f"{path.name}: truncated file")
        spans, runs, total = _kept_spans(fh.read(dir_len), path.name, keys)
        data = _HEADER.size + dir_len  # where the matrix starts
        excess = size - data - total * dim * 4
        if excess:
            raise EmbeddingStoreError(f"{path.name}: {excess} trailing bytes" if excess > 0
                                      else f"{path.name}: truncated file")
        buf = np.empty((sum(n for _, n in runs), dim), "<f4")
        out = 0
        for row, n in runs:
            fh.seek(data + row * dim * 4)
            if fh.readinto(buf[out : out + n]) != n * dim * 4:
                raise EmbeddingStoreError(f"{path.name}: truncated file")
            out += n
    buf.flags.writeable = False
    return EmbeddingStore(dim=dim, _spans=spans, _matrix=buf)


def _kept_spans(raw: bytes, name: str, keys):
    """Check the key directory ``raw`` and find its sentences that ``keys`` keeps.

    Returns the span table of the kept sentences, ``{key: (first row in the
    kept rows, rows)}``; the file's stretches of adjacent kept sentences as
    ``[first row, rows]``; and the row count of the whole matrix. Only the kept spans outlive the
    parsed directory.
    """
    try:
        entries = json.loads(str(raw, "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise EmbeddingStoreError(f"{name}: the key directory is not UTF-8 JSON: {exc}") from None
    if type(entries) is not list:
        raise EmbeddingStoreError(f"{name}: the key directory is not a JSON array")
    spans, runs = {}, []
    kept = total = 0
    prev = None
    for i, entry in enumerate(entries):
        inst = win = role = n = None
        if type(entry) is list and len(entry) == 4:
            inst, win, role, n = entry
        if type(inst) is not str or type(win) is not str or type(n) is not int:
            raise EmbeddingStoreError(f"{name}: directory entry {i} is not "
                                      "[instance id, window id, role, rows]")
        key = (inst, win, role)
        if role not in _ROLES:
            raise EmbeddingStoreError(f"{name}: unknown role {role!r} for {key!r}")
        if n < 1:
            raise EmbeddingStoreError(f"{name}: {key!r} has {n} rows, not at least one")
        if prev is not None and key <= prev:
            raise EmbeddingStoreError(f"{name}: duplicate key {key!r}" if key == prev else
                                      f"{name}: key {key!r} is out of sorted order")
        prev = key
        if keys is None or key in keys:
            if runs and runs[-1][0] + runs[-1][1] == total:
                runs[-1][1] += n
            else:
                runs.append([total, n])
            spans[key] = (kept, n)
            kept += n
        total += n
    return spans, runs, total
