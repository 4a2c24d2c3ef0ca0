"""Corpus data model: tokenization, stopword filtering, context padding, JSONL I/O.

A corpus is a list of questions, each with an ordered set of candidate
windows. A window bundles a candidate sentence with the previous and next
sentences of its source paragraph; missing context is replaced by a fixed
padding sentence so every window always has exactly three sentences.

The tokenizer is deliberately minimal and fully deterministic: lowercase,
split on whitespace, and detach leading/trailing punctuation into separate
tokens. The stoplist ships with the package (``stopwords.txt``).
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import CorpusFormatError

PAD_TEXT = "<pad>"

_PUNCT = frozenset(string.punctuation)


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The packaged English stoplist (lowercased words)."""
    text = resources.files("otrank").joinpath("stopwords.txt").read_text("utf-8")
    words = [ln.strip() for ln in text.splitlines()]
    return frozenset(w for w in words if w and not w.startswith("#"))


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    is_content: bool


@dataclass(frozen=True)
class Sentence:
    text: str
    tokens: tuple[Token, ...]
    is_padding: bool = False
    label: bool | None = None


@dataclass(frozen=True)
class CandidateWindow:
    """A candidate sentence plus its surrounding context sentences; a missing
    context is a padding sentence, so a window always holds three sentences."""

    id: str
    cand: Sentence
    prev: Sentence
    next: Sentence


@dataclass(frozen=True)
class QAInstance:
    question_id: str
    question: Sentence
    windows: tuple[CandidateWindow, ...]


@dataclass(frozen=True)
class Corpus:
    instances: tuple[QAInstance, ...]
    split: str  # train | dev | test


def _token(surface: str) -> Token:
    normalized = surface.lower()
    is_content = normalized not in stopwords() and not all(c in _PUNCT for c in normalized)
    return Token(surface=surface, normalized=normalized, is_content=is_content)


def _split_chunk(chunk: str) -> list[Token]:
    leading: list[str] = []
    while chunk and chunk[0] in _PUNCT:
        leading.append(chunk[0])
        chunk = chunk[1:]
    trailing: list[str] = []
    while chunk and chunk[-1] in _PUNCT:
        trailing.append(chunk[-1])
        chunk = chunk[:-1]
    parts = leading + ([chunk] if chunk else []) + trailing[::-1]
    return [_token(p) for p in parts]


def tokenize(text: str, chunks: dict[str, tuple[Token, ...]] | None = None) -> list[Token]:
    """Deterministically tokenize raw text.

    Lowercases, splits on whitespace, and peels leading/trailing punctuation
    characters off each chunk into their own tokens. Tokens that are pure
    punctuation or appear in the stoplist are marked non-content.

    ``chunks`` maps each whitespace chunk already seen to its tokens; pass one
    dictionary to several calls to tokenize each distinct chunk once. Tokens
    are frozen, so sentences may share them.
    """
    if chunks is None:
        chunks = {}
    out: list[Token] = []
    for chunk in text.split():
        tokens = chunks.get(chunk)
        if tokens is None:
            tokens = chunks[chunk] = tuple(_split_chunk(chunk))
        out.extend(tokens)
    return out


def make_sentence(text: str, label: bool | None = None,
                  chunks: dict[str, tuple[Token, ...]] | None = None) -> Sentence:
    return Sentence(text=text, tokens=tuple(tokenize(text, chunks)), label=label)


def padding_sentence() -> Sentence:
    """The fixed single-token placeholder used for missing context."""
    tok = Token(surface=PAD_TEXT, normalized=PAD_TEXT, is_content=False)
    return Sentence(text=PAD_TEXT, tokens=(tok,), is_padding=True, label=None)


def content_tokens(s: Sentence) -> list[Token]:
    """Tokens that survive stopword/punctuation filtering, in order.

    Falls back to the unfiltered tokens when filtering would empty a
    nonempty sentence, so downstream alignment always has a nonempty point
    set. Padding sentences have no content.
    """
    return [s.tokens[i] for i in content_token_indices(s)]


def content_token_indices(s: Sentence) -> list[int]:
    """Indices into ``s.tokens`` selected by :func:`content_tokens`."""
    if s.is_padding or not s.tokens:
        return []
    kept = [i for i, t in enumerate(s.tokens) if t.is_content]
    return kept if kept else list(range(len(s.tokens)))


def _as_label(value, where: str) -> bool:
    if value is True or value == 1:
        return True
    if value is False or value == 0:
        return False
    raise CorpusFormatError(f"{where}: label must be 0 or 1, got {value!r}")


def _as_optional_label(value, where: str) -> bool | None:
    if value is None:
        return None
    return _as_label(value, where)


def _context_sentence(text, label, where: str, chunks: dict) -> Sentence:
    # The label is checked even when the context is absent; an absent, null or
    # whitespace-only context is then a padding sentence, which has no label.
    label = _as_optional_label(label, where)
    if text is None or (isinstance(text, str) and not text.strip()):
        return padding_sentence()
    if not isinstance(text, str):
        raise CorpusFormatError(f"{where}: context text must be a string or null")
    return make_sentence(text, label=label, chunks=chunks)


def load_corpus(path: str | Path, split: str) -> Corpus:
    """Load a JSONL corpus file.

    One JSON object per line::

        {"question_id": str, "question": str,
         "candidates": [{"id": str, "text": str, "label": 0|1,
                         "prev": str|null, "prev_label": 0|1|null,
                         "next": str|null, "next_label": 0|1|null}]}

    All sentences are tokenized, missing contexts padded, and invariants
    validated. Raises :class:`CorpusFormatError` naming the offending line.
    Each distinct whitespace chunk of the file is tokenized once.
    """
    if split not in ("train", "dev", "test"):
        raise CorpusFormatError(f"unknown split {split!r}")
    path = Path(path)
    instances: list[QAInstance] = []
    seen_qids: set[str] = set()
    chunks: dict[str, tuple[Token, ...]] = {}
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path.name} line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusFormatError(f"{where}: not UTF-8") from None
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{where}: invalid JSON ({exc.msg})") from exc
            instances.append(_parse_instance(rec, where, seen_qids, chunks))
    return Corpus(instances=tuple(instances), split=split)


def _parse_instance(rec, where: str, seen_qids: set[str], chunks: dict) -> QAInstance:
    if not isinstance(rec, dict):
        raise CorpusFormatError(f"{where}: record must be a JSON object")
    qid = rec.get("question_id")
    if not isinstance(qid, str) or not qid:
        raise CorpusFormatError(f"{where}: missing or empty question_id")
    if qid in seen_qids:
        raise CorpusFormatError(f"{where}: duplicate question_id {qid!r}")
    seen_qids.add(qid)

    qtext = rec.get("question")
    if not isinstance(qtext, str) or not qtext.strip():
        raise CorpusFormatError(f"{where}: missing or empty question text")
    question = make_sentence(qtext, chunks=chunks)

    cands = rec.get("candidates")
    if not isinstance(cands, list) or not cands:
        raise CorpusFormatError(f"{where}: candidates must be a nonempty list")

    windows: list[CandidateWindow] = []
    seen_wids: set[str] = set()
    for k, c in enumerate(cands):
        cwhere = f"{where} candidate {k}"
        if not isinstance(c, dict):
            raise CorpusFormatError(f"{cwhere}: must be a JSON object")
        wid = c.get("id")
        if not isinstance(wid, str) or not wid:
            raise CorpusFormatError(f"{cwhere}: missing or empty id")
        if wid in seen_wids:
            raise CorpusFormatError(f"{cwhere}: duplicate window id {wid!r}")
        seen_wids.add(wid)
        text = c.get("text")
        if not isinstance(text, str) or not text.strip():
            raise CorpusFormatError(f"{cwhere}: missing or empty candidate text")
        if "label" not in c or c["label"] is None:
            raise CorpusFormatError(f"{cwhere}: candidate is missing its label")
        cand = make_sentence(text, label=_as_label(c["label"], cwhere), chunks=chunks)
        prev = _context_sentence(c.get("prev"), c.get("prev_label"), cwhere, chunks)
        nxt = _context_sentence(c.get("next"), c.get("next_label"), cwhere, chunks)
        windows.append(CandidateWindow(id=wid, cand=cand, prev=prev, next=nxt))
    return QAInstance(question_id=qid, question=question, windows=tuple(windows))


def _label_json(label: bool | None):
    return None if label is None else int(label)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to JSONL; inverse of :func:`load_corpus`.

    Padding sentences are written as null context so that a load/save cycle
    reproduces the file and a save/load cycle reproduces the data model.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for inst in corpus.instances:
            cands = []
            for w in inst.windows:
                prev = None if w.prev.is_padding else w.prev
                nxt = None if w.next.is_padding else w.next
                cands.append(
                    {
                        "id": w.id,
                        "text": w.cand.text,
                        "label": int(bool(w.cand.label)),
                        "prev": prev.text if prev else None,
                        "prev_label": _label_json(prev.label) if prev else None,
                        "next": nxt.text if nxt else None,
                        "next_label": _label_json(nxt.label) if nxt else None,
                    }
                )
            rec = {
                "question_id": inst.question_id,
                "question": inst.question.text,
                "candidates": cands,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
