"""Entity-linked corpus ingestion: documents, queries, qrels, passages.

File formats
------------
Corpus JSONL, one document per line:
    {"doc_id": str, "text": str,
     "entities": [{"entity_id": str, "mention": str, "start": int,
                   "end": int, "confidence": float}]}
Entity catalog JSONL:   {"entity_id": str, "description": str}
Queries TSV:            query_id <TAB> text
Qrels (TREC):           qid 0 docid grade   (whitespace-separated)

Mentions are `EntityMention` named tuples, checked against their text as
they load (string ids, integer span inside the text, confidence a number
in [0, 1]); a malformed line is a ValueError naming `path:line`. A corpus
repeats a few values across many mentions, so `load_corpus` keeps one
object per distinct value: each field (entity id, surface, offset,
confidence) has its own memo, so a value is shared only within its field
and type, and a confidence is shared only with a bit-equal one (zeros keep
their sign). Each document's distinct linked entity ids, in first-mention
order, are filled in from its memoized mentions as it loads
(`Document.entity_ids`), and pooling works on those ids with one dict
operation per document, not per mention. The entity-id memo
holds every linked id in first-mention order over the corpus, so the
store's entity table is built from it in one pass. A document keeps no
split of its sentences: the stages that need one only count them, with
`split_sentences`.

`load_corpus(..., mentions=False)` checks every line and every mention the
same way, with the same errors, and builds nothing from them: each document
keeps only its id and text, and the entity table only the catalog's
records. `build-index`, which reads only the texts, is the one caller.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

__all__ = [
    "EntityMention",
    "EntityRecord",
    "Document",
    "Query",
    "Qrels",
    "SegmenterConfig",
    "CorpusStore",
    "split_sentences",
    "load_corpus",
    "load_entity_catalog",
    "load_queries",
    "load_qrels",
    "pool_entities",
]

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    """Split on `.`, `!`, `?` followed by whitespace. Deterministic and
    dependency-free."""
    return [piece for piece in _SENTENCE_BREAK.split(text) if piece.strip()]


class EntityMention(NamedTuple):
    entity_id: str
    surface: str
    start: int
    end: int
    confidence: float


@dataclass(frozen=True)
class EntityRecord:
    entity_id: str
    description: str = ""


@dataclass
class Document:
    doc_id: str
    text: str
    mentions: list[EntityMention] = field(default_factory=list)

    @cached_property
    def entity_ids(self) -> tuple[str, ...]:
        """Distinct linked entities in first-mention order: filled in by
        `load_corpus` as it reads the document, found on first use otherwise."""
        return tuple(dict.fromkeys(m.entity_id for m in self.mentions))


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str


@dataclass
class Qrels:
    """Graded relevance judgments, (query_id, doc_id) -> grade >= 0."""

    grades: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"negative grade {grade} for ({query_id}, {doc_id})")
        per_query = self.grades.setdefault(query_id, {})
        if doc_id in per_query:
            raise ValueError(f"duplicate judgment for ({query_id}, {doc_id})")
        per_query[doc_id] = grade

    def grade(self, query_id: str, doc_id: str) -> int:
        """Grade of the pair; unjudged pairs grade 0."""
        return self.grades.get(query_id, {}).get(doc_id, 0)

    def relevant_docs(self, query_id: str) -> list[str]:
        """Doc ids judged with grade >= 1, in judgment order."""
        return [d for d, g in self.grades.get(query_id, {}).items() if g >= 1]


@dataclass(frozen=True)
class SegmenterConfig:
    """Sliding window of `window` sentences advanced by `stride` sentences."""

    window: int = 10
    stride: int = 5

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.stride <= self.window:
            raise ValueError(f"stride must be in [1, window] = [1, {self.window}], "
                             f"got {self.stride}")

    def passage_count(self, sentences: int) -> int:
        """How many passages a document of `sentences` sentences has: windows
        start at sentence 0, stride, 2*stride, ... and each covers up to
        `window` sentences; the first window that reaches the last sentence
        is the last one."""
        if sentences <= self.window:
            return min(sentences, 1)
        return -(-(sentences - self.window) // self.stride) + 1


@dataclass
class CorpusStore:
    """Immutable-after-load document and entity-record tables."""

    documents: dict[str, Document] = field(default_factory=dict)
    entities: dict[str, EntityRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.documents)

    def doc(self, doc_id: str) -> Document:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise KeyError(f"doc_id {doc_id!r} not in corpus") from None


def _read_document(raw, *memos: dict) -> Document:
    """One parsed corpus line as a `Document`; a malformed one is a
    ValueError without location. With the four `memos` (entity id, surface,
    offset, confidence) each mention field's value is looked up in that
    field's memo, so equal values share one object. Zero confidences bypass
    their memo: `-0.0 == 0.0`, and a memo would drop the sign. With no memos
    the mentions are checked alike and none is built."""
    if type(raw) is not dict:
        raise ValueError("expected a JSON object")
    try:
        doc_id = str(raw["doc_id"])
        text = str(raw["text"])
    except KeyError as e:
        raise ValueError(f"missing field {e}") from None
    raw_mentions = raw.get("entities", [])
    if type(raw_mentions) is not list:
        raise ValueError(f"doc {doc_id!r}: entities must be a list, got {raw_mentions!r}")
    text_len = len(text)
    mentions = []
    if memos:
        ids, surfaces, offsets, confidences = memos
    for m in raw_mentions:
        if type(m) is not dict:
            raise ValueError(f"doc {doc_id!r}: mention {m!r} is not an object")
        try:
            entity_id, start, end = m["entity_id"], m["start"], m["end"]
        except KeyError as e:
            raise ValueError(f"doc {doc_id!r}: mention missing field {e}") from None
        surface = m.get("mention", "")
        confidence = m.get("confidence", 1.0)
        if type(entity_id) is not str or type(surface) is not str:
            raise ValueError(
                f"doc {doc_id!r}: mention entity_id {entity_id!r} and mention {surface!r}"
                " must be strings"
            )
        if type(start) is not int or type(end) is not int:
            raise ValueError(f"doc {doc_id!r}: mention span [{start!r}, {end!r}) must be integers")
        if not 0 <= start < end:
            raise ValueError(f"doc {doc_id!r}: mention span [{start}, {end}) invalid")
        if end > text_len:
            raise ValueError(f"doc {doc_id!r}: mention end {end} beyond text length {text_len}")
        if type(confidence) is not float:
            if type(confidence) is not int:
                raise ValueError(f"doc {doc_id!r}: confidence {confidence!r} is not a number")
            confidence = float(confidence)
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"doc {doc_id!r}: confidence {confidence} outside [0, 1]")
        if not memos:
            continue
        mentions.append(EntityMention(
            ids.setdefault(entity_id, entity_id),
            surfaces.setdefault(surface, surface),
            offsets.setdefault(start, start),
            offsets.setdefault(end, end),
            confidences.setdefault(confidence, confidence) if confidence else confidence,
        ))
    doc = Document(doc_id, text, mentions)
    if memos:
        doc.entity_ids = tuple(dict.fromkeys([m[0] for m in mentions]))
    return doc


def load_corpus(
    path: str, catalog_path: str | None = None, *, mentions: bool = True
) -> CorpusStore:
    """Load a JSONL corpus.

    Rejects malformed lines, duplicate doc_ids and mention spans outside the
    text, each with `path:line`. When `catalog_path` is given its
    descriptions are merged into the store's entity table; entities
    mentioned but absent from the catalog get an empty-description record.

    With `mentions=False` every line and mention is checked as above, but
    no mention is kept: documents have empty `mentions`, and the entity
    table holds only the catalog's records. Only `build-index` loads so.
    """
    store = CorpusStore()
    ids: dict[str, str] = {}  # every linked entity id, in first-mention order
    memos = (ids, {}, {}, {}) if mentions else ()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: malformed JSON: {e}") from e
            try:
                doc = _read_document(raw, *memos)
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: {e}") from None
            if doc.doc_id in store.documents:
                raise ValueError(f"{path}:{line_no}: duplicate doc_id {doc.doc_id!r}")
            store.documents[doc.doc_id] = doc
    store.entities = {entity_id: EntityRecord(entity_id) for entity_id in ids}
    if catalog_path is not None:
        for record in load_entity_catalog(catalog_path).values():
            store.entities[record.entity_id] = record
    return store


def load_entity_catalog(path: str) -> dict[str, EntityRecord]:
    """Load the entity-id -> description catalog."""
    catalog: dict[str, EntityRecord] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                if type(raw) is not dict:
                    raise ValueError("expected a JSON object")
                entity_id = raw["entity_id"]
                description = raw.get("description", "")
                if type(entity_id) is not str or type(description) is not str:
                    raise ValueError(
                        f"entity_id {entity_id!r} and description {description!r} must be strings"
                    )
            except (ValueError, KeyError) as e:
                raise ValueError(f"{path}:{line_no}: malformed catalog line: {e}") from e
            if entity_id in catalog:
                raise ValueError(f"{path}:{line_no}: duplicate entity_id {entity_id!r}")
            catalog[entity_id] = EntityRecord(entity_id, description)
    return catalog


def load_queries(path: str) -> list[Query]:
    """Load `query_id <TAB> text` topics."""
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'query_id<TAB>text'")
            query_id, text = line.split("\t", 1)
            query_id = query_id.strip()
            text = text.strip()
            if not query_id or not text:
                raise ValueError(f"{path}:{line_no}: empty query_id or text")
            if query_id in seen:
                raise ValueError(f"{path}:{line_no}: duplicate query_id {query_id!r}")
            seen.add(query_id)
            queries.append(Query(query_id, text))
    return queries


def load_qrels(path: str) -> Qrels:
    """Load TREC qrels (`qid 0 docid grade`)."""
    qrels = Qrels()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{line_no}: expected 4 columns, got {len(parts)}")
            qid, _, doc_id, grade_str = parts
            try:
                grade = int(grade_str)
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: invalid grade {grade_str!r}") from e
            try:
                qrels.add(qid, doc_id, grade)
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: {e}") from e
    return qrels


def pool_entities(candidates: Iterable[Document]) -> list[str]:
    """Union of linked entity ids over candidates, in first-seen order."""
    return list(dict.fromkeys(chain.from_iterable(doc.entity_ids for doc in candidates)))

