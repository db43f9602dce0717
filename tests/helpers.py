"""Reference helpers that several test modules share.

`segment_passages` cuts a document into the sentence windows whose number
`SegmenterConfig.passage_count` gives and whose keys a passage store holds.
`store_from_rows` makes an `EmbeddingStore` from (id, vector) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from dreq.corpus import Document, SegmenterConfig
from dreq.embeddings import EmbeddingStore


@dataclass(frozen=True)
class Passage:
    doc_id: str
    index: int
    sentence_range: tuple[int, int]
    text: str


def segment_passages(doc: Document, cfg: SegmenterConfig) -> list[Passage]:
    """Slide a `cfg.window`-sentence window by `cfg.stride` sentences.

    Windows start at 0, stride, 2*stride, ...; each covers
    [start, min(start + window, n)). Emission stops with the first window
    whose end reaches the document's last sentence (that window included).
    """
    n = len(doc.sentences)
    passages: list[Passage] = []
    start = 0
    index = 0
    while start < n:
        end = min(start + cfg.window, n)
        passages.append(
            Passage(
                doc_id=doc.doc_id,
                index=index,
                sentence_range=(start, end),
                text=" ".join(doc.sentences[start:end]),
            )
        )
        if end >= n:
            break
        start += cfg.stride
        index += 1
    return passages


def store_from_rows(space: str, dim: int, rows: Iterable[tuple[str, np.ndarray]]) -> EmbeddingStore:
    """The store of the (id, vector) pairs `rows`, in their order."""
    rows = list(rows)
    vectors = np.array([vec for _, vec in rows]).reshape(len(rows), dim)
    return EmbeddingStore(space, [key for key, _ in rows], vectors)
