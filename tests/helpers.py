"""Reference helpers that several test modules share.

`segment_passages` cuts a document into the sentence windows whose number
`SegmenterConfig.passage_count` gives and whose keys a passage store holds.
`transfer_labels` and `reference_feature_table` are the `Document`-based
label transfer and feature table that the stages after `pool-entities`
compute from `corpus_links.npz` instead; `feature_table` builds the array
table of a list of `Document`s.
`store_from_rows` makes an `EmbeddingStore` from (id, vector) pairs.
`synthetic_embed` is the one-row case of `synthetic_embed_rows`.
`MALFORMED_CORPUS_LINES` are corpus lines `load_corpus` rejects, each with
its message. `run_planted_ablation`, which the claim test runs, drives the
CLI stages themselves on planted worlds.
"""

from __future__ import annotations

import json
import os
import tempfile

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from dreq.cli import main
from dreq.corpus import Document, Qrels, SegmenterConfig, pool_entities, split_sentences
from dreq.embeddings import EmbeddingStore, passage_key, synthetic_embed_rows
from dreq.model import FeatureTable, build_feature_table
from dreq.pipeline import corpus_links
from dreq.synthetic import PlantedConfig, generate_planted_world, write_world_files
from dreq.training import TrainConfig


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
    sentences = split_sentences(doc.text)
    n = len(sentences)
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
                text=" ".join(sentences[start:end]),
            )
        )
        if end >= n:
            break
        start += cfg.stride
        index += 1
    return passages


def transfer_labels(qrels: Qrels, query_id: str, candidates: list[Document]) -> dict[str, int]:
    """Document relevance carried down to entities: an entity is labelled 1
    iff it appears in at least one candidate with grade >= 1, and 0 if it
    appears only in grade-0 or unjudged candidates. The keyset equals
    pool_entities(candidates), in the same order."""
    labels = dict.fromkeys(pool_entities(candidates), 0)
    grades = qrels.grades.get(query_id, {})
    for doc in candidates:
        if grades.get(doc.doc_id, 0) >= 1:
            labels.update(dict.fromkeys(doc.entity_ids, 1))
    return labels


def reference_feature_table(
    docs: Iterable[Document],
    entity_store: EmbeddingStore,
    passage_store: EmbeddingStore,
    seg: SegmenterConfig = SegmenterConfig(),
) -> FeatureTable:
    """The feature table over `docs` (repeats skipped), read off each
    document's text and mentions."""
    docs = list({doc.doc_id: doc for doc in docs}.values())
    counts = np.array(
        [seg.passage_count(len(split_sentences(doc.text))) for doc in docs], dtype=np.intp
    )
    passages = passage_store.take(
        passage_key(doc.doc_id, i) for doc, n in zip(docs, counts.tolist()) for i in range(n)
    )
    starts = np.cumsum(counts) - counts
    text = np.zeros((len(docs), passage_store.dim))
    for i in range(int(counts.max(initial=0))):
        has = np.flatnonzero(counts > i)
        text[has] += passages[starts[has] + i]
    has = counts > 0
    text[has] /= counts[has, None]

    entity_row = entity_store.row
    index, indptr = [], [0]
    for doc in docs:
        unembedded = [e for e in doc.entity_ids if e not in entity_row]
        if unembedded:
            raise KeyError(f"entity {unembedded[0]!r} of doc {doc.doc_id!r} has no embedding")
        index.extend(entity_row[e] for e in doc.entity_ids)
        indptr.append(len(index))
    return FeatureTable(
        doc_ids=[doc.doc_id for doc in docs],
        text=text,
        indptr=np.array(indptr, dtype=np.intp),
        entity_index=np.array(index, dtype=np.intp),
        entity_store=entity_store,
        empty_text_docs=int(np.count_nonzero(counts == 0)),
    )


def feature_table(
    docs: Iterable[Document],
    entity_store: EmbeddingStore,
    passage_store: EmbeddingStore,
    seg: SegmenterConfig = SegmenterConfig(),
) -> FeatureTable:
    """`build_feature_table` over the links of `docs` (repeats skipped)."""
    docs = list({doc.doc_id: doc for doc in docs}.values())
    return build_feature_table(
        corpus_links(docs), [doc.doc_id for doc in docs], entity_store, passage_store, seg
    )


def store_from_rows(space: str, dim: int, rows: Iterable[tuple[str, np.ndarray]]) -> EmbeddingStore:
    """The store of the (id, vector) pairs `rows`, in their order."""
    rows = list(rows)
    vectors = np.array([vec for _, vec in rows]).reshape(len(rows), dim)
    return EmbeddingStore(space, [key for key, _ in rows], vectors)


def synthetic_embed(namespace: str, id: str, dim: int, seed: int) -> np.ndarray:
    """The one-row case of `synthetic_embed_rows`."""
    return synthetic_embed_rows(namespace, (id,), dim, seed)[0]


_MENTION = {"entity_id": "e1", "mention": "a", "start": 0, "end": 1, "confidence": 0.5}


def _bad_mention(**fields) -> str:
    """A one-mention document line whose mention has `fields` (None drops one)."""
    mention = {k: v for k, v in {**_MENTION, **fields}.items() if v is not None}
    return json.dumps({"doc_id": "dbad", "text": "a b", "entities": [mention]})


# id -> (corpus line, the message load_corpus gives after its `path:line: `)
MALFORMED_CORPUS_LINES = {
    "entities-null": (json.dumps({"doc_id": "dbad", "text": "a", "entities": None}),
                      "doc 'dbad': entities must be a list, got None"),
    "string-mention": (json.dumps({"doc_id": "dbad", "text": "a", "entities": ["e1"]}),
                       "doc 'dbad': mention 'e1' is not an object"),
    "not-an-object": ("[1, 2]", "expected a JSON object"),
    "no-start": (_bad_mention(start=None), "doc 'dbad': mention missing field 'start'"),
    "no-entity-id": (_bad_mention(entity_id=None), "doc 'dbad': mention missing field 'entity_id'"),
    "string-start": (_bad_mention(start="x"), "doc 'dbad': mention span ['x', 1) must be integers"),
    "fractional-start": (_bad_mention(start=0.5),
                         "doc 'dbad': mention span [0.5, 1) must be integers"),
    "string-confidence": (_bad_mention(confidence="x"),
                          "doc 'dbad': confidence 'x' is not a number"),
}


def run_planted_ablation(
    planted: PlantedConfig, train_cfg: TrainConfig, seeds: list[int]
) -> dict[str, float]:
    """Seed-averaged held-out nDCG@20 on planted worlds, by the CLI stages.

    Each seed's world is written as input files to a temporary work
    directory, with one config (its dims, `retrieve.k = 100`, the seed and
    `train_cfg`'s values), and `build-index`, `retrieve`, `pool-entities`,
    `train-entity-ranker`, `rank-entities` and `ablate` run on it in process,
    as `dreq` runs them. Returns {"candidates": ..., variant: ...}: the means
    over the seeds of the `ndcg@20` column of `ablate.tsv`.
    """
    stages = ("build-index", "retrieve", "pool-entities", "train-entity-ranker",
              "rank-entities", "ablate")
    totals: dict[str, float] = {}
    for seed in seeds:
        world = generate_planted_world(replace(planted, seed=seed))
        with tempfile.TemporaryDirectory() as work:
            paths = write_world_files(world, work)
            settings = {
                "corpus": paths["corpus"], "entity_catalog": paths["entities"],
                "queries": paths["queries"], "qrels": paths["qrels"], "workdir": work,
                "seed": seed, "retrieve.k": 100, "train.learning_rate": train_cfg.learning_rate,
                "train.batch_size": train_cfg.batch_size, "train.epochs": train_cfg.epochs,
                "finetune_entity_embeddings": train_cfg.finetune_entity_embeddings,
                **{f"dims.{d}": getattr(world.dims, d) for d in "kmnp"},
            }
            config = os.path.join(work, "dreq.conf")
            with open(config, "w", encoding="utf-8") as f:
                f.writelines(f"{key} = {value}\n" for key, value in settings.items())
            for stage in stages:
                if main(["--config", config, stage]) != 0:
                    raise RuntimeError(f"`dreq {stage}` failed on the seed-{seed} world")
            with open(os.path.join(work, "ablate.tsv"), encoding="utf-8") as f:
                header, *rows = (line.rstrip("\n").split("\t") for line in f)
        column = header.index("ndcg@20")
        for row in rows:
            totals[row[0]] = totals.get(row[0], 0.0) + float(row[column])
    return {name: total / len(seeds) for name, total in totals.items()}
