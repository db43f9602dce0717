"""Synthetic desk-scale worlds with planted entity relevance.

Each query plants a few "relevant" entities; a document is relevant iff
it mentions one of them. Keyword-stuffed distractor documents outscore
the relevant ones under BM25, while the aligned embedding stores carry
the entity signal, so entity-aware reranking has real headroom over the
candidate ordering. Embeddings are deterministic functions of (seed, id).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    CorpusStore,
    Document,
    EntityMention,
    EntityRecord,
    Qrels,
    Query,
    SegmenterConfig,
    segment_passages,
)
from .embeddings import (
    STORE_NAMES,
    DimsConfig,
    EmbeddingStore,
    passage_key,
    query_entity_key,
    save_store,
    store_path,
    synthetic_embed,
)

__all__ = ["PlantedConfig", "SyntheticWorld", "generate_planted_world", "write_world_files"]


@dataclass(frozen=True)
class PlantedConfig:
    n_docs: int = 500
    n_queries: int = 30
    seed: int = 1
    dims: DimsConfig = field(default_factory=lambda: DimsConfig(16, 16, 16, 16))
    relevant_per_query: int = 8
    distractors_per_query: int = 8
    planted_per_query: int = 3
    noise_entities: int = 120
    filler_vocab: int = 150
    noise_entities_per_doc: tuple[int, int] = (6, 10)
    # embedding alignment strengths
    entity_noise: float = 0.35
    encoding_signal: float = 1.0
    encoding_noise: float = 0.35
    passage_signal: float = 0.7
    passage_noise: float = 0.7

    def __post_init__(self) -> None:
        budget = self.n_queries * (self.relevant_per_query + self.distractors_per_query)
        if budget > self.n_docs:
            raise ValueError(
                f"n_docs={self.n_docs} too small for {budget} relevant+distractor docs"
            )


@dataclass
class SyntheticWorld:
    corpus: CorpusStore
    queries: list[Query]
    qrels: Qrels
    dims: DimsConfig
    seg: SegmenterConfig
    query_store: EmbeddingStore
    entity_store: EmbeddingStore
    passage_store: EmbeddingStore
    encoding_store: EmbeddingStore
    planted: dict[str, list[str]]  # query_id -> planted entity ids
    query_links: dict[str, list[tuple[str, float]]]  # query_id -> (entity, confidence)


def _compose_doc(
    doc_id: str,
    rng: random.Random,
    content_tokens: list[str],
    entity_ids: list[str],
    filler: list[str],
    n_filler: int = 32,
    sentence_len: int = 8,
) -> Document:
    """Assemble text from filler plus content tokens plus one mention token
    per entity, recording character spans for the mentions."""
    slots: list[tuple[str, str | None]] = [(rng.choice(filler), None) for _ in range(n_filler)]
    for tok in content_tokens:
        slots.insert(rng.randrange(len(slots) + 1), (tok, None))
    for eid in entity_ids:
        slots.insert(rng.randrange(len(slots) + 1), (eid, eid))

    pieces: list[str] = []
    mentions: list[EntityMention] = []
    pos = 0
    for i, (tok, eid) in enumerate(slots):
        if eid is not None:
            mentions.append(
                EntityMention(
                    entity_id=eid,
                    surface=tok,
                    start=pos,
                    end=pos + len(tok),
                    confidence=round(rng.uniform(0.6, 1.0), 3),
                )
            )
        pieces.append(tok)
        pos += len(tok)
        end_of_sentence = (i + 1) % sentence_len == 0 or i == len(slots) - 1
        if end_of_sentence:
            pieces.append(". ")
            pos += 2
        else:
            pieces.append(" ")
            pos += 1
    text = "".join(pieces).rstrip()
    return Document(doc_id=doc_id, text=text, mentions=mentions)


def generate_planted_world(cfg: PlantedConfig) -> SyntheticWorld:
    rng = random.Random(cfg.seed)
    dims = cfg.dims
    filler = [f"w{i:03d}" for i in range(cfg.filler_vocab)]
    noise_entities = [f"enoise{i:03d}" for i in range(cfg.noise_entities)]

    queries: list[Query] = []
    planted: dict[str, list[str]] = {}
    topic_words: dict[str, list[str]] = {}
    for qi in range(cfg.n_queries):
        qid = f"q{qi:02d}"
        words = [f"topic{qi:02d}{c}" for c in "abc"]
        topic_words[qid] = words
        queries.append(Query(qid, " ".join(words)))
        planted[qid] = [f"eq{qi:02d}p{j}" for j in range(cfg.planted_per_query)]

    corpus = CorpusStore()
    qrels = Qrels()
    doc_topic: dict[str, str] = {}  # topical (relevant or distractor) doc -> query
    doc_counter = 0

    def next_doc_id() -> str:
        nonlocal doc_counter
        doc_id = f"d{doc_counter:04d}"
        doc_counter += 1
        return doc_id

    lo, hi = cfg.noise_entities_per_doc
    for q in queries:
        qid = q.query_id
        for j in range(cfg.relevant_per_query):
            doc_id = next_doc_id()
            own = rng.sample(planted[qid], rng.choice([1, 2]))
            noise = rng.sample(noise_entities, rng.randint(lo, hi))
            # one topic-word occurrence: weak lexical match only
            doc = _compose_doc(doc_id, rng, [rng.choice(topic_words[qid])], own + noise, filler)
            corpus.documents[doc_id] = doc
            doc_topic[doc_id] = qid
            qrels.add(qid, doc_id, 2 if j % 3 == 0 else 1)
        for _ in range(cfg.distractors_per_query):
            doc_id = next_doc_id()
            stuffing = [rng.choice(topic_words[qid]) for _ in range(rng.randint(4, 7))]
            noise = rng.sample(noise_entities, rng.randint(lo, hi))
            doc = _compose_doc(doc_id, rng, stuffing, noise, filler)
            corpus.documents[doc_id] = doc
            doc_topic[doc_id] = qid
            qrels.add(qid, doc_id, 0)

    while doc_counter < cfg.n_docs:
        doc_id = next_doc_id()
        noise = rng.sample(noise_entities, rng.randint(lo, hi))
        doc = _compose_doc(doc_id, rng, [], noise, filler)
        corpus.documents[doc_id] = doc

    for qid in sorted(planted):
        for eid in planted[qid]:
            corpus.entities[eid] = EntityRecord(eid, f"about {' '.join(topic_words[qid])}")
    for eid in noise_entities:
        corpus.entities[eid] = EntityRecord(eid, " ".join(rng.sample(filler, 6)))
    all_entities = list(corpus.entities)

    seg = SegmenterConfig()

    # --- aligned embedding stores ---------------------------------------
    topic_vec = {
        q.query_id: synthetic_embed("topic", q.query_id, dims.p, cfg.seed) for q in queries
    }
    query_store = EmbeddingStore.from_rows("query", dims.p, topic_vec.items())

    def to_space(u: np.ndarray, space: str, dim: int) -> np.ndarray:
        # fixed random projection when the target space has a different dim
        if dim == u.shape[0]:
            return u
        P = np.stack(
            [synthetic_embed(f"proj_{space}", f"row{i}", u.shape[0], cfg.seed) for i in range(dim)]
        )
        v = P @ u
        return v / np.linalg.norm(v)

    planted_of: dict[str, str] = {}
    for qid, ents in planted.items():
        for e in ents:
            planted_of[e] = qid
    entity_rows = []
    for eid in all_entities:
        if eid in planted_of:
            base = to_space(topic_vec[planted_of[eid]], "entity", dims.m)
            noise_vec = synthetic_embed("entnoise", eid, dims.m, cfg.seed)
            vec = base + cfg.entity_noise * noise_vec
            vec = vec / np.linalg.norm(vec)
        else:
            vec = synthetic_embed("ent", eid, dims.m, cfg.seed)
        entity_rows.append((eid, vec))
    entity_store = EmbeddingStore.from_rows("entity", dims.m, entity_rows)

    # topical documents (relevant and keyword-stuffed alike) share their
    # query's text direction, so text alone cannot tell them apart
    passage_rows = []
    for doc in corpus.documents.values():
        topic_qid = doc_topic.get(doc.doc_id)
        for p in segment_passages(doc, seg):
            key = passage_key(p.doc_id, p.index)
            noise_vec = synthetic_embed("passage", key, dims.n, cfg.seed)
            if topic_qid is None:
                vec = noise_vec
            else:
                base = to_space(topic_vec[topic_qid], "passage", dims.n)
                vec = cfg.passage_signal * base + cfg.passage_noise * noise_vec
                vec = vec / np.linalg.norm(vec)
            passage_rows.append((key, vec))
    passage_store = EmbeddingStore.from_rows("passage", dims.n, passage_rows)

    base_dir = synthetic_embed("encdir", "base", dims.k, cfg.seed)
    encoding_rows = []
    for q in queries:
        qid = q.query_id
        planted_set = set(planted[qid])
        for eid in all_entities:
            key = query_entity_key(qid, eid)
            sign = 1.0 if eid in planted_set else -1.0
            noise_vec = synthetic_embed("enc", key, dims.k, cfg.seed)
            vec = sign * cfg.encoding_signal * base_dir + cfg.encoding_noise * noise_vec
            encoding_rows.append((key, vec / np.linalg.norm(vec)))
    encoding_store = EmbeddingStore.from_rows("query_entity", dims.k, encoding_rows)

    # imperfect query-side entity links: most planted entities plus one stray
    query_links: dict[str, list[tuple[str, float]]] = {}
    for q in queries:
        links = [(e, round(rng.uniform(0.85, 0.99), 3)) for e in planted[q.query_id][:2]]
        links.append((rng.choice(noise_entities), round(rng.uniform(0.3, 0.6), 3)))
        query_links[q.query_id] = links

    return SyntheticWorld(
        corpus=corpus,
        queries=queries,
        qrels=qrels,
        dims=dims,
        seg=seg,
        query_store=query_store,
        entity_store=entity_store,
        passage_store=passage_store,
        encoding_store=encoding_store,
        planted=planted,
        query_links=query_links,
    )


def write_world_files(world: SyntheticWorld, out_dir: str, stores: bool = True) -> dict[str, str]:
    """Write the world as pipeline input files; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "corpus": os.path.join(out_dir, "corpus.jsonl"),
        "entities": os.path.join(out_dir, "entities.jsonl"),
        "queries": os.path.join(out_dir, "queries.tsv"),
        "qrels": os.path.join(out_dir, "qrels.txt"),
        "query_links": os.path.join(out_dir, "query_links.tsv"),
    }
    with open(paths["corpus"], "w", encoding="utf-8") as f:
        for doc in world.corpus.documents.values():
            f.write(
                json.dumps(
                    {
                        "doc_id": doc.doc_id,
                        "text": doc.text,
                        "entities": [
                            {
                                "entity_id": m.entity_id,
                                "mention": m.surface,
                                "start": m.start,
                                "end": m.end,
                                "confidence": m.confidence,
                            }
                            for m in doc.mentions
                        ],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    with open(paths["entities"], "w", encoding="utf-8") as f:
        for record in world.corpus.entities.values():
            f.write(
                json.dumps(
                    {"entity_id": record.entity_id, "description": record.description},
                    sort_keys=True,
                )
                + "\n"
            )
    with open(paths["queries"], "w", encoding="utf-8") as f:
        for q in world.queries:
            f.write(f"{q.query_id}\t{q.text}\n")
    with open(paths["qrels"], "w", encoding="utf-8") as f:
        for qid, per_query in world.qrels.grades.items():
            for doc_id, grade in per_query.items():
                f.write(f"{qid} 0 {doc_id} {grade}\n")
    with open(paths["query_links"], "w", encoding="utf-8") as f:
        for qid, links in world.query_links.items():
            for eid, conf in links:
                f.write(f"{qid}\t{eid}\t{conf}\n")
    if stores:
        for name, store in zip(
            STORE_NAMES,
            (world.query_store, world.entity_store, world.passage_store, world.encoding_store),
        ):
            path = store_path(out_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            save_store(store, path)
            paths[f"store_{name}"] = path
    return paths
