"""The benchmark's per-layer metrics (dreqbench/layers.py) name `dreq`
functions and read their arguments and results. These checks keep those
names resolvable and those shapes intact, so that per-layer numbers stay
comparable from one change to the next. layers.py is only read."""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import math
import os
import sys

import numpy as np
import pytest

from dreq import corpus as corpus_module, pipeline as pipeline_module, training
from dreq.corpus import Document, EntityMention, load_corpus, load_qrels, pool_entities
from dreq.embeddings import query_entity_key
from dreq.entity_ranking import train_entity_head
from dreq.model import DreqModel, WeightingMode, rerank
from dreq.pipeline import (
    VARIANTS,
    ablation_sweep,
    build_entity_encoding_examples,
    pooled_entities_map,
    pooling_docs,
)
from dreq.retrieval import Ranking, build_index, retrieve
from dreq.training import TrainConfig, build_doc_examples, make_folds
from helpers import store_from_rows
from test_cli import STAGES, run, write_config
from test_training import make_train_world

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "dreqbench")
TOY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data", "toy")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, BENCH)  # layers.py imports its sibling tracing.py
    try:
        spec = importlib.util.spec_from_file_location(
            "dreqbench_layers", os.path.join(BENCH, "layers.py")
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve their module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


def resolve(name: str):
    module, _, func = name.rpartition(".")
    return getattr(importlib.import_module(f"dreq.{module}"), func, None)


def test_every_metric_target_resolves(layers):
    names = {n for m in layers.METRICS for n in m.needs}
    names |= {m.probed for m in layers.METRICS if m.probed} | set(layers.PROBES)
    unresolved = sorted(n for n in names if not inspect.isfunction(resolve(n)))
    assert unresolved == []


def test_train_dreq_calls_what_the_probes_read(layers, monkeypatch):
    calls = {"rerank": [], "dreq_loss_and_grads": [], "adam_step": []}
    for name, seen in calls.items():
        original = getattr(training, name)

        def spy(*args, _original=original, _seen=seen, **kwargs):
            result = _original(*args, **kwargs)
            _seen.append((args, kwargs, result))
            return result

        monkeypatch.setattr(training, name, spy)
    dims, data, qrels = make_train_world()
    examples = build_doc_examples(qrels, data.candidates, seed=2)
    folds = make_folds(sorted(data.candidates), k=5, seed=2)
    template = DreqModel.init(dims, WeightingMode.PROBABILITY, seed=2)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, epochs=2, seed=2)
    result = training.train_dreq([template], examples, folds, data, cfg)

    assert layers.PROBES["training.train_dreq"]((), {}, result)["fold_epochs"] == [2] * 5
    assert len(calls["rerank"]) == len(data.candidates)
    for args, kwargs, ranking in calls["rerank"]:
        assert isinstance(ranking, Ranking)
        assert layers.PROBES["model.rerank"](args, kwargs, ranking) == {"docs": len(ranking)}
    assert calls["dreq_loss_and_grads"]
    for args, kwargs, out in calls["dreq_loss_and_grads"]:
        assert isinstance(args[0], DreqModel)
        assert dataclasses.is_dataclass(args[1])
        assert layers.PROBES["training.dreq_loss_and_grads"](args, kwargs, out)["bytes"] > 0
        # folds train in lockstep: each call stacks one minibatch per fold
        assert args[1].y.ndim == 2 and args[1].Q.ndim == 3
    # every fold trains each of its minibatches once per epoch, none dropped
    rows = [sum(ex.query_id in set(f.train) for ex in examples) for f in folds.folds]
    epochs = [len(o.epoch_losses) for o in result.fold_outcomes[0]]
    stacked = sum(args[1].y.shape[0] for args, _, _ in calls["dreq_loss_and_grads"])
    assert stacked == sum(e * math.ceil(n / cfg.batch_size) for n, e in zip(rows, epochs))
    # one optimiser step per stacked call, so training.batches and
    # adam_step_s count the same steps
    assert len(calls["adam_step"]) == len(calls["dreq_loss_and_grads"])


def test_ablation_sweep_trains_once_and_the_probe_reads_every_run(layers, monkeypatch):
    """`s_ablate` needs a `training.train_dreq` span under the sweep, and the
    probe reads one log row per epoch of every (variant, fold) run."""
    results = []

    def spy(*args, _original=training.train_dreq, **kwargs):
        results.append(_original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(training, "train_dreq", spy)
    dims, data, qrels = make_train_world()
    examples = build_doc_examples(qrels, data.candidates, seed=2)
    folds = make_folds(sorted(data.candidates), k=5, seed=2)
    cfg = TrainConfig(learning_rate=0.05, batch_size=1, epochs=6, seed=2, early_stop_patience=1)
    outcome = ablation_sweep(list(VARIANTS), dims, examples, folds, data, cfg, qrels, init_seed=2)

    (result,) = results
    assert list(outcome.variant_runs) == list(VARIANTS)
    fold_epochs = layers.PROBES["training.train_dreq"]((), {}, result)["fold_epochs"]
    assert len(fold_epochs) == len(folds.folds)
    epochs = [len(o.epoch_losses) for outs in result.fold_outcomes for o in outs]
    assert len(epochs) == len(VARIANTS) * len(folds.folds)
    assert len(set(epochs)) > 1  # runs stopped apart, and each counts its own epochs
    assert sum(fold_epochs) == sum(epochs)


def test_first_stage_probes_read_the_csr_index(layers):
    corpus = load_corpus(os.path.join(TOY, "corpus.jsonl"), mentions=False)
    index = build_index({doc_id: doc.text for doc_id, doc in corpus.documents.items()})
    probed = layers.PROBES["retrieval.build_index"]((), {}, index)
    assert probed == {"vocab_terms": len(index.terms), "postings": len(index.docs)}
    assert probed["postings"] == index.indptr[-1] == len(index.tfs)
    ranking = retrieve(index, "topic01a topic01b", k=30, mode="bm25_rm3", query_id="q01")
    assert isinstance(ranking, Ranking)
    assert layers.PROBES["retrieval.retrieve"]((index, "topic01a topic01b"), {"k": 30}, ranking) == {
        "docs": 30
    }


def test_build_index_loads_the_corpus_once_and_builds_no_mention(layers, tmp_path, monkeypatch):
    """`cli.load_corpus_calls` finds the one `corpus.load_corpus` span of
    `build-index`; that load checks the corpus but makes no `EntityMention`,
    while the full load makes one per mention."""
    made = []

    class Counted(EntityMention):
        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(corpus_module, "EntityMention", Counted)
    config = write_config(tmp_path, tmp_path / "work")
    tracer = layers.Tracer(layers.PROBES)
    tracer.install()
    try:
        tracer.stage = "build-index"
        assert run(config, "build-index") == 0
    finally:
        tracer.uninstall()
    metric = next(m for m in layers.METRICS if m.name == "cli.load_corpus_calls")
    assert metric.value(layers.Trace(tracer, {}, 0, 0.0, {})) == 1.0
    assert made == []

    path = os.path.join(TOY, "corpus.jsonl")
    with open(path, encoding="utf-8") as f:
        mentions = sum(len(json.loads(line)["entities"]) for line in f)
    load_corpus(path)
    assert len(made) == mentions > 0


def test_only_the_first_stages_parse_the_corpus(layers, tmp_path, monkeypatch):
    """The toy chain under the tracer: `corpus.load_corpus` runs only in
    `build-index` and `pool-entities`, the later stages read
    `corpus_links.npz`. `pipeline.pooling_docs` still yields `Document`s
    with mentions, which the `corpus.docs_without_entities` probe reads, and
    `pipeline.entity_labels_map`, which `corpus.labels_s` times, runs in
    `train-entity-ranker`."""
    pooled = []

    @functools.wraps(pipeline_module.pooling_docs)
    def spy(*args, _original=pipeline_module.pooling_docs, **kwargs):
        docs = _original(*args, **kwargs)
        pooled.extend(docs)
        return docs

    monkeypatch.setattr(pipeline_module, "pooling_docs", spy)
    config = write_config(tmp_path, tmp_path / "work")
    tracer = layers.Tracer(layers.PROBES)
    tracer.install()
    try:
        for argv in STAGES + [("ablate",), ("rerank",), ("rerank", "--mode", "maxsimcos")]:
            tracer.stage = argv[0]
            assert run(config, *argv) == 0, argv
    finally:
        tracer.uninstall()

    def stages(name: str) -> set[str]:
        return {span.stage for span in tracer.spans if span.name == name}

    assert stages("corpus.load_corpus") == {"build-index", "pool-entities"}
    assert stages("pipeline.pooling_docs") == {"pool-entities"}
    assert stages("pipeline.entity_labels_map") == {"train-entity-ranker"}
    # (the `rank_entities` probe reads a field the rankings lost: a known benchmark defect)
    assert not {"pipeline.pooling_docs", "pipeline.pooled_entities_map"} & set(tracer.probe_errors)
    assert pooled and all(isinstance(doc, Document) for doc in pooled)
    assert all(isinstance(m, EntityMention) for doc in pooled for m in doc.mentions)
    assert any(doc.mentions for doc in pooled)
    metric = next(m for m in layers.METRICS if m.name == "corpus.docs_without_entities")
    without = metric.value(layers.Trace(tracer, {}, 0, 0.0, {}))
    assert without == sum(1 for doc in pooled if not doc.mentions)


def test_ranking_and_document_probes_read_the_columns(layers):
    """The retrieve, rerank and pooling probes read `len(ranking)` and
    `doc.mentions` of the array-backed `Ranking` and the mention tuples."""
    corpus = load_corpus(os.path.join(TOY, "corpus.jsonl"))
    qrels = load_qrels(os.path.join(TOY, "qrels.txt"))
    texts = {doc_id: doc.text for doc_id, doc in corpus.documents.items()}
    ranking = retrieve(build_index(texts), "topic01a topic01b", k=30, query_id="q01")
    assert layers.PROBES["retrieval.retrieve"]((), {}, ranking) == {"docs": len(ranking.doc_ids)}

    docs = pooling_docs(corpus, ranking, qrels)
    probed = layers.PROBES["pipeline.pooling_docs"]((corpus, ranking, qrels), {}, docs)
    assert probed == {"no_entities": sum(1 for doc in docs if not doc.entity_ids)}
    assert all(isinstance(m, EntityMention) for doc in docs for m in doc.mentions)
    pooled = pooled_entities_map(corpus, {"q01": ranking}, qrels)
    assert layers.PROBES["pipeline.pooled_entities_map"]((), {}, pooled) == {
        "pooled": [len(pool_entities(docs))]
    }

    dims, data, _ = make_train_world()
    model = DreqModel.init(dims, WeightingMode.PROBABILITY, seed=2)
    table = training.train_feature_table(data, [])
    cands = data.candidates["q0"]
    reranked = rerank(model, data.query_store.get("q0"), cands, table, data.entity_rankings["q0"])
    assert layers.PROBES["model.rerank"]((), {}, reranked) == {"docs": len(cands.doc_ids)}


def test_entity_head_probe_reads_the_example_count(layers):
    """`train_entity_head(X, y, cfg, ...)` takes the examples as arrays; the
    probe reads the example count as the length of its first argument."""
    labels = {"q1": {"a": 1, "b": 0, "c": 0}, "q2": {"d": 1, "e": 1, "f": 0, "g": 0, "h": 0}}
    rng = np.random.default_rng(0)
    keys = [query_entity_key(qid, eid) for qid in labels for eid in labels[qid]]
    store = store_from_rows("query_entity", 3, ((k, rng.standard_normal(3)) for k in keys))
    X, y = build_entity_encoding_examples(labels, store, seed=1)
    args = (X, y, TrainConfig(learning_rate=0.05, batch_size=4, epochs=2))
    head = train_entity_head(*args)
    assert X.shape == (6, 3) and y.tolist() == [1, 0, 1, 1, 0, 0]
    assert layers.PROBES["entity_ranking.train_entity_head"](args, {}, head) == {"examples": 6}
