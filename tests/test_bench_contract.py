"""The benchmark's per-layer metrics (dreqbench/layers.py) name `dreq`
functions and read their arguments and results. These checks keep those
names resolvable and those shapes intact, so that per-layer numbers stay
comparable from one change to the next. layers.py is only read."""

import dataclasses
import importlib
import importlib.util
import inspect
import math
import os
import sys

import numpy as np
import pytest

from dreq import training
from dreq.corpus import EntityMention, load_corpus, load_qrels, pool_entities
from dreq.embeddings import query_entity_key
from dreq.entity_ranking import train_entity_head
from dreq.model import DreqModel, WeightingMode, rerank
from dreq.pipeline import build_entity_encoding_examples, pooled_entities_map, pooling_docs
from dreq.retrieval import Ranking, build_index, retrieve
from dreq.training import TrainConfig, build_doc_examples, make_folds
from helpers import store_from_rows
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
    result = training.train_dreq(template, examples, folds, data, cfg)

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
    epochs = [len(o.epoch_losses) for o in result.fold_outcomes]
    stacked = sum(args[1].y.shape[0] for args, _, _ in calls["dreq_loss_and_grads"])
    assert stacked == sum(e * math.ceil(n / cfg.batch_size) for n, e in zip(rows, epochs))
    # one optimiser step per stacked call, so training.batches and
    # adam_step_s count the same steps
    assert len(calls["adam_step"]) == len(calls["dreq_loss_and_grads"])


def test_first_stage_probes_read_the_csr_index(layers):
    index = build_index(load_corpus(os.path.join(TOY, "corpus.jsonl")))
    probed = layers.PROBES["retrieval.build_index"]((), {}, index)
    assert probed == {"vocab_terms": len(index.terms), "postings": len(index.docs)}
    assert probed["postings"] == index.indptr[-1] == len(index.tfs)
    ranking = retrieve(index, "topic01a topic01b", k=30, mode="bm25_rm3", query_id="q01")
    assert isinstance(ranking, Ranking)
    assert layers.PROBES["retrieval.retrieve"]((index, "topic01a topic01b"), {"k": 30}, ranking) == {
        "docs": 30
    }


def test_ranking_and_document_probes_read_the_columns(layers):
    """The retrieve, rerank and pooling probes read `len(ranking)` and
    `doc.mentions` of the array-backed `Ranking` and the mention tuples."""
    corpus = load_corpus(os.path.join(TOY, "corpus.jsonl"))
    qrels = load_qrels(os.path.join(TOY, "qrels.txt"))
    ranking = retrieve(build_index(corpus), "topic01a topic01b", k=30, query_id="q01")
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
