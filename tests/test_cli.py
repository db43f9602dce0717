import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from dreq import _npz
from dreq.cli import (
    _KEYS,
    CliError,
    Settings,
    load_config_file,
    load_index,
    load_query_links,
    main,
    save_index,
)
from dreq.corpus import load_corpus, load_entity_catalog
from dreq.entity_ranking import load_entity_rankings, save_entity_rankings
from dreq.pipeline import VARIANTS
from dreq.retrieval import TokenizerConfig, build_index, load_run, retrieve
from dreq.synthetic import PlantedConfig, generate_planted_world, write_world_files
from dreq.training import FoldPlan
from helpers import MALFORMED_CORPUS_LINES

TOY = os.path.join(os.path.dirname(__file__), "..", "data", "toy")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


_COUNTS = ["nan", "inf", "-inf", "-1", "0", "abc", "2.5"]
_UNIT = ["nan", "inf", "-inf", "-1", "1.5", "abc"]
# config key -> its invalid values: NaN, +-inf, negative, zero where invalid,
# non-numeric, non-boolean, an unknown mode, and a bound of its own
INVALID_SETTINGS = {
    **dict.fromkeys(["dims.k", "dims.m", "dims.n", "dims.p", "rm3.fb_docs", "rm3.fb_terms",
                     "segmenter.window", "retrieve.k", "train.batch_size", "train.epochs",
                     "eval.prec_k", "eval.ndcg_k", "eval.recall_k", "wig.k"], _COUNTS),
    "segmenter.stride": [*_COUNTS, "11"],  # above the window, 10
    "folds.k": [*_COUNTS, "1"],
    "seed": ["nan", "inf", "-inf", "-1", "abc", "2.5"],
    "bm25.k1": ["nan", "inf", "-inf", "-1", "abc"],
    **dict.fromkeys(["bm25.b", "rm3.alpha", "geeer.lambda"], _UNIT),
    "train.learning_rate": ["nan", "inf", "-inf", "-1", "0", "abc"],
    **dict.fromkeys(["tokenizer.stem", "finetune_entity_embeddings"], ["maybe", "2"]),
    **dict.fromkeys(["retrieve.mode", "entity.mode", "weighting.mode"], ["bogus"]),
}


def pairs(ranking) -> list[tuple[str, float]]:
    """(doc_id, score) in rank order."""
    return list(zip(ranking.doc_ids, ranking.scores.tolist()))


def columns(ranking) -> tuple:
    """An entity ranking's ids and its raw-score and probability bits."""
    return ranking.entity_ids, ranking.raw_scores.tobytes(), ranking.probs.tobytes()


def write_config(tmp_path, workdir, **extra) -> str:
    values = {
        "corpus": os.path.join(TOY, "corpus.jsonl"),
        "entity_catalog": os.path.join(TOY, "entities.jsonl"),
        "queries": os.path.join(TOY, "queries.tsv"),
        "qrels": os.path.join(TOY, "qrels.txt"),
        "query_links": os.path.join(TOY, "query_links.tsv"),
        "workdir": str(workdir),
        "retrieve.k": "30",
        "dims.k": "8",
        "dims.m": "8",
        "dims.n": "8",
        "dims.p": "8",
        "train.learning_rate": "0.02",
        "train.epochs": "4",
        "seed": "7",
    }
    values.update(extra)
    path = tmp_path / "dreq.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under `root`, by its relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in Path(root).rglob("*") if path.is_file()
    }


def run(config, *argv) -> int:
    return main(["--config", config, *argv])


STAGES = [
    ("build-index",),
    ("retrieve",),
    ("pool-entities",),
    ("synth-embed",),
    ("train-entity-ranker",),
    ("rank-entities", "--mode", "learned"),
    ("train-dreq",),
    ("evaluate",),
    ("qpp",),
]


def run_pipeline(config) -> None:
    for stage in STAGES:
        assert run(config, *stage) == 0, f"stage {stage} failed"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    workdir = tmp / "work"
    config = write_config(tmp, workdir)
    run_pipeline(config)
    return config, str(workdir)


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline):
        _, workdir = pipeline
        for name in (
            "index.npz",
            "candidates.run",
            "pooled_entities.tsv",
            "corpus_links.npz",
            "stores/query.npz",
            "stores/entity.npz",
            "stores/passage.npz",
            "stores/query_entity.npz",
            "entity_head.npz",
            "entity_ranking.npz",
            "entity_ranking.run",
            "folds.json",
            "dreq.run",
            "dreq_fold0.ckpt",
            "eval_dreq.tsv",
            "wig.tsv",
        ):
            assert os.path.exists(os.path.join(workdir, name)), name

    def test_synth_embed_stores_keep_their_bytes(self, pipeline):
        # sha256 of each store file, pinned when every key was embedded alone
        _, workdir = pipeline
        pinned = {
            "query": "41a1ddd8e9f0325c74594134a88856a1e4db4731de7b6882c91314a23afd970f",
            "entity": "2b933ed6e0469f6951c7ce0e092564891558a13f66bd36259c79210a7d468889",
            "passage": "cc46736869e2cca6f67aa72b4aed41c5211285f248bb1a2192f4629ad2c60cde",
            "query_entity": "3cae51c64689d3b5adffdebb28aec5f8b6c3e8cf4b84bcf722db58c8af071ff9",
        }
        for name, digest in pinned.items():
            data = Path(workdir, "stores", f"{name}.npz").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_manifests_written(self, pipeline):
        _, workdir = pipeline
        for stage, *_ in STAGES:
            # evaluate's manifest is named after its tag, dreq.run's stem by default
            name = "evaluate-dreq" if stage == "evaluate" else stage
            manifest = json.load(open(os.path.join(workdir, "manifests", f"{name}.json")))
            assert manifest["stage"] == stage
            assert len(manifest["config_digest"]) == 64
            assert manifest["seed"] == 7
            assert manifest["outputs"], stage
            for path in manifest["outputs"].values():
                assert os.path.isfile(path), (stage, path)

    def test_failed_write_leaves_no_output_and_no_manifest(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        work.mkdir()
        shutil.copy(os.path.join(workdir, "index.npz"), work / "index.npz")

        def write_half_then_fail(rankings, path, tag):
            Path(path).write_text("q01 Q0 d1 1 1.0 half\n")
            raise OSError("disk full")

        monkeypatch.setattr("dreq.cli.write_run", write_half_then_fail)
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(work), "retrieve"]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert sorted(os.listdir(work)) == ["index.npz"]

    def test_run_file_format(self, pipeline):
        _, workdir = pipeline
        line = open(os.path.join(workdir, "candidates.run")).readline().split()
        assert len(line) == 6
        assert line[1] == "Q0"
        assert line[3] == "1"

    def test_rerank_and_difficulty(self, pipeline):
        config, workdir = pipeline
        assert run(config, "rerank", "--mode", "maxsimcos") == 0
        assert os.path.exists(os.path.join(workdir, "rerank_maxsimcos.run"))
        assert (
            run(
                config,
                "difficulty",
                "--baseline-run",
                os.path.join(workdir, "candidates.run"),
                "--system-run",
                os.path.join(workdir, "dreq.run"),
            )
            == 0
        )
        text = open(os.path.join(workdir, "difficulty.tsv")).read()
        assert "#helped" in text

    def test_maxsimcos_keeps_candidates_of_query_without_entities(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        full = str(tmp_path / "full.run")
        assert run(config, "rerank", "--mode", "maxsimcos", "--output", full) == 0
        links = tmp_path / "query_links.tsv"
        toy = open(os.path.join(TOY, "query_links.tsv")).read().splitlines(keepends=True)
        links.write_text("".join(line for line in toy if not line.startswith("q03\t")))
        monkeypatch.setenv("DREQ_QUERY_LINKS", str(links))
        capsys.readouterr()
        partial = str(tmp_path / "partial.run")
        assert run(config, "rerank", "--mode", "maxsimcos", "--output", partial) == 0
        assert "1 kept their candidate ranking" in capsys.readouterr().out
        got, before = load_run(partial), load_run(full)
        cands = load_run(os.path.join(workdir, "candidates.run"))
        assert pairs(got["q03"]) == pairs(cands["q03"])
        assert {q: pairs(r) for q, r in got.items() if q != "q03"} == {
            q: pairs(r) for q, r in before.items() if q != "q03"
        }

    def test_geeer_ranks_query_without_entities_by_bm25(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        argv = ["--config", config, "--workdir", str(work), "rank-entities", "--mode"]
        before = {}
        for mode in ("geeer", "bm25"):
            assert main([*argv, mode]) == 0
            before[mode] = load_entity_rankings(str(work / "entity_ranking.npz"))
        links = tmp_path / "query_links.tsv"
        toy = (Path(TOY) / "query_links.tsv").read_text().splitlines(keepends=True)
        links.write_text("".join(line for line in toy if not line.startswith("q03\t")))
        monkeypatch.setenv("DREQ_QUERY_LINKS", str(links))
        capsys.readouterr()
        assert main([*argv, "geeer"]) == 0
        assert "1 by BM25 alone" in capsys.readouterr().out
        got = load_entity_rankings(str(work / "entity_ranking.npz"))
        assert columns(got["q03"]) == columns(before["bm25"]["q03"])
        assert {q: columns(r) for q, r in got.items() if q != "q03"} == {
            q: columns(r) for q, r in before["geeer"].items() if q != "q03"
        }
        # without descriptions, the query's entities all score BM25 0
        catalog = tmp_path / "entities.jsonl"
        catalog.write_text("".join(
            json.dumps({"entity_id": json.loads(line)["entity_id"]}) + "\n"
            for line in (Path(TOY) / "entities.jsonl").read_text().splitlines()
        ))
        monkeypatch.setenv("DREQ_ENTITY_CATALOG", str(catalog))
        assert main([*argv, "geeer"]) == 0
        got = load_entity_rankings(str(work / "entity_ranking.npz"))
        assert set(got["q03"].raw_scores.tolist()) == {0.0}
        assert len(got["q03"]) == len(before["geeer"]["q03"])

    def test_geeer_without_query_links_writes_the_bm25_ranking(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        argv = ["--config", config, "--workdir", str(work), "rank-entities", "--mode"]
        assert main([*argv, "bm25"]) == 0
        bm25 = (work / "entity_ranking.npz").read_bytes()
        links = tmp_path / "query_links.tsv"
        links.write_text("")
        monkeypatch.setenv("DREQ_QUERY_LINKS", str(links))
        capsys.readouterr()
        assert main([*argv, "geeer"]) == 0
        pooled = len(load_entity_rankings(str(work / "entity_ranking.npz")))
        assert f"for {pooled} queries, {pooled} by BM25 alone" in capsys.readouterr().out
        assert (work / "entity_ranking.npz").read_bytes() == bm25

    def test_description_modes_rank_as_with_descriptions_from_the_corpus(
        self, pipeline, tmp_path, monkeypatch
    ):
        # rank-entities reads the catalog alone; a catalog written in the
        # corpus's entity order (first mention, then catalog-only entities)
        # indexes the descriptions as loading the corpus used to
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        toy_catalog = os.path.join(TOY, "entities.jsonl")
        corpus = load_corpus(os.path.join(TOY, "corpus.jsonl"), toy_catalog)
        from_corpus = [(e, r.description) for e, r in corpus.entities.items() if r.description]
        from_catalog = [(e, r.description) for e, r in load_entity_catalog(toy_catalog).items()]
        assert from_corpus != from_catalog and sorted(from_corpus) == sorted(from_catalog)
        corpus_order = tmp_path / "entities.jsonl"
        corpus_order.write_text("".join(
            json.dumps({"entity_id": e, "description": d}) + "\n" for e, d in from_corpus
        ))
        argv = ["--config", config, "--workdir", str(work), "rank-entities", "--mode"]
        for mode in ("bm25", "geeer"):
            written = []
            for catalog in (toy_catalog, str(corpus_order)):
                monkeypatch.setenv("DREQ_ENTITY_CATALOG", catalog)
                assert main([*argv, mode]) == 0
                names = ("entity_ranking.npz", "entity_ranking.run")
                written.append([(work / name).read_bytes() for name in names])
            assert written[0] == written[1], mode

    def test_candidate_without_text_scores_by_its_entities(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        toy = (Path(TOY) / "corpus.jsonl").read_text()
        corpus.write_text(toy + json.dumps({"doc_id": "dempty", "text": "", "entities": []}) + "\n")
        work = tmp_path / "work"
        config = write_config(tmp_path, work, corpus=str(corpus))
        run_pipeline(config)
        ckpt = str(work / "dreq_fold0.ckpt")
        argv = ("rerank", "--mode", "dreq", "--checkpoint", ckpt, "--output")
        assert run(config, *argv, str(tmp_path / "base.run")) == 0
        # the empty document takes the place of q01's last candidate
        cands = work / "candidates.run"
        lines = cands.read_text().splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines) if line.startswith("q01 "))
        fields = lines[last].split(" ")
        lines[last] = " ".join(fields[:2] + ["dempty"] + fields[3:])
        cands.write_text("".join(lines))
        capsys.readouterr()
        assert run(config, *argv, str(tmp_path / "empty.run")) == 0
        assert "1 documents without text" in capsys.readouterr().out
        got, base = load_run(str(tmp_path / "empty.run")), load_run(str(tmp_path / "base.run"))
        assert "dempty" in got["q01"].doc_ids
        assert {q: pairs(r) for q, r in got.items() if q != "q01"} == {
            q: pairs(r) for q, r in base.items() if q != "q01"
        }
        for stage in ("train-dreq", "ablate"):
            assert run(config, stage) == 0
            assert "(1 documents without text)" in capsys.readouterr().out
        assert "dempty" in load_run(str(work / "dreq.run"))["q01"].doc_ids

    def test_ablate_reads_the_eval_cutoffs(self, pipeline, tmp_path, monkeypatch, capsys):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        argv = ["--config", config, "--workdir", str(work)]
        assert main([*argv, "ablate"]) == 0
        header = (work / "ablate.tsv").read_text().splitlines()[0]
        assert header == "system\tmap\tndcg@20\tp@20\trecall@1000"
        for name, value in (("NDCG_K", "10"), ("PREC_K", "5"), ("RECALL_K", "30")):
            monkeypatch.setenv(f"DREQ_EVAL_{name}", value)
        assert main([*argv, "ablate"]) == 0
        table = [line.split("\t") for line in (work / "ablate.tsv").read_text().splitlines()]
        assert table[0] == ["system", "map", "ndcg@10", "p@5", "recall@30"]
        assert [row[0] for row in table[1:]] == ["candidates", "dreq", "uniform",
                                                 "reciprocal_rank", "no_entity"]
        # the candidates row holds `evaluate`'s means at the same cutoffs
        capsys.readouterr()
        assert main([*argv, "evaluate", "--run", str(work / "candidates.run")]) == 0
        means = dict(line.split("\t")[1:] for line in capsys.readouterr().out.splitlines()
                     if line.startswith("candidates\t"))
        assert table[1] == ["candidates", *(means[m] for m in table[0][1:])]

    def test_geeer_rejects_a_non_finite_confidence(self, pipeline, tmp_path, monkeypatch, capsys):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        links = tmp_path / "query_links.tsv"
        toy = (Path(TOY) / "query_links.tsv").read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(toy) if line.startswith("q01\t"))
        toy[at] = "\t".join(toy[at].split("\t")[:2] + ["nan\n"])
        links.write_text("".join(toy))
        monkeypatch.setenv("DREQ_QUERY_LINKS", str(links))
        before = (work / "entity_ranking.npz").read_bytes()
        capsys.readouterr()
        argv = ["--config", config, "--workdir", str(work), "rank-entities", "--mode", "geeer"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {links}:{at + 1}: confidence 'nan' is not a finite number\n"
        assert (work / "entity_ranking.npz").read_bytes() == before

    @pytest.mark.parametrize("lam", ["nan", "2", "-0.5"])
    def test_geeer_rejects_a_lambda_outside_the_unit_interval(
        self, pipeline, tmp_path, monkeypatch, capsys, lam
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        monkeypatch.setenv("DREQ_GEEER_LAMBDA", lam)
        outputs = ("entity_ranking.npz", "entity_ranking.run")
        before = {name: (work / name).read_bytes() for name in outputs}
        capsys.readouterr()
        argv = ["--config", config, "--workdir", str(work), "rank-entities", "--mode", "geeer"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: config key 'geeer.lambda' must be in [0, 1], got {float(lam)}\n"
        )
        assert {name: (work / name).read_bytes() for name in outputs} == before

    def test_geeer_checks_its_lambda_when_no_query_links_an_entity(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        links = tmp_path / "query_links.tsv"
        links.write_text("")
        monkeypatch.setenv("DREQ_QUERY_LINKS", str(links))
        monkeypatch.setenv("DREQ_GEEER_LAMBDA", "nan")
        before = tree_bytes(work)
        capsys.readouterr()
        argv = ["--config", config, "--workdir", str(work), "rank-entities", "--mode", "geeer"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: config key 'geeer.lambda' must be in [0, 1], got nan\n"
        assert tree_bytes(work) == before

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("column", ["raw_score", "prob"])
    def test_a_non_finite_entity_ranking_stops_the_stages_that_read_it(
        self, pipeline, tmp_path, capsys, column, value
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        path = work / "entity_ranking.npz"
        rankings = load_entity_rankings(str(path))
        ranking = rankings["q01"]
        {"raw_score": ranking.raw_scores, "prob": ranking.probs}[column][1] = value
        save_entity_rankings(rankings, str(path))
        outputs = ("dreq.run", "ablate.tsv", "rerank_dreq.run")
        for stage in (("train-dreq",), ("ablate",), ("rerank", "--mode", "dreq")):
            capsys.readouterr()
            assert main(["--config", config, "--workdir", str(work), *stage]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {path}: non-finite {column}; rerun `dreq rank-entities`\n", stage
        assert sorted(name for name in outputs if (work / name).exists()) == ["dreq.run"]
        assert (work / "dreq.run").read_bytes() == Path(workdir, "dreq.run").read_bytes()

    def test_queries_without_ranked_entities_score_their_documents_without_entities(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({**json.loads(line), "entities": []}) + "\n"
            for line in (Path(TOY) / "corpus.jsonl").read_text().splitlines()
        ))
        work = tmp_path / "work"
        config = write_config(tmp_path, work, corpus=str(corpus))
        chain = [("build-index",), ("retrieve",), ("pool-entities",), ("synth-embed",),
                 ("rank-entities", "--mode", "bm25"), ("train-dreq",), ("ablate",),
                 ("rerank", "--mode", "dreq")]
        for stage in chain:
            assert run(config, *stage) == 0, stage
        assert load_entity_rankings(str(work / "entity_ranking.npz")) == {}
        # the candidates are judged relevant, but the learned ranker has no entity to learn
        capsys.readouterr()
        assert run(config, "train-entity-ranker") == 1
        assert capsys.readouterr().err == (
            "error: no candidate or judged-relevant document links an entity, "
            "so the entity head has nothing to train on\n"
        )
        assert not (work / "entity_head.npz").exists()
        cands = load_run(str(work / "candidates.run"))
        runs = {name: load_run(str(work / f"ablate_{name}.run")) for name in VARIANTS}
        for name, got in runs.items():
            assert sorted(got) == sorted(cands), name
            assert {q: pairs(r) for q, r in got.items()} == {
                q: pairs(r) for q, r in runs["no_entity"].items()
            }, name

    def test_a_linked_document_of_a_query_missing_from_the_entity_ranking_is_an_error(
        self, pipeline, tmp_path, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        pooled = work / "pooled_entities.tsv"
        lines = pooled.read_text().splitlines(keepends=True)
        pooled.write_text("".join(line for line in lines if not line.startswith("q00\t")))
        argv = ["--config", config, "--workdir", str(work)]
        assert main([*argv, "rank-entities"]) == 0
        assert "q00" not in load_entity_rankings(str(work / "entity_ranking.npz"))
        missing = re.compile(
            r"error: entity '\w+' of doc '\w+' missing from the entity ranking for query 'q00'; "
            r"rerun `dreq rank-entities`\n"
        )
        for stage in (("train-dreq",), ("ablate",), ("rerank", "--mode", "dreq")):
            capsys.readouterr()
            assert main([*argv, *stage]) == 1
            err = capsys.readouterr().err
            assert missing.fullmatch(err), (stage, err)

    def test_no_positive_judgement_stops_training_stages(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        qrels = tmp_path / "qrels.txt"
        toy = (Path(TOY) / "qrels.txt").read_text().splitlines()
        qrels.write_text("".join(" ".join(line.split()[:3] + ["0"]) + "\n" for line in toy))
        monkeypatch.setenv("DREQ_QRELS", str(qrels))
        for stage in ("train-dreq", "ablate"):
            capsys.readouterr()
            assert main(["--config", config, "--workdir", str(work), stage]) == 1
            err = capsys.readouterr().err
            assert err == "error: no document training examples (check qrels coverage)\n", stage

    def test_no_positive_judgement_stops_the_entity_ranker_with_one_line(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        qrels = tmp_path / "qrels.txt"
        toy = (Path(TOY) / "qrels.txt").read_text().splitlines()
        qrels.write_text("".join(" ".join(line.split()[:3] + ["0"]) + "\n" for line in toy))
        monkeypatch.setenv("DREQ_QRELS", str(qrels))
        before = tree_bytes(work)
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(work), "train-entity-ranker"]) == 1
        err = capsys.readouterr().err
        assert err == "error: no entity training examples (are any candidates judged relevant?)\n"
        assert tree_bytes(work) == before

    def test_a_judged_document_outside_the_corpus_is_no_training_positive(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        qrels = tmp_path / "qrels.txt"
        qrels.write_text((Path(TOY) / "qrels.txt").read_text() + "q01 0 dXXXX 2\n")
        outputs = {}
        for name, judged in (("toy", None), ("outside", qrels)):
            work = tmp_path / name
            shutil.copytree(workdir, work)
            if judged is not None:
                monkeypatch.setenv("DREQ_QRELS", str(judged))
            for stage in ("train-dreq", "ablate"):
                capsys.readouterr()
                assert main(["--config", config, "--workdir", str(work), stage]) == 0, stage
                skipped = "1" if judged is not None else "0"
                assert f", {skipped} judged-relevant documents not in the corpus skipped" in (
                    capsys.readouterr().out
                ), stage
            outputs[name] = {
                path: data for path, data in tree_bytes(work).items()
                if path.endswith((".run", ".ckpt")) or path == "folds.json"
            }
        assert outputs["outside"] == outputs["toy"]
        assert {"dreq.run", "dreq_fold0.ckpt", "ablate_dreq.run"} <= set(outputs["toy"])

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_fewer_than_two_folds_stop_training_stages(
        self, pipeline, tmp_path, monkeypatch, capsys, k
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        monkeypatch.setenv("DREQ_FOLDS_K", k)
        for stage in ("train-dreq", "ablate"):
            before = {name: (work / name).read_bytes() for name in ("dreq.run", "folds.json")}
            capsys.readouterr()
            assert main(["--config", config, "--workdir", str(work), stage]) == 1
            assert capsys.readouterr().err == (
                f"error: config key 'folds.k' must be an integer >= 2, got {k}\n"
            )
            assert {name: (work / name).read_bytes() for name in before} == before
            assert not (work / "ablate.tsv").exists()

    @pytest.mark.parametrize("stage", ["train-dreq", "ablate"])
    def test_more_folds_than_queries_names_both_keys(
        self, pipeline, tmp_path, monkeypatch, capsys, stage
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        monkeypatch.setenv("DREQ_FOLDS_K", "9")  # the toy has 8 queries
        before = tree_bytes(work)
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(work), stage]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'folds.k': need at least 9 queries for 9 folds, got 8 of "
            "config key 'queries'\n"
        )
        assert tree_bytes(work) == before

    def test_a_wig_depth_beyond_the_candidates_names_both_keys(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        monkeypatch.setenv("DREQ_WIG_K", "31")  # retrieve.k is 30
        before = tree_bytes(work)
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(work), "qpp"]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'wig.k': k=31 exceeds candidate depth 30; lower it, or rerun "
            "`dreq retrieve` at a higher config key 'retrieve.k'\n"
        )
        assert tree_bytes(work) == before

    @pytest.mark.parametrize(("rate", "message"), [
        ("nan", "config key 'train.learning_rate' must be a positive finite number, got nan"),
        ("inf", "config key 'train.learning_rate' must be a positive finite number, got inf"),
        ("1e308", r"the (entity head|document scorer) fit diverged to non-finite parameters "
                  r"at train.learning_rate = 1e\+308; lower it"),
    ], ids=["nan", "inf", "diverging"])
    def test_a_learning_rate_without_a_finite_fit_stops_the_trainers(
        self, pipeline, tmp_path, monkeypatch, capsys, rate, message
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        monkeypatch.setenv("DREQ_TRAIN_LEARNING_RATE", rate)
        before = tree_bytes(work)
        # batch size 3 leaves short last minibatches, so the runs step in groups
        for batch_size in ("3", "20"):
            monkeypatch.setenv("DREQ_TRAIN_BATCH_SIZE", batch_size)
            for stage in ("train-entity-ranker", "train-dreq", "ablate"):
                capsys.readouterr()
                # a warning would reach the user's stderr ahead of the error line
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    assert main(["--config", config, "--workdir", str(work), stage]) == 1, stage
                where = (batch_size, stage)
                assert [str(w.message) for w in caught] == [], where
                err = capsys.readouterr().err
                assert re.fullmatch(f"error: {message}\n", err), (where, err)
                assert tree_bytes(work) == before, where

    @pytest.mark.parametrize("epochs", ["-1", "0"])
    def test_fewer_than_one_epoch_stops_the_trainers(
        self, pipeline, tmp_path, monkeypatch, capsys, epochs
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        monkeypatch.setenv("DREQ_TRAIN_EPOCHS", epochs)
        before = tree_bytes(work)
        for stage in ("train-entity-ranker", "train-dreq", "ablate"):
            capsys.readouterr()
            assert main(["--config", config, "--workdir", str(work), stage]) == 1, stage
            assert capsys.readouterr().err == (
                f"error: config key 'train.epochs' must be >= 1, got {epochs}\n"
            )
            assert tree_bytes(work) == before, stage

    def test_rerank_with_checkpoint_and_ablation_flags(self, pipeline):
        config, workdir = pipeline
        for weighting in ("probability", "uniform", "reciprocal_rank", "none"):
            out = os.path.join(workdir, f"rr_{weighting}.run")
            assert (
                run(
                    config,
                    "rerank",
                    "--mode",
                    "dreq",
                    "--checkpoint",
                    os.path.join(workdir, "dreq_fold0.ckpt"),
                    "--weighting",
                    weighting,
                    "--output",
                    out,
                )
                == 0
            ), weighting
            assert os.path.exists(out)

    def test_a_non_finite_checkpoint_stops_rerank_with_one_line(self, pipeline, tmp_path, capsys):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        ckpt = work / "nan.ckpt"
        arrays = dict(np.load(work / "dreq_fold0.ckpt"))
        arrays["w3"][1] = np.nan
        _npz.write(str(ckpt), arrays)
        before = tree_bytes(work)
        capsys.readouterr()
        argv = ["--config", config, "--workdir", str(work), "rerank", "--checkpoint", str(ckpt)]
        assert main(argv) == 1
        expected = f"error: {ckpt}: non-finite model parameters; rerun `dreq train-dreq`\n"
        assert capsys.readouterr().err == expected
        assert tree_bytes(work) == before

    @pytest.mark.parametrize(("kept", "missing"), [
        (lambda qid: qid != "q03", ["q03"]),
        (lambda qid: False, ["q00", "q01", "q02", "q03", "q04"]),
    ], ids=["without-q03", "header-only"])
    def test_difficulty_refuses_a_wig_table_without_a_baseline_query(
        self, pipeline, tmp_path, capsys, kept, missing
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        shutil.rmtree(work / "manifests")
        (work / "difficulty.tsv").unlink(missing_ok=True)
        wig = work / "wig.tsv"
        header, *rows = wig.read_text().splitlines(keepends=True)
        wig.write_text(header + "".join(row for row in rows if kept(row.split("\t")[0])))
        capsys.readouterr()
        argv = ["--config", config, "--workdir", str(work), "difficulty", "--baseline-run",
                str(work / "candidates.run"), "--system-run", str(work / "dreq.run")]
        assert main(argv) == 1
        expected = (f"error: queries {missing} of the baseline run are not in {wig}; "
                    "rerun `dreq qpp`\n")
        assert capsys.readouterr().err == expected
        assert not (work / "difficulty.tsv").exists()
        assert not (work / "manifests").exists()

    def test_difficulty_with_a_missing_wig_path_is_an_error_line(self, pipeline, tmp_path, capsys):
        """An explicit `--wig` must exist; only the default `wig.tsv` may be absent."""
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        shutil.rmtree(work / "manifests")
        (work / "difficulty.tsv").unlink(missing_ok=True)
        argv = ["--config", config, "--workdir", str(work), "difficulty", "--baseline-run",
                str(work / "candidates.run"), "--system-run", str(work / "dreq.run")]
        missing = tmp_path / "wig-typo.tsv"
        before = sorted(os.listdir(work))
        capsys.readouterr()
        assert main([*argv, "--wig", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: missing artifact '{missing}'; run `dreq qpp` first\n"
        )
        assert sorted(os.listdir(work)) == before  # no difficulty.tsv, manifest or .tmp file
        (work / "wig.tsv").unlink()
        assert main(argv) == 0
        assert "#tercile" not in (work / "difficulty.tsv").read_text()

    def test_difficulty_ignores_wig_rows_outside_the_baseline_run(self, pipeline, tmp_path):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        argv = ["--config", config, "--workdir", str(work), "difficulty", "--baseline-run",
                str(work / "candidates.run"), "--system-run", str(work / "dreq.run")]
        assert main(argv) == 0
        full = (work / "difficulty.tsv").read_text()
        assert full.count("#tercile") == 8
        with open(work / "wig.tsv", "a", encoding="utf-8") as f:
            f.write("qZZ\t1.000000\t1\n")
        assert main(argv) == 0
        assert (work / "difficulty.tsv").read_text() == full

    def test_weighting_none_gives_the_runs_and_checkpoints_entities_off_gave(
        self, pipeline, tmp_path, monkeypatch
    ):
        # sha256 pinned with the `use_entities = false` setting and the
        # `rerank --no-entities` flag that `none` replaced
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        argv = ["--config", config, "--workdir", str(work)]

        def digest(name):
            return hashlib.sha256((work / name).read_bytes()).hexdigest()

        # the probability checkpoints of the default chain, scored without entities
        assert main([*argv, "rerank", "--weighting", "none", "--output", str(work / "a.run")]) == 0
        assert digest("a.run") == (
            "b8e885efb607dc4c9191b25636f221c0fbd28fcc1ecdfb1d1c7f3af497bd754b"
        )
        monkeypatch.setenv("DREQ_WEIGHTING_MODE", "none")
        for stage in ("train-dreq", "ablate"):
            assert main([*argv, stage]) == 0, stage
        assert main([*argv, "rerank", "--weighting", "none", "--output", str(work / "b.run")]) == 0
        names = [f"dreq_fold{i}.ckpt" for i in range(5)] + ["dreq.run", "ablate_no_entity.run"]
        assert {name: digest(name) for name in names + ["b.run"]} == {
            "dreq_fold0.ckpt": "16c54845902d7c62b1c5bec9f761edc22f6e5cf57aa80d6973237fcf8572d13f",
            "dreq_fold1.ckpt": "9d11753d94d2a027a0bcc465c95454a9d3ef141a43765c0bb1083cc843f1f21c",
            "dreq_fold2.ckpt": "f530c54f1ea022e8fe9d474ee2407fa84d235ede514129dfd46ec40ce6e3f47c",
            "dreq_fold3.ckpt": "ff627a9dec59c8ddb903a5246c8a193eae8fbdc9ff1a87d5659935a19a1ccac4",
            "dreq_fold4.ckpt": "a049048953c3a0364eb82d1a3a93a0e15a224f4b74edf791d6db56ab8c162d0e",
            "dreq.run": "0f7cd9e0f477996a1b638510d849bd03cc739a7c3f885870bc83ab531157a142",
            "ablate_no_entity.run": "c2ea1aa285139a9bb0d6fb879343036eeb3ea8cc311904c7993b033016bd458c",
            "b.run": "a013f3d01afdd240a0c3147bb2daa75089e49f186795e6840c65bda30373551f",
        }
        # `--weighting` sets the mode of a checkpoint saved in mode none too
        assert main([*argv, "rerank", "--output", str(work / "c.run")]) == 0
        assert digest("c.run") == digest("b.run")
        assert main([*argv, "rerank", "--weighting", "uniform", "--output",
                     str(work / "d.run")]) == 0
        assert digest("d.run") != digest("b.run")

    def test_weighting_none_reads_no_entity_ranking(self, pipeline, tmp_path, monkeypatch):
        """Nor the entity store: with both deleted, `train-dreq` and `rerank`
        write the bytes they write with both present."""
        config, workdir = pipeline
        monkeypatch.setenv("DREQ_WEIGHTING_MODE", "none")
        entity_inputs = ("entity_ranking.npz", os.path.join("stores", "entity.npz"))
        written = {}
        for ranked in (True, False):
            work = tmp_path / f"ranked-{ranked}"
            shutil.copytree(workdir, work)
            if not ranked:
                for name in entity_inputs:
                    (work / name).unlink()
            argv = ["--config", config, "--workdir", str(work)]
            assert main([*argv, "train-dreq"]) == 0, ranked
            assert main([*argv, "rerank", "--weighting", "none"]) == 0, ranked
            for stage in ("train-dreq", "rerank-rerank_dreq"):
                manifest = json.loads((work / "manifests" / f"{stage}.json").read_text())
                assert not set(entity_inputs) & set(manifest["inputs"]), (ranked, stage)
            written[ranked] = {
                name: data for name, data in tree_bytes(work).items()
                if not name.startswith("manifests") and name not in entity_inputs
            }
        assert written[True] == written[False]
        assert written[True]["dreq.run"] != Path(workdir, "dreq.run").read_bytes()

    def test_rerank_scores_each_query_with_its_test_fold_model(
        self, pipeline, tmp_path, monkeypatch
    ):
        config, workdir = pipeline
        for finetune in ("false", "true"):
            work = tmp_path / f"finetune-{finetune}"
            shutil.copytree(workdir, work)
            argv = ["--config", config, "--workdir", str(work)]
            monkeypatch.setenv("DREQ_FINETUNE_ENTITY_EMBEDDINGS", finetune)
            if finetune == "true":  # tuned entity tables, stores/entity_tuned_fold{i}.npz
                assert main([*argv, "train-dreq"]) == 0
            assert main([*argv, "rerank", "--mode", "dreq"]) == 0
            routed = load_run(str(work / "rerank_dreq.run"))
            plan = FoldPlan.load(str(work / "folds.json"))
            per_fold = []
            for i, fold in enumerate(plan.folds):
                out = str(work / f"rerank_fold{i}.run")
                ckpt = str(work / f"dreq_fold{i}.ckpt")
                assert main([*argv, "rerank", "--checkpoint", ckpt, "--output", out]) == 0
                per_fold.append(load_run(out))
                # a checkpoint records no fold: --checkpoint scores with the base entity table
                same = [pairs(routed[qid]) == pairs(per_fold[i][qid]) for qid in fold.test]
                assert all(same) if finetune == "false" else not all(same), (finetune, i)
            # fold 0's model alone would have scored other folds' queries differently
            assert any(pairs(routed[q]) != pairs(per_fold[0][q]) for q in routed)
            # and the routed run is train-dreq's own out-of-fold run
            oof = load_run(str(work / "dreq.run"))
            assert {q: pairs(r) for q, r in routed.items()} == {
                q: pairs(r) for q, r in oof.items()
            }, finetune

    def test_evaluate_unknown_qids_listed(self, pipeline, tmp_path):
        config, workdir = pipeline
        bad = tmp_path / "bad.run"
        bad.write_text("qXX Q0 d0000 1 1.000000 t\n")
        assert run(config, "evaluate", "--run", str(bad)) == 1

    def test_missing_artifact_names_prior_stage(self, pipeline, tmp_path, capsys):
        config, _ = pipeline
        fresh = tmp_path / "fresh"
        assert main(["--config", config, "--workdir", str(fresh), "retrieve"]) == 1
        assert "build-index" in capsys.readouterr().err

    def test_stale_index_json_names_build_index(self, pipeline, tmp_path, capsys):
        config, _ = pipeline
        stale = tmp_path / "stale"
        stale.mkdir()
        (stale / "index.json").write_text("{}\n")
        assert main(["--config", config, "--workdir", str(stale), "retrieve"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "build-index" in err

    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    @pytest.mark.parametrize(
        "artifact,argv,kind,stage",
        [
            pytest.param("index.npz", ("retrieve",), "index", "build-index", id="index"),
            pytest.param("stores/query_entity.npz", ("train-entity-ranker",), "embedding store",
                         "synth-embed", id="store"),
            pytest.param("entity_head.npz", ("rank-entities",), "entity head",
                         "train-entity-ranker", id="entity_head"),
            pytest.param("entity_ranking.npz", ("rerank",), "entity ranking", "rank-entities",
                         id="entity_ranking"),
            pytest.param("dreq_fold0.ckpt", ("rerank",), "checkpoint", "train-dreq", id="checkpoint"),
        ],
    )
    def test_unreadable_artifact_names_its_stage(
        self, pipeline, tmp_path, capsys, damage, artifact, argv, kind, stage
    ):
        config, workdir = pipeline
        broken = tmp_path / "broken"
        shutil.copytree(workdir, broken)
        data = (broken / artifact).read_bytes()
        (broken / artifact).write_bytes(data[: len(data) // 2] if damage == "truncate" else b"{}\n")
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(broken), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unreadable {kind}" in err and f"`dreq {stage}`" in err

    def test_query_without_terms_gets_zero_score_padding(self, pipeline, tmp_path, monkeypatch):
        config, workdir = pipeline
        queries = tmp_path / "queries.tsv"
        toy = open(os.path.join(TOY, "queries.tsv")).read()
        queries.write_text(toy + "qempty\t?! -- ...\n")
        fresh = tmp_path / "work"
        argv = ["--config", config, "--workdir", str(fresh)]
        monkeypatch.setenv("DREQ_QUERIES", str(queries))
        assert main([*argv, "build-index"]) == 0
        assert main([*argv, "retrieve"]) == 0
        assert main([*argv, "qpp"]) == 0
        got = load_run(str(fresh / "candidates.run"))
        doc_ids = sorted(json.loads(line)["doc_id"] for line in open(os.path.join(TOY, "corpus.jsonl")))
        assert pairs(got["qempty"]) == [(d, 0.0) for d in doc_ids[:30]]
        normal = load_run(os.path.join(workdir, "candidates.run"))
        assert {q: pairs(r) for q, r in got.items() if q != "qempty"} == {
            q: pairs(r) for q, r in normal.items()
        }
        rows = dict(line.split("\t", 1) for line in open(fresh / "wig.tsv").read().splitlines()[1:])
        assert sorted(rows) == sorted([*normal, "qempty"])
        assert rows["qempty"].startswith("0.000000\t")


    def test_qpp_and_difficulty_on_two_queries_give_no_terciles(
        self, pipeline, tmp_path, monkeypatch
    ):
        config, _ = pipeline
        queries = tmp_path / "queries.tsv"
        toy = (Path(TOY) / "queries.tsv").read_text().splitlines(keepends=True)
        queries.write_text("".join(toy[:2]))
        work = tmp_path / "work"
        monkeypatch.setenv("DREQ_QUERIES", str(queries))
        argv = ["--config", config, "--workdir", str(work)]
        for stage in ("build-index", "retrieve", "qpp"):
            assert main([*argv, stage]) == 0, stage
        cands = str(work / "candidates.run")
        assert main([*argv, "difficulty", "--baseline-run", cands, "--system-run", cands]) == 0
        rows = (work / "wig.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[2] for row in rows] == ["-", "-"]
        assert "#tercile" not in (work / "difficulty.tsv").read_text()


class TestManifests:
    # the toy chain, then each mode of the stages that read by mode, and the
    # stages off the chain
    AUDITED = [
        *STAGES,
        ("rerank", "--mode", "dreq"),
        ("rerank", "--mode", "maxsimcos"),
        ("difficulty", "--baseline-run", "{work}/candidates.run",
         "--system-run", "{work}/dreq.run"),
        ("ablate",),
        ("rank-entities", "--mode", "bm25"),
        ("rank-entities", "--mode", "geeer"),
    ]
    CONFIG_KEYS = {"corpus", "entity_catalog", "queries", "qrels", "query_links"}

    def test_inputs_and_outputs_are_the_files_each_stage_opened(self, tmp_path):
        """Every stage in one process with an audit hook on `open` and on
        `os.replace`: the manifest lists exactly the files the stage read
        (the config file aside) and the files it renamed into place."""
        toy = tmp_path / "toy"
        shutil.copytree(TOY, toy)
        work = tmp_path / "work"
        config = write_config(
            tmp_path, work, corpus=toy / "corpus.jsonl", entity_catalog=toy / "entities.jsonl",
            queries=toy / "queries.tsv", qrels=toy / "qrels.txt",
            query_links=toy / "query_links.tsv",
        )
        stages = [[arg.format(work=work) for arg in argv] for argv in self.AUDITED]
        script = textwrap.dedent("""
            import json, sys
            import dreq.cli
            events = []
            def hook(event, args):
                if event == "open" and isinstance(args[0], str):
                    events.append(("open", args[0], args[1]))
                elif event == "os.rename":
                    events.append(("rename", args[1], None))
            sys.addaudithook(hook)
            seen = []
            for argv in json.loads(sys.argv[2]):
                events.clear()
                assert dreq.cli.main(["--config", sys.argv[1], *argv]) == 0, argv
                got = list(events)
                (path,) = [p for kind, p, _ in got if kind == "rename" and "manifests" in p]
                with open(path, encoding="utf-8") as f:
                    seen.append({"events": got, "path": path, "manifest": json.load(f)})
            print(json.dumps(seen))
        """)
        out = subprocess.run(
            [sys.executable, "-c", script, config, json.dumps(stages)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
        ).stdout
        seen = json.loads(out.splitlines()[-1])
        real = os.path.realpath
        root = real(tmp_path) + os.sep
        for argv, stage in zip(stages, seen):
            opened = [(kind, real(p), mode) for kind, p, mode in stage["events"]
                      if real(p).startswith(root)]
            reads = {p for kind, p, mode in opened if kind == "open" and mode in ("r", "rb")}
            writes = {p for kind, p, mode in opened if kind == "rename"} - {real(stage["path"])}
            # every file a stage writes goes through `Settings.save`'s temp file
            assert all(p.endswith(".tmp") for kind, p, mode in opened
                       if kind == "open" and mode not in ("r", "rb")), argv
            manifest = stage["manifest"]
            assert manifest["stage"] == argv[0]
            assert {real(p) for p in manifest["inputs"].values()} == reads - {real(config)}, argv
            assert {real(p) for p in manifest["outputs"].values()} == writes, argv
            for key, path in [*manifest["inputs"].items(), *manifest["outputs"].items()]:
                assert key in self.CONFIG_KEYS or key == os.path.relpath(path, work), argv
        counts = {" ".join(a): len(stage["manifest"]["inputs"]) for a, stage in zip(stages, seen)}
        # the corpus; and the corpus links, with the candidates, qrels, three
        # stores and the entity ranking; and, with the queries, folds.json and
        # five checkpoints
        assert counts["build-index"] == 1
        assert counts["train-dreq"] == counts["ablate"] == 7
        assert counts["rerank --mode dreq"] == 13
        # a stage lists a config file only if it reads it
        keys = {" ".join(a): set(stage["manifest"]["inputs"]) for a, stage in zip(stages, seen)}
        assert {a for a, k in keys.items() if "corpus" in k} == {
            "build-index", "pool-entities", "synth-embed"
        }
        assert {a for a, k in keys.items() if "corpus_links.npz" in k} == {
            "train-entity-ranker", "train-dreq", "ablate", "rerank --mode dreq",
            "rerank --mode maxsimcos",
        }
        assert "queries" not in keys["rank-entities --mode learned"]
        catalog_readers = {a for a, k in keys.items() if "entity_catalog" in k}
        assert catalog_readers == {
            "synth-embed", "rank-entities --mode bm25", "rank-entities --mode geeer"
        }

    def test_a_stage_that_names_its_output_per_run_keeps_a_manifest_per_output(
        self, pipeline, tmp_path
    ):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        argv = ["--config", config, "--workdir", str(work)]
        expected = {}
        for tag in ("a", "b"):
            assert main([*argv, "evaluate", "--tag", tag]) == 0
            expected[f"evaluate-{tag}"] = {f"eval_{tag}.tsv": str(work / f"eval_{tag}.tsv")}
        for name in ("x", "y"):
            out = str(tmp_path / f"{name}.run")
            assert main([*argv, "rerank", "--mode", "maxsimcos", "--output", out]) == 0
            expected[f"rerank-{name}"] = {out: out}
        assert main([*argv, "rerank", "--mode", "maxsimcos"]) == 0
        expected["rerank-rerank_maxsimcos"] = {
            "rerank_maxsimcos.run": str(work / "rerank_maxsimcos.run")
        }
        for name, outputs in expected.items():
            manifest = json.loads((work / "manifests" / f"{name}.json").read_text())
            assert manifest["outputs"] == outputs, name


class TestQueryLinks:
    @pytest.mark.parametrize("confidence", ["high", "", "nan", "inf", "-inf"])
    def test_bad_confidence_names_its_line(self, tmp_path, confidence):
        path = tmp_path / "links.tsv"
        path.write_text(f"q01\te1\t0.9\n\nq01\te2\t{confidence}\n")
        with pytest.raises(CliError) as exc:
            load_query_links(str(path))
        assert str(exc.value) == f"{path}:3: confidence {confidence!r} is not a finite number"

    def test_confidences_parse_in_file_order(self, tmp_path):
        path = tmp_path / "links.tsv"
        path.write_text("q01\te1\t0.9\nq02\te3\t1\nq01\te2\t-0.5\n")
        expected = {"q01": [("e1", 0.9), ("e2", -0.5)], "q02": [("e3", 1.0)]}
        assert load_query_links(str(path)) == expected


class TestMalformedInputLines:
    """An input file or a text artifact with one bad line appended: an
    `error: path:line: ...` line, never a traceback."""

    @pytest.mark.parametrize(
        ("line", "message"), list(MALFORMED_CORPUS_LINES.values()), ids=list(MALFORMED_CORPUS_LINES)
    )
    def test_corpus_line(self, tmp_path, capsys, line, message):
        corpus = tmp_path / "corpus.jsonl"
        toy = (Path(TOY) / "corpus.jsonl").read_text()
        corpus.write_text(toy + line + "\n")
        config = write_config(tmp_path, tmp_path / "work", corpus=str(corpus))
        capsys.readouterr()
        assert run(config, "build-index") == 1
        line_no = len(toy.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {corpus}:{line_no}: {message}\n"
        # the index was being built as the corpus streamed: nothing is left of it
        assert tree_bytes(tmp_path / "work") == {}

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("[1]", "expected a JSON object"),
            ('"x"', "expected a JSON object"),
            ('{"entity_id": null}', "entity_id None and description '' must be strings"),
        ],
        ids=["list", "string", "null-entity-id"],
    )
    def test_catalog_line(self, pipeline, tmp_path, capsys, line, message):
        _, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        catalog = tmp_path / "entities.jsonl"
        toy = (Path(TOY) / "entities.jsonl").read_text()
        catalog.write_text(toy + line + "\n")
        config = write_config(tmp_path, work, entity_catalog=str(catalog))
        capsys.readouterr()
        assert run(config, "synth-embed") == 1
        line_no = len(toy.splitlines()) + 1
        expected = f"error: {catalog}:{line_no}: malformed catalog line: {message}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        ("artifact", "line", "message"),
        [
            ("pooled_entities.tsv", "q01", "expected 'qid<TAB>entity'"),
            ("pooled_entities.tsv", "q01\te1\textra", "expected 'qid<TAB>entity'"),
            ("wig.tsv", "q01\tabc\t1", "wig 'abc' is not a finite number"),
            ("wig.tsv", "q01\tnan\t1", "wig 'nan' is not a finite number"),
            ("wig.tsv", "q01\t0.5", "expected 'query_id<TAB>wig<TAB>tercile'"),
        ],
        ids=["pooled-one-field", "pooled-three-fields", "wig-word", "wig-nan", "wig-two-fields"],
    )
    def test_artifact_line(self, pipeline, tmp_path, capsys, artifact, line, message):
        config, workdir = pipeline
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        shutil.rmtree(work / "manifests")
        text = (work / artifact).read_text()
        (work / artifact).write_text(text + line + "\n")
        if artifact == "wig.tsv":
            stage, out = ["difficulty", "--baseline-run", str(work / "candidates.run"),
                          "--system-run", str(work / "dreq.run")], "difficulty.tsv"
        else:
            stage, out = ["rank-entities", "--mode", "bm25"], "entity_ranking.npz"
        before = (work / out).read_bytes() if (work / out).exists() else None
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(work), *stage]) == 1
        line_no = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {work / artifact}:{line_no}: {message}\n"
        assert ((work / out).read_bytes() if (work / out).exists() else None) == before
        assert not (work / "manifests").exists()


class TestDirectoryPaths:
    @pytest.mark.parametrize("where", ["env", "config"])
    def test_a_directory_for_a_file_is_an_error_line(self, tmp_path, monkeypatch, capsys, where):
        config = write_config(tmp_path, tmp_path / "work")
        argv = ["--config", config, "build-index"]
        if where == "env":
            monkeypatch.setenv("DREQ_CORPUS", str(tmp_path))
        else:
            argv[1] = str(tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err
        assert not (tmp_path / "work").exists()


class TestRunFileInput:
    def test_evaluate_rejects_a_document_repeated_in_a_query(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d3 1\n")
        config = write_config(tmp_path, tmp_path / "work", qrels=str(qrels),
                              **{"eval.ndcg_k": "3", "eval.recall_k": "3"})
        repeated = tmp_path / "repeated.run"
        repeated.write_text("q1 Q0 d1 1 3.0 t\nq1 Q0 d1 2 2.0 t\nq1 Q0 d2 3 1.0 t\n")
        capsys.readouterr()
        assert run(config, "evaluate", "--run", str(repeated)) == 1
        assert capsys.readouterr().err == f"error: {repeated}:2: doc 'd1' repeated for query 'q1'\n"
        # counted once, d1 is one of the two relevant documents
        once = tmp_path / "once.run"
        once.write_text("q1 Q0 d1 1 3.0 t\nq1 Q0 d2 2 1.0 t\n")
        assert run(config, "evaluate", "--run", str(once)) == 0
        out = capsys.readouterr().out
        for line in ("once\tmap\t0.5000", "once\tndcg@3\t0.6131", "once\trecall@3\t0.5000"):
            assert line in out.splitlines()

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_evaluate_rejects_a_run_without_rankings(self, tmp_path, capsys, text):
        config = write_config(tmp_path, tmp_path / "work")
        empty = tmp_path / "empty.run"
        empty.write_text(text)
        capsys.readouterr()
        assert run(config, "evaluate", "--run", str(empty)) == 1
        assert capsys.readouterr().err == "error: run 'empty' has no rankings\n"
        assert not (tmp_path / "work" / "eval_empty.tsv").exists()


class TestStartup:
    def test_first_stages_load_no_model_code(self, tmp_path):
        """`import dreq.cli` loads the first-stage modules only, and
        build-index, retrieve and evaluate add only what they run."""
        config = write_config(tmp_path, tmp_path / "work")
        script = textwrap.dedent("""
            import json, sys
            import dreq.cli
            def loaded():
                return sorted(m for m in sys.modules if m.startswith("dreq"))
            seen = {"import": loaded()}
            run = sys.argv[2]
            for argv in (["build-index"], ["retrieve"], ["evaluate", "--run", run]):
                assert dreq.cli.main(["--config", sys.argv[1], *argv]) == 0, argv
                seen[argv[0]] = loaded()
            print(json.dumps(seen))
        """)
        out = subprocess.run(
            [sys.executable, "-c", script, config, str(tmp_path / "work" / "candidates.run")],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
        ).stdout
        seen = json.loads(out.splitlines()[-1])
        first = ["dreq", "dreq._npz", "dreq._porter", "dreq.cli", "dreq.config", "dreq.corpus",
                 "dreq.retrieval"]
        assert seen["import"] == seen["build-index"] == first
        assert seen["retrieve"] == sorted(first + ["dreq.pipeline"])
        assert seen["evaluate"] == sorted(first + ["dreq.evaluation", "dreq.pipeline"])
        heavy = {"dreq.training", "dreq.model", "dreq.entity_ranking", "dreq.synthetic",
                 "dreq.embeddings"}
        assert not heavy & set(seen["evaluate"])

    def test_weighting_choices_are_the_weighting_modes(self, capsys):
        from dreq.model import WeightingMode

        with pytest.raises(SystemExit) as exc:
            main(["rerank", "--weighting", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus' (choose from " + ", ".join(
            repr(m.value) for m in WeightingMode
        ) + ")" in err
        assert "{" + ",".join(m.value for m in WeightingMode) + "}" in err


class TestIndexArtifact:
    def test_npz_round_trip_keeps_odd_ids(self, tmp_path):
        texts = {
            "doc one": "alpha beta beta",
            "naïve café": "beta gamma",
            "tail\x00": "gamma gamma alpha",
            "tail": "",
            "日本": "alpha",
        }
        index = build_index(texts, TokenizerConfig(stem=True))
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.terms == index.terms
        assert loaded.tokenizer == index.tokenizer
        for name in ("indptr", "docs", "tfs", "doc_lengths"):
            a, b = getattr(index, name), getattr(loaded, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert loaded.avg_doc_length == index.avg_doc_length
        for query in ("alpha", "beta gamma"):
            assert pairs(retrieve(loaded, query, k=5, mode="bm25_rm3")) == pairs(
                retrieve(index, query, k=5, mode="bm25_rm3")
            )
        again = str(tmp_path / "again.npz")
        save_index(loaded, again)
        assert open(path, "rb").read() == open(again, "rb").read()

    def test_planted_world_index_and_candidates_keep_their_bytes(self, tmp_path):
        # sha256 pinned when tokens came from the regex alone and the forward
        # index from a stable argsort of the posting documents; the filler
        # vocabulary gives ~3k terms over 300 documents
        world = generate_planted_world(
            PlantedConfig(n_docs=300, n_queries=6, seed=5, filler_vocab=3000)
        )
        paths = write_world_files(world, str(tmp_path / "world"), stores=False)
        config = write_config(
            tmp_path, tmp_path / "work", corpus=paths["corpus"],
            entity_catalog=paths["entities"], queries=paths["queries"], qrels=paths["qrels"],
            **{"retrieve.k": "100", "retrieve.mode": "bm25_rm3"},
        )
        assert run(config, "build-index") == 0 and run(config, "retrieve") == 0
        digests = {
            name: hashlib.sha256((tmp_path / "work" / name).read_bytes()).hexdigest()
            for name in ("index.npz", "candidates.run")
        }
        assert digests == {
            "index.npz": "3c2ab04763191656544ebfd3e9df5a07286a4700fa660a7d365ab8b20c7e2f6a",
            "candidates.run": "798a71ad9134294129b0182616cd0e297b95b75b7c3e3f92d0975ebe3ed1228d",
        }


class TestTrainingArtifacts:
    @pytest.mark.parametrize("finetune", ["false", "true"])
    def test_planted_world_training_outputs_keep_their_bytes(self, tmp_path, finetune):
        # sha256 pinned when `ablate` trained its variants one `train_dreq`
        # call after another; at this learning rate some runs stop early,
        # at epochs that differ between the variants' runs of one fold; the
        # entity side and the two rerank runs were pinned when every stage
        # after `pool-entities` still parsed corpus.jsonl
        world = generate_planted_world(PlantedConfig(n_docs=300, n_queries=10, seed=6))
        work = tmp_path / "work"
        paths = write_world_files(world, str(work))
        config = write_config(
            tmp_path, work, corpus=paths["corpus"], entity_catalog=paths["entities"],
            queries=paths["queries"], qrels=paths["qrels"], query_links=paths["query_links"],
            finetune_entity_embeddings=finetune, seed="6",
            **{f"dims.{d}": "16" for d in "kmnp"},
            **{"retrieve.k": "30", "train.learning_rate": "0.1", "train.epochs": "30"},
        )
        reranks = [("rerank",), ("rerank", "--mode", "maxsimcos")]  # routed: no --checkpoint
        for stage in STAGES[:3] + STAGES[4:7] + [("ablate",)] + reranks:
            assert run(config, *stage) == 0, stage
        names = ["ablate.tsv", *(f"ablate_{v}.run" for v in VARIANTS)]
        names += [f"dreq_fold{i}.ckpt" for i in range(5)] + ["dreq_train_log.tsv", "dreq.run"]
        names += ["entity_head.npz", "entity_train_log.tsv", "entity_ranking.npz"]
        names += ["rerank_dreq.run", "rerank_maxsimcos.run"]
        digests = {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in names}
        assert digests == {
            "false": {
                "ablate.tsv": "0cd882976c59e8b612d652be0921bc8bd1b113b8301cb4781b0694e300fc46aa",
                "ablate_dreq.run": "f8532c14061a78ab5d206a2f603b573f036c104df0944b7628292af087d834c2",
                "ablate_uniform.run": "cb877347c3c1468c8cf318796986389cab9f90c44595a7eda4996ab75327d106",
                "ablate_reciprocal_rank.run": "0ebce1bd93a881b5f2211915481707e9e3bea796687877cf2549fc541d7594c5",
                "ablate_no_entity.run": "897accfc691bf48b41c897dfa46c568bec376727e8048cca18f4115b9900a7c5",
                "dreq_fold0.ckpt": "95783b8222bb35b765379789429375f9861f4ac58dd308fb61088b7bdc130079",
                "dreq_fold1.ckpt": "d0918f396432d5320e486947783bdefadae9b2aca99feb8b82b8680f3daf9603",
                "dreq_fold2.ckpt": "d58c29261f7024ef59d9087f3d0351bf79d7c0ad5de538aabd3de5617e03daa6",
                "dreq_fold3.ckpt": "e5a684667060682f5be28eacdc9c47c8fa41b1f4fdf18d303a34c5ac11307e48",
                "dreq_fold4.ckpt": "990eb8d75ba153a873c675467758bc2954527a22f123f2159780bee4ce1db634",
                "dreq_train_log.tsv": "d2dd1ac9f658005307abf146017293188cd34f418800fb48d68ade185643e49e",
                "dreq.run": "6860628eb67abcfa949fb8150d3cb194b6850e3a78e19ae52c38655f87b70c63",
                "entity_head.npz": "51c473b3a94a7ae68e3908d4b7e173b64730dcc1b62b8d1d24378b47e693c865",
                "entity_train_log.tsv": "df1f37fa553850109fd454f10f68d23236b3f111f12a97d5538af347c82c4c2b",
                "entity_ranking.npz": "b21a89c0538d10ca987b4abef0749f0324b8f9f7ff27e456143f65c7d8e015f8",
                "rerank_dreq.run": "48735f15864dd3aecfb0102a434704e894fac1e734017aa837d16487d94f00d9",
                "rerank_maxsimcos.run": "f1413af51a83f7904e8266a535499f2f699815924399eaa7bf0f4253604ab6be",
            },
            "true": {
                "ablate.tsv": "26101def8e517c8cf17153078920b1a4ced8444e590c12e9aea43c7d86b9a637",
                "ablate_dreq.run": "b60d644f4643dbee14a0faca0ef8fad06a291192a362cfa572d2ce57b1c8c586",
                "ablate_uniform.run": "339b5b6bc00a78eed2e177968b903d646c33bdfd4c3e52a5e0d1f8b8c751a810",
                "ablate_reciprocal_rank.run": "16ae98952618b851f68b8a990e978408a8b9a9039d65670e0c275d6f82c0cba0",
                "ablate_no_entity.run": "897accfc691bf48b41c897dfa46c568bec376727e8048cca18f4115b9900a7c5",
                "dreq_fold0.ckpt": "1f4a2c0689465dd23f16fa90334a93e2d6ef07fcff5a7fa8b5139ad5d8364602",
                "dreq_fold1.ckpt": "5189f6db97272b24f2098f796e8820562aba0173dc734ae6b3fa95a9155dd316",
                "dreq_fold2.ckpt": "580873e7e64daff334501b6d44c09ed621338e185a34f5975c111a9fed3a4cb1",
                "dreq_fold3.ckpt": "107ebd617a37b15cfcd49599e7af6838031749e84e6fc9e0e6581c998b774243",
                "dreq_fold4.ckpt": "c0dff008e2a717b3fb18646f063fa55a4ef7ca43a35f59fd9a384beedbde4c5d",
                "dreq_train_log.tsv": "5c83901322040c97a2d2983f622b7db3255f136ab8ff8db93566eff742989cd4",
                "dreq.run": "a1175c6e5926b5ea047b4c674cc4694f766a5c6fca7b28259884e04e57e0224a",
                "entity_head.npz": "51c473b3a94a7ae68e3908d4b7e173b64730dcc1b62b8d1d24378b47e693c865",
                "entity_train_log.tsv": "df1f37fa553850109fd454f10f68d23236b3f111f12a97d5538af347c82c4c2b",
                "entity_ranking.npz": "b21a89c0538d10ca987b4abef0749f0324b8f9f7ff27e456143f65c7d8e015f8",
                "rerank_dreq.run": "266057349bdfb9e7231005c09413dad9d6fe1933402b9d70809183d0906e06ef",
                "rerank_maxsimcos.run": "f1413af51a83f7904e8266a535499f2f699815924399eaa7bf0f4253604ab6be",
            },
        }[finetune]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        # same settings, two fresh work directories
        (tmp_path / "ca").mkdir(exist_ok=True)
        (tmp_path / "cb").mkdir(exist_ok=True)
        config_a = write_config(tmp_path / "ca", tmp_path / "runA")
        config_b = write_config(tmp_path / "cb", tmp_path / "runB")
        run_pipeline(config_a)
        run_pipeline(config_b)

        def assert_identical(names):
            for rel in names:
                a = open(tmp_path / "runA" / rel, "rb").read()
                b = open(tmp_path / "runB" / rel, "rb").read()
                assert a == b, f"{rel} differs between identical runs"

        assert_identical([
            "index.npz",
            "candidates.run",
            "pooled_entities.tsv",
            "corpus_links.npz",
            "stores/query.npz",
            "stores/entity.npz",
            "stores/passage.npz",
            "stores/query_entity.npz",
            "entity_head.npz",
            "entity_ranking.npz",
            "dreq.run",
            "dreq_fold0.ckpt",
            "dreq_fold4.ckpt",
            "dreq_train_log.tsv",
            "eval_dreq.tsv",
            "wig.tsv",
        ])
        # fine-tuning adds one tuned entity store per fold
        monkeypatch.setenv("DREQ_FINETUNE_ENTITY_EMBEDDINGS", "true")
        assert run(config_a, "train-dreq") == 0 and run(config_b, "train-dreq") == 0
        assert_identical([f"stores/entity_tuned_fold{i}.npz" for i in range(5)] + ["dreq_fold0.ckpt"])
        # the other two readers of the entity store
        for argv in (("rerank", "--mode", "maxsimcos"), ("rank-entities", "--mode", "geeer")):
            assert run(config_a, *argv) == 0 and run(config_b, *argv) == 0
        assert_identical(["rerank_maxsimcos.run", "entity_ranking.npz"])


class TestConfigResolution:
    def test_file_parsing(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# comment\nalpha = 1\n\nbeta.gamma = x y z\n")
        assert load_config_file(str(path)) == {"alpha": "1", "beta.gamma": "x y z"}

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, tmp_path / "w", **{"retrieve.k": "30"})

        class Args:
            pass

        args = Args()
        args.config = config
        monkeypatch.setenv("DREQ_RETRIEVE_K", "99")
        settings = Settings(args)
        assert settings.get("retrieve.k") == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, tmp_path / "w")

        class Args:
            pass

        args = Args()
        args.config = config
        args.seed = 123
        monkeypatch.setenv("DREQ_SEED", "55")
        settings = Settings(args)
        assert settings.get("seed") == 123

    @pytest.mark.parametrize("given", ["flag", "env", "file"])
    def test_a_negative_seed_names_its_key(self, tmp_path, monkeypatch, capsys, given):
        work = tmp_path / "work"
        config = write_config(tmp_path, work, **({"seed": "-1"} if given == "file" else {}))
        argv = ["--config", config, *(["--seed", "-1"] if given == "flag" else []), "build-index"]
        if given == "env":
            monkeypatch.setenv("DREQ_SEED", "-1")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: config key 'seed' must be a non-negative integer, got -1\n"
        )
        assert not work.exists()

    def test_digest_tracks_config_bytes(self, tmp_path):
        config_a = write_config(tmp_path, tmp_path / "w")

        class Args:
            pass

        args = Args()
        args.config = config_a
        d1 = Settings(args).config_digest()
        with open(config_a, "a") as f:
            f.write("wig.k = 10\n")
        d2 = Settings(args).config_digest()
        assert d1 != d2

    @pytest.mark.parametrize(
        ("variable", "value", "key", "kind"),
        [("RETRIEVE_K", "abc", "retrieve.k", "an integer"),
         ("RETRIEVE_K", "2.5", "retrieve.k", "an integer"),
         ("BM25_K1", "high", "bm25.k1", "a number")],
    )
    def test_a_malformed_number_names_its_key(
        self, pipeline, tmp_path, monkeypatch, capsys, variable, value, key, kind
    ):
        config, workdir = pipeline
        shutil.copy(os.path.join(workdir, "index.npz"), tmp_path / "index.npz")
        monkeypatch.setenv(f"DREQ_{variable}", value)
        capsys.readouterr()
        assert main(["--config", config, "--workdir", str(tmp_path), "retrieve"]) == 1
        assert capsys.readouterr().err == f"error: config key {key!r} is not {kind}: {value!r}\n"

    @pytest.mark.parametrize("key", ["train.epoch", "use_entity", "use_entities"])
    @pytest.mark.parametrize("given", ["file", "env"])
    def test_a_setting_name_that_names_no_key_is_an_error_line(
        self, tmp_path, monkeypatch, capsys, given, key
    ):
        work = tmp_path / "work"
        config = write_config(tmp_path, work, **({key: "false"} if given == "file" else {}))
        variable = "DREQ_" + key.upper().replace(".", "_")
        if given == "env":
            monkeypatch.setenv(variable, "false")
        assert main(["--config", config, "build-index"]) == 1
        named = {"file": f"config key {key!r}", "env": f"environment variable {variable}"}
        assert capsys.readouterr().err == f"error: {named[given]} names no setting\n"
        assert not work.exists()

    @pytest.mark.parametrize("given", ["file", "env"])
    def test_an_invalid_weighting_mode_names_its_key_and_values(
        self, tmp_path, monkeypatch, capsys, given
    ):
        work = tmp_path / "work"
        extra = {"weighting.mode": "bogus"} if given == "file" else {}
        config = write_config(tmp_path, work, **extra)
        if given == "env":
            monkeypatch.setenv("DREQ_WEIGHTING_MODE", "bogus")
        assert main(["--config", config, "train-dreq"]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'weighting.mode' must be one of probability, uniform, "
            "reciprocal_rank, none, got 'bogus'\n"
        )
        assert not work.exists()

    @pytest.mark.parametrize(("key", "value"), [
        (key, value) for key, values in INVALID_SETTINGS.items() for value in values
    ])
    def test_an_invalid_setting_stops_every_stage_with_one_line_naming_its_key(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        work = tmp_path / "work"
        config = write_config(tmp_path, work)
        monkeypatch.setenv("DREQ_" + key.upper().replace(".", "_"), value)
        assert main(["--config", config, "build-index"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: config key '{re.escape(key)}' (is not|must be) [^\n]+\n", err)
        assert value in err
        assert not work.exists()

    def test_every_setting_that_can_be_invalid_is_swept(self):
        assert set(INVALID_SETTINGS) == set(_KEYS) - {"workdir", "run.tag"}

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--definitely-not-a-flag"])
        assert exc.value.code == 2
