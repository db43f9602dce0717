import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dreq.cli import (
    CliError,
    Settings,
    load_config_file,
    load_index,
    load_query_links,
    main,
    save_index,
)
from dreq.corpus import load_corpus, load_entity_catalog
from dreq.entity_ranking import load_entity_rankings
from dreq.retrieval import TokenizerConfig, build_index, load_run, retrieve
from dreq.synthetic import PlantedConfig, generate_planted_world, write_world_files
from dreq.training import FoldPlan

TOY = os.path.join(os.path.dirname(__file__), "..", "data", "toy")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


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
        manifest = json.load(open(os.path.join(workdir, "manifests", "retrieve.json")))
        assert manifest["stage"] == "retrieve"
        assert len(manifest["config_digest"]) == 64
        assert manifest["seed"] == 7

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

    def test_rerank_with_checkpoint_and_ablation_flags(self, pipeline):
        config, workdir = pipeline
        out = os.path.join(workdir, "rr_mode.run")
        assert (
            run(
                config,
                "rerank",
                "--mode",
                "dreq",
                "--checkpoint",
                os.path.join(workdir, "dreq_fold0.ckpt"),
                "--weighting",
                "reciprocal_rank",
                "--no-entities",
                "--output",
                out,
            )
            == 0
        )
        assert os.path.exists(out)

    def test_rerank_scores_each_query_with_its_test_fold_model(self, pipeline):
        config, workdir = pipeline
        assert run(config, "rerank", "--mode", "dreq") == 0
        routed = load_run(os.path.join(workdir, "rerank_dreq.run"))
        plan = FoldPlan.load(os.path.join(workdir, "folds.json"))
        per_fold = []
        for i, fold in enumerate(plan.folds):
            out = os.path.join(workdir, f"rerank_fold{i}.run")
            ckpt = os.path.join(workdir, f"dreq_fold{i}.ckpt")
            assert run(config, "rerank", "--checkpoint", ckpt, "--output", out) == 0
            per_fold.append(load_run(out))
            for qid in fold.test:
                assert pairs(routed[qid]) == pairs(per_fold[i][qid]), qid
        # fold 0's model alone would have scored other folds' queries differently
        assert any(pairs(routed[q]) != pairs(per_fold[0][q]) for q in routed)
        # and the routed run is train-dreq's own out-of-fold run
        oof = load_run(os.path.join(workdir, "dreq.run"))
        assert {q: pairs(r) for q, r in routed.items()} == {q: pairs(r) for q, r in oof.items()}

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


MENTION = {"entity_id": "e1", "mention": "a", "start": 0, "end": 1, "confidence": 0.5}


def bad_mention(**fields):
    """A one-mention toy document whose mention has `fields` (None drops one)."""
    mention = {k: v for k, v in {**MENTION, **fields}.items() if v is not None}
    return json.dumps({"doc_id": "dbad", "text": "a b", "entities": [mention]})


class TestMalformedInputLines:
    """`build-index` on the toy world with one bad line appended: an
    `error: path:line: ...` line, never a traceback."""

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            (json.dumps({"doc_id": "dbad", "text": "a", "entities": None}),
             "doc 'dbad': entities must be a list, got None"),
            (json.dumps({"doc_id": "dbad", "text": "a", "entities": ["e1"]}),
             "doc 'dbad': mention 'e1' is not an object"),
            ("[1, 2]", "expected a JSON object"),
            (bad_mention(start=None), "doc 'dbad': mention missing field 'start'"),
            (bad_mention(entity_id=None), "doc 'dbad': mention missing field 'entity_id'"),
            (bad_mention(start="x"), "doc 'dbad': mention span ['x', 1) must be integers"),
            (bad_mention(start=0.5), "doc 'dbad': mention span [0.5, 1) must be integers"),
            (bad_mention(confidence="x"), "doc 'dbad': confidence 'x' is not a number"),
        ],
        ids=["entities-null", "string-mention", "not-an-object", "no-start", "no-entity-id",
             "string-start", "fractional-start", "string-confidence"],
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

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("[1]", "expected a JSON object"),
            ('"x"', "expected a JSON object"),
            ('{"entity_id": null}', "entity_id None and description '' must be strings"),
        ],
        ids=["list", "string", "null-entity-id"],
    )
    def test_catalog_line(self, tmp_path, capsys, line, message):
        catalog = tmp_path / "entities.jsonl"
        toy = (Path(TOY) / "entities.jsonl").read_text()
        catalog.write_text(toy + line + "\n")
        config = write_config(tmp_path, tmp_path / "work", entity_catalog=str(catalog))
        capsys.readouterr()
        assert run(config, "build-index") == 1
        line_no = len(toy.splitlines()) + 1
        expected = f"error: {catalog}:{line_no}: malformed catalog line: {message}\n"
        assert capsys.readouterr().err == expected


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
        first = ["dreq", "dreq._npz", "dreq._porter", "dreq.cli", "dreq.corpus", "dreq.retrieval"]
        assert seen["import"] == seen["build-index"] == first
        assert seen["retrieve"] == sorted(first + ["dreq.pipeline"])
        assert seen["evaluate"] == sorted(first + ["dreq.evaluation", "dreq.pipeline"])
        heavy = {"dreq.training", "dreq.model", "dreq.entity_ranking", "dreq.synthetic"}
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
        assert settings.get_int("retrieve.k") == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, tmp_path / "w")

        class Args:
            pass

        args = Args()
        args.config = config
        args.seed = 123
        monkeypatch.setenv("DREQ_SEED", "55")
        settings = Settings(args)
        assert settings.get_int("seed") == 123

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

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--definitely-not-a-flag"])
        assert exc.value.code == 2
