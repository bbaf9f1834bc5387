"""Tests of the benchmark itself, at smoke size (about 1k posts per workload).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import corpus
import run
from tracing import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def test_corpus_is_seeded(tmp_path):
    files = ("posts.jsonl", "groundtruth.csv", "annotations.csv", "labels.csv")
    a = corpus.generate(ROOT, 5, 300, tmp_path / "a")
    b = corpus.generate(ROOT, 5, 300, tmp_path / "b")
    c = corpus.generate(ROOT, 6, 300, tmp_path / "c")
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "posts.jsonl").read_bytes() != (tmp_path / "c" / "posts.jsonl").read_bytes()
    assert a.truth == b.truth and a.properties == b.properties
    assert a.properties["posts"] == 300 and 0 < a.properties["relevant"] < 300


def test_every_workload_passes_its_checks_and_confirms_the_design(capsys):
    assert run.main(
        ["--workload", "all", "--seed", "3", "--seconds", "0", "--size", "smoke", "--trace", "1"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    results = json.loads(out[-1])
    assert set(results) == set(run.WORKLOADS)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == set(LAYER_METRICS)
    claims = [line for line in out if line.startswith("design: ")]
    assert len(claims) == 4
    assert "design: annotation.backend_calls > 0 only on cold_annotate: yes" in claims
    assert "design: annotation.cache_hit_ratio = 1.0 on warm_rerun: yes" in claims


def test_wrong_expected_count_raises_error_rate(monkeypatch, capsys):
    def generate_with_one_wrong_label(*args):
        generated = corpus.generate(*args)
        post_id, truth = next((k, t) for k, t in generated.truth.items() if t.relevant)
        generated.truth[post_id] = truth.__class__(
            truth.relevant, truth.code % 11 + 1, truth.week, truth.state
        )
        return generated

    monkeypatch.setattr(run, "generate", generate_with_one_wrong_label)
    assert run.main(["--workload", "cold_annotate", "--seed", "3", "--seconds", "0",
                     "--size", "smoke", "--trace", "0"]) == 1
    out = capsys.readouterr().out
    # annotate (labels) and counts fail in the warm-up and each of the 3
    # timed passes: 8 of 20 commands. No pass counts, so no result is printed.
    assert "20 commands, 8 failed" in out
    assert "FAILED annotate: check_labels" in out and "FAILED counts: check_counts" in out
    assert re.search(r"error_rate +0\.4000 ratio", out)
    assert '"correct"' not in out and "wall_s" not in out


def test_tracer_reports_a_removed_name_as_absent():
    calls = []
    cli = types.SimpleNamespace(
        load_posts=lambda path: calls.append(path) or types.SimpleNamespace(
            report=types.SimpleNamespace(lines_read=7)
        ),
    )
    tracer = Tracer(cli)
    with tracer.span("cli.counts", "cli", "cli.counts_s"):
        cli.load_posts("posts.jsonl")
    metrics = tracer.metrics()
    assert calls == ["posts.jsonl"]
    assert "locate_posts" in tracer.absent and "make_backend" in tracer.absent
    assert metrics["ingestion.posts_parsed"] == 7 and metrics["ingestion.load_posts_calls"] == 1
    assert metrics["spatial.locate_s"] == 0
    span_total = metrics["cli.counts_s"]
    assert abs(metrics["cli.self_s"] + metrics["ingestion.self_s"] - span_total) < 1e-9


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spatial_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
