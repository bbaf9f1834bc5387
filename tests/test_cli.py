"""End-to-end tests for the command-line pipeline."""

import contextlib
import dataclasses
import hashlib
import http.server
import io
import json
import os
import signal
import subprocess
import sys
import threading
from datetime import date, timedelta
from pathlib import Path

import pytest

from conftest import FIXTURES, PooledMock

import disimpact
from disimpact import MalformedInput
from disimpact import cli
from disimpact.cli import load_config_file, main

POSTS = FIXTURES / "posts.jsonl"
CLEAN20 = FIXTURES / "clean20.jsonl"
TRUTH = FIXTURES / "groundtruth.csv"
TABLE_COUNTS = FIXTURES / "table_counts.csv"
ANNOTATIONS = FIXTURES / "annotations.csv"

FROZEN_LEADLAG = (
    "lag_weeks,rho,overlap\n"
    "-3,-0.535714286,7\n"
    "-2,-0.500000000,8\n"
    "-1,0.033333333,9\n"
    "0,0.406060606,10\n"
    "1,0.800000000,9\n"
    "2,0.476190476,8\n"
    "3,-0.107142857,7\n"
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run: annotate, counts, index, validate, spatial, chart."""
    out = tmp_path_factory.mktemp("pipeline")
    steps = {}
    steps["annotate"] = run_cli(
        ["annotate", "--in", POSTS, "--disaster", "hurricane", "--out", out]
    )
    steps["counts"] = run_cli(
        ["counts", "--in", POSTS, "--labels", out / "labels.csv", "--out", out]
    )
    steps["index"] = run_cli(["index", "--in", out / "counts.csv", "--out", out])
    steps["validate"] = run_cli(
        ["validate", "--in", out / "domain.csv", "--truth", TRUTH, "--out", out]
    )
    steps["spatial"] = run_cli(
        ["spatial", "--in", POSTS, "--labels", out / "labels.csv", "--out", out]
    )
    steps["chart"] = run_cli(
        ["chart", "--in", out / "domain.csv", "--out", out, "--title", "Weekly"]
    )
    return out, steps


class TestConfigFile:
    def test_parses_typed_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# tuning\n"
            "alpha = 0.25\n"
            "window_anchor=2024-09-02\n"
            "\n"
            "max_lag=5\n"
            "quantile_method = nearest\n",
            encoding="utf-8",
        )
        assert load_config_file(path) == {
            "alpha": 0.25,
            "window_anchor": date(2024, 9, 2),
            "max_lag": 5,
            "quantile_method": "nearest",
        }

    def test_anchor_is_only_yyyy_mm_dd(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window_anchor=2024-W36-1\n", encoding="utf-8")
        with pytest.raises(MalformedInput, match="is not YYYY-MM-DD"):
            load_config_file(path)

    def test_anchor_none_spelling(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window_anchor=none\n", encoding="utf-8")
        assert load_config_file(path) == {"window_anchor": None}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("smoothing=0.5\n", encoding="utf-8")
        with pytest.raises(MalformedInput):
            load_config_file(path)

    def test_missing_separator(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha 0.5\n", encoding="utf-8")
        with pytest.raises(MalformedInput):
            load_config_file(path)

    def test_unparsable_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha=strong\n", encoding="utf-8")
        with pytest.raises(MalformedInput):
            load_config_file(path)

    def test_repeated_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1\nalpha=2\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", out, "--config", cfg]
        )
        assert code == 2
        assert stderr == f"error: MalformedInput: {cfg}:2: duplicate config key 'alpha'\n"
        assert list(out.iterdir()) == []

    def test_keys_fields_and_snapshot_agree(self):
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert set(cli._CONFIG_PARSERS) == fields == set(cli.RunConfig().snapshot())

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.9\n", encoding="utf-8")
        code, _, _ = run_cli(
            [
                "index", "--in", TABLE_COUNTS, "--out", tmp_path,
                "--config", cfg, "--alpha", "0.5",
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest_index.json").read_text())
        assert manifest["config"]["alpha"] == 0.5

    def test_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.25\n", encoding="utf-8")
        code, _, _ = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path, "--config", cfg]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest_index.json").read_text())
        assert manifest["config"]["alpha"] == 0.25

    def test_category_count_is_an_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("category_count=12\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path, "--config", cfg]
        )
        assert code == 2
        assert "unknown config key 'category_count'" in stderr
        assert not (tmp_path / "index.csv").exists()

    def test_infinite_alpha_exits_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=inf\n", encoding="utf-8")
        labels = tmp_path / "labels.csv"
        labels.write_text(COUNTS_LABELS, encoding="utf-8")
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["counts", "--in", CLEAN20, "--labels", labels, "--out", out, "--config", cfg]
        )
        assert code == 1
        assert stderr == "error: ValueError: alpha must be finite and > 0\n"
        assert list(out.iterdir()) == []

    def test_invalid_config_value_exits_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_lag=-1\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path, "--config", cfg]
        )
        assert code == 1
        assert "error:" in stderr


class TestClean:
    def test_summary_and_outputs(self, tmp_path):
        code, stdout, stderr = run_cli(
            ["clean", "--in", CLEAN20, "--disaster", "hurricane", "--out", tmp_path]
        )
        assert code == 0
        assert stdout == "14/20 (70%)\n"
        assert stderr == ""
        kept = (tmp_path / "posts_clean.jsonl").read_text().splitlines()
        assert len(kept) == 14
        manifest = json.loads((tmp_path / "manifest_clean.json").read_text())
        assert manifest["command"] == "clean"
        assert set(manifest["outputs"]) == {
            "posts_clean.jsonl",
            "annotation_cache.jsonl",
        }

    def test_warm_rerun_reuses_cache(self, tmp_path):
        first = run_cli(
            ["clean", "--in", CLEAN20, "--disaster", "hurricane", "--out", tmp_path]
        )
        second = run_cli(
            ["clean", "--in", CLEAN20, "--disaster", "hurricane", "--out", tmp_path]
        )
        assert first[0] == second[0] == 0
        assert second[1] == "14/20 (70%)\n"
        cache_lines = (tmp_path / "annotation_cache.jsonl").read_text().splitlines()
        assert len(cache_lines) == 20

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        posts = tmp_path / "posts.jsonl"
        nested = "[" * 100_000 + "]" * 100_000
        posts.write_bytes(CLEAN20.read_bytes() + nested.encode() + b"\n")
        code, stdout, stderr = run_cli(
            ["clean", "--in", posts, "--disaster", "hurricane", "--out", tmp_path]
        )
        assert code == 0
        assert stdout == "14/20 (70%)\n"
        assert stderr == "dropped 1 malformed, 0 duplicate lines\n"


@pytest.fixture
def backends(monkeypatch):
    """Every backend the CLI makes, in order; a mock unless `make` is replaced."""
    made = []
    factory = {"make": disimpact.MockBackend}

    def make_backend(args):
        made.append(factory["make"]())
        return made[-1]

    monkeypatch.setattr(cli, "make_backend", make_backend)
    return made, factory


class TestAnnotationCache:
    def test_other_disaster_reuses_no_verdict(self, tmp_path, backends):
        made, _ = backends
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        clean = ["clean", "--in", POSTS, "--disaster"]
        assert run_cli(clean + ["hurricane", "--out", shared])[:2] == (0, "171/200 (86%)\n")
        after = run_cli(clean + ["wildfire", "--out", shared])
        alone = run_cli(clean + ["wildfire", "--out", fresh])
        assert after[:2] == alone[:2] == (0, "0/200 (0%)\n")
        assert [backend.calls for backend in made] == [200, 200, 200]
        assert (shared / "posts_clean.jsonl").read_bytes() == (
            fresh / "posts_clean.jsonl"
        ).read_bytes()

    def test_cold_runs_write_identical_caches(self, tmp_path, backends):
        made, factory = backends
        outputs = {}
        for name, in_flight in (("inline", 4), ("again", 4), ("pool", 3)):
            if name == "pool":
                factory["make"] = PooledMock
            out = tmp_path / name
            argv = ["annotate", "--in", POSTS, "--disaster", "hurricane"]
            code, _, _ = run_cli(argv + ["--max-in-flight", in_flight, "--out", out])
            assert code == 0
            outputs[name] = [
                (out / file).read_bytes() for file in ("annotation_cache.jsonl", "labels.csv")
            ]
        assert outputs["inline"] == outputs["again"] == outputs["pool"]
        assert threading.current_thread().name not in made[-1].threads
        assert len(outputs["pool"][0].splitlines()) == 371 == made[-1].inner.calls

    def test_rerun_appends_nothing(self, tmp_path):
        argv = ["annotate", "--in", POSTS, "--disaster", "hurricane", "--out", tmp_path]
        assert run_cli(argv)[0] == 0
        before = (tmp_path / "annotation_cache.jsonl").read_bytes()
        code, stdout, _ = run_cli(argv)
        assert (code, stdout) == (0, "annotated 200/200 posts (171 relevant, 200 cache hits)\n")
        assert (tmp_path / "annotation_cache.jsonl").read_bytes() == before


    @pytest.mark.parametrize(
        "command, cache, error",
        [
            ("clean", "{out}/posts_clean.jsonl",
             "output {out}/posts_clean.jsonl would replace the annotation cache"),
            ("annotate", "{out}/labels.csv",
             "output {out}/labels.csv would replace the annotation cache"),
            ("clean", "{posts}",
             "cache {posts} would replace this run's manifest, an input or an output"),
            ("annotate", "{posts}",
             "cache {posts} would replace this run's manifest, an input or an output"),
            ("annotate", "{out}/manifest_annotate.json",
             "cache {out}/manifest_annotate.json would replace this run's manifest, "
             "an input or an output"),
            # Another directory, but the manifest would list both files under one name.
            ("clean", "{posts.parent}/posts_clean.jsonl",
             "output {out}/posts_clean.jsonl would share its manifest entry with the cache"),
            ("annotate", "{posts.parent}/labels.csv",
             "output {out}/labels.csv would share its manifest entry with the cache"),
        ],
    )
    def test_cache_may_name_no_output_input_or_manifest(
        self, tmp_path, backends, command, cache, error
    ):
        made, _ = backends
        posts, out = tmp_path / "posts.jsonl", tmp_path / "out"
        posts.write_bytes(CLEAN20.read_bytes())
        cache = cache.format(out=out, posts=posts)
        argv = [command, "--in", posts, "--disaster", "hurricane", "--out", out, "--cache", cache]
        error = error.format(out=out, posts=posts)
        assert run_cli(argv) == (2, "", f"error: MalformedInput: {error}\n")
        assert made == []  # refused before the backend is made
        assert list(out.iterdir()) == []
        assert posts.read_bytes() == CLEAN20.read_bytes()


class CountedPost(disimpact.Post):
    """A Post that counts how many are alive now, and at most."""

    __slots__ = ()
    live = peak = 0
    lock = threading.Lock()

    def __new__(cls, *fields):
        post = super().__new__(cls, *fields)
        with cls.lock:
            CountedPost.live += 1
            CountedPost.peak = max(CountedPost.peak, CountedPost.live)
        return post

    def __del__(self):
        with self.lock:
            CountedPost.live -= 1


class TestAnnotate:
    def test_cold_run_summary(self, pipeline):
        _, steps = pipeline
        code, stdout, stderr = steps["annotate"]
        assert code == 0
        assert stdout == "annotated 200/200 posts (171 relevant, 0 cache hits)\n"
        assert stderr == ""

    def test_labels_written_for_relevant_posts(self, pipeline):
        out, _ = pipeline
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "post_id,category_code"
        assert len(lines) == 1 + 171


class TestAnnotateStreams:
    def test_warm_run_loads_builds_and_holds_no_post(self, tmp_path, monkeypatch, backends):
        made, factory = backends
        monkeypatch.setattr(disimpact.ingestion, "Post", CountedPost)
        reads = []  # one entry per read of posts.jsonl
        iter_posts = cli.iter_posts
        monkeypatch.setattr(cli, "iter_posts", lambda *args: reads.append(1) or iter_posts(*args))
        cold = "annotated 200/200 posts (171 relevant, 0 cache hits)\n"
        warm = "annotated 200/200 posts (171 relevant, 200 cache hits)\n"
        after_clean = "annotated 200/200 posts (171 relevant, 29 cache hits)\n"
        steps = (  # command, --out, stdout, backend calls (None: no backend)
            # one read asks for each relevance verdict and writes the kept posts
            ("clean", "clean", "171/200 (86%)\n", 200),
            # nothing to ask: the one read writes the kept posts
            ("clean", "clean", "171/200 (86%)\n", 0),
            # clean's relevance verdicts cached: each relevant post's category
            ("annotate", "clean", after_clean, 171),
            # an empty cache: relevance, and each relevant post's category
            ("annotate", "annotate", cold, 371),
            # every verdict cached
            ("annotate", "annotate", warm, 0),
            ("counts", "annotate", "10 windows from 2024-09-02 to 2024-11-11, 171 posts\n", None),
            ("spatial", "annotate", None, None),
        )
        # The window is the posts asked about at once: one for the inline mock,
        # at most 2 x --max-in-flight for a pool. The read also holds the post
        # it last gave while it parses the next.
        for make, in_flight, window in ((disimpact.MockBackend, 4, 1), (PooledMock, 3, 6)):
            factory["make"] = make
            for command, name, stdout, calls in steps:
                out = tmp_path / make.__name__ / name
                argv = [command, "--in", POSTS, "--out", out]
                if calls is None:
                    argv += ["--labels", out / "labels.csv"]
                else:
                    argv += ["--disaster", "hurricane", "--max-in-flight", in_flight]
                before = list(out.glob("annotation_cache.jsonl"))
                before = before and before[0].read_bytes()
                reads.clear()
                made.clear()
                CountedPost.peak = CountedPost.live = 0
                code, got, _ = run_cli(argv)
                assert (code, len(reads)) == (0, 1), (make, command, name)
                assert stdout is None or got == stdout, (make, command, name)
                if calls is None:
                    assert made == []
                    continue
                backend = getattr(made[-1], "inner", made[-1])
                assert backend.calls == calls, (make, command, name)
                assert 1 <= CountedPost.peak <= window + 2, (make, command, name)
                if not calls:
                    assert (out / "annotation_cache.jsonl").read_bytes() == before

    @pytest.mark.parametrize("command", ["clean", "annotate"])
    def test_posts_edited_mid_read_exit_1_and_commit_nothing(
        self, tmp_path, monkeypatch, backends, command
    ):
        made, _ = backends
        last = json.loads(CLEAN20.read_bytes().splitlines()[-1])
        added = json.dumps(last | {"id": "added", "text": "added: " + last["text"]}) + "\n"
        posts, out = tmp_path / "posts.jsonl", tmp_path / "out"
        posts.write_bytes(CLEAN20.read_bytes())
        iter_posts = cli.iter_posts

        def read(path, *args):
            stream = iter_posts(path, *args)
            yield next(stream)
            # The file is open, and a post is appended before the read reaches its end.
            with path.open("a", encoding="utf-8") as fh:
                fh.write(added)
            yield from stream

        monkeypatch.setattr(cli, "iter_posts", read)
        argv = [command, "--in", posts, "--disaster", "hurricane", "--out", out]
        error = f"error: InputChanged: {posts} changed while it was read\n"
        assert run_cli(argv) == (1, "", error)
        # Every verdict the read asked for stays cached: 21 relevance verdicts,
        # and for annotate the category of each of the 14 relevant posts ...
        assert [path.name for path in out.iterdir()] == ["annotation_cache.jsonl"]
        cached = (out / "annotation_cache.jsonl").read_bytes().count(b"\n")
        assert cached == made[-1].calls == (21 if command == "clean" else 35)
        # ... and a rerun on the file as it now is asks only for the rest.
        monkeypatch.setattr(cli, "iter_posts", iter_posts)
        assert run_cli(argv)[0] == 0
        fresh = tmp_path / "fresh"
        assert run_cli(argv[:-1] + [fresh])[0] == 0
        assert made[-2].calls == made[-1].calls - cached
        assert (out / "annotation_cache.jsonl").read_bytes() == (
            fresh / "annotation_cache.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("command", ["annotate", "counts", "spatial"])
    def test_posts_edited_after_hashing_exit_1_and_commit_nothing(
        self, tmp_path, monkeypatch, command
    ):
        posts, out = tmp_path / "posts.jsonl", tmp_path / "out"
        posts.write_bytes(POSTS.read_bytes())
        annotate = ["annotate", "--in", posts, "--disaster", "hurricane", "--out", out]
        assert run_cli(annotate)[0] == 0
        argv = annotate if command == "annotate" else [
            command, "--in", posts, "--labels", out / "labels.csv", "--out", out
        ]
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        iter_posts = cli.iter_posts

        def read(path, *args):
            # One post's platform is rewritten after Run.input hashed the file.
            edited = posts.read_bytes().replace(b'"reddit"', b'"tiktok"', 1)
            posts.write_bytes(edited)
            return iter_posts(path, *args)

        monkeypatch.setattr(cli, "iter_posts", read)
        error = f"error: InputChanged: {posts} changed while it was read\n"
        assert run_cli(argv) == (1, "", error)
        # A warm annotate, counts and spatial commit nothing; the cache is unchanged.
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_mostly_malformed_posts_exit_2_and_commit_nothing(self, tmp_path, backends):
        made, _ = backends
        lines = CLEAN20.read_bytes().splitlines(keepends=True)
        for command in ("clean", "annotate"):
            posts, out = tmp_path / "posts.jsonl", tmp_path / command
            posts.write_bytes(b"".join(lines[:10]))
            argv = [command, "--in", posts, "--disaster", "hurricane", "--out", out]
            assert run_cli(argv)[0] == 0
            cache = out / "annotation_cache.jsonl"
            with cache.open("ab") as fh:
                fh.write(b'{"judgment": true, "ke')  # a torn last line, ended only by an append
            before = {path.name: path.read_bytes() for path in out.iterdir()}

            posts.write_bytes(CLEAN20.read_bytes() + b"{not json\n" * 21)
            assert run_cli(argv) == (
                2, "", f"error: MalformedInput: 21 of 41 lines are malformed in {posts}\n"
            )
            # The outputs and the manifest are unchanged. The valid posts were
            # asked about before the read reached its end, and only the new
            # ones' verdicts were added to the cache: the lines a run on
            # those ten posts alone writes.
            after = {path.name: path.read_bytes() for path in out.iterdir()}
            added = after.pop(cache.name).removeprefix(before.pop(cache.name) + b"\n")
            assert after == before
            alone = tmp_path / f"{command}-alone"
            alone.mkdir()
            (alone / "posts.jsonl").write_bytes(b"".join(lines[10:]))
            assert run_cli([*argv[:2], alone / "posts.jsonl", *argv[3:-1], alone])[0] == 0
            assert added == (alone / "annotation_cache.jsonl").read_bytes()
            # A rerun on the repaired file asks for nothing.
            posts.write_bytes(CLEAN20.read_bytes())
            assert run_cli(argv)[0] == 0
            assert made[-1].calls == 0


class TestCounts:
    @pytest.mark.parametrize("flag", ["--range-start", "--range-end", "--window-anchor"])
    def test_a_date_flag_is_only_yyyy_mm_dd(self, pipeline, tmp_path, capsys, flag):
        out, _ = pipeline
        argv = ["counts", "--in", POSTS, "--labels", out / "labels.csv", "--out", tmp_path]
        for text in ("20240826", "2024-W35-1"):
            with pytest.raises(SystemExit) as excinfo:
                main([str(arg) for arg in argv + [flag, text]])
            assert excinfo.value.code == 2
            assert f"argument {flag}: invalid " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_window_summary(self, pipeline):
        _, steps = pipeline
        code, stdout, stderr = steps["counts"]
        assert code == 0
        assert stdout == "10 windows from 2024-09-02 to 2024-11-11, 171 posts\n"
        assert stderr == "29 posts had no label\n"

    def test_counts_csv_header(self, pipeline):
        out, _ = pipeline
        first = (out / "counts.csv").read_text().splitlines()[0]
        assert first == "window_start,category,count,total"

    @pytest.mark.parametrize(
        "flag, windows, start, end, counted, outside",
        [
            ("--range-start", 8, "2024-09-16", "2024-11-11", 154, 17),
            ("--range-end", 2, "2024-09-02", "2024-09-16", 17, 154),
        ],
    )
    def test_one_bound_is_honoured(
        self, pipeline, tmp_path, flag, windows, start, end, counted, outside
    ):
        out, _ = pipeline
        code, stdout, stderr = run_cli(
            [
                "counts", "--in", POSTS, "--labels", out / "labels.csv",
                flag, "2024-09-16", "--out", tmp_path,
            ]
        )
        assert code == 0
        assert stdout == f"{windows} windows from {start} to {end}, {counted} posts\n"
        assert stderr == f"29 posts had no label\n{outside} posts outside range\n"
        rows = (tmp_path / "counts.csv").read_text().splitlines()[1:]
        starts = sorted({row.split(",")[0] for row in rows})
        assert len(starts) == windows
        assert starts[0] == start


class TestIndex:
    def test_weight_range_summary(self, pipeline):
        _, steps = pipeline
        code, stdout, _ = steps["index"]
        assert code == 0
        assert stdout == "10 windows; weight range [0.816563, 2.547087]\n"

    def test_single_window_fixture(self, tmp_path):
        code, stdout, _ = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path]
        )
        assert code == 0
        assert stdout == "1 windows; weight range [1.570796, 1.570796]\n"
        rows = (tmp_path / "index.csv").read_text().splitlines()
        assert (
            "2024-09-02,INFR,1720,9666,0.177893812,1.570796327,0.279434946" in rows
        )

    def test_zero_iqr_over_unequal_totals_is_said(self, tmp_path):
        # Totals 1, 1, 1, 1, 2: both quartiles are 1, yet the weights differ.
        counts = disimpact.WeeklySeries(
            date(2024, 9, 2), ((1,) + (0,) * 10,) * 4 + ((2,) + (0,) * 10,)
        )
        disimpact.write_counts_csv(counts, tmp_path / "counts.csv")
        code, _, stderr = run_cli(["index", "--in", tmp_path / "counts.csv", "--out", tmp_path])
        assert code == 0
        assert stderr == "IQR of 0 in the weekly totals; the weight uses 1 in its place\n"

    def test_real_spread_says_nothing(self, pipeline):
        _, steps = pipeline
        assert steps["index"][2] == ""

    def test_outputs_are_reproducible(self, pipeline, tmp_path):
        out, _ = pipeline
        code, _, _ = run_cli(["index", "--in", out / "counts.csv", "--out", tmp_path])
        assert code == 0
        for name in ("index.csv", "domain.csv", "manifest_index.json"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


class TestValidate:
    def test_statement(self, pipeline):
        _, steps = pipeline
        code, stdout, _ = steps["validate"]
        assert code == 0
        assert stdout == (
            "strongest association at +1 weeks (rho = 0.800, strong range): "
            "ground truth leads the index by 1 week\n"
        )

    def test_leadlag_rows(self, pipeline):
        out, _ = pipeline
        assert (out / "leadlag.csv").read_text() == FROZEN_LEADLAG

    def test_report_json(self, pipeline):
        out, _ = pipeline
        report = json.loads((out / "validate_report.json").read_text())
        assert report["best_lag"] == 1
        assert report["best_rho"] == pytest.approx(0.8, abs=1e-9)
        assert report["strength"] == "strong"
        assert report["meaningful"] is False

    def test_truth_against_itself_is_contemporaneous(self, tmp_path):
        code, stdout, _ = run_cli(
            ["validate", "--in", TRUTH, "--truth", TRUTH, "--out", tmp_path]
        )
        assert code == 0
        assert "+0 weeks (rho = 1.000, strong range): contemporaneous" in stdout
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["best_lag"] == 0

    def test_gapped_series_input_is_reported(self, tmp_path):
        series = tmp_path / "series.csv"
        lines = TRUTH.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("2024-09-16")]
        series.write_text("".join(kept), encoding="utf-8")
        code, _, stderr = run_cli(
            ["validate", "--in", series, "--truth", TRUTH, "--out", tmp_path]
        )
        assert code == 0
        assert stderr == "zero-filled 1 missing index weeks\n"


class TestAgreement:
    def test_human_only_report(self, tmp_path):
        code, stdout, _ = run_cli(
            ["agreement", "--in", ANNOTATIONS, "--out", tmp_path]
        )
        assert code == 0
        assert stdout == "consistency 0.5000, fleiss_kappa 0.3333 over 4 items\n"
        report = json.loads((tmp_path / "agreement.json").read_text())
        assert set(report) == {
            "consistency",
            "fleiss_kappa",
            "fleiss_degenerate",
            "n_items",
        }
        assert report["fleiss_kappa"] == pytest.approx(1 / 3, abs=1e-9)

    def test_model_comparison(self, tmp_path):
        labels = tmp_path / "model.csv"
        labels.write_text(
            "post_id,category_code\ni1,1\ni2,2\ni3,2\ni4,2\n", encoding="utf-8"
        )
        code, _, stderr = run_cli(
            ["agreement", "--in", ANNOTATIONS, "--labels", labels, "--out", tmp_path]
        )
        assert code == 0
        assert stderr == ""
        report = json.loads((tmp_path / "agreement.json").read_text())
        assert report["human_mllm_consistency"] == pytest.approx(0.75)
        assert report["cohen_kappa"] == pytest.approx(0.5, abs=1e-9)
        assert report["n_unresolved"] == 0

    def test_items_without_a_model_label_are_counted(self, tmp_path):
        annotations = tmp_path / "annotations.csv"
        annotations.write_text(
            ANNOTATIONS.read_text(encoding="utf-8") + "i5,a1,1\ni5,a2,2\ni5,a3,3\n",
            encoding="utf-8",
        )
        labels = tmp_path / "model.csv"
        labels.write_text("post_id,category_code\ni1,1\ni3,2\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["agreement", "--in", annotations, "--labels", labels, "--out", tmp_path]
        )
        assert code == 0
        # i2 and i4 are resolved but unlabelled; i5 is a full split, counted apart.
        assert stderr == "2 annotated items had no model label\n"
        report = json.loads((tmp_path / "agreement.json").read_text())
        assert report["n_unresolved"] == 1
        assert report["human_mllm_consistency"] == 1.0


class TestSpatial:
    def test_cell_summary(self, pipeline):
        _, steps = pipeline
        code, stdout, stderr = steps["spatial"]
        assert code == 0
        assert stdout == "13 state-month cells across 5 states\n"
        assert "99 posts could not be located" in stderr

    @pytest.mark.parametrize("source_filter, states", [("both", 1), ("metadata", 1), ("text", 0)])
    def test_zero_iqr_states_are_counted(self, pipeline, tmp_path, source_filter, states):
        out, _ = pipeline
        code, _, stderr = run_cli(
            ["spatial", "--in", POSTS, "--labels", out / "labels.csv",
             "--source-filter", source_filter, "--out", tmp_path]
        )
        assert code == 0
        said = [line for line in stderr.splitlines() if "IQR" in line]
        expected = (
            f"IQR of 0 in the weekly totals of {states} state series; "
            "max(1, mean * 1e-6) stands in for it"
        )
        assert said == ([expected] if states else [])

    def test_spatial_csv_header(self, pipeline):
        out, _ = pipeline
        first = (out / "spatial.csv").read_text().splitlines()[0]
        assert first == "state,month,source,physical,social,post_count"

    def test_bundled_gazetteer_is_hashed(self, pipeline):
        out, _ = pipeline
        manifest = json.loads((out / "manifest_spatial.json").read_text())
        assert "gazetteer.csv" in manifest["inputs"]

    def test_obeys_the_composite_operator(self, pipeline, tmp_path):
        out, _ = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text("composite_operator=mean\n", encoding="utf-8")
        code, _, _ = run_cli(
            ["spatial", "--in", POSTS, "--labels", out / "labels.csv",
             "--config", cfg, "--out", tmp_path]
        )
        assert code == 0

        def cells(path):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            return {(r[0], r[1], r[2], r[5]): (float(r[3]), float(r[4])) for r in rows}

        summed, averaged = cells(out / "spatial.csv"), cells(tmp_path / "spatial.csv")
        assert summed.keys() == averaged.keys()
        for key, (physical, social) in summed.items():
            assert averaged[key] == pytest.approx((physical / 5, social / 5), abs=1e-9)


# sha256 of the fixture outputs. counts.csv, the spatial.csv files and
# labels.csv are as the in-memory counts and spatial wrote them, before
# either streamed the posts; every run must keep them all.
GOLDEN = {
    "counts.csv": "4a093634ddb387b8c57ac0bf1fbedf190a4ba6d1661c078ac32da75495ead64c",
    "both": "2b3ec6edb0b1f400ed716d9f6ebb2b2b49f56bb695df565fdaf53d3065fc20f7",
    "metadata": "581ef455cd902cf65b27729ed44d76daa403578c874a6b7eb3c90266b4a7962b",
    "text": "ebef8ce376966293db981269d6994ec52fd80bfed87ea32871bb0200d4e38548",
    "labels.csv": "0d6dd805c0cfc6cf98352007f4ef5c058e18df883b96ad9e5815d89d621ccc7e",
    "hurricane": "337b9bd7fed4723bd7d7d3e043b41f400b9b1078bed5facc54af68f88dab453b",
    # The fixture holds no wildfire post: wildfire cleaning keeps none.
    "wildfire": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "annotation_cache.jsonl": "08569ce8065420bf8073491003f3d521845022627ac8d6c0d0e7bc6e75c70c6b",
    "index.csv": "c281162f3a3d36faba651687dee2bf2958628641c8646a43190a8b51312d5c9d",
    "domain.csv": "2d7f25c05872292c55add774ba7b64535bfde2f92aa2d0276c0eeb9a579efb89",
    "leadlag.csv": "121f730e3ac345edbddaa9194931e72162b788573b940819ffc7f97971b2f48d",
    "validate_report.json": "f4d11013f4dcff5d326ef1ae1fbeea7125e34965f7ecbaa18754f9ab9c459010",
    "chart.svg": "ec27387c9379eb1af33c523fbe642525a4ab7a73ae75a7ec5b74951216af1d9b",
    "agreement.json": "1820344cd54b428086b7ef8d453494f1ff1b26df5dc7be031afb9d50761d162a",
    "agreement.json --labels": "587098555497d1d4cb26f9d5a79fb31c755d894caabf8c967007ff243b0622b7",
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenOutputs:
    def test_counts_csv(self, pipeline):
        out, _ = pipeline
        digest = hashlib.sha256((out / "counts.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN["counts.csv"]

    @pytest.mark.parametrize("source_filter", ["both", "metadata", "text"])
    def test_spatial_csv(self, pipeline, tmp_path, source_filter):
        out, _ = pipeline
        code, _, _ = run_cli(
            ["spatial", "--in", POSTS, "--labels", out / "labels.csv",
             "--source-filter", source_filter, "--out", tmp_path]
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / "spatial.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN[source_filter]

    def test_labels_csv(self, pipeline):
        out, _ = pipeline
        digest = hashlib.sha256((out / "labels.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN["labels.csv"]

    @pytest.mark.parametrize("disaster", ["hurricane", "wildfire"])
    def test_posts_clean_jsonl(self, tmp_path, disaster):
        argv = ["clean", "--in", POSTS, "--disaster", disaster, "--out", tmp_path]
        assert run_cli(argv)[0] == 0
        digest = hashlib.sha256((tmp_path / "posts_clean.jsonl").read_bytes()).hexdigest()
        assert digest == GOLDEN[disaster]

    @pytest.mark.parametrize(
        "name", ["index.csv", "domain.csv", "leadlag.csv", "validate_report.json", "chart.svg"]
    )
    def test_pipeline_output(self, pipeline, name):
        out, _ = pipeline
        assert sha256_of(out / name) == GOLDEN[name]

    def test_annotation_cache_after_clean_and_annotate(self, tmp_path):
        for command in ("clean", "annotate"):
            argv = [command, "--in", POSTS, "--disaster", "hurricane", "--out", tmp_path]
            assert run_cli(argv)[0] == 0
        assert sha256_of(tmp_path / "annotation_cache.jsonl") == GOLDEN["annotation_cache.jsonl"]

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_agreement_json(self, tmp_path, with_labels):
        argv = ["agreement", "--in", ANNOTATIONS, "--out", tmp_path]
        name = "agreement.json"
        if with_labels:
            labels = tmp_path / "model.csv"
            labels.write_text(
                "post_id,category_code\ni1,1\ni2,2\ni3,2\ni4,2\n", encoding="utf-8"
            )
            argv += ["--labels", labels]
            name += " --labels"
        assert run_cli(argv)[0] == 0
        assert sha256_of(tmp_path / "agreement.json") == GOLDEN[name]


class TestChart:
    def test_writes_svg(self, pipeline):
        out, steps = pipeline
        code, stdout, stderr = steps["chart"]
        assert code == 0
        assert stdout.startswith("wrote ")
        assert stderr == ""
        svg = (out / "chart.svg").read_text()
        assert svg.startswith("<svg ")
        assert "Weekly" in svg

    def test_repeated_week_of_a_series_is_refused(self, pipeline, tmp_path):
        out, _ = pipeline
        lines = (out / "domain.csv").read_text(encoding="utf-8").splitlines()
        assert lines[3].startswith("2024-09-09,physical,")
        twice = tmp_path / "domain.csv"
        twice.write_text("\n".join(lines + [lines[3]]) + "\n", encoding="utf-8")
        code, _, stderr = run_cli(["chart", "--in", twice, "--out", tmp_path])
        assert code == 2
        assert stderr.startswith(f"error: MalformedCsv: {twice}:{len(lines) + 1}: repeated row")
        assert not (tmp_path / "chart.svg").exists()
        # validate refuses the same file the same way.
        code, _, _ = run_cli(["validate", "--in", twice, "--truth", TRUTH, "--out", tmp_path])
        assert code == 2

    def test_axes_only_warning(self, tmp_path):
        empty = tmp_path / "domain.csv"
        empty.write_text("window_start,domain,composite\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["chart", "--in", empty, "--out", tmp_path, "--outfile", "empty.svg"]
        )
        assert code == 0
        assert "warning: no data rows; rendering axes only" in stderr
        assert (tmp_path / "empty.svg").exists()


class TestManifests:
    def test_structure_and_hashes(self, pipeline):
        out, _ = pipeline
        manifest = json.loads((out / "manifest_index.json").read_text())
        assert set(manifest) == {
            "command", "version", "seed", "config", "inputs", "outputs",
        }
        assert manifest["version"] == disimpact.__version__
        assert manifest["seed"] == 0
        counts_path = str(out / "counts.csv")
        digest = hashlib.sha256((out / "counts.csv").read_bytes()).hexdigest()
        assert manifest["inputs"] == {counts_path: digest}
        assert set(manifest["outputs"]) == {"index.csv", "domain.csv"}
        for name, recorded in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert recorded == actual

    def test_seed_is_recorded(self, tmp_path):
        code, _, _ = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path, "--seed", "42"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest_index.json").read_text())
        assert manifest["seed"] == 42

    def test_no_timestamps(self, pipeline):
        out, _ = pipeline
        for manifest in out.glob("manifest_*.json"):
            text = manifest.read_text()
            assert "timestamp" not in text
            assert "time" not in json.loads(text)


# Every CSV input flag: its command line (TARGET marks the file under
# test, HEADER_ONLY_LABELS a valid labels.csv without rows), the header
# of the file under test and one well-formed data row for it.
TARGET = "<target>"
HEADER_ONLY_LABELS = "<labels>"
CSV_INPUTS = {
    "counts --labels": (
        ["counts", "--in", CLEAN20, "--labels", TARGET],
        "post_id,category_code", "c01,1",
    ),
    "index --in": (
        ["index", "--in", TARGET],
        "window_start,category,count,total", "2024-09-02,CINJ,1,1",
    ),
    "validate --in": (
        ["validate", "--in", TARGET, "--truth", TRUTH],
        "window_start,domain,composite", "2024-09-02,physical,1.0",
    ),
    "validate --truth": (
        ["validate", "--in", TRUTH, "--truth", TARGET],
        "week_start,value", "2024-09-02,1.0",
    ),
    "agreement --in": (
        ["agreement", "--in", TARGET],
        "post_id,annotator_id,category_code", "i1,a1,1",
    ),
    "agreement --labels": (
        ["agreement", "--in", ANNOTATIONS, "--labels", TARGET],
        "post_id,category_code", "i1,1",
    ),
    "spatial --labels": (
        ["spatial", "--in", CLEAN20, "--labels", TARGET],
        "post_id,category_code", "c01,1",
    ),
    "spatial --gazetteer": (
        ["spatial", "--in", CLEAN20, "--labels", HEADER_ONLY_LABELS, "--gazetteer", TARGET],
        "name,state_code,kind", "Tampa,FL,city",
    ),
    "chart --in": (
        ["chart", "--in", TARGET],
        "window_start,domain,composite", "2024-09-02,physical,1.0",
    ),
}
CORRUPTIONS = {
    "undecodable byte": lambda row: b"\xff" + row.encode(),
    "oversized field": lambda row: ("x" * 200_000 + row).encode(),
    "extra field": lambda row: (row + ",extra").encode(),
}


class TestFailures:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("flag", sorted(CSV_INPUTS))
    def test_malformed_csv_input_exits_2(self, tmp_path, flag, corruption):
        argv, header, row = CSV_INPUTS[flag]
        target = tmp_path / "input.csv"
        target.write_bytes(f"{header}\n".encode() + CORRUPTIONS[corruption](row) + b"\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\n", encoding="utf-8")
        argv = [{TARGET: target, HEADER_ONLY_LABELS: labels}.get(a, a) for a in argv]
        code, _, stderr = run_cli(argv + ["--out", tmp_path / "out"])
        assert code == 2
        assert stderr.startswith("error: MalformedCsv: ")
        assert f"{target}:2: " in stderr

    def test_chart_of_unknown_columns_exits_2(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("week_start,physical\n2024-09-02,1.0\n", encoding="utf-8")
        code, _, stderr = run_cli(["chart", "--in", series, "--out", tmp_path])
        assert code == 2
        assert stderr.startswith(f"error: UnknownColumn: {series}: ")

    @pytest.mark.parametrize(
        "title, point", [("storm\x01surge", "U+0001"), ("storm\udcff", "U+DCFF")]
    )
    def test_chart_title_xml_cannot_hold_exits_2(self, tmp_path, title, point):
        # "\udcff" is how Python decodes a lone 0xff byte in argv.
        series = tmp_path / "domain.csv"
        series.write_text(
            "window_start,domain,composite\n2024-09-02,physical,1.0\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code, _, stderr = run_cli(["chart", "--in", series, "--out", out, "--title", title])
        assert code == 2
        assert stderr.startswith("error: MalformedInput: ")
        assert point in stderr
        assert list(out.iterdir()) == []

    def test_chart_of_an_unknown_domain_exits_2(self, tmp_path):
        series = tmp_path / "domain.csv"
        series.write_text(
            "window_start,domain,composite\n2024-09-02,storm\x01surge,1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code, _, stderr = run_cli(["chart", "--in", series, "--out", out])
        assert code == 2
        assert stderr == (
            f"error: MalformedCsv: {series}:2: unknown domain 'storm\\x01surge'\n"
        )
        assert list(out.iterdir()) == []

    def test_chart_of_a_non_finite_value_exits_2(self, tmp_path):
        series = tmp_path / "domain.csv"
        series.write_text(
            "window_start,domain,composite\n"
            "2024-09-02,physical,inf\n"
            "2024-09-02,social,0.5\n"
            "2024-09-09,physical,1.0\n"
            "2024-09-09,social,nan\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code, _, stderr = run_cli(["chart", "--in", series, "--out", out])
        assert code == 2
        assert stderr == f"error: MalformedCsv: {series}:2: composite must be finite\n"
        assert list(out.iterdir()) == []

    def chart_over(self, tmp_path, outfile):
        """Chart with --outfile over a finished run; every file keeps its bytes."""
        out = tmp_path / "run"
        assert run_cli(["index", "--in", TABLE_COUNTS, "--out", out])[0] == 0
        argv = ["chart", "--in", out / "index.csv", "--out", out]
        assert run_cli(argv)[0] == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli(argv + ["--outfile", outfile]) == (
            2, "", f"error: MalformedInput: output {out / outfile} would replace "
            "this run's manifest or an input\n",
        )
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_chart_outfile_cannot_replace_the_manifest(self, tmp_path):
        self.chart_over(tmp_path, "manifest_chart.json")

    def test_chart_outfile_cannot_replace_its_input(self, tmp_path):
        self.chart_over(tmp_path, "index.csv")

    def test_duplicate_model_label_exits_2(self, tmp_path):
        labels = tmp_path / "model.csv"
        labels.write_text("post_id,category_code\ni1,1\ni1,5\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["agreement", "--in", ANNOTATIONS, "--labels", labels, "--out", tmp_path]
        )
        assert code == 2
        assert stderr.startswith(f"error: MalformedCsv: {labels}:3: duplicate label")

    def test_non_utf8_posts_line_is_one_malformed_line(self, tmp_path):
        lines = CLEAN20.read_bytes().splitlines(keepends=True)[:5]
        lines[2] = lines[2].replace(b'"text": "', b'"text": "\xff')
        posts = tmp_path / "posts.jsonl"
        posts.write_bytes(b"".join(lines))
        code, stdout, stderr = run_cli(
            ["clean", "--in", posts, "--disaster", "hurricane", "--out", tmp_path]
        )
        assert code == 0
        assert "dropped 1 malformed, 0 duplicate lines" in stderr
        kept = (tmp_path / "posts_clean.jsonl").read_text(encoding="utf-8")
        assert '"c03"' not in kept

    def test_every_posts_reader_reports_dropped_lines(self, tmp_path):
        lines = CLEAN20.read_bytes().splitlines(keepends=True)[:5]
        posts = tmp_path / "posts.jsonl"
        posts.write_bytes(b"".join(lines) + b"{not json\n" + lines[0])
        labels = tmp_path / "labels.csv"
        for argv in (
            ["annotate", "--disaster", "hurricane"],
            ["counts", "--labels", labels],
            ["spatial", "--labels", labels],
        ):
            code, _, stderr = run_cli(argv + ["--in", posts, "--out", tmp_path])
            assert code == 0, argv
            assert stderr.startswith("dropped 1 malformed, 1 duplicate lines\n"), argv

    @pytest.mark.parametrize("post_id", ["lone \ud800", "cr\rz", " lead"])
    def test_id_labels_csv_cannot_carry_is_one_malformed_line(self, tmp_path, post_id):
        # labels.csv must give back every id annotate writes to it.
        lines = CLEAN20.read_bytes().splitlines(keepends=True)[:5]
        lines[2] = json.dumps(json.loads(lines[2]) | {"id": post_id}).encode() + b"\n"
        posts = tmp_path / "posts.jsonl"
        posts.write_bytes(b"".join(lines))
        labels = tmp_path / "labels.csv"
        for argv in (
            ["annotate", "--disaster", "hurricane"],
            ["counts", "--labels", labels],
        ):
            code, _, stderr = run_cli(argv + ["--in", posts, "--out", tmp_path])
            assert code == 0, argv
            assert stderr == "dropped 1 malformed, 0 duplicate lines\n", argv
        assert labels.read_text(encoding="utf-8").splitlines()[1:] == [
            "c01,1", "c02,2", "c04,4", "c05,5"
        ]

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("2024-09-09,physical,nan", "composite must be finite"),
            ("2024-09-09,physical,inf", "composite must be finite"),
            ("2024-09-09,physical,-inf", "composite must be finite"),
            ("2024-09-12,physical,2.0", "week 2024-09-12 is off the 7-day grid of 2024-09-02"),
            ("2024-09-16,physical,2.0", "week 2024-09-16 leaves a gap after 2024-09-02"),
            ("2024-08-26,physical,2.0", "week 2024-08-26 has no row for series social"),
        ],
    )
    def test_bad_domain_row_exits_2(self, tmp_path, row, problem):
        domain = tmp_path / "domain.csv"
        domain.write_text(
            "window_start,domain,composite\n"
            "2024-09-02,physical,1.0\n"
            "2024-09-02,social,1.0\n"
            f"{row}\n",
            encoding="utf-8",
        )
        code, _, stderr = run_cli(
            ["validate", "--in", domain, "--truth", TRUTH, "--out", tmp_path]
        )
        assert code == 2
        assert stderr.startswith(f"error: MalformedCsv: {domain}:4: {problem}")

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("2024-09-02,social,nan", "composite must be finite"),
            ("2024-09-09,sociall,zzz", "unknown domain 'sociall'"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "chart"])
    def test_every_row_of_a_domain_export_is_parsed(self, tmp_path, command, row, problem):
        # The bad row is of another domain than validate's --domain physical.
        weeks = [date(2024, 9, 2) + timedelta(weeks=t) for t in range(10)]
        domain = tmp_path / "domain.csv"
        domain.write_text(
            "window_start,domain,composite\n"
            + "".join(f"{week},physical,{t + 1}.0\n" for t, week in enumerate(weeks))
            + f"{row}\n",
            encoding="utf-8",
        )
        argv = {
            "validate": ["validate", "--in", domain, "--domain", "physical", "--truth", TRUTH],
            "chart": ["chart", "--in", domain],
        }[command]
        out = tmp_path / "out"
        code, _, stderr = run_cli(argv + ["--out", out])
        assert (code, stderr) == (2, f"error: MalformedCsv: {domain}:12: {problem}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fault", ["none", "social for one week"])
    def test_one_domain_export_gets_one_verdict(self, tmp_path, fault):
        # chart and validate, of either domain, read it by the one weekly rule.
        weeks = [date(2024, 9, 2) + timedelta(weeks=t) for t in range(10)]
        rows = {
            # Complete, with the rows of 2024-09-09 before those of 2024-09-02.
            "none": [
                f"{weeks[t]},{domain},{(t * t) % 7}.5"
                for t in (1, 0, *range(2, 10))
                for domain in ("physical", "social")
            ],
            "social for one week": [
                f"{weeks[0]},physical,1.0", f"{weeks[0]},social,1.0",
                f"{weeks[1]},physical,2.0", f"{weeks[2]},physical,3.0",
            ],
        }[fault]
        domain = tmp_path / "domain.csv"
        domain.write_text("window_start,domain,composite\n" + "\n".join(rows) + "\n")
        verdicts = []
        for i, argv in enumerate([
            ["chart", "--in", domain],
            ["validate", "--in", domain, "--domain", "physical", "--truth", TRUTH],
            ["validate", "--in", domain, "--domain", "social", "--truth", TRUTH],
        ]):
            code, _, stderr = run_cli(argv + ["--out", tmp_path / f"out{i}"])
            verdicts.append((code, stderr))
        if fault == "none":
            assert verdicts == [(0, "")] * 3
        else:
            problem = f"{domain}:4: week 2024-09-09 has no row for series social"
            assert verdicts == [(2, f"error: MalformedCsv: {problem}\n")] * 3

    def test_non_utf8_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# tuning\nalpha=0.5\xff\n")
        code, _, stderr = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path, "--config", cfg]
        )
        assert code == 2
        assert stderr.startswith(f"error: MalformedInput: {cfg}:2: ")

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "file/sub"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("x", encoding="utf-8")
        code, stdout, stderr = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", blocker / below]
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert blocker.read_text(encoding="utf-8") == "x"

    def test_missing_input_exits_2(self, tmp_path):
        code, _, stderr = run_cli(
            ["index", "--in", tmp_path / "nope.csv", "--out", tmp_path]
        )
        assert code == 2
        assert stderr.startswith("error:")
        # A counts.csv whose second week starts a day late: it names its line.
        off_grid = tmp_path / "counts.csv"
        rows = ["window_start,category,count,total"]
        for start in ("2024-09-02", "2024-09-10"):
            rows += [f"{start},{cat.short_name},0,0" for cat in disimpact.CATEGORIES]
        off_grid.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, _, stderr = run_cli(["index", "--in", off_grid, "--out", tmp_path])
        assert code == 2
        assert stderr == (
            f"error: MalformedCsv: {off_grid}:13: "
            "week 2024-09-10 is off the 7-day grid of 2024-09-02\n"
        )

    def test_unknown_post_id_exits_2(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\nghost,3\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["counts", "--in", CLEAN20, "--labels", labels, "--out", tmp_path]
        )
        assert code == 2
        assert "error:" in stderr

    def test_out_of_range_code_exits_2(self, tmp_path):
        bad = tmp_path / "annotations.csv"
        bad.write_text(
            "post_id,annotator_id,category_code\ni1,a1,12\n", encoding="utf-8"
        )
        code, _, stderr = run_cli(["agreement", "--in", bad, "--out", tmp_path])
        assert code == 2
        assert "error:" in stderr

    def test_negative_ground_truth_exits_2(self, tmp_path):
        truth = tmp_path / "groundtruth.csv"
        truth.write_text("week_start,value\n2024-09-02,-1.0\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["validate", "--in", TRUTH, "--truth", truth, "--out", tmp_path]
        )
        assert code == 2
        assert "NegativeValue" in stderr

    def test_out_of_range_model_label_exits_2(self, tmp_path):
        labels = tmp_path / "model.csv"
        labels.write_text("post_id,category_code\ni1,12\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["agreement", "--in", ANNOTATIONS, "--labels", labels, "--out", tmp_path]
        )
        assert code == 2
        assert f"{labels}:2:" in stderr

    def test_wrong_csv_shape_for_validate_exits_2(self, tmp_path):
        code, _, stderr = run_cli(
            ["validate", "--in", TABLE_COUNTS, "--truth", TRUTH, "--out", tmp_path]
        )
        assert code == 2
        assert "error:" in stderr

    def test_remote_without_endpoint_exits_1(self, tmp_path):
        code, _, stderr = run_cli(
            [
                "clean", "--in", CLEAN20, "--disaster", "hurricane",
                "--out", tmp_path, "--backend", "remote",
            ]
        )
        assert code == 1
        assert "endpoint" in stderr

    def test_backend_is_refused_where_no_backend_runs(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "counts", "--in", str(POSTS), "--labels", str(tmp_path / "labels.csv"),
                    "--out", str(tmp_path), "--backend", "mock",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend mock" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unreachable_endpoint_exits_3(self, tmp_path):
        code, _, stderr = run_cli(
            [
                "clean", "--in", CLEAN20, "--disaster", "hurricane",
                "--out", tmp_path, "--backend", "remote",
                "--endpoint", "http://127.0.0.1:9/classify",
                "--max-retries", "0", "--timeout", "0.5",
            ]
        )
        assert code == 3
        assert "TransportError" in stderr

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        (tmp_path / "domain.csv").mkdir()
        code, _, stderr = run_cli(
            ["index", "--in", TABLE_COUNTS, "--out", tmp_path]
        )
        assert code == 2
        assert "error:" in stderr
        assert not (tmp_path / "index.csv").exists()
        assert not (tmp_path / "manifest_index.json").exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == disimpact.__version__


# numpy is used by no command; the HTTP stack only by the remote backend and
# the thread pool only by backends that are not in-process.
UNUSED_MODULES = ("numpy", "urllib.request", "http.client", "ssl", "concurrent.futures")

IMPORT_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from disimpact.cli import main

fixtures, out = Path(sys.argv[1]), Path(sys.argv[2])
posts = fixtures / "posts.jsonl"
commands = [
    ["clean", "--in", posts, "--disaster", "hurricane"],
    ["annotate", "--in", posts, "--disaster", "hurricane"],
    ["counts", "--in", posts, "--labels", out / "labels.csv"],
    ["index", "--in", out / "counts.csv"],
    ["validate", "--in", out / "domain.csv", "--truth", fixtures / "groundtruth.csv"],
    ["agreement", "--in", fixtures / "annotations.csv"],
    ["spatial", "--in", posts, "--labels", out / "labels.csv"],
    ["chart", "--in", out / "domain.csv"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main([str(a) for a in argv + ["--out", out]]) for argv in commands]
print(json.dumps({"codes": codes, "loaded": [m for m in sys.argv[3:] if m in sys.modules]}))
"""


class TestImports:
    def test_commands_load_only_what_they_use(self, tmp_path):
        src = Path(disimpact.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, FIXTURES, tmp_path, *UNUSED_MODULES],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["codes"] == [0] * 8
        assert report["loaded"] == []


OUTAGE_IDS = {f"p{n:04d}" for n in range(1, 201, 10)}
FAILING_OUTPUT = {"clean": "posts_clean.jsonl", "annotate": "labels.csv"}
VERDICTS = {"clean": 200, "annotate": 371}  # a cold fixture run's backend calls


class OutageMock(disimpact.MockBackend):
    """The mock, failing every OUTAGE_IDS post without counting a call."""

    garbage = False  # True: an unparseable reply (exit 1), else a hard outage (exit 3)

    def complete(self, request):
        if request.post.id not in OUTAGE_IDS:
            return super().complete(request)
        if self.garbage:
            return "no judgment here"
        error = disimpact.TransportError("scripted outage")
        error.retryable = False
        raise error


class GarbageMock(OutageMock):
    garbage = True


class TestCommitOnSuccess:
    @pytest.mark.parametrize(
        "mock, exit_code, stage",
        [(OutageMock, 3, "TransportError"), (GarbageMock, 1, "MalformedResponse")],
    )
    @pytest.mark.parametrize("command", sorted(FAILING_OUTPUT))
    def test_failed_annotation_leaves_no_new_outputs(
        self, tmp_path, backends, command, mock, exit_code, stage
    ):
        made, factory = backends
        fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
        argv = [command, "--disaster", "hurricane", "--out"]
        assert run_cli(argv + [earlier, "--in", CLEAN20])[0] == 0
        kept = [FAILING_OUTPUT[command], f"manifest_{command}.json"]
        before = {name: (earlier / name).read_bytes() for name in kept}

        factory["make"] = mock
        for out in (earlier, fresh):
            code, _, stderr = run_cli(argv + [out, "--in", POSTS])
            assert code == exit_code
            assert f"error: post p0001: {stage}: " in stderr
        assert {name: (earlier / name).read_bytes() for name in kept} == before
        assert sorted(p.name for p in fresh.iterdir()) == ["annotation_cache.jsonl"]

        cached = len((fresh / "annotation_cache.jsonl").read_bytes().splitlines())
        assert cached == made[-1].calls > 0
        factory["make"] = disimpact.MockBackend
        assert run_cli(argv + [fresh, "--in", POSTS])[0] == 0
        assert made[-1].calls == VERDICTS[command] - cached
        assert (fresh / FAILING_OUTPUT[command]).exists()

    @pytest.mark.parametrize("outfile", ["../escaped.svg", "sub/chart.svg", "..", "ABS"])
    def test_chart_outfile_cannot_leave_out(self, tmp_path, outfile):
        out = tmp_path / "out"
        outfile = str(tmp_path / "abs.svg") if outfile == "ABS" else outfile
        code, _, stderr = run_cli(
            ["chart", "--in", TABLE_COUNTS, "--out", out, "--outfile", outfile]
        )
        assert code == 2
        assert stderr.startswith("error: MalformedInput: output name ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]

    def test_a_directory_in_the_way_keeps_the_earlier_run(self, tmp_path):
        argv = ["index", "--in", TABLE_COUNTS, "--out", tmp_path]
        assert run_cli(argv)[0] == 0
        kept = ("index.csv", "manifest_index.json")
        before = {name: (tmp_path / name).read_bytes() for name in kept}
        (tmp_path / "domain.csv").unlink()
        (tmp_path / "domain.csv").mkdir()
        code, _, stderr = run_cli(argv + ["--alpha", "2"])
        assert (code, stderr.partition(":")[2][:19]) == (2, " IsADirectoryError:")
        assert {name: (tmp_path / name).read_bytes() for name in kept} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["domain.csv", *kept]

    @pytest.mark.parametrize(
        "command, changed", [("index", ["--alpha", "2"]), ("validate", ["--max-lag", "2"])]
    )
    def test_a_failed_move_keeps_the_earlier_run(self, tmp_path, monkeypatch, command, changed):
        argv = {
            "index": ["index", "--in", TABLE_COUNTS],
            "validate": ["validate", "--in", TRUTH, "--truth", TRUTH],
        }[command]
        replace = os.replace
        for k in (1, 2, 3):  # each of the two outputs, then the manifest
            out = tmp_path / f"fault{k}"
            assert run_cli(argv + ["--out", out])[0] == 0
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            calls = []

            def full_at_k(*args):
                calls.append(args)
                if len(calls) == k:
                    raise OSError(28, "No space left on device")
                return replace(*args)

            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", full_at_k)
                code, _, stderr = run_cli(argv + ["--out", out, *changed])
            assert (code, stderr) == (2, "error: OSError: [Errno 28] No space left on device\n")
            # Every final name holds the earlier bytes, and no hidden file is left.
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before, k
        # Without a fault, the rerun replaces every file.
        assert run_cli(argv + ["--out", out, *changed])[0] == 0
        after = {path.name: path.read_bytes() for path in out.iterdir()}
        assert after.keys() == before.keys()
        assert all(after[name] != before[name] for name in before)

    def test_a_failed_undo_removes_the_manifest(self, tmp_path, monkeypatch):
        argv = ["index", "--in", TABLE_COUNTS, "--out", tmp_path]
        assert run_cli(argv)[0] == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        replace, calls = os.replace, []

        def full_from_the_second(*args):
            calls.append(args)
            if len(calls) >= 2:  # domain.csv's move, then index.csv's way back
                raise OSError(28, "No space left on device")
            return replace(*args)

        monkeypatch.setattr(os, "replace", full_from_the_second)
        assert run_cli(argv + ["--alpha", "2"])[0] == 2
        assert len(calls) == 3
        names = sorted(path.name for path in tmp_path.iterdir())
        # index.csv is new, and its earlier bytes wait under a hidden name.
        [old] = [name for name in names if name.startswith(".index.csv.")]
        assert names == [old, "domain.csv", "index.csv"]
        assert old.endswith(".old") and (tmp_path / old).read_bytes() == before["index.csv"]
        assert (tmp_path / "domain.csv").read_bytes() == before["domain.csv"]

    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        assert run_cli(["index", "--in", TABLE_COUNTS, "--out", tmp_path])[0] == 0
        (tmp_path / "plain.txt").write_text("x")
        modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
        assert set(modes) == {"index.csv", "domain.csv", "manifest_index.json", "plain.txt"}
        assert set(modes.values()) == {modes["plain.txt"]}



class BadReplyHandler(http.server.BaseHTTPRequestHandler):
    """Judges every post relevant, but answers post p3 as the server's `bad` says."""

    def do_POST(self):
        post_id = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["post"]["id"]
        self.server.asked.append(post_id)
        reply, length = b'{"Judgment": true}', None
        if post_id == "p3" and self.server.bad == "undecodable":
            reply = b'{"Judgment": tru\xff}'
        elif post_id == "p3":  # cut short: fewer bytes than Content-Length, then closed
            reply, length = b'{"Judgment"', 100
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length or len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def bad_reply_server(monkeypatch):
    monkeypatch.setenv("DISIMPACT_MLLM_API_KEY", "k")
    server = http.server.HTTPServer(("127.0.0.1", 0), BadReplyHandler)
    server.asked = []
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestRemoteReplies:
    """A bad reply to one post fails that post; its neighbours are still asked."""

    @pytest.mark.parametrize(
        "bad, exit_code, stage, asks",
        [("undecodable", 1, "MalformedResponse", 1), ("cut short", 3, "TransportError", 2)],
    )
    def test_bad_reply_fails_only_its_post(
        self, tmp_path, bad_reply_server, bad, exit_code, stage, asks
    ):
        ids = [f"p{n}" for n in range(6)]
        posts = tmp_path / "posts.jsonl"
        posts.write_text(
            "".join(
                json.dumps({"id": post_id, "platform": "reddit", "text": "hurricane flood",
                            "created_at": "2024-09-27T12:00:00Z"}) + "\n"
                for post_id in ids
            ),
            encoding="utf-8",
        )
        bad_reply_server.bad = bad
        host, port = bad_reply_server.server_address
        code, stdout, stderr = run_cli(
            [
                "clean", "--in", posts, "--disaster", "hurricane", "--out", tmp_path / "out",
                "--backend", "remote", "--endpoint", f"http://{host}:{port}/classify",
                "--max-retries", "1",
            ]
        )
        assert code == exit_code
        assert stdout == "5/6 (83%)\n"
        assert stderr.startswith(f"error: post p3: {stage}: ")
        assert stderr.count("\n") == 1
        cache = (tmp_path / "out" / "annotation_cache.jsonl").read_text(encoding="utf-8")
        assert sorted(json.loads(line)["post_id"] for line in cache.splitlines()) == [
            post_id for post_id in ids if post_id != "p3"
        ]
        assert sorted(bad_reply_server.asked) == sorted(ids + ["p3"] * (asks - 1))

COUNTS_LABELS = "post_id,category_code\nc01,1\nc02,5\nc05,7\n"

# Runs `disimpact ARGS...` with write_counts_csv writing half its bytes and
# then hanging until the test kills it.
HANG_IN_WRITE = """
import sys, time
from disimpact import cli

real = cli.write_counts_csv

def half_then_hang(series, path):
    real(series, path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    print("ready", flush=True)
    time.sleep(60)

cli.write_counts_csv = half_then_hang
cli.main(sys.argv[1:])
"""


# Faults counts and spatial find only once the posts are streamed, and
# the label faults read before them; (posts, labels) edits and the error.
STREAM_FAULTS = {
    "unknown id": (b"", "ghost,3\n", "UnknownPostId: {labels}:5: unknown post id 'ghost'"),
    "mostly malformed": (b"{not json\n" * 21, "", "MalformedInput: 21 of 41 lines are malformed"),
    # Both stream-end checks fail: the posts' own check comes first.
    "malformed and unknown": (b"{not json\n" * 21, "ghost,3\n", "MalformedInput: 21 of 41"),
    # The labels are read whole before any post, so their own fault wins.
    "unknown then duplicate": (b"", "ghost,3\nc01,4\n", "MalformedCsv: {labels}:6: duplicate"),
}


class TestStreamEndChecks:
    @pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
    @pytest.mark.parametrize("command, output", [("counts", "counts.csv"), ("spatial", "spatial.csv")])
    def test_fault_exits_2_and_keeps_the_earlier_run(self, tmp_path, command, output, fault):
        posts, labels, out = tmp_path / "posts.jsonl", tmp_path / "labels.csv", tmp_path / "out"
        posts.write_bytes(CLEAN20.read_bytes())
        labels.write_text(COUNTS_LABELS, encoding="utf-8")
        argv = [command, "--in", posts, "--labels", labels, "--out", out]
        assert run_cli(argv)[0] == 0
        kept = (output, f"manifest_{command}.json")
        before = {name: (out / name).read_bytes() for name in kept}

        extra_posts, extra_labels, error = STREAM_FAULTS[fault]
        posts.write_bytes(CLEAN20.read_bytes() + extra_posts)
        labels.write_text(COUNTS_LABELS + extra_labels, encoding="utf-8")
        code, stdout, stderr = run_cli(argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: " + error.format(labels=labels))
        assert stderr.count("\n") == 1
        assert {name: (out / name).read_bytes() for name in kept} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(kept)


class TestInterrupts:
    @pytest.fixture
    def counted(self, tmp_path):
        """An --out holding a finished counts run, with its bytes and argv."""
        labels = tmp_path / "labels.csv"
        labels.write_text(COUNTS_LABELS, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["counts", "--in", CLEAN20, "--labels", labels, "--out", out]
        assert run_cli(argv)[0] == 0
        names = ("counts.csv", "manifest_counts.json")
        return out, argv, {name: (out / name).read_bytes() for name in names}

    def test_keyboard_interrupt_mid_write_keeps_the_earlier_run(
        self, counted, monkeypatch
    ):
        out, argv, before = counted
        real = cli.write_counts_csv

        def half_then_interrupt(series, path):
            real(series, path)
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_counts_csv", half_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli(argv + ["--range-end", "2024-09-16"])
        assert {name: (out / name).read_bytes() for name in before} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)

    def test_sigkill_mid_write_keeps_the_earlier_run(self, counted):
        out, argv, before = counted
        env = dict(os.environ)
        src = str(Path(disimpact.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        child = subprocess.Popen(
            [sys.executable, "-c", HANG_IN_WRITE, *map(str, argv), "--range-end", "2024-09-16"],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            assert child.stdout.readline() == b"ready\n"
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        assert {name: (out / name).read_bytes() for name in before} == before
        leftovers = set(p.name for p in out.iterdir()) - set(before)
        assert all(n.startswith(".counts.csv.") and n.endswith(".tmp") for n in leftovers)


class TestMaxInFlight:
    def test_above_the_limit_exits_1_before_any_call(self, tmp_path, backends):
        # The in-process mock starts no pool, so no thread is started either way.
        made, _ = backends
        for command in ("clean", "annotate"):
            out = tmp_path / command
            argv = [command, "--in", CLEAN20, "--disaster", "hurricane", "--out", out]
            assert run_cli(argv + ["--max-in-flight", "100000"]) == (
                1, "", "error: OutOfRange: max_in_flight must be 1 to 64, got 100000\n"
            )
            assert list(out.iterdir()) == []
        assert [backend.calls for backend in made] == [0, 0]
        assert run_cli(argv + ["--max-in-flight", "64"])[0] == 0


class TestTimeout:
    def test_mock_ignores_timeout(self, tmp_path):
        argv = ["clean", "--in", CLEAN20, "--disaster", "hurricane", "--out", tmp_path]
        assert run_cli(argv + ["--timeout", "0"])[:2] == (0, "14/20 (70%)\n")

    def test_remote_rejects_nonpositive_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISIMPACT_MLLM_API_KEY", "k")
        for timeout in ("0", "-1", "nan", "inf"):
            code, stdout, stderr = run_cli(
                [
                    "clean", "--in", CLEAN20, "--disaster", "hurricane", "--out", tmp_path,
                    "--backend", "remote", "--endpoint", "http://127.0.0.1:9/x",
                    "--timeout", timeout,
                ]
            )
            assert (code, stdout, stderr.count("\n")) == (1, "", 1)
            assert stderr.startswith("error: OutOfRange: timeout must be > 0")
            assert list(tmp_path.iterdir()) == []
