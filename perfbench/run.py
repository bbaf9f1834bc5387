"""Benchmark of the disimpact batch pipeline.

    python3 perfbench/run.py --workload cold_annotate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from a checkout root. Each run generates a seeded corpus, prepares
what the workload needs, then runs the workload's CLI commands as one
pass per fresh process, again and again for ``--seconds``, and checks
every output of every pass against the corpus's expected results. It
prints the environment, a summary per workload and, as the last line of
standard output, one JSON object: the end-to-end metrics (medians over
passes) with ``--trace 0``, the per-layer metrics of a separate traced
pass series with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_pass, sha256_of
from corpus import Corpus, generate
from tracing import LAYER_METRICS, MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SMOKE_POSTS = 1000
MIN_ROUNDS = 3
PASS_TIMEOUT_S = 60
# No higher than nproc. With 2 on a 2-vCPU VM, the two pool threads
# contend for the interpreter lock and cold_annotate's cpu_s moved by up
# to 29% between runs; with 1 the pool still hands every post to a
# worker thread and back.
MAX_IN_FLIGHT = 1

END_TO_END = {
    "wall_s": "s",
    "posts_per_s": "posts/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

HURRICANE = ("--disaster", "hurricane", "--max-in-flight", "{k}")
COUNTS = ("counts", "--in", "{posts}", "--labels", "{out}/labels.csv")
INDEX = ("index", "--in", "{out}/counts.csv")
VALIDATE = ("validate", "--in", "{out}/domain.csv", "--truth", "{truth}")


@dataclass(frozen=True)
class Workload:
    posts: int
    commands: tuple[tuple[str, ...], ...]
    # Complete the annotation cache once, with the program itself, and
    # place a copy in every pass's fresh --out.
    warm_cache: bool = False


WORKLOADS = {
    # Empty --out and cache: annotation does most of the work, through
    # the backend thread pool; spatial does none.
    "cold_annotate": Workload(
        posts=5000,
        commands=(
            ("clean", "--in", "{posts}", *HURRICANE),
            ("annotate", "--in", "{posts}", *HURRICANE),
            COUNTS,
            INDEX,
            VALIDATE,
        ),
    ),
    # Every post a cache hit, no backend call: parsing posts.jsonl twice,
    # reading the cache, writing and hashing outputs.
    "warm_rerun": Workload(
        posts=30000,
        commands=(
            ("annotate", "--in", "{posts}", *HURRICANE),
            COUNTS,
            INDEX,
            VALIDATE,
            ("agreement", "--in", "{annotations}", "--labels", "{out}/labels.csv"),
            ("chart", "--in", "{out}/index.csv"),
        ),
        warm_cache=True,
    ),
    # labels.csv given, so annotate never runs: gazetteer matching of
    # metadata, then text, is most of the time.
    "spatial_map": Workload(
        posts=4000,
        commands=(
            ("spatial", "--in", "{posts}", "--labels", "{labels}", "--source-filter", "both"),
        ),
    ),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Prepared:
    corpus: Corpus
    place: list[tuple[str, str]]  # (source, name in a fresh --out)
    prepare_s: float


def format_commands(commands, corpus: Corpus, out: Path, seed: int) -> list[list[str]]:
    values = {
        "posts": corpus.posts_path,
        "truth": corpus.groundtruth_path,
        "annotations": corpus.annotations_path,
        "labels": corpus.labels_path,
        "out": out,
        "k": MAX_IN_FLIGHT,
    }
    return [
        [arg.format(**values) for arg in command] + ["--out", str(out), "--seed", str(seed)]
        for command in commands
    ]


def run_child(work: Path, name: str, commands: list[list[str]], place, trace: bool) -> dict:
    """One pass in a fresh process; its parsed result, or a "crash" entry."""
    out = work / name
    spec_path = work / f"{name}.json"
    spec = {"root": str(ROOT), "out": str(out), "place": place, "commands": commands, "trace": trace}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py"), str(spec_path), str(start_ns)],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def prepare(workload: Workload, work: Path, seed: int, n_posts: int) -> Prepared:
    start = time.perf_counter()
    corpus = generate(ROOT, seed, n_posts, work / "inputs")
    place: list[tuple[str, str]] = []
    if workload.warm_cache:
        out = work / "prepare"
        annotate = [c for c in workload.commands if c[0] == "annotate"][:1]
        result = run_child(
            work, "prepare", format_commands(annotate, corpus, out, seed), [], trace=False
        )
        if "crash" in result or result["exit_codes"] != [0]:
            raise BenchError(f"preparing the cache failed: {result}")
        cache = out / "annotation_cache.jsonl"
        place.append((str(cache), cache.name))
        corpus.cache_sha256 = sha256_of(cache)
    return Prepared(corpus, place, time.perf_counter() - start)


def run_pass(workload: Workload, prepared: Prepared, work: Path, index: int,
             seed: int, trace: bool) -> dict:
    name = f"pass{index}"
    commands = format_commands(workload.commands, prepared.corpus, work / name, seed)
    result = run_child(work, name, commands, prepared.place, trace)
    result["traced"] = trace
    result["commands"] = len(commands)
    if "crash" in result:
        result["failures"] = {"pass": [result["crash"]]}
    else:
        result["failures"] = check_pass(
            [c[0] for c in commands], result["exit_codes"], result["stderr"], work / name,
            prepared.corpus,
        )
    shutil.rmtree(work / name, ignore_errors=True)
    return result


def measure(workload: Workload, prepared: Prepared, work: Path, seed: int,
            seconds: float, trace: bool) -> list[dict]:
    """A warm-up pass, then rounds of passes until the next round would end after ``seconds``.

    The warm-up pass compiles bytecode and fills the page cache, which a
    user pays once; it is checked but not timed. A traced run alternates
    untraced and traced passes, so the tracing overhead is the
    difference of two medians taken in the same period.
    """
    modes = (False, True) if trace else (False,)
    passes = [run_pass(workload, prepared, work, 0, seed, False)]
    passes[0]["warmup"] = True
    begin = time.monotonic()
    rounds = 0
    while True:
        for traced in modes:
            passes.append(run_pass(workload, prepared, work, len(passes), seed, traced))
        rounds += 1
        round_s = (time.monotonic() - begin) / rounds
        if rounds >= MIN_ROUNDS and time.monotonic() - begin + round_s > seconds:
            return passes


def timed(passes: list[dict], traced: bool) -> list[dict]:
    """Passes whose timings count: timed ones with every check passed.

    A failed pass never counts as a fast run.
    """
    return [
        p for p in passes
        if p["traced"] == traced and "warmup" not in p and not p["failures"]
    ]


def end_to_end(passes: list[dict], n_posts: int) -> dict[str, list[float]]:
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "posts_per_s": [n_posts / p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
    }


def git_commit() -> str | None:
    """The checkout's HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args: argparse.Namespace, sizes: dict[str, int]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "max_in_flight": MAX_IN_FLIGHT,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "posts": sizes,
        "git_commit": git_commit(),
        "loadavg": Path("/proc/loadavg").read_text(encoding="utf-8").split()[:3],
    }


def run_workload(name: str, args: argparse.Namespace) -> tuple[dict, float]:
    """Prepare, measure and summarise one workload.

    Returns its result and the median untraced ``wall_s``.
    """
    workload = WORKLOADS[name]
    n_posts = SMOKE_POSTS if args.size == "smoke" else workload.posts
    work = WORK / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = prepare(workload, work, args.seed, n_posts)
        passes = measure(workload, prepared, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(p["commands"] for p in passes)
    failed = sum(p["commands"] if "crash" in p else len(p["failures"]) for p in passes)
    print(f"{name}: {n_posts} posts, corpus {json.dumps(prepared.corpus.properties)}")
    print(f"  {len(passes)} passes, {attempted} commands, {failed} failed")
    for p in passes:
        for command, problems in p["failures"].items():
            for problem in problems:
                print(f"  FAILED {command}: {problem}")
    print(f"  {'error_rate':<12} {failed / attempted:12.4f} ratio")
    untraced = timed(passes, traced=False)
    if not untraced:
        raise BenchError(f"{name}: no timed pass passed every check")
    samples = end_to_end(untraced, n_posts)
    for metric, values in samples.items():
        print(
            f"  {metric:<12} {statistics.median(values):12.4f} {END_TO_END[metric]:<8}"
            f" min {min(values):.4f} max {max(values):.4f} n {len(values)}"
        )

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not args.trace:
        result["metrics"] = {
            metric: {"value": statistics.median(values), "unit": END_TO_END[metric]}
            for metric, values in samples.items()
        }
        return result, statistics.median(samples["wall_s"])

    traced = timed(passes, traced=True)
    if not traced:
        raise BenchError(f"{name}: no traced pass passed every check")
    layers = {
        metric: statistics.median(p["layers"][metric] for p in traced)
        for metric in traced[0]["layers"]
    }
    layers.update({
        "bench.trace_overhead_s": statistics.median(p["wall_s"] for p in traced)
        - statistics.median(samples["wall_s"]),
        "bench.prepare_s": prepared.prepare_s,
    })
    absent = traced[0]["absent"] + [m for m in MODULES if layers[f"{m}.self_s"] == 0]
    print(f"  absent (not traced or not run): {', '.join(absent) or 'none'}")
    if traced[0]["unobserved"]:
        print(f"  counters not observed: {', '.join(traced[0]['unobserved'])}")
    for metric, unit in LAYER_METRICS.items():
        if layers[metric]:
            print(f"  {metric:<32} {layers[metric]:12.4f} {unit}")
    result["metrics"] = {
        metric: {"value": layers[metric], "unit": unit} for metric, unit in LAYER_METRICS.items()
    }
    return result, statistics.median(samples["wall_s"])


def design_checks(results: dict[str, dict], walls: dict[str, float]) -> list[tuple[str, bool]]:
    """The workload design the README states, checked on traced results.

    ``walls`` holds each workload's median untraced ``wall_s``.
    """
    def value(workload: str, metric: str) -> float:
        return results[workload]["metrics"][metric]["value"]

    warm_self = {module: value("warm_rerun", f"{module}.self_s") for module in MODULES}
    return [
        ("annotation.backend_calls > 0 only on cold_annotate",
         value("cold_annotate", "annotation.backend_calls") > 0
         and value("warm_rerun", "annotation.backend_calls") == 0
         and value("spatial_map", "annotation.backend_calls") == 0),
        ("annotation.cache_hit_ratio = 1.0 on warm_rerun",
         value("warm_rerun", "annotation.cache_hit_ratio") == 1.0),
        ("spatial.locate_s >= half of spatial_map wall_s, absent elsewhere",
         value("spatial_map", "spatial.locate_s") >= 0.5 * walls["spatial_map"]
         and value("cold_annotate", "spatial.locate_s") == 0
         and value("warm_rerun", "spatial.locate_s") == 0),
        ("ingestion has the largest module self time on warm_rerun",
         max(warm_self, key=warm_self.get) == "ingestion"),
    ]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs about 1k posts per workload")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/disimpact/cli.py", "tests/fixtures/make_fixtures.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a disimpact checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sizes = {n: SMOKE_POSTS if args.size == "smoke" else WORKLOADS[n].posts for n in names}
    print("env", json.dumps(environment(args, sizes)))
    try:
        measured = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = {name: result for name, (result, _) in measured.items()}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if args.trace:
        for claim, holds in design_checks(
            results, {name: wall for name, (_, wall) in measured.items()}
        ):
            print(f"design: {claim}: {'yes' if holds else 'NO'}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
