"""Command-line pipeline: clean, annotate, count, index, verify, map, chart.

Every command reads declared inputs and writes its outputs plus a
manifest_<command>.json listing input and output content hashes with
the config snapshot and tool version. A `Run` stages each output as a
hidden temp file in --out and moves it into place only when the command
exits 0, writing the manifest last; on any other exit it removes its
temp files, so files from an earlier run keep their bytes. The
annotation cache is the one file written in place. A failed command
exits nonzero with a one-line diagnostic (each error class carries its
exit code: 2 for I/O and malformed inputs, 3 for backend exhaustion, 1
otherwise). Outputs carry no timestamps and all reals are formatted at
fixed precision, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from .agreement import agreement_report, human_consensus, load_annotations_csv
from .annotation import (
    AnnotationReport,
    Backend,
    ClientPolicy,
    MockBackend,
    RemoteBackend,
    annotate_dataset,
    clean_dataset,
)
from .chart import chart_csv_to_svg
from .core import (
    COMPOSITE_OPERATORS,
    QUANTILE_METHODS,
    WEEK,
    DisasterTag,
    Domain,
    ImpactCategory,
    IndexConfig,
    Post,
)
from .errors import DisimpactError, MalformedCsv, MalformedInput, OutOfRange
from .impact import compute_impact_series, write_domain_csv, write_index_csv
from .ingestion import (
    DOMAIN_CSV,
    GROUND_TRUTH_CSV,
    LoadReport,
    csv_header,
    iter_posts,
    join_labels,
    load_ground_truth,
    load_labels,
    parse_date,
    post_line,
    write_labels_csv,
)
from .spatial import (
    SourceFilter,
    aggregate_state_month,
    load_gazetteer,
    locate_posts,
    write_spatial_csv,
)
from .validation import (
    interpret_profile,
    lead_lag_profile,
    read_domain_csv,
    write_leadlag_csv,
)
from .windowing import build_count_series, read_counts_csv, write_counts_csv

@dataclass(frozen=True)
class RunConfig(IndexConfig):
    """Flat config surface: the index settings plus validate's and spatial's."""

    max_lag: int = 3
    min_group_size: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_lag < 0:
            raise OutOfRange(f"max_lag must be >= 0, got {self.max_lag}")
        if self.min_group_size < 1:
            raise OutOfRange("min_group_size must be >= 1")

    def snapshot(self) -> dict:
        anchor = self.window_anchor
        return asdict(self) | {"window_anchor": anchor.isoformat() if anchor else None}


_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "alpha": float,
    "window_anchor": lambda v: None if v.lower() in ("", "none") else parse_date(v),
    "max_lag": int,
    "quantile_method": str,
    "composite_operator": str,
    "min_group_size": int,
}


def load_config_file(path: Path) -> dict:
    """Parse a flat key=value file; '#' starts a comment line."""
    values: dict = {}
    for lineno, raw in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{path}:{lineno}: {exc}") from exc
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedInput(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise MalformedInput(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise MalformedInput(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise MalformedInput(f"{path}:{lineno}: {exc}") from exc
    return values


def resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file's values, then explicit flags."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _CONFIG_PARSERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(value: dict, path: Path) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(run: Run, outputs: list[Path], path: Path) -> None:
    manifest = {
        "command": run.args.command,
        "version": __version__,
        "seed": run.args.seed,
        "config": run.config.snapshot(),
        "inputs": run.inputs,
        "outputs": {p.name: sha256_file(p) for p in outputs},
    }
    write_json(manifest, path)


# mkstemp creates files 0600; staged outputs get the mode open() would give.
# Reading the umask means setting it, so read it once, at import.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _resolved(*paths: str | Path) -> set[Path]:
    return {Path(p).resolve() for p in paths}


class Run:
    """One command's inputs and outputs, committed together on exit 0.

    Each output is written to a hidden temp file in ``--out`` and moved
    into place by ``commit``, which writes the manifest last. A commit
    that fails puts every earlier file back. A process killed during
    ``commit`` may leave some outputs new and the rest, with the
    manifest, from the earlier run, and hidden ``.<name>.*.old`` links
    holding the earlier bytes. ``discard`` removes this run's temp files
    and touches nothing under a final name.
    """

    def __init__(self, args: argparse.Namespace, config: RunConfig) -> None:
        self.args = args
        self.config = config
        self.inputs: dict[str, str] = {}
        self.staged: dict[Path, Path] = {}
        self.recorded: list[Path] = []
        self.manifest = args.out / f"manifest_{args.command}.json"

    def input(self, path: Path) -> Path:
        self.inputs[str(path)] = sha256_file(path)
        return path

    def output(self, name: str) -> Path:
        if name in ("", ".", "..") or Path(name).name != name:
            raise MalformedInput(f"output name {name!r} must be a plain file name")
        final = self.args.out / name
        if final.resolve() in _resolved(self.manifest, *self.inputs):
            raise MalformedInput(f"output {final} would replace this run's manifest or an input")
        if final.resolve() in _resolved(*self.recorded):
            raise MalformedInput(f"output {final} would replace the annotation cache")
        if name in (cache.name for cache in self.recorded):  # the manifest keys both by name
            raise MalformedInput(f"output {final} would share its manifest entry with the cache")
        return self._stage(final)

    def record(self, path: Path) -> Path:
        """A file written in place (the annotation cache), listed if it exists.

        It may not be the manifest, an input or an output, so a command
        records it before any backend call and stages its outputs too.
        """
        if path.resolve() in _resolved(self.manifest, *self.inputs, *self.staged):
            raise MalformedInput(
                f"cache {path} would replace this run's manifest, an input or an output"
            )
        self.recorded.append(path)
        return path

    def _stage(self, final: Path) -> Path:
        fd, temp = tempfile.mkstemp(prefix=f".{final.name}.", suffix=".tmp", dir=final.parent)
        os.close(fd)
        self.staged[final] = Path(temp)
        os.chmod(temp, 0o666 & ~_UMASK)
        return self.staged[final]

    def commit(self) -> None:
        """Move the outputs into place, then write the manifest; undo the moves on failure.

        Each earlier file a move replaces is first kept under a hidden
        ``.<name>.*.old`` link, removed once the manifest is in place.
        """
        moved: list[Path] = []
        kept: dict[Path, Path] = {}  # final name -> the link to its earlier file
        try:
            for final, temp in self.staged.items():
                old = temp.with_suffix(".old")
                try:
                    os.link(final, old, follow_symlinks=False)
                    kept[final] = old
                except FileNotFoundError:
                    pass  # no earlier file
                except PermissionError:
                    if not final.is_dir():  # the move below fails on a directory
                        raise
                os.replace(temp, final)
                moved.append(final)
            temp = self._stage(self.manifest)
            write_manifest(self, moved + [p for p in self.recorded if p.exists()], temp)
            os.replace(temp, self.manifest)
        except BaseException:
            self._undo(moved, kept)
            raise
        for old in kept.values():
            old.unlink()

    def _undo(self, moved: list[Path], kept: dict[Path, Path]) -> None:
        """Put back each earlier file a move replaced, and remove the other moved outputs.

        An earlier file that cannot be put back stays under its hidden
        name, and the manifest goes, so no manifest lists bytes that are
        not on disk.
        """
        for final in moved:
            try:
                if final in kept:
                    os.replace(kept.pop(final), final)
                else:
                    final.unlink(missing_ok=True)
            except OSError:
                self.manifest.unlink(missing_ok=True)
        for old in kept.values():  # its move failed, so the earlier file is in place
            old.unlink(missing_ok=True)

    def discard(self) -> None:
        for temp in self.staged.values():
            temp.unlink(missing_ok=True)


def make_backend(args: argparse.Namespace) -> Backend:
    if args.backend == "remote":
        if not args.endpoint:
            raise ValueError("remote backend needs --endpoint")
        return RemoteBackend(args.endpoint, timeout=args.timeout)
    return MockBackend()


def make_policy(args: argparse.Namespace) -> ClientPolicy:
    return ClientPolicy(max_in_flight=args.max_in_flight, max_retries=args.max_retries)


def _round9(value):
    if isinstance(value, float):
        return round(value, 9)
    return value


def _report_annotation(report: AnnotationReport) -> int:
    """Say on stderr how many cache lines were unreadable, if any, then each post's error.

    Returns the exit code the errors give.
    """
    if report.cache_invalid:
        print(f"ignored {report.cache_invalid} unreadable cache lines", file=sys.stderr)
    errors = report.errors
    for error in errors:
        print(f"error: post {error.post_id}: {error.stage}: {error.message}", file=sys.stderr)
    return max((error.exit_code for error in errors), default=0)


def _report_dropped(report: LoadReport) -> None:
    """Say on stderr how many posts.jsonl lines were dropped, if any."""
    if report.dropped_malformed or report.dropped_duplicate:
        print(
            f"dropped {report.dropped_malformed} malformed, "
            f"{report.dropped_duplicate} duplicate lines",
            file=sys.stderr,
        )


def _stream_posts(path: Path, run: Run, report: LoadReport) -> Iterator[Post]:
    """Stream posts.jsonl as run.input hashed it; at its end, say how many lines were dropped.

    The stream raises InputChanged at its end if it read other bytes.
    """
    yield from iter_posts(path, report, run.inputs[str(path)])
    _report_dropped(report)


def cmd_clean(args: argparse.Namespace, run: Run) -> int:
    posts = _stream_posts(run.input(args.input), run, LoadReport())
    cache_path = run.record(args.cache or args.out / "annotation_cache.jsonl")
    with run.output("posts_clean.jsonl").open("w", encoding="utf-8") as fh:
        report = clean_dataset(
            posts, DisasterTag(args.disaster), make_backend(args), make_policy(args),
            cache_path, keep=lambda post: fh.write(post_line(post)),
        )
    print(report.summary())
    return _report_annotation(report)


def cmd_annotate(args: argparse.Namespace, run: Run) -> int:
    loaded = LoadReport()
    posts = _stream_posts(run.input(args.input), run, loaded)
    cache_path = run.record(args.cache or args.out / "annotation_cache.jsonl")
    out = run.output("labels.csv")
    labels, report = annotate_dataset(
        posts, DisasterTag(args.disaster), make_backend(args), make_policy(args), cache_path
    )
    write_labels_csv(labels, out)
    relevant = sum(1 for label in labels if label.relevant)
    print(
        f"annotated {len(labels)}/{loaded.kept} posts "
        f"({relevant} relevant, {report.cache_hits} cache hits, {report.shared} shared)"
    )
    return _report_annotation(report)


def _labelled_posts(
    args: argparse.Namespace, run: Run, report: LoadReport
) -> Iterator[tuple[Post, ImpactCategory]]:
    """Stream (post, category) for the labelled posts of --in; labels are read first.

    The stream ends with the posts' digest and malformed-share checks
    and then the labels' unknown-id check, so a caller that consumes it before
    writing writes nothing when either fails.
    """
    posts_path, labels_path = run.input(args.input), run.input(args.labels)
    labels = load_labels(labels_path)
    posts = iter_posts(posts_path, report, run.inputs[str(posts_path)])
    return join_labels(posts, labels, labels_path, report)


def cmd_counts(args: argparse.Namespace, run: Run) -> int:
    loaded = LoadReport()
    tally = Counter(
        (post.created_date, category) for post, category in _labelled_posts(args, run, loaded)
    )
    _report_dropped(loaded)
    series, outside = build_count_series(tally, run.config, args.range_start, args.range_end)
    write_counts_csv(series, run.output("counts.csv"))
    n_windows = len(series.windows)
    print(
        f"{n_windows} windows from {series.start} to {series.start + n_windows * WEEK}, "
        f"{sum(map(sum, series.windows))} posts"
    )
    if loaded.unlabeled:
        print(f"{loaded.unlabeled} posts had no label", file=sys.stderr)
    if outside:
        print(f"{outside} posts outside range", file=sys.stderr)
    return 0


def cmd_index(args: argparse.Namespace, run: Run) -> int:
    counts = read_counts_csv(run.input(args.input), run.config)
    series = compute_impact_series(counts, run.config)
    write_index_csv(series, run.output("index.csv"))
    write_domain_csv(series, run.output("domain.csv"))
    weights = series.weights.windows
    print(
        f"{len(weights)} windows; weight range "
        f"[{min(weights):.6f}, {max(weights):.6f}]"
    )
    if series.weights_use_fallback_iqr:
        print(
            f"IQR of 0 in the weekly totals; the weight uses {series.stats.iqr:g} in its place",
            file=sys.stderr,
        )
    return 0


def cmd_agreement(args: argparse.Namespace, run: Run) -> int:
    table = load_annotations_csv(run.input(args.input))
    model_labels = None
    if args.labels:
        model_labels = load_labels(run.input(args.labels))
    report = agreement_report(table, model_labels)
    report = {key: _round9(value) for key, value in report.items()}
    write_json(report, run.output("agreement.json"))
    print(
        f"consistency {report['consistency']:.4f}, "
        f"fleiss_kappa {report['fleiss_kappa']:.4f} over {report['n_items']} items"
    )
    if model_labels is not None:
        # Resolved items the human-vs-model numbers leave out for want of a label.
        unlabeled = sum(
            1 for c in human_consensus(table) if c.resolved and c.item not in model_labels
        )
        if unlabeled:
            print(f"{unlabeled} annotated items had no model label", file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace, run: Run) -> int:
    header = csv_header(run.input(args.input))
    index_filled = ()
    if header == DOMAIN_CSV.names:
        index_series = read_domain_csv(args.input, Domain(args.domain))
    elif header == GROUND_TRUTH_CSV.names:
        index_series, index_filled = load_ground_truth(args.input)
    else:
        series = ",".join(GROUND_TRUTH_CSV.names)
        raise MalformedCsv(f"{args.input}: expected a domain export or a {series} series")
    truth, truth_filled = load_ground_truth(run.input(args.truth))
    profile = lead_lag_profile(index_series, truth, run.config.max_lag)
    write_leadlag_csv(profile, run.output("leadlag.csv"))
    interpretation = {
        key: _round9(value) for key, value in interpret_profile(profile).items()
    }
    write_json(interpretation, run.output("validate_report.json"))
    print(interpretation["statement"])
    for what, filled in (("index", index_filled), ("truth", truth_filled)):
        if filled:
            print(f"zero-filled {len(filled)} missing {what} weeks", file=sys.stderr)
    return 0


def cmd_spatial(args: argparse.Namespace, run: Run) -> int:
    loaded = LoadReport()
    labelled = _labelled_posts(args, run, loaded)
    if args.gazetteer:
        gazetteer = load_gazetteer(run.input(args.gazetteer))
    else:
        gazetteer = load_gazetteer()
        data = resources.files("disimpact").joinpath("data/gazetteer.csv").read_bytes()
        run.inputs["gazetteer.csv"] = hashlib.sha256(data).hexdigest()
    located = locate_posts(labelled, gazetteer)
    _report_dropped(loaded)
    source = SourceFilter(args.source_filter)
    rows, report = aggregate_state_month(located, run.config, source, run.config.min_group_size)
    write_spatial_csv(rows, source, run.output("spatial.csv"))
    states = sorted({row.state for row in rows})
    print(f"{len(rows)} state-month cells across {len(states)} states")
    if report.unlocated:
        print(f"{report.unlocated} posts could not be located", file=sys.stderr)
    if report.suppressed_cells:
        print(
            f"{len(report.suppressed_cells)} cells under min_group_size suppressed",
            file=sys.stderr,
        )
    if report.zero_iqr_states:
        print(
            f"IQR of 0 in the weekly totals of {report.zero_iqr_states} state series; "
            "max(1, mean * 1e-6) stands in for it",
            file=sys.stderr,
        )
    return 0


def cmd_chart(args: argparse.Namespace, run: Run) -> int:
    series = run.input(args.input)
    out_chart = run.output(args.outfile)
    svg, warnings = chart_csv_to_svg(series, title=args.title)
    out_chart.write_text(svg, encoding="utf-8")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {args.out / args.outfile}")
    return 0


def _date_flag(text: str) -> date:
    try:
        return parse_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid date {text!r}: expected YYYY-MM-DD") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disimpact",
        description="Two-stage disaster impact pipeline: classify posts, "
        "index weekly impact, and validate against ground truth.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="flat key=value config file")
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")
    common.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    sub = parser.add_subparsers(dest="command", required=True)

    backend_flags = argparse.ArgumentParser(add_help=False)
    backend_flags.add_argument(
        "--backend", choices=("mock", "remote"), default="mock",
        help="classifier backend",
    )
    backend_flags.add_argument("--endpoint", help="remote backend URL")
    backend_flags.add_argument("--cache", type=Path, help="annotation cache JSONL")
    backend_flags.add_argument("--max-in-flight", type=int, default=4)
    backend_flags.add_argument("--max-retries", type=int, default=2)
    backend_flags.add_argument("--timeout", type=float, default=30.0)

    posts_flag = argparse.ArgumentParser(add_help=False)
    posts_flag.add_argument("--in", dest="input", type=Path, required=True, help="posts.jsonl")
    disaster_flags = argparse.ArgumentParser(add_help=False, parents=[posts_flag])
    disaster_flags.add_argument("--disaster", choices=("hurricane", "wildfire"), required=True)
    labels_flags = argparse.ArgumentParser(add_help=False, parents=[posts_flag])
    labels_flags.add_argument("--labels", type=Path, required=True, help="labels.csv")

    p = sub.add_parser(
        "clean", parents=[common, backend_flags, disaster_flags],
        help="relevance-filter posts, writing posts_clean.jsonl",
    )
    p.set_defaults(handler=cmd_clean)

    p = sub.add_parser(
        "annotate", parents=[common, backend_flags, disaster_flags],
        help="classify posts into impact categories, writing labels.csv",
    )
    p.set_defaults(handler=cmd_annotate)

    p = sub.add_parser(
        "counts", parents=[common, labels_flags],
        help="count labeled posts per window and category, writing counts.csv",
    )
    p.add_argument("--range-start", type=_date_flag)
    p.add_argument("--range-end", type=_date_flag)
    p.add_argument("--window-anchor", dest="window_anchor", type=_date_flag)
    p.set_defaults(handler=cmd_counts)

    p = sub.add_parser(
        "index", parents=[common],
        help="compute weekly impact indices, writing index.csv and domain.csv",
    )
    p.add_argument("--in", dest="input", type=Path, required=True, help="counts.csv")
    p.add_argument("--alpha", type=float)
    p.add_argument("--quantile-method", dest="quantile_method", choices=QUANTILE_METHODS)
    p.add_argument(
        "--composite-operator", dest="composite_operator", choices=COMPOSITE_OPERATORS
    )
    p.set_defaults(handler=cmd_index)

    p = sub.add_parser(
        "agreement", parents=[common],
        help="annotator agreement statistics, writing agreement.json",
    )
    p.add_argument("--in", dest="input", type=Path, required=True, help="annotations.csv")
    p.add_argument("--labels", type=Path, help="model labels.csv for comparison")
    p.set_defaults(handler=cmd_agreement)

    p = sub.add_parser(
        "validate", parents=[common],
        help="lead-lag rank correlation against ground truth, writing leadlag.csv",
    )
    p.add_argument(
        "--in", dest="input", type=Path, required=True,
        help="domain.csv or a week_start,value series",
    )
    p.add_argument("--truth", type=Path, required=True, help="groundtruth.csv")
    p.add_argument("--domain", choices=("physical", "social"), default="physical")
    p.add_argument("--max-lag", dest="max_lag", type=int)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "spatial", parents=[common, labels_flags],
        help="state-month impact aggregation, writing spatial.csv",
    )
    p.add_argument("--gazetteer", type=Path, help="override the bundled place index")
    p.add_argument(
        "--source-filter", choices=("metadata", "text", "both"), default="both"
    )
    p.add_argument("--min-group-size", dest="min_group_size", type=int)
    p.set_defaults(handler=cmd_spatial)

    p = sub.add_parser(
        "chart", parents=[common],
        help="render an index or domain export as a deterministic SVG chart",
    )
    p.add_argument(
        "--in", dest="input", type=Path, required=True, help="index.csv or domain.csv"
    )
    p.add_argument("--title", default="")
    p.add_argument("--outfile", default="chart.svg")
    p.set_defaults(handler=cmd_chart)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = None
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        run = Run(args, resolve_run_config(args))
        code = args.handler(args, run)
        if code == 0:
            run.commit()
        return code
    except (DisimpactError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2 if isinstance(exc, OSError) else 1)
    finally:
        if run is not None:
            run.discard()


if __name__ == "__main__":
    sys.exit(main())
