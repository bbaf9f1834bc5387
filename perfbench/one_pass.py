"""Run one pass of a workload in a fresh process and time it.

    python3 one_pass.py SPEC_JSON START_NS

SPEC_JSON names the checkout root, a fresh output directory, the files
to place in it, the CLI commands and whether to trace. START_NS is the
parent's CLOCK_MONOTONIC reading taken just before it started this
process, so ``setup_s`` covers interpreter start, ``import disimpact``
and placing the inputs. The commands run in-process through
``disimpact.cli.main``. The last line of standard output is a JSON
object with the timings, exit codes and, when traced, the layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def run_command(cli, argv: list[str], tracer) -> tuple[int, str]:
    """Exit code and captured stderr of one ``disimpact`` command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    span = (
        tracer.span(f"cli.{argv[0]}", "cli", f"cli.{argv[0]}_s")
        if tracer is not None
        else contextlib.nullcontext()
    )
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the command crashed; report it as a failed command
            traceback.print_exc()
            code = 1
    return code, stderr.getvalue()


def peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM), in MB.

    Not ``ru_maxrss``: Linux carries that across exec, so it would also
    count the parent's RSS at fork.
    """
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    start_ns = int(sys.argv[2])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from disimpact import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(cli)
    out = Path(spec["out"])
    out.mkdir(parents=True)
    for source, name in spec["place"]:
        shutil.copyfile(source, out / name)

    exit_codes, stderr = [], []
    usage_before = resource.getrusage(resource.RUSAGE_SELF)
    first_ns = time.monotonic_ns()
    for argv in spec["commands"]:
        code, err = run_command(cli, argv, tracer)
        exit_codes.append(code)
        stderr.append(err[-2000:] if code else "")
    end_ns = time.monotonic_ns()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": (first_ns - start_ns) / 1e9,
        "wall_s": (end_ns - first_ns) / 1e9,
        "cpu_s": (usage.ru_utime + usage.ru_stime)
        - (usage_before.ru_utime + usage_before.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "exit_codes": exit_codes,
        "stderr": stderr,
    }
    if tracer is not None:
        from tracing import cache_mb

        result["layers"] = {**tracer.metrics(), "annotation.cache_mb": cache_mb(out)}
        result["absent"] = tracer.absent
        result["unobserved"] = sorted(tracer.unobserved)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
