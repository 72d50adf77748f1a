"""Benchmark of the ontology-to-model pipeline.

    python3 bench/run.py --workload deep-chain --seed 1 --seconds 30 --trace 0

Generates the workload's documents from the seed, then, for --seconds, runs
rounds of the real CLI (`python -m ont2cm.cli` with PYTHONPATH=src), one
process at a time in a closed loop: `transform` then `classify` on each
document. Every operation's outputs are checked outside the timed region.
With --trace 1 the same rounds call `ont2cm.cli.main` in this process
instead, each preceded by a layer-by-layer pass that times every public
layer call, and a separate tracemalloc pass gives each layer's peak memory.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). `--workload all` runs every workload and
prints one such line each, with a `workload` key added. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of bytecode caches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 7


def _child_env(src: Path) -> dict[str, str]:
    """The CLI processes' environment: `src` first on the path. `src` is a
    fresh copy of the package without bytecode caches, and nothing writes
    any, so every launch compiles the package, as it does in an environment
    that sets PYTHONDONTWRITEBYTECODE. Caches left in the checkout by other
    Python runs are never read, so they cannot move the times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _launch(env: dict[str, str], args: list[str],
            log: Path) -> tuple[float, float, int]:
    """Run the CLI once through launch.py; return (wall seconds, peak RSS
    MiB, exit code). The wall time runs from process launch to exit; the
    RSS is the CLI process's own, from wait4."""
    report = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(log),
         sys.executable, "-m", "ont2cm.cli", *args],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env=env, cwd=ROOT, check=True)
    measured = json.loads(report.stdout)
    return measured["wall_s"], measured["maxrss_kib"] / 1024, measured["exit"]


_FRAME = re.compile(r'^  File "(.*)", line \d+, in (\S+)$', re.MULTILINE)


def known_failure(doc, log: str) -> bool:
    """True if `log` ends in the exception `doc` is known to raise, from
    inside the function it names: the traceback has a frame of that
    function, and every frame after it is in that function's file."""
    if doc.expect_failure is None or "Traceback" not in log:
        return False
    exception, function = doc.expect_failure
    lines = log.strip().splitlines()
    if not lines[-1].startswith(exception + ":"):
        return False
    frames = _FRAME.findall(log)
    calls = [i for i, (_, name) in enumerate(frames) if name == function]
    return bool(calls) and all(path == frames[calls[0]][0]
                               for path, _ in frames[calls[0]:])


class Run:
    """One run of one workload: its documents, checks and tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.env = _child_env(shutil.copytree(
            SRC, work / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc")))
        self.docs = workloads.generate(workload, seed)
        self.paths = {}
        for doc in self.docs:
            self.paths[doc.stem] = work / (doc.stem + doc.suffix)
            self.paths[doc.stem].write_text(doc.text)
        self.checker = checks.Checker(
            self.docs, {d.stem: workloads.expect(d.spec) for d in self.docs})
        self.problems: list[str] = []
        for doc in self.docs:
            self.problems += self.checker.census(doc)
        self.attempted = 0
        self.failed = 0
        self.serial = 0

    def out_dir(self) -> Path:
        self.serial += 1
        return self.work / f"out{self.serial}"

    def record(self, op: str, doc, out: Path, exit_code: int,
               log: str) -> bool:
        """Count one operation and check its outputs; True if it succeeded.
        A non-zero exit, a traceback, a missing artifact or a failed check
        is a failure. Only the fault the workload names may fail."""
        self.attempted += 1
        if exit_code == 0 and "Traceback" not in log:
            problems = self.checker.outputs(op, doc.stem, out)
        else:
            problems = [f"{op} {doc.stem}: exit {exit_code}: "
                        + (log.strip().splitlines() or [""])[-1]]
        shutil.rmtree(out, ignore_errors=True)
        if not problems:
            return True
        self.failed += 1
        if not (op == "transform" and known_failure(doc, log)):
            self.problems += problems
        return False

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(run: Run, seconds: float) -> dict:
    """End-to-end metrics from CLI processes, tracing off."""
    setup = []
    for _ in range(SETUP_LAUNCHES):
        wall, _, code = _launch(run.env, ["--help"], run.work / "help.log")
        if code != 0:
            raise SystemExit("ont2cm --help failed: "
                             + (run.work / "help.log").read_text())
        setup.append(wall)

    transform_s, classify_s, rss = [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        for doc in run.docs:
            for op in ("transform", "classify"):
                out = run.out_dir()
                log = run.work / "op.log"
                wall, peak, code = _launch(
                    run.env, [op, str(run.paths[doc.stem]), "--out", str(out)],
                    log)
                if run.record(op, doc, out, code,
                              log.read_text(errors="replace")):
                    if op == "transform":
                        transform_s.append(wall)
                        rss.append(peak)
                    else:
                        classify_s.append(wall)
    metrics = {
        "transform_s": (transform_s, "s"),
        "classify_s": (classify_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
        "setup_s": (setup, "s"),
    }
    print(f"samples: transform {len(transform_s)}, classify "
          f"{len(classify_s)}, setup {len(setup)}", file=sys.stderr)
    return run.result({name: {"value": statistics.median(values) if values
                              else None, "unit": unit}
                       for name, (values, unit) in metrics.items()})


_COUNTS = {"cot.statements": "count", "damlxml.elements": "count",
           "damlxml.skipped": "count", "ontology.aliases": "count",
           "ontology.closure_size": "count",
           "transform.generalizations": "count",
           "transform.relationships": "count", "transform.flags": "count",
           "emit.bytes": "bytes"}


# Functions `ont2cm.cli` calls into other modules. During an in-process CLI
# call each gets a span, so the CLI's own time is its span's self time.
_CLI_CALLS = ("parse", "import_daml", "validate_ontology", "derive_model",
              "check_model", "hoist_axiom_restrictions",
              "collapse_equivalences", "classify", "emit_model_json",
              "emit_plantuml", "emit_dot", "emit_report", "emit_bww_json")


def _cli_main(tracer, args: list[str]) -> tuple[int, str]:
    """`ont2cm.cli.main` in this process, with a child span around each
    call it makes into another module. Its messages and any exception's
    traceback come back as the log text."""
    saved = {name: getattr(cli, name) for name in _CLI_CALLS}

    def traced(name, fn):
        return lambda *a, **kw: tracer.step(f"cli:{name}", lambda: fn(*a, **kw))

    log = io.StringIO()
    for name, fn in saved.items():
        setattr(cli, name, traced(name, fn))
    try:
        with contextlib.redirect_stderr(log):
            code = cli.main(args)
    except Exception:  # counted and reported like a crash
        return 1, log.getvalue() + traceback.format_exc()
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    return code, log.getvalue()


def traced_run(run: Run, seconds: float, spans_file: Path) -> dict:
    """Per-layer metrics: spans around every layer call, then a separate
    memory pass.

    A document with a known fault is run, traced and checked like the
    others, but its spans and counts stay out of the metrics: it stops part
    way today, so its share of each figure would jump when the fault is
    fixed, with no change in speed."""
    # One untimed pass per document first, so that the first timed pass
    # does not pay for growing the heap that later passes reuse. Freezing
    # the benchmark's own objects keeps the collector from scanning them
    # inside layer spans; a CLI process would not hold them.
    for doc in run.docs:
        try:
            layers.pipeline(doc, lambda name, fn: fn())
        except Exception:  # reported by the timed passes
            pass
    gc.collect()
    gc.freeze()
    tracer = layers.Tracer()
    rounds: list[dict[str, float]] = []
    counts: dict[str, int] = {}
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        totals = dict.fromkeys(
            layers.LAYER_STEPS + ("cli.transform", "cli.classify", "cli.self"),
            0.0)
        for doc in run.docs:
            tracer.op = f"round{len(rounds)}:{doc.stem}"
            first = len(tracer.spans)
            try:
                doc_counts = tracer.step(
                    "pipeline", lambda: layers.pipeline(doc, tracer.step))
            except Exception as exc:  # a layer that fails is reported
                if not known_failure(doc, traceback.format_exc()):
                    run.problems.append(f"layer pass {doc.stem}: "
                                        f"{type(exc).__name__}: {exc}")
                doc_counts = {}
            measured = doc.expect_failure is None
            if measured and not rounds:
                for name, value in doc_counts.items():
                    counts[name] = counts.get(name, 0) + value
            for op in ("transform", "classify"):
                out = run.out_dir()
                code, log = tracer.step(f"cli.{op}", lambda: _cli_main(
                    tracer, [op, str(run.paths[doc.stem]), "--out", str(out)]))
                run.record(op, doc, out, code, log)
            if not measured:
                continue
            own = tracer.self_times()
            for i, span in enumerate(tracer.spans[first:], start=first):
                if span.name in totals:
                    totals[span.name] += span.end - span.start
                if span.name == "cli.transform":
                    totals["cli.self"] += own[i]
        rounds.append(totals)

    metrics = {f"{name}_s": {"value": statistics.median(r[name] for r in rounds),
                             "unit": "s"} for name in rounds[0]}
    for name, unit in _COUNTS.items():
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    for layer, peak in layers.memory_pass(run.docs[0]).items():
        metrics[f"{layer}.peak_mib"] = {"value": peak, "unit": "MiB"}

    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(tracer.as_records()) + "\n")
    print(f"rounds: {len(rounds)}; spans written to "
          f"{spans_file.relative_to(ROOT)}", file=sys.stderr)
    return run.result(metrics)


def _summary(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "no sample" if value is None else f"{value:.6g}"
        print(f"  {name:28} {shown:>14} {metric['unit']}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            run = Run(name, args.seed, work)
            if args.trace:
                spans = ROOT / ".bench_out" / f"{name}-seed{args.seed}.spans.json"
                result = traced_run(run, args.seconds, spans)
            else:
                result = timed_run(run, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _summary(name, result)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "ont2cm" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'ont2cm'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import checks
    import layers
    import workloads
    from ont2cm import cli
    from workloads import WORKLOADS
    raise SystemExit(main())
