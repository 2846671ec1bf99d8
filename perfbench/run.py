#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for spanagree.

Run from the root of a spanagree checkout (the program is imported from
its `src/`):

    python3 perfbench/run.py --workload evaluate-dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                # every workload, seed 1, 40 s each

Each workload is generated from --seed and run as whole rounds of CLI
operations until --seconds have passed: a cold `annotate --mock`, a warm
resume on the cache it wrote, an `evaluate` of the resulting campaign
against the gold campaign and, on annotate-mock, a resume from a cache
whose last line was torn. Every output is checked against the planted
truth (round one) or byte-compared with round one (later rounds).

--trace 0 runs every operation as a subprocess and reports the end-to-end
metrics, timed in the children's CPU time and scaled by a reference probe
that gauges the host's speed; --trace 1 runs the same rounds in-process,
traces one of them with per-layer hooks, and reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import check_campaign, check_report, check_traces, digest
from workloads import GENERATORS, Workload, torn_cache_corpus

SETUP_REPEATS = 5
# A fixed stdlib import in an isolated interpreter (-I ignores PYTHONPATH),
# so that nothing of the program runs in it: it measures the host's speed.
REFERENCE = ["-I", "-c", "import argparse, csv, dataclasses, decimal, email.parser, "
             "http.client, json, logging, re"]
# Its CPU time on the machine of the reference figures (README); every
# time below is scaled to a host on which the reference takes this long.
REFERENCE_S = 0.15
# Every child must end before the run's own 180 s limit.
DEADLINE_S = 165.0


@dataclass
class Call:
    wall_s: float
    cpu_s: float | None  # user + system time of the child, from its wait4 record
    rss_mb: float | None
    code: int
    output: str = ""


@dataclass
class Op:
    """One CLI operation of a round, with how to prepare and check it."""

    name: str
    argv: list[str]
    prepare: Callable[[], None]
    verify: Callable[[], list[str]]


@dataclass
class Result:
    op: str
    call: Call
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.call.code != 0 or bool(self.problems)


class Bench:
    """Generated inputs of one workload and the operations of one round."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.root = root
        self.workload = GENERATORS[name](seed)
        self.dir = work / "main"
        self._write(self.workload, self.dir)
        self.refs: dict[str, dict[str, str]] = {}
        self.setup_problems: list[str] = []
        self.torn: Workload | None = None
        self.torn_cache = b""
        if name == "annotate-mock":
            self.torn = torn_cache_corpus()
            self.torn_dir = work / "torn"
            self._write(self.torn, self.torn_dir)

    def _write(self, workload: Workload, directory: Path) -> None:
        categories = self.root / "src" / "spanagree" / "data" / f"{workload.task}.json"
        workload.write_inputs(directory, categories)

    @staticmethod
    def _annotate(directory: Path, replies: str) -> list[str]:
        return ["annotate", "--config", str(directory / "run.json"),
                "--mock", str(directory / replies)]

    def ops(self) -> list[Op]:
        d = self.dir
        ops = [
            Op("annotate-cold", self._annotate(d, "replies.jsonl"), self._fresh, self._cold),
            Op("annotate-warm", self._annotate(d, "no_replies.jsonl"), self._drop_outputs,
               self._warm),
            Op("evaluate", ["evaluate", "--config", str(d / "run.json"), "gold", "llm"],
               lambda: None, self._evaluate),
        ]
        if self.torn is not None:
            ops.append(Op("torn-resume", self._annotate(self.torn_dir, "replies.jsonl"),
                          self._tear, self._torn))
        return ops

    def prepare_torn(self, call: Callable[[Op], Call]) -> None:
        """Cold run on the fixed torn-cache corpus; rounds tear its cache."""
        if self.torn is None:
            return
        shutil.rmtree(self.torn_dir / "out", ignore_errors=True)
        (self.torn_dir / "cache.jsonl").unlink(missing_ok=True)
        outcome = call(Op("torn-setup", self._annotate(self.torn_dir, "replies.jsonl"),
                          lambda: None, lambda: []))
        if outcome.code != 0:
            self.setup_problems = [f"torn-cache preparation failed: {outcome.output}"]
            return
        self.setup_problems = self._check_annotation(self.torn_dir / "out", self.torn)
        self.torn_cache = (self.torn_dir / "cache.jsonl").read_bytes()

    def _fresh(self) -> None:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        (self.dir / "cache.jsonl").unlink(missing_ok=True)

    def _drop_outputs(self) -> None:
        shutil.rmtree(self.dir / "out", ignore_errors=True)

    def _tear(self) -> None:
        """Cut the cache's last record in half, as a kill mid-append leaves it."""
        lines = self.torn_cache.splitlines(keepends=True) or [b""]
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        (self.torn_dir / "cache.jsonl").write_bytes(torn)
        shutil.rmtree(self.torn_dir / "out", ignore_errors=True)

    @staticmethod
    def _check_annotation(out: Path, workload: Workload) -> list[str]:
        return (check_campaign(out / "campaign.jsonl", workload)
                + check_traces(out / "traces.jsonl", workload))

    def _same_as(self, key: str, first: Callable[[], list[str]]) -> list[str]:
        """Independent checks on the first output; byte identity with it afterwards."""
        out = self.dir / "out"
        if key not in self.refs:
            problems = first()
            self.refs[key] = digest(out)
            return problems
        if digest(out) != self.refs[key]:
            return [f"{key}: outputs differ from round one"]
        return []

    def _cold(self) -> list[str]:
        return self._same_as("annotate",
                             lambda: self._check_annotation(self.dir / "out", self.workload))

    def _warm(self) -> list[str]:
        # Compared with the cold run's bytes even in round one; the warm run
        # got no replies, so any request it sent would have failed an example.
        if "annotate" not in self.refs:
            return ["warm resume ran without a cold reference"]
        if digest(self.dir / "out") != self.refs["annotate"]:
            return ["warm resume did not reproduce the cold campaign and traces"]
        return []

    def _evaluate(self) -> list[str]:
        return self._same_as("evaluate", lambda: check_report(self.dir / "out", self.workload))

    def _torn(self) -> list[str]:
        return self._check_annotation(self.torn_dir / "out", self.torn)


def run_round(bench: Bench, call: Callable[[Op], Call]) -> list[Result]:
    results = []
    for op in bench.ops():
        op.prepare()
        outcome = call(op)
        problems = op.verify() if outcome.code == 0 else []
        results.append(Result(op.name, outcome, problems))
    return results


# ---- subprocess execution (end-to-end metrics) ----------------------------

class Subprocesses:
    def __init__(self, root: Path, log: Path, started: float):
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # numpy's BLAS would start a thread per core at import; the program
        # does no BLAS work worth a pool, and idle pool threads only add
        # scheduler noise on a small machine.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        self.root = root
        self.started = started
        self.log = log

    def run(self, argv: list[str]) -> Call:
        """Run one child; its CPU time and peak RSS come from its own wait4 record."""
        budget = DEADLINE_S - (time.perf_counter() - self.started)
        if budget <= 0:
            raise TimeoutError("run exceeded its time budget")
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = self.log.read_text(encoding="utf-8", errors="replace")
        return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, output)

    def cli(self, op: Op) -> Call:
        return self.run(["-m", "spanagree.cli", *op.argv])


def setup_probe(children: Subprocesses) -> Call:
    """One fresh-interpreter import of spanagree.cli; prints the solver backend."""
    call = children.run(["-c", "import spanagree.cli, spanagree.gamma as g;"
                               "print(getattr(g, 'BACKEND', 'n/a'))"])
    if call.code != 0:
        raise RuntimeError(f"importing spanagree.cli failed:\n{call.output}")
    return call


def reference_probe(children: Subprocesses) -> float:
    call = children.run(REFERENCE)
    if call.code != 0:
        raise RuntimeError(f"the reference import failed:\n{call.output}")
    return call.cpu_s


def end_to_end(bench: Bench, seconds: float, started: float) -> tuple[list[Result], dict]:
    children = Subprocesses(bench.root, bench.dir.parent / "child.log", started)
    setup_probe(children)  # writes the bytecode cache, as a first run after install does
    bench.prepare_torn(children.cli)
    # The host's speed drifts by 20% within minutes, in CPU time as much as
    # in wall time; a reference probe before every measured call tracks it.
    reference: list[float] = []

    def measured(op: Op) -> Call:
        reference.append(reference_probe(children))
        return children.cli(op)

    # One set-up probe per round, so that set-up and operations sample the
    # same stretch of machine time; at least SETUP_REPEATS in all. A round
    # starts only if one more of median length still ends within --seconds,
    # so a run lasts about as long as asked and never much longer.
    setup: list[Call] = []
    results: list[Result] = []
    rounds: list[float] = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 + statistics.median(rounds) <= seconds:
        r0 = time.perf_counter()
        reference.append(reference_probe(children))
        setup.append(setup_probe(children))
        results += run_round(bench, measured)
        rounds.append(time.perf_counter() - r0)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(children))
    n = len(bench.workload.examples)
    # Time is the child's CPU time, not its wall time: on a shared virtual
    # machine the hypervisor takes the vCPU away for stretches of seconds,
    # and that steal time, which the program cannot affect, entered wall
    # time and tripled the run-to-run spread (README, "Host noise").
    scale = REFERENCE_S / statistics.median(reference)

    def throughput(name):
        """Examples over scaled CPU time, summed over every round of the run."""
        times = [r.call.cpu_s for r in results if r.op == name]
        return n * len(times) / (scale * sum(times)), "examples/s"

    rss = [c.rss_mb for c in setup] + [r.call.rss_mb for r in results]
    metrics = {
        "setup_s": (scale * statistics.median(c.cpu_s for c in setup), "s"),
        "evaluate_ex_per_s": throughput("evaluate"),
        "annotate_ex_per_s": throughput("annotate-cold"),
        "resume_ex_per_s": throughput("annotate-warm"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return results, {"metrics": metrics, "backend": setup[-1].output.strip(),
                     "rounds": len(rounds), "reference": (len(reference), 1 / scale)}


# ---- in-process execution (per-layer metrics) ------------------------------

class InProcess:
    def __init__(self, cli_module):
        self.cli = cli_module
        self.tracer = None

    def cli_call(self, op: Op) -> Call:
        if self.tracer is not None:
            self.tracer.phase = op.name
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(op.argv)
        except Exception:  # the CLI let an exception escape: a failed operation
            code, sink = 1, io.StringIO(traceback.format_exc())
        return Call(time.perf_counter() - t0, None, None, code, sink.getvalue())


def import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import spanagree.cli as cli

    if Path(cli.__file__).resolve().parents[1] != (root / "src").resolve():
        raise RuntimeError(f"spanagree imported from {cli.__file__}, not from {root / 'src'}")
    return cli


def traced(bench: Bench, seconds: float) -> tuple[list[Result], dict]:
    from tracing import Tracer, layer_metrics

    cli = import_program(bench.root)
    runner = InProcess(cli)
    bench.prepare_torn(runner.cli_call)
    results: list[Result] = []
    untraced: list[float] = []
    t0 = time.perf_counter()
    while len(untraced) < 2 or time.perf_counter() - t0 < seconds / 2:
        batch = run_round(bench, runner.cli_call)
        untraced.append(sum(r.call.wall_s for r in batch))
        results += batch
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        batch = run_round(bench, runner.cli_call)
    finally:
        tracer.uninstall()
        runner.tracer = None
    results += batch
    overhead = sum(r.call.wall_s for r in batch) - statistics.median(untraced)
    metrics, by_phase = layer_metrics(tracer, overhead)
    backend = getattr(sys.modules.get("spanagree.gamma"), "BACKEND", "n/a")
    return results, {"metrics": metrics, "backend": backend, "rounds": len(untraced) + 1,
                     "absent": tracer.absent, "by_phase": by_phase}


# ---- reporting ---------------------------------------------------------------

def environment(root: Path, workload: str, seed: int, backend: str) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "absent"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions, "backend": backend,
            "commit": commit, "workload": workload, "seed": seed}


def summarize(name: str, results: list[Result], info: dict) -> None:
    print(f"[{name}] {info['rounds']} rounds")
    for op in dict.fromkeys(r.op for r in results):
        calls = [r.call for r in results if r.op == op]
        walls = [c.wall_s for c in calls]
        failed = sum(r.failed for r in results if r.op == op)
        cpu = ("" if calls[0].cpu_s is None else
               f"  cpu median {statistics.median(c.cpu_s for c in calls):8.3f}")
        print(f"  {op:14s} n={len(walls):3d} wall median {statistics.median(walls):8.3f} s  "
              f"min {min(walls):8.3f}  max {max(walls):8.3f}{cpu}  failed {failed}")
    for op in dict.fromkeys(r.op for r in results if r.failed):
        r = next(r for r in results if r.op == op and r.failed)
        reason = r.problems[:3] or r.call.output.strip().splitlines()[-1:]
        print(f"  failed {op}: exit {r.call.code}: {reason}")
    if "reference" in info:
        count, speed = info["reference"]
        print(f"  reference import: n={count}, host is {speed:.3f}x as slow as the "
              f"reference machine; times below are scaled by {1 / speed:.3f}")
    for metric, (value, unit) in info["metrics"].items():
        print(f"  {metric:46s} {value:14.6f} {unit}")
    if info.get("absent"):
        print(f"  absent hooks (no such function): {', '.join(info['absent'])}")
    for phase, selfs in info.get("by_phase", {}).items():
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:4]
        print(f"  top self time in {phase}: "
              + ", ".join(f"{k} {v:.3f}s" for k, v in top))


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    work = root / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(root, name, seed, work)
        if trace:
            results, info = traced(bench, seconds)
        else:
            results, info = end_to_end(bench, seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env: " + json.dumps(environment(root, name, seed, info["backend"])))
    summarize(name, results, info)
    for problem in bench.setup_problems[:3]:
        print(f"  set-up output is wrong: {problem}")
    return {
        "correct": not bench.setup_problems and not any(r.problems for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in info["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", metavar="DIR", type=Path,
                        help="only write the generated inputs of --workload to DIR")
    args = parser.parse_args(argv)
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "spanagree" / "cli.py").is_file():
        print(f"error: {root} is not a spanagree checkout (no src/spanagree/cli.py)",
              file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    if args.write_inputs is not None:
        for name in names:
            Bench(root, name, args.seed, args.write_inputs / name)
        return 0
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(json.dumps(outcomes[name]))
    finally:
        with contextlib.suppress(OSError):  # left in place while another run uses it
            (root / ".perfbench_work").rmdir()
    if len(names) == 1:
        print(json.dumps(outcomes[names[0]]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}.{k}": v for name, o in outcomes.items()
                        for k, v in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
