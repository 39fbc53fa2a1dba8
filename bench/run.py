"""Benchmark for ltsrepr: end-to-end time to result plus a traced per-module
breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it imports the
package from the checkout's `src/` and writes only under `.bench_out/`.

Workloads (see `workloads.py`):
  desk-cli    default config, 8 program seeds per round, each a chain of
              in-process `ltsrepr.cli.main` calls: pretrain, retrain with
              crt/lws/disalign/srepr, eval --ensemble-m 8 on each, analyze.
  wide-srepr  the wide profile, 1 program seed: pretrain, srepr retrain,
              eval --ensemble-m 8, analyze.
  desk-sweep  `sweep --seeds <16 seeds> --retrain crt` with LTSREPR_THREADS=2.

The load is a closed loop with one client: each CLI call starts when the
previous one has returned. A run repeats identical rounds until the next one
would end past `--seconds` (at least 3 rounds), and reports medians. Program
seeds derive from `--seed`, so every round of a run does the same work and
must write the same bytes; every artifact is checked after each round.

With `--trace 0` it prints the end-to-end metrics BENCHMARK.json lists:
  setup_s            median of 7 fresh interpreters importing `ltsrepr.cli`
                     and generating the workload's datasets
  wall_s             median round time (sum of the round's CLI calls)
  pretrain_ex_per_s  stage-1 examples / pretrain call time, median over calls;
                     on desk-sweep all seeds' stage-1 examples / sweep time
  retrain_ex_per_s   stage-2 examples / srepr retrain call time; on
                     desk-sweep all seeds' crt examples / sweep time
  peak_rss_mb        peak RSS of this process, plus the summed peaks of the
                     pool workers alive at once on desk-sweep
  ok_ratio           1 - failed / attempted CLI calls; a call fails when it
                     exits non-zero or one of its artifacts fails a check
  acc_all nll        the headline model's point predictions (srepr; the
                     swa+crt mean row on desk-sweep), mean over seeds
  pre_nll            the stage-1 model's NLL (the swa row on desk-sweep)
The result file also records acc_few, ece and the M=8 ensemble NLL, which
vary too much from seed to seed on wide-srepr to carry a bound.

OpenBLAS runs one thread per process (see BLAS_ENV).

With `--trace 1` odd rounds run under the tracer (`tracing.py`) and even
rounds without it; it prints the per-layer metrics, each the median over
traced rounds of a per-round total, plus `trace.overhead_s`, the traced
minus the untraced median round time. Every round's bytes must match, so
tracing is checked to leave checkpoints and reports unchanged.

Machine facts, quality extras and failures go to a result file under
`.bench_out/`; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_ROUNDS = 3
RSS_POLL_S = 0.05
# On 2 shared CPUs a second OpenBLAS thread mostly spins: it doubles the CPU
# a wide round burns for a 3% gain and makes round times follow the host's
# other load, and desk-sweep's two processes would run four BLAS threads.
# Every process the benchmark starts inherits this setting.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}


@dataclass
class OpResult:
    op: object
    seconds: float = 0.0
    error: str | None = None


@dataclass
class Round:
    traced: bool
    results: list[OpResult]

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(loadavg, workload) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_per_process": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in thread_env if k in os.environ},
        "ltsrepr_threads": workload.env.get("LTSREPR_THREADS", os.environ.get("LTSREPR_THREADS")),
        "loadavg_at_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class ChildPeakRss:
    """Polls the peak RSS (VmHWM) of this process's live children and keeps
    the largest sum seen at one poll, in KiB."""

    def __init__(self):
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _children(self) -> list[str]:
        pids = []
        for tid in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{tid}/children", encoding="utf-8") as f:
                    pids += f.read().split()
            except OSError:
                pass
        return pids

    def _hwm_kib(self, pid: str) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def _run(self):
        while not self._stop.wait(RSS_POLL_S):
            total = sum(self._hwm_kib(p) for p in self._children())
            self.peak_kib = max(self.peak_kib, total)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def measure_setup(workload, root: Path) -> list[float]:
    """Seconds from launching a fresh interpreter to its datasets being ready."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = root / f"probe{i}"
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(workload.seed), str(probe_dir)]
        t0 = perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times


def _call_cli(cli, argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue().strip()


def run_round(workload, root: Path, index: int, tracer) -> Round:
    import ltsrepr.cli as cli

    round_dir = root / f"round{index}"
    chains = workload.chains(str(root), str(round_dir))
    results = []
    saved_env = {k: os.environ.get(k) for k in workload.env}
    os.environ.update(workload.env)
    if tracer is not None:
        tracer.install()
    try:
        for chain_index, chain in enumerate(chains):
            failed = None
            for op in chain:
                res = OpResult(op)
                results.append(res)
                if failed is not None:
                    res.error = f"skipped: {failed}"
                    continue
                span = nullcontext()
                if tracer is not None:
                    tracer.run_id = f"{index}:{chain_index}"
                    span = tracer.span(f"cli.{op.command}")
                t0 = perf_counter()
                with span:
                    code, err = _call_cli(cli, op.argv)
                res.seconds = perf_counter() - t0
                if code != 0:
                    res.error = f"{op.command} exited {code}: {err}"
                    failed = res.error
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.collect_workers()
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return Round(tracer is not None, results)


def check_round(rnd: Round, round_dir: Path, reference: dict) -> None:
    """Check every artifact; a call whose bytes differ from an earlier round
    (or an earlier run of this build) fails."""
    from checks import check_artifact

    for res in rnd.results:
        if res.error is not None:
            continue
        try:
            for path in res.op.artifacts:
                key = os.path.relpath(path, round_dir)
                digest = check_artifact(path)
                if reference.setdefault(key, digest) != digest:
                    raise ValueError(f"{key}: bytes differ from an earlier run with this seed")
        except ValueError as exc:
            res.error = f"{res.op.command} output check: {exc}"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def throughput(rounds, stage: str):
    """Median over the calls that feed `stage` of examples per second."""
    rates = [
        r.op.work[stage] / r.seconds
        for rnd in rounds
        for r in rnd.results
        if stage in r.op.work and r.error is None
    ]
    return statistics.median(rates) if rates else None


def layer_metrics(spans, selves, workers: int) -> dict[str, float]:
    """Per-layer totals for each traced round, then the median over rounds."""
    from tracing import SWEEP_TASK

    per_round = defaultdict(lambda: defaultdict(float))
    sweeps = {}
    tasks = defaultdict(list)
    for s in spans:
        sid, _, name, start, end, run_id, count = s
        rnd = run_id.split(":")[0]
        m = per_round[rnd]
        m[f"{name}.calls"] += 1
        m[f"{name}.s"] += selves[sid]
        if name == "swag.sample_theta":
            m["swag.normals_drawn"] += count
        elif name == "checkpoint.save_checkpoint":
            m["checkpoint.bytes_written"] += count
        elif name == "pipeline.run_sweep":
            sweeps[rnd] = (start, end)
        elif name == SWEEP_TASK:
            tasks[rnd].append((start, end))
    for rnd, (start, end) in sweeps.items():
        busy = sum(b - a for a, b in tasks[rnd])
        m = per_round[rnd]
        m["pipeline.run_sweep.worker_busy_s"] = busy
        m["pipeline.run_sweep.queue_wait_s"] = sum(a - start for a, _ in tasks[rnd])
        m["pipeline.run_sweep.idle_share"] = 1.0 - busy / (workers * (end - start))
    names = {k for m in per_round.values() for k in m}
    out = {k: statistics.median(m.get(k, 0.0) for m in per_round.values()) for k in names}
    return {k: int(v) if float(v).is_integer() else v for k, v in out.items()}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before anything imports numpy
    if not (SRC / "ltsrepr" / "cli.py").is_file():
        print(f"error: no ltsrepr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ltsrepr.cli

    if not Path(ltsrepr.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ltsrepr from {ltsrepr.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace)
    wl = workloads.make(args.workload, args.seed)
    tag = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    root = OUT / tag
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    facts = machine_facts(loadavg, wl)

    setup_times = measure_setup(wl, root) if not args.trace else []
    wl.prepare(str(root))

    digest_file = OUT / "digests.json"
    build = checks.source_digest(str(SRC))
    stored = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    prefix = f"{wl.name}/seed{wl.seed}/"
    reference = {k[len(prefix) :]: v for k, v in stored.get(build, {}).items() if k.startswith(prefix)}

    tracer = None
    if args.trace:
        from tracing import Tracer

        spool = root / "spool"
        spool.mkdir()
        tracer = Tracer(str(spool))

    rounds: list[Round] = []
    quality = None
    rss = ChildPeakRss() if wl.uses_pool and not args.trace else nullcontext()
    start = perf_counter()
    with rss:
        while True:
            index = len(rounds)
            traced = tracer is not None and index % 2 == 1
            rnd = run_round(wl, root, index, tracer if traced else None)
            round_dir = root / f"round{index}"
            check_round(rnd, round_dir, reference)
            rounds.append(rnd)
            if quality is None and all(r.error is None for r in rnd.results):
                quality = wl.quality(str(round_dir))
            if index > 0:
                shutil.rmtree(root / f"round{index - 1}", ignore_errors=True)
            elapsed = perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > args.seconds:
                break

    results = [r for rnd in rounds for r in rnd.results]
    attempted = len(results)
    failures = [r.error for r in results if r.error is not None]
    if not failures:
        stored[build] = {**stored.get(build, {}), **{prefix + k: v for k, v in reference.items()}}
        digest_file.write_text(json.dumps(stored, indent=1, sort_keys=True))

    extra: dict = {}
    if args.trace:
        from tracing import largest_self_descendant, self_times

        selves = self_times(tracer.spans)
        # A layer the workload never enters reads 0 calls and 0 s.
        values = {m["name"]: 0 for m in declared}
        values.update(layer_metrics(tracer.spans, selves, int(wl.env.get("LTSREPR_THREADS", "1"))))
        traced = [r.wall for r in rounds if r.traced]
        untraced = [r.wall for r in rounds if not r.traced]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        extra["largest_self_time_below"] = {
            a: largest_self_descendant(tracer.spans, selves, a)
            for a in ("retrain.srepr_retrain", "pipeline.run_pretrain")
        }
        # One spans file per workload: the latest traced run's.
        spans_path = OUT / f"spans-{wl.name}.jsonl"
        tracer.write(str(spans_path))
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if wl.uses_pool:
            peak_kib += rss.peak_kib
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall for r in rounds),
            "pretrain_ex_per_s": throughput(rounds, "pretrain"),
            "retrain_ex_per_s": throughput(rounds, "retrain"),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_ratio": 1.0 - len(failures) / attempted,
        }
        values.update(quality or {})
        extra["setup_probe_s"] = setup_times
    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if v is not None:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = not failures and len(metrics) == len(declared)

    report = {
        "workload": wl.name,
        "seed": wl.seed,
        "program_seeds": wl.program_seeds,
        "trace": args.trace,
        "machine": facts,
        "rounds": [{"wall_s": r.wall, "traced": r.traced} for r in rounds],
        "quality": quality,
        "failures": failures[:20],
        "metrics": metrics,
        **extra,
    }
    result_path = OUT / f"result-{tag}.json"
    result_path.write_text(json.dumps(report, indent=1))
    shutil.rmtree(root, ignore_errors=True)
    print(f"machine: {json.dumps(facts)}")
    print(f"report: {result_path.relative_to(ROOT)}")
    for msg in failures[:5]:
        print(f"failure: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
