"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps library functions from outside the library: each target
function is replaced by a timing wrapper at every place it is bound, since
`retrain` and `metrics` import `features`, `sample_theta` and
`sgd_update_arrays` by name and patching only the defining module would miss
those calls. A wrapper only reads its arguments and the clock, so it never
touches an RNG stream or a written byte.

A span is the tuple (id, parent, name, start, end, run_id, count). Ids are
unique across processes (pid in the high bits) so spans recorded in forked
pool workers keep pointing at the parent-process span that was open when the
worker was forked. Forked workers exit without running `atexit`, so a worker
appends its spans to a file at the end of every pool task; the parent merges
those files after the round.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _theta_dim(args, kwargs):
    posterior = args[0] if args else kwargs["posterior"]
    return int(posterior.theta_dim)


def _file_size(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# A pool task in a sweep; forked workers flush their spans when one ends.
SWEEP_TASK = "pipeline.sweep_task"

# (module, function, span name, count taken after the call)
TARGETS = (
    ("netcore", "backward", "netcore.backward", None),
    ("netcore", "sgd_update_arrays", "netcore.sgd_update_arrays", None),
    ("netcore", "features", "netcore.features", None),
    ("swag", "sample_theta", "swag.sample_theta", _theta_dim),
    ("swag", "update_moments", "swag.update_moments", None),
    ("retrain", "crt", "retrain.crt", None),
    ("retrain", "lws", "retrain.lws", None),
    ("retrain", "disalign", "retrain.disalign", None),
    ("retrain", "srepr_retrain", "retrain.srepr_retrain", None),
    ("retrain", "stochastic_representations", "retrain.stochastic_representations", None),
    ("retrain", "mean_ce_loss_and_grad", "retrain.mean_ce_loss_and_grad", None),
    ("retrain", "teacher_probs", "retrain.teacher_probs", None),
    ("retrain", "estimate_beta", "retrain.estimate_beta", None),
    ("retrain", "kd_loss_and_alpha_grad", "retrain.kd_loss_and_alpha_grad", None),
    ("balancing", "balanced_ce_loss_and_grad", "balancing.balanced_ce_loss_and_grad", None),
    ("data", "make_longtail_dataset", "data.make_longtail_dataset", None),
    ("data", "instance_balanced_indices", "data.sampler", None),
    ("data", "class_balanced_indices", "data.sampler", None),
    ("data", "save_dataset_pair", "data.cache_io", None),
    ("data", "load_dataset_pair", "data.cache_io", None),
    ("metrics", "ensemble_predict", "metrics.ensemble_predict", None),
    ("metrics", "dispersion_repr", "metrics.dispersion_repr", None),
    ("metrics", "dispersion_prob", "metrics.dispersion_prob", None),
    ("metrics", "evaluate_probs", "metrics.evaluate_probs", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_size),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("pipeline", "build_datasets", "pipeline.build_datasets", None),
    ("pipeline", "run_pretrain", "pipeline.run_pretrain", None),
    ("pipeline", "run_retrain", "pipeline.run_retrain", None),
    ("pipeline", "run_eval", "pipeline.run_eval", None),
    ("pipeline", "run_analyze", "pipeline.run_analyze", None),
    ("pipeline", "run_sweep", "pipeline.run_sweep", None),
    ("pipeline", "_sweep_worker", SWEEP_TASK, None),
)


class Tracer:
    """Records spans in memory while installed; one tracer per process."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run_id = ""
        self._id_base = os.getpid() << 32
        self._next = 0
        self._in_worker = False
        self._patched: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Keep the open-span stack so worker spans point at their parent.
        self.spans = []
        self._id_base = os.getpid() << 32
        self._next = 0
        self._in_worker = True

    def _begin(self):
        sid = self._id_base + self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, perf_counter()

    def _end(self, name, sid, parent, start, count=0):
        end = perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, self.run_id, count))

    @contextmanager
    def span(self, name: str):
        """A span around code in the benchmark's own files."""
        sid, parent, start = self._begin()
        try:
            yield
        finally:
            self._end(name, sid, parent, start)

    def _wrap(self, fn, name, count):
        tracer = self
        flush = name == SWEEP_TASK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._begin()
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs)
                return result
            finally:
                tracer._end(name, sid, parent, start, n)
                if flush and tracer._in_worker:
                    tracer._flush_worker()

        return wrapper

    def _flush_worker(self) -> None:
        self.write(os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl"), "a")
        self.spans = []

    def install(self) -> None:
        """Replace every binding of each target inside the `ltsrepr` package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "ltsrepr" or n.startswith("ltsrepr.")]
        for mod_name, fn_name, span_name, count in TARGETS:
            original = getattr(sys.modules[f"ltsrepr.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def collect_workers(self) -> None:
        """Merge the span files that pool workers wrote, then delete them."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as f:
                self.spans.extend(tuple(json.loads(line)) for line in f)
            os.remove(path)

    def write(self, path: str, mode: str = "w") -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, mode, encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover.

    Children of one span can overlap when they ran in parallel pool
    workers, so the covered time is the union of their intervals.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, _, start, end, _, _ in spans
    }


def largest_self_descendant(spans, selves, ancestor: str):
    """(name, seconds) of the span name with the most self time below every
    span called `ancestor`, summed over all such spans."""
    by_id = {s[0]: s for s in spans}
    totals = defaultdict(float)
    for s in spans:
        parent = s[1]
        while parent is not None and parent in by_id:
            if by_id[parent][2] == ancestor:
                totals[s[2]] += selves[s[0]]
                break
            parent = by_id[parent][1]
    if not totals:
        return None
    name = max(totals, key=totals.get)
    return name, totals[name]
