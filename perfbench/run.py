"""The berkline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --budgets

Each run builds nothing: it imports berkline from src/ of the checkout it
sits in, and fails (exit 1, no result) when that is missing.  One process,
one client, closed loop, no threads: an operation starts when the previous
one has been answered and checked.  Inputs come from --seed alone; the
library only sees the generated inputs.

--trace 0 prints the end-to-end metrics: ops_per_s (correct operations per
second of operation time), op_p50_ms, op_tail_ms (the highest percentile
with at least 10 samples beyond it in every run of the workload; the record
line names it and the count), correct_share (correct operations over
attempted ones, that is 1 - failed_share; a metric that is 0 on a healthy
run cannot carry a relative bound), setup_s (the median of five set-ups,
each a child process importing berkline, input generation and warm-up
operations) and peak_rss_mb (of the CLI child processes for cli_problems,
else of this process).  Times are scaled to a nominal machine speed, see
REFERENCE_NOMINAL_S.

--trace 1 runs the workload untraced for half the time, replays the same
inputs traced, then times the convolution kernel, and prints the per-layer
metrics.  Counts and times are per operation of the traced replay; the
traced and untraced ops_per_s side by side give the tracing overhead.  For
cli_problems both halves call cli.main in-process, and cli.import_ms comes
from child processes that only import.

--budgets runs the acceptance criteria that carry a time budget, once, and
prints each one's wall time and headroom.  It is informational and outside
every timed workload.

The line before the last is a record with the environment (Python, kernel
backend, BERKLINE_PURE, jsonschema, nproc, seed) and the report;
perfbench/compare.py compares two saved outputs.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "correct_share": "share", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5
SETUP_REFERENCE_SAMPLES = 15
OP_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)
TAIL_MIN_BEYOND = 10
# acceptance criteria with a stated time budget, in seconds
BUDGETS = {1: 5, 2: 30, 6: 10, 9: 5}

perf = time.perf_counter

# This benchmark's machines drift in speed by 20% and more over seconds to
# minutes, far beyond the differences it must detect.  So the timed loop runs
# a fixed reference task (benchmark code, no library call) after every
# REFERENCE_EVERY_S of operation time, and each operation's time is scaled by
# REFERENCE_NOMINAL_S over the median of the reference times around it:
# times read as on a machine where the reference task takes 1 ms.  Unscaled
# figures are in the record line.
REFERENCE_EVERY_S = 0.02
REFERENCE_NOMINAL_S = 0.001


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds}s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def child_import_s(module):
    """Import time of `module` in a fresh interpreter, as the child sees it."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    from workloads import cli_env
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=cli_env(), timeout=OP_TIMEOUT_S, check=True)
    return float(out.stdout)


def reference_task():
    """Fixed pure-Python work shaped like the library's (exact rationals,
    small tuples, dict churn) that calls no library code; about 1 ms."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf()
        acc = Fraction(0)
        table = {}
        for k in range(1, 200):
            acc += Fraction(k, k + 1) * Fraction(3, k + 2)
            table[k % 37] = (acc.numerator % 1009, k)
        return perf() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_scale(samples):
    """Factor that turns a time measured while the reference task took
    `samples` into a time on the nominal machine."""
    return REFERENCE_NOMINAL_S / statistics.median(samples)


class Loop:
    """Closed-loop measurement of one operation over a pool of inputs."""

    def __init__(self):
        self.durations = []     # seconds per operation, failed ones too
        self.good = []
        self.errors = []
        self.answers = []       # a short hash of each answer, in order
        self.reference = []     # reference task times, see REFERENCE_EVERY_S
        self.ref_after = []     # per operation: the next reference sample

    @property
    def ok(self):
        return sum(self.good)

    @property
    def failed(self):
        return len(self.good) - self.ok

    @property
    def attempted(self):
        return len(self.good)

    def run(self, w, pool, seconds, call, count=None):
        """Operate until `seconds` have passed, at least `w.min_ops`
        operations are done and a whole cycle of input structure is done, so
        every run measures the same mix; or, given a count, answer exactly
        the first `count` inputs."""
        begin = perf()
        i = 0
        since_ref = 0.0
        while (i < count) if count is not None else \
                (perf() - begin < seconds or i % w.cycle or i < w.min_ops):
            self.step(w, pool[i % len(pool)], call)
            i += 1
            since_ref += self.durations[-1]
            if since_ref >= REFERENCE_EVERY_S:
                since_ref = 0.0
                self.reference.append(reference_task())
        if since_ref:
            self.reference.append(reference_task())
        return self

    def step(self, w, item, call):
        t0 = perf()
        try:
            with deadline(OP_TIMEOUT_S):
                answer = call(item)
            dt = perf() - t0
            good = w.check(item, answer)
            text = w.answer_text(answer)
        except Exception as exc:  # a crash or a timeout fails the operation
            dt = perf() - t0
            good = False
            text = f"{type(exc).__name__}: {exc}"
            if len(self.errors) < 5:
                self.errors.append(text)
        self.answers.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        self.durations.append(dt)
        self.good.append(good)
        self.ref_after.append(len(self.reference))

    def scales(self):
        """Per operation, the reference scale of the samples around it."""
        last = len(self.reference) - 1
        return [reference_scale(self.reference[max(0, j - 2):min(j, last) + 3])
                for j in self.ref_after]

    def rate(self, scales=None):
        """Correct operations per second of (scaled) operation time."""
        busy = sum(d * k for d, k in zip(self.durations, scales)) \
            if scales else sum(self.durations)
        return self.ok / busy if busy else 0.0

    def latencies(self, scales=None):
        """(Scaled) seconds per operation; math.inf for a failed one."""
        scales = scales or [1.0] * self.attempted
        return [d * k if g else math.inf
                for d, k, g in zip(self.durations, scales, self.good)]

    def digest(self, n=None):
        return hashlib.sha256("".join(self.answers[:n]).encode()).hexdigest()


def percentile(sorted_xs, p):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    k = max(1, math.ceil(p / 100 * len(sorted_xs)))
    return sorted_xs[k - 1], len(sorted_xs) - k


def tail_percentile(min_ops):
    """The highest percentile with at least 10 samples beyond it in every
    run; fixed per workload so that it does not jump between runs."""
    return next((p for p in TAIL_LADDER
                 if min_ops * (100 - p) / 100 >= TAIL_MIN_BEYOND), 50)


def set_up(w, seed):
    """Import in a child, generate the inputs, warm up; returns the pool."""
    child_import_s(w.import_module)
    pool = w.generate(seed)
    warm = Loop()
    for item in w.warmup_items(pool):
        warm.step(w, item, w.call)
    return pool


def pin_to_one_cpu():
    """Keep this process and the CLI children it starts on one CPU, so the
    reference task runs where the measured work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def freeze_inputs():
    """Move the generated inputs out of the garbage collector's view, so
    that the pool size (a benchmark parameter) does not bill the library."""
    gc.collect()
    gc.freeze()


def environment(args):
    import berkline
    return {
        "python": platform.python_version(),
        "kernel_backend": berkline.KERNEL_BACKEND,
        "BERKLINE_PURE": os.environ.get("BERKLINE_PURE", ""),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(w, args):
    setups = []
    for _ in range(SETUP_REPEATS):
        before = [reference_task() for _ in range(SETUP_REFERENCE_SAMPLES)]
        t0 = perf()
        pool = set_up(w, args.seed)
        took = perf() - t0
        after = [reference_task() for _ in range(SETUP_REFERENCE_SAMPLES)]
        setups.append(took * reference_scale(before + after))
    freeze_inputs()
    loop = Loop().run(w, pool, args.seconds, w.call)
    who = resource.RUSAGE_CHILDREN if w.name == "cli_problems" \
        else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    scales = loop.scales()
    latencies = loop.latencies(scales)
    p = tail_percentile(w.min_ops)
    tail_s, beyond = percentile(sorted(latencies), p)
    values = {
        "ops_per_s": loop.rate(scales),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "correct_share": loop.ok / loop.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    report = {
        "op_tail": f"p{p} of {loop.attempted} operations, {beyond} beyond it",
        "failed_share": loop.failed / loop.attempted,
        "machine_scale_median": statistics.median(scales),
        "unscaled": {"ops_per_s": loop.rate(),
                     "op_p50_ms": statistics.median(loop.latencies()) * 1e3},
        "setup_runs_s": setups,
        "answer_digest": loop.digest(),
        "errors": loop.errors,
    }
    return loop.attempted, loop.failed, metrics, report


def measure_traced(w, args):
    import tracing

    pool = set_up(w, args.seed)
    freeze_inputs()
    half = args.seconds / 2
    plain = Loop().run(w, pool, half, w.traced_call)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        # the same inputs again, so the two rates compare like with like
        traced = Loop().run(w, pool, None, w.traced_call, plain.attempted)
    finally:
        patches.restore()
    same = plain.digest() == traced.digest()
    import_ms = 0.0
    if w.name == "cli_problems":
        import_ms = statistics.median(
            child_import_s("berkline.cli") for _ in range(SETUP_REPEATS)) * 1e3
    kernel = kernel_layer()
    metrics = tracing.layer_metrics(
        tracer, traced.attempted, plain.rate(plain.scales()),
        traced.rate(traced.scales()), kernel, import_ms)
    spans_file = write_spans(tracer, args)
    report = {
        "traced_answers_match_untraced": same,
        "untraced_ops": plain.attempted,
        "traced_ops": traced.attempted,
        "spans_kept": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "kernel_backends": kernel["backends"],
        "errors": plain.errors + traced.errors,
    }
    return (plain.attempted + traced.attempted,
            plain.failed + traced.failed + (not same), metrics, report)


def write_spans(tracer, args):
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    return path


# --------------------------------------------------------------------------
# the kernel layer: the two measurements of benchmarks/bench_kernel.py

def _kernel_inputs():
    from berkline import Polynomial, PuiseuxField

    rng = random.Random(0)
    fld = PuiseuxField(3)

    def poly(deg):
        return Polynomial.from_coeffs(fld, [
            fld.elem([(Fraction(rng.randint(0, 8), rng.choice([1, 2])),
                       rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
            for _ in range(deg + 1)])

    def encode(f):
        counts, exps, cofs = [], [], []
        for c in f.coeffs:
            counts.append(len(c.terms))
            for e, coef in c.terms:
                exps.append(int(e * 2))
                cofs.append(coef)
        return counts, exps, cofs

    pairs = [(encode(poly(8)), encode(poly(8))) for _ in range(1000)]
    return pairs, encode(poly(6))


def kernel_layer():
    """1000 degree-8 F_3 products and a degree-6 tower to height 96, each
    calling the kernel directly; both backends when the extension imports."""
    from berkline import _purekernel, kernel

    pairs, tower = _kernel_inputs()
    impls = {kernel.BACKEND: kernel.poly_mul_modp}
    if kernel.BACKEND != "pure":
        impls["pure"] = _purekernel.poly_mul_modp
    out = {"backends": {}}
    for name, mul in impls.items():
        t0 = perf()
        for a, b in pairs:
            mul(*a, *b, 3)
        pairs_s = perf() - t0
        t0 = perf()
        g = tower
        for _ in range(96):
            g = mul(*g, *tower, 3)
        out["backends"][name] = {"pairs_s": pairs_s, "tower_s": perf() - t0}
    out.update(out["backends"][kernel.BACKEND])
    return out


# --------------------------------------------------------------------------

def budgets():
    """Run the budgeted acceptance criteria once; print wall time and headroom."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance as acc

    rows = {}
    for num, budget in BUDGETS.items():
        fn = next(getattr(acc, n) for n in dir(acc)
                  if n.startswith(f"test_criterion_{num}_"))
        t0 = perf()
        with contextlib.redirect_stdout(sys.stderr):
            try:
                fn()
                status = "pass"
            except AssertionError as exc:
                status = f"fail: {exc}"
        wall = perf() - t0
        rows[f"criterion_{num}"] = {
            "wall_s": wall, "budget_s": budget,
            "headroom": 1 - wall / budget, "status": status}
        print(f"criterion {num}: {wall:.2f}s of {budget}s "
              f"({100 * (1 - wall / budget):.0f}% headroom) {status}")
    print(json.dumps({"budgets": rows}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budgets", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "berkline" / "__init__.py").is_file():
        print(f"error: no berkline sources under {SRC}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.budgets:
        return budgets()

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]()
    pin_to_one_cpu()
    run = measure_traced if args.trace else measure
    attempted, failed, metrics, report = run(w, args)
    record = {"env": environment(args), "report": report,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
