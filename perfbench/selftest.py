"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares exactly the metrics the runs print;
on every workload, that one seed always generates identical inputs
(and another seed different ones) and that the traced operation returns the
same answers as the untraced one; and that a corrupted golden or expected
value counts as a failed operation.  Exits 1 if any check fails.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
from run import END_TO_END, Loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def same_seed_same_inputs(w):
    def inputs(seed):
        return [w.describe(x) for x in w.generate(seed)[:w.cycle]]

    first = inputs(7)
    return first == inputs(7) and first != inputs(8)


def traced_matches_untraced(w):
    pool = w.generate(7)[:w.cycle]
    plain = Loop().run(w, pool, None, w.call, len(pool))
    patches = tracing.install(tracing.Tracer())
    try:
        traced = Loop().run(w, pool, None, w.traced_call, len(pool))
    finally:
        patches.restore()
    return plain.failed == 0 and plain.digest() == traced.digest()


def corrupted_golden_fails():
    w = WORKLOADS["cli_problems"]()
    item = w.files[0]
    w.golden = copy.deepcopy(w.golden)
    w.golden[item.stem]["stdout"] += " "
    loop = Loop().run(w, [item], None, w.call, 1)
    return loop.failed == 1 and loop.ok == 0


def corrupted_expectation_fails():
    w = WORKLOADS["sparse_splitting"]()
    item = dict(w.generate(7)[0])
    item["delta"] = 1 - item["delta"]
    loop = Loop().run(w, [item], None, w.call, 1)
    return loop.failed == 1 and loop.ok == 0


def declared_metrics_match():
    """BENCHMARK.json names exactly the metrics the runs print."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)

    def units(key):
        return {m["name"]: m["unit"] for m in doc[key]}

    return (units("end_to_end") == END_TO_END
            and units("per_layer") == tracing.LAYERS
            and {w["name"] for w in doc["workloads"]} == set(WORKLOADS))


def main():
    checks = [("BENCHMARK.json declares the metrics printed",
               declared_metrics_match())]
    for name, cls in WORKLOADS.items():
        w = cls()
        checks.append((f"{name}: one seed, identical inputs",
                       same_seed_same_inputs(w)))
        checks.append((f"{name}: traced answers equal untraced",
                       traced_matches_untraced(w)))
    checks.append(("a corrupted CLI golden counts as failed",
                   corrupted_golden_fails()))
    checks.append(("a corrupted expected mass counts as failed",
                   corrupted_expectation_fails()))
    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
