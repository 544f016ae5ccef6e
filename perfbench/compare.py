"""Compare two saved outputs of perfbench/run.py, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one run.  Results are comparable only
when they measure the same workload, mode and run length with the same kernel
backend; otherwise the script refuses (exit 2) and says why.
"""

import json
import sys

MUST_MATCH = ("kernel_backend", "workload", "trace", "seconds")


def record(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith('{"record"'):
                return json.loads(line)["record"]
    raise SystemExit(f"{path}: no record line; is it the output of run.py?")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = record(argv[0]), record(argv[1])
    for key in MUST_MATCH:
        if base["env"][key] != new["env"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({base['env'][key]!r} vs {new['env'][key]!r})",
                  file=sys.stderr)
            return 2
    print(f"{'metric':40s} {'base':>14s} {'new':>14s} {'change':>8s}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        change = f"{100 * (n - b) / b:+.1f}%" if b else "-"
        print(f"{name:40s} {b:14.6g} {n:14.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
