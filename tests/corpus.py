"""The seeded mutation corpus of CLI payloads.

Each payload of ``perfbench/problems`` (26 files, 8 commands) is copied 800
times, and each copy gets one or two random edits: a value replaced by one
of another JSON type or by any value, a key or item deleted, or one added.
The corpus holds valid and invalid payloads alike; it is the same on every
run.  Uses the standard library only.
"""

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "perfbench" / "problems"
MUTATIONS_PER_FILE = 800
SEED = 20261018

# replacement values: every JSON type, with the traps among them
# (true against 1, 1.0 against 1, minimum edges, strings the patterns and
# consts are near to)
SCALARS = [None, True, False, 0, 1, -1, 2, 1.0, 1.5, -0.5, 10**20, "", "x",
           "1", "-3", "1/2", "1/x", "inf", "puiseux", "padic", "disc",
           "chain", "json", "dot", "kummer", "constant", "explicit", "t^1/2"]
LISTS = [[], [0], [1, 2], [1, 2, "3"], [True, 1, "1"], [None], [{}],
         [{"q": "1"}], [[0, 1, "1"]]]
OBJECTS = [{}, {"q": "1"}, {"q": "1", "e": "1"}, {"backend": "puiseux"},
           {"backend": "padic", "p": 3, "value": "1"},
           {"kind": "disc", "center": 0, "s": "inf"}, {"center": 0, "s": 1},
           {"num": {"center": 0, "coeffs": [1]},
            "den": {"center": 0, "coeffs": [1]}}, {"zz": 1}]
NEW_KEYS = ["zz", "q", "e", "p", "kind", "backend", "terms", "prec", "center",
            "coeffs", "s", "lo", "hi", "point", "domain", "g", "section",
            "root", "format", "N", "n"]


def _clone(value):
    return json.loads(json.dumps(value))


def _json_type(x):
    if isinstance(x, bool):
        return "boolean"
    if isinstance(x, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array",
            dict: "object"}[type(x)]


def _containers(value, out):
    """Every list and dict inside value, value included."""
    if isinstance(value, (list, dict)):
        out.append(value)
        for child in (value.values() if isinstance(value, dict) else value):
            _containers(child, out)
    return out


def _mutate(rng, payload):
    """One random edit in place: replace, delete or add a key or item."""
    parent = rng.choice(_containers(payload, []))
    keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
    op = rng.choice(["replace", "replace", "other", "delete", "add"])
    if op in ("replace", "other") and keys:
        key = rng.choice(keys)
        old = parent[key]
        pool = rng.choice([SCALARS, SCALARS, LISTS, OBJECTS])
        if op == "replace":
            # a value of another JSON type
            pool = [v for v in pool if _json_type(v) != _json_type(old)] or SCALARS
        parent[key] = _clone(rng.choice(pool))
    elif op == "delete" and keys:
        del parent[rng.choice(keys)]
    elif isinstance(parent, dict):
        parent[rng.choice(NEW_KEYS)] = _clone(
            rng.choice(SCALARS + LISTS + OBJECTS))
    else:
        extra = rng.choice(parent) if parent and rng.random() < 0.5 \
            else rng.choice(SCALARS + LISTS + OBJECTS)
        parent.insert(rng.randint(0, len(parent)), _clone(extra))


def problem_payloads():
    out = []
    for path in sorted(PROBLEMS.glob("*__*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        out.append((path.stem.split("__")[0], doc.get("payload", {})))
    return out


def corpus():
    """(command, payload) for each of the 800 mutants of each problem
    file's payload, in a fixed order."""
    rng = random.Random(SEED)
    for command, payload in problem_payloads():
        for _ in range(MUTATIONS_PER_FILE):
            mutated = _clone(payload)
            for _ in range(rng.choice([1, 2])):
                _mutate(rng, mutated)
            yield command, mutated
