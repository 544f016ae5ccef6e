"""Record the CLI goldens: exit code and stdout of every problem file.

Run from the repository root, only at a commit whose answers have been
checked by hand, and review the diff of problems/golden.json before
committing it:

    python3 perfbench/make_goldens.py

A golden must never record an open defect (for example a composite
characteristic accepted with exit 0); leave such an input out instead.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import GOLDEN, cli_env, problem_files, run_cli_subprocess  # noqa: E402


def main():
    env = cli_env()
    golden = {}
    for path in problem_files():
        code, out = run_cli_subprocess(path, env)
        golden[path.stem] = {"exit": code, "stdout": out}
        print(f"{path.stem}: exit {code}")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
