"""The benchmark's CLI problem files give their recorded answers.

Each ``perfbench/problems/<command>__<name>.json`` runs through
``berkline.cli.main`` in process, as ``<command> --problem <file>``; its exit
code and stdout must equal the entry for ``<command>__<name>`` in
``perfbench/problems/golden.json``, byte for byte.
"""

import json
from pathlib import Path

import pytest

from berkline.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"
GOLDEN = json.loads((PROBLEMS / "golden.json").read_text())
FILES = sorted(p for p in PROBLEMS.glob("*.json") if p.name != "golden.json")


def test_every_problem_has_a_golden():
    assert len(FILES) == 27
    assert sorted(p.stem for p in FILES) == sorted(GOLDEN)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_answer_matches_golden(path, capsys):
    command = path.stem.split("__")[0]
    code = main([command, "--problem", str(path)])
    want = GOLDEN[path.stem]
    assert (code, capsys.readouterr().out) == (want["exit"], want["stdout"])
