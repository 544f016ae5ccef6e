"""The source distribution carries every module and the schema document."""

import shutil
import tarfile
from pathlib import Path

from setuptools import build_meta

ROOT = Path(__file__).resolve().parent.parent


def test_sdist_contents(tmp_path, monkeypatch):
    src = tmp_path / "src"
    for name in ("pyproject.toml", "MANIFEST.in", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    monkeypatch.chdir(tmp_path)
    archive = build_meta.build_sdist(str(tmp_path / "dist"))
    with tarfile.open(tmp_path / "dist" / archive) as tar:
        names = {name.split("/", 1)[1] for name in tar.getnames() if "/" in name}

    modules = {p.relative_to(tmp_path).as_posix()
               for p in (src / "berkline").glob("*.py")}
    included = {line.split(None, 1)[1]
                for line in (ROOT / "MANIFEST.in").read_text().splitlines()
                if line.startswith("include ")}
    assert "src/berkline/cli.py" in modules
    assert modules | included | {"src/berkline/schemas/berkline.schema.json"} <= names
    assert not [name for name in names if name.endswith(".pyx")]
