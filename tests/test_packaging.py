"""The source distribution carries every module and the schema document,
and the package runs from a zip archive."""

import os
import shutil
import subprocess
import sys
import tarfile
import zipfile
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


def test_cli_runs_from_a_zip_archive(tmp_path):
    """The schema is read through the module's loader, so a zip import
    validates and answers as the source tree does."""
    archive = tmp_path / "berkline.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for path in sorted((ROOT / "src" / "berkline").rglob("*")):
            if path.suffix in (".py", ".json"):
                z.write(path, path.relative_to(ROOT / "src").as_posix())
    problem = ROOT / "perfbench" / "problems" / "np__count_f3.json"
    code = ("import sys\n"
            "from berkline import cli\n"
            "print(type(cli.__spec__.loader).__name__, flush=True)\n"
            f"sys.exit(cli.main(['np', '--problem', {str(problem)!r}]))\n")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(where)})
            for where in (archive, ROOT / "src")]
    (zipped, loader), (plain, _) = [(run, run.stdout.split("\n", 1)[0]) for run in runs]
    assert loader == "zipimporter"
    assert zipped.returncode == plain.returncode == 0
    assert zipped.stdout.split("\n", 1)[1] == plain.stdout.split("\n", 1)[1]
    assert zipped.stderr == plain.stderr == ""
