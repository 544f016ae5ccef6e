"""Start-up loads only what a call runs.

``import berkline`` resolves its public names on first use, and each CLI
command imports its compute modules when it runs.  Each check that depends
on what is already imported runs in a fresh interpreter, as
``test_schema_acceptor._fresh_main`` does.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import berkline

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "perfbench" / "problems"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# the modules that compute, as opposed to parse, validate and emit
COMPUTE = {"gauss", "points", "units", "cancel", "sheaf", "snf", "skeleton"}

# the public names of the package, by defining module
PUBLIC = {
    "cancel": ["AnnulusSpec", "Divisor", "SectionComponent", "SectionData",
               "UNIT_ANNULUS", "splitting_delta", "y1_divisor", "y2_divisor"],
    "field": ["INF", "PadicElem", "PadicField", "PuiseuxElem", "PuiseuxField",
              "valuation"],
    "gauss": ["NewtonPolygon", "gauss_valuation", "log2_naive_norm",
              "naive_norm", "newton_polygon", "root_count_annulus",
              "roots_in_disc", "spectral_limit", "spectral_profile",
              "sym_annulus_membership"],
    "kernel": ["KERNEL_BACKEND"],
    "logvalue": ["INFINITY", "ZERO", "LogValue", "as_logvalue"],
    "points": ["ChainPoint", "CoordVector", "DiscPoint", "PointClassification",
               "classify", "coords", "eval_point", "meet", "restrict_coords"],
    "poly": ["Polynomial", "RationalFunction", "rat_normalize"],
    "sheaf": ["CohomologyResult", "HostTree", "TreeSheaf", "cohomology",
              "constant_sheaf", "kummer_sheaf", "make_cellular_sheaf",
              "shriek_extend", "zero_sheaf"],
    "skeleton": ["Skeleton", "build_skeleton"],
    "units": ["Domain", "ExcludedDisc", "LeadingClass", "ReducedUnit",
              "UnitClass", "boundary_degrees", "char_poly_point",
              "direction_slopes", "exterior_degree", "homotopy_check",
              "leading_class", "reduced_unit", "unit_class"],
}
NAMES = {name for names in PUBLIC.values() for name in names}

# compute modules each command loads when it reaches dispatch
LOADED = {
    "eval": {"gauss", "points"},
    "classify": {"gauss", "points"},
    "np": {"gauss"},
    "balance": {"gauss", "points", "units"},
    "homotopy": {"gauss", "points", "units"},
    "cancel": {"gauss", "points", "units", "cancel"},
    "skeleton": {"gauss", "points", "skeleton", "sheaf", "snf"},
    "sheaf": {"gauss", "points", "skeleton", "sheaf", "snf"},
}


def _child(code, *flags):
    """Run code in a new interpreter, started with the given flags; its last
    stdout line, decoded."""
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, check=True,
                          env=CHILD_ENV)
    return json.loads(proc.stdout.splitlines()[-1])


# standard-library modules no accepted call loads: dataclasses and the
# inspect it imports, importlib.resources and the pathlib it imports
NOT_AT_STARTUP = ("dataclasses", "inspect", "importlib.resources", "pathlib")


def _fresh_main(argv, *flags):
    """cli.main(argv) in a new interpreter, started with the given flags:
    (exit code, the berkline modules loaded, the NOT_AT_STARTUP modules
    loaded).  The command's own output is captured and dropped."""
    code = ("import contextlib, io, json, sys\n"
            "from berkline import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "mods = [m.split('.', 1)[1] for m in sys.modules "
            "if m.startswith('berkline.')]\n"
            f"std = [m for m in {NOT_AT_STARTUP!r} if m in sys.modules]\n"
            "print(json.dumps([code, mods, std]))\n")
    exit_code, mods, std = _child(code, *flags)
    return exit_code, set(mods), std


def _problems():
    return sorted(p for p in PROBLEMS.glob("*.json") if p.name != "golden.json")


@pytest.mark.parametrize("path", _problems(), ids=lambda p: p.stem)
def test_command_loads_only_its_modules(path):
    command = path.stem.split("__")[0]
    code, loaded, _ = _fresh_main([command, "--problem", str(path)])
    if "__bad_" in path.stem:
        # rejected before dispatch: not even the decoders are loaded
        assert (code, loaded) == (2, {"cli", "errors"})
        return
    assert {"serialize", "field", "logvalue"} <= loaded
    loaded &= COMPUTE
    if path.stem == "sheaf__explicit":
        # an explicit sheaf builds no skeleton
        assert (code, loaded) == (0, {"sheaf", "snf"})
    else:
        assert code in (0, 3)
        assert loaded == LOADED[command]


@pytest.mark.parametrize("path", [p for p in _problems() if "__bad_" not in p.stem],
                         ids=lambda p: p.stem)
def test_accepted_call_loads_no_dataclasses_or_resources(path):
    """Run under ``python -S``, so that no .pth file imports any of these
    first.  Payloads rejected before dispatch are exempt: jsonschema, which
    words the rejection, imports dataclasses itself."""
    code, _, loaded = _fresh_main([path.stem.split("__")[0], "--problem", str(path)], "-S")
    assert code in (0, 3) and loaded == []


@pytest.mark.parametrize("argv", [
    ["np", "--poly", '{"center":0,"coeffs":[0,1'],
    ["eval", "--field", '{"backend":"lattice"}'],
    ["cancel", "--g", "t"],
], ids=["bad_json", "schema_error", "missing_N"])
def test_rejected_payload_loads_no_compute_module(argv):
    assert _fresh_main(argv)[:2] == (2, {"cli", "errors"})


def test_import_berkline_loads_no_compute_module():
    code = ("import json, sys\n"
            "import berkline\n"
            "before = sorted(m for m in sys.modules if m.startswith('berkline'))\n"
            "stored = 'Polynomial' in vars(berkline)\n"
            "berkline.Polynomial\n"
            "print(json.dumps([before, stored, 'Polynomial' in vars(berkline)]))\n")
    assert _child(code) == [["berkline"], False, True]


def test_public_names_are_the_defining_objects():
    assert len(NAMES) == 65
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"berkline.{module}")
        for name in names:
            attr = "BACKEND" if name == "KERNEL_BACKEND" else name
            assert getattr(berkline, name) is getattr(mod, attr), name


def test_dir_all_and_star_import_cover_every_name():
    assert set(berkline.__all__) == NAMES
    assert NAMES <= set(dir(berkline))
    namespace = {}
    exec("from berkline import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        berkline.no_such_name
    assert not hasattr(berkline, "cli_main")
