"""Exact computations on the nonarchimedean unit disc.

Valued-field arithmetic, Gauss valuations and Newton polygons, the finite
tree model of the Berkovich disc, cellular sheaf cohomology on those trees,
reduced-unit divisor calculus, and the annulus splitting construction.

``import berkline`` imports no compute module.  Each public name is looked
up in ``_EXPORTS`` on first use (PEP 562), which imports its defining module
and stores the value here, so later lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

# public name -> (defining module, attribute there)
_EXPORTS = {
    **{name: ("cancel", name) for name in (
        "AnnulusSpec", "Divisor", "SectionComponent", "SectionData",
        "UNIT_ANNULUS", "splitting_delta", "y1_divisor", "y2_divisor")},
    **{name: ("field", name) for name in (
        "INF", "PadicElem", "PadicField", "PuiseuxElem", "PuiseuxField",
        "valuation")},
    **{name: ("gauss", name) for name in (
        "NewtonPolygon", "gauss_valuation", "log2_naive_norm", "naive_norm",
        "newton_polygon", "root_count_annulus", "roots_in_disc",
        "spectral_limit", "spectral_profile", "sym_annulus_membership")},
    "KERNEL_BACKEND": ("kernel", "BACKEND"),
    **{name: ("logvalue", name) for name in (
        "INFINITY", "ZERO", "LogValue", "as_logvalue")},
    **{name: ("points", name) for name in (
        "ChainPoint", "CoordVector", "DiscPoint", "PointClassification",
        "classify", "coords", "eval_point", "meet", "restrict_coords")},
    **{name: ("poly", name) for name in (
        "Polynomial", "RationalFunction", "rat_normalize")},
    **{name: ("sheaf", name) for name in (
        "CohomologyResult", "HostTree", "TreeSheaf", "cohomology",
        "constant_sheaf", "kummer_sheaf", "make_cellular_sheaf",
        "shriek_extend", "zero_sheaf")},
    **{name: ("skeleton", name) for name in ("Skeleton", "build_skeleton")},
    **{name: ("units", name) for name in (
        "Domain", "ExcludedDisc", "LeadingClass", "ReducedUnit", "UnitClass",
        "boundary_degrees", "char_poly_point", "direction_slopes",
        "exterior_degree", "homotopy_check", "leading_class", "reduced_unit",
        "unit_class")},
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
