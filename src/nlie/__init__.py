"""Free n-Lie algebras: basic commutators, the collecting process,
counting formulas, and an exact graded-dimension oracle.

Submodules load on first use (PEP 562): `import nlie` runs none of them,
and a public name loads only the submodule that defines it and what
that submodule imports."""

from importlib import import_module

_EXPORTS = {
    "basis": (
        "EnumerationCapExceeded", "EnumerationMode", "count_by_enumeration",
        "enumerate_basic", "is_basic",
    ),
    "counting": (
        "LieExpansion", "NonbasicBreakdown", "count_via_lie", "count_weight2",
        "ladder", "ladder_recursive", "lcs_quotient_dim", "lie_expansion",
        "moebius", "necklace_bound", "nonbasic_breakdown", "weight3_closed_form",
        "weight4_closed_form", "weightw_closed_form", "witt",
    ),
    "oracle": (
        "InstanceCeilingExceeded", "graded_dimension", "graded_monomials",
        "membership", "relation_rows",
    ),
    "rewrite": ("RewriteTrace", "collect", "collect_lc", "expand_jacobi"),
    "terms": (
        "SignedTerm", "Term", "canonicalize", "compare", "format_term",
        "lc_format", "length", "parse", "weight",
    ),
}
# public name -> the submodule it comes from; a submodule names itself
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names)}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _ORIGIN.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{mod}")  # binds nlie.<mod> as well
    value = globals()[name] = module if name == mod else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
