"""Partitions of finite vector spaces into subspaces.

Construction, verification, feasibility filtering, exhaustive search, and
the code/design correspondences, over exact GF(q) arithmetic.

The public names below load on first use (PEP 562): `import vspart`
imports no submodule, and `vspart.spread` imports `vspart.construct` the
first time it is read, then keeps the function in this module.  The
submodules themselves (`vspart.linalg` and the rest) resolve the same way.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("codes", "CodeReport MixedCode code_from_partition code_parameters verify_perfect"),
        ("construct", "LiftResult build_t_partition fixed_plus_lines hyperplane_section lift "
                      "near_spread spread typed_construct"),
        ("designs", "CosetDesign DesignReport design_from_partition verify_design"),
        ("dioph", "TypeSolution annotate classify_gf2_23 solve"),
        ("errors", "BadDimensions BudgetExceeded DimensionMismatch DimensionTooSmall "
                   "FieldTooLarge InvalidSubPartition NotAComponent NotASolution NotDivisible "
                   "NotPrime TooLarge TrivialPartition UncoveredCase UnsupportedType "
                   "VspartError ZeroSubspace"),
        ("gf", "ExtField FieldSpec field_from_order make_field"),
        ("io", "read_partition write_partition"),
        ("linalg", "Subspace canonicalize complement contains coordinate_subspace "
                   "enumerate_subspaces full_space gaussian_binomial join meet"),
        ("partition", "BoundReport Partition PartitionType VerificationReport bound_report "
                      "induce is_T_partition refine trivial_partition type_of verify"),
        ("search", "ScanReport SearchOutcome conjecture_scan enumerate_all find_partition"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
        return value
    if name in _SUBMODULES:
        # Importing a submodule binds it in this module as a side effect.
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
