"""Atoms, transforming words, and atom orders for twisted involutions.

The library builds finite Coxeter systems, folds group elements against
twisted involutions, enumerates atoms and Hecke atoms with their words,
classifies type A atoms directly from permutation statistics, partitions
words into rewriting classes, and builds the graded atom orders. Every
structural claim ships with a brute-force checker next to the fast path.

Importing the package loads none of its submodules: a public name imports
the submodule that defines it on first use (PEP 562), so a command line
verb compiles only the modules it calls.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "coxeter": (
        "CoxeterSystem", "build_system", "coxeter_matrix_from_name",
        "element_to_permutation", "is_type_a_chain", "normalize_twist",
        "parse_matrix_text", "permutation_to_element",
    ),
    "twisted": (
        "atoms", "bruhat_atoms", "bruhat_hecke", "check_bruhat_descriptions",
        "check_central_closure", "check_conjecture", "check_duality", "count_involution_words",
        "dact", "dact_word", "dual_twist", "enumerate_twisted", "hat_length", "hecke_atoms",
        "involution_words", "rtimes", "weak_leq_T",
    ),
    "typea": (
        "atoms_perm", "atoms_fpf_perm", "enumerate_involutions", "fpf_base",
        "hecke_atoms_perm", "is_atom_absolute", "is_atom_colored", "is_atom_fpf",
        "is_atom_general", "is_atom_longest",
    ),
    "orders": (
        "atom_poset", "atom_poset_fpf", "chinese_class", "fpf_class", "hat0",
        "hat0_fpf", "hat1", "hat1_fpf", "is_321_avoiding", "poset_is_lattice",
        "poset_to_dot", "poset_to_json", "prec_A_leq", "prec_Afpf_leq",
        "verify_chinese", "verify_fpf",
    ),
    "braid": (
        "braid_class", "check_braid_classes", "check_fc_atoms", "fpf_class_words",
        "hu_zhang_class", "involution_braid_class", "is_fully_commutative", "m_star",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
