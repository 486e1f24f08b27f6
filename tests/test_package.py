"""The package's public names: each is exported once, and is its module's object."""

import pytest

import lucassquares
from lucassquares import arith, classifier, diophantine, identities, sequences

# The 70 module names the package exports besides `__version__`, written
# out as literals so that none can drop out of `__all__` unnoticed.
EXPORTED = {
    arith: ("SQUAREFREE_COEFFS", "SquareClass", "is_square", "isqrt", "jacobi",
            "square_class", "square_witness"),
    classifier: ("CLASSIFICATION_IDS", "FAMILIES", "PROFILES", "REPORT_IDS",
                 "REPORT_SUMMARIES", "SWEEP_IDS", "Profile",
                 "SquareClassFinding", "SquareClassQuery", "TheoremReport",
                 "default_query", "p_range", "search",
                 "sweep_divisibility_laws", "sweep_pell_form_families",
                 "sweep_product_identities", "sweep_quartic_equations",
                 "sweep_residue_classes", "sweep_shift_congruences", "verify_all",
                 "verify_report", "verify_theorem"),
    diophantine: ("QUARTIC_VARIANTS", "FormSolution", "PellSolution", "QuarticSolution",
                  "form_enumerate", "form_family", "pell3_enumerate", "pell3_family",
                  "pell5_enumerate", "pell5_family", "quartic_polynomial",
                  "quartic_solutions"),
    identities: ("CheckOutcome", "check_divisibility_by_5_and_3",
                 "check_divisibility_laws", "check_gcd_u_v", "check_jacobi_p2plus3",
                 "check_lucas_pow2_mod4", "check_mod_p2_laws", "check_product_identities",
                 "check_q_minus_one_triple", "check_residue_minus_square_obstruction",
                 "check_shift_u_mod_u", "check_shift_u_mod_v", "check_shift_v_mod_u",
                 "check_shift_v_mod_v", "check_v5n_factor", "check_v_mod8_class"),
    sequences: ("INDEX_LIMIT", "IndexedPair", "ModularPair", "SequenceParams", "pair_at",
                "pair_mod", "residue_period", "residue_range", "seq_range", "u", "u_mod",
                "v", "v_mod"),
}


def test_the_version_is_exported():
    assert "__version__" in lucassquares.__all__
    assert lucassquares.__version__ == "0.1.0"


@pytest.mark.parametrize("module", EXPORTED, ids=lambda module: module.__name__)
def test_each_listed_name_is_exported_as_its_module_object(module):
    for name in EXPORTED[module]:
        assert name in lucassquares.__all__
        assert getattr(lucassquares, name) is getattr(module, name)


def test_all_has_no_duplicates():
    assert len(lucassquares.__all__) == len(set(lucassquares.__all__))


def test_all_is_the_version_and_every_module_list():
    modules = set().union(*(module.__all__ for module in EXPORTED))
    assert set(lucassquares.__all__) == {"__version__"} | modules
    assert "family_cover" in lucassquares.__all__
    assert lucassquares.family_cover is diophantine.family_cover


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from lucassquares import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(lucassquares.__all__)
