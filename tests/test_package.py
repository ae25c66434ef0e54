"""The package's star-import surface: `from neurocode import *` binds
exactly these names, each the object of that name in its submodule."""

import importlib

import neurocode

SURFACE = {
    "codes": ["Code", "CodeMap", "CodeParseError", "ElementaryMap", "SimplicialComplex",
              "apply_elementary_map", "cc_family", "check_monotone", "complete_iso",
              "cr_family", "is_isomorphism", "is_morphism", "is_trunk", "parse_code",
              "simplicial_complex", "trunk", "union_closure_condition", "word_label"],
    "graphs": ["CodeGraph", "ccg", "diameter", "distance", "gr_complex", "grg",
               "is_complete", "is_connected", "is_regular", "to_dot"],
    "ideal": ["CanonicalForm", "PseudoMonomial", "canonical_form", "canonical_form_oracle",
              "cf_cc_formula", "cf_cr_formula", "predict_cf", "rho"],
    "realization": ["IntervalCover", "SegmentCover", "cc_m_intervals", "cf_from_intervals",
                    "code_of_intervals", "code_of_segments", "cr_k_polygon"],
}
NAMES = sorted(name for names in SURFACE.values() for name in names)


def test_all_lists_the_surface_sorted():
    assert len(NAMES) == 43
    assert neurocode.__all__ == NAMES


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from neurocode import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES


def test_each_name_is_its_submodule_object():
    for module, names in SURFACE.items():
        submodule = importlib.import_module(f"neurocode.{module}")
        for name in names:
            assert getattr(neurocode, name) is getattr(submodule, name), name
