import fpverify

# The compatibility surface: a name leaves it only on purpose, with this
# list edited and the removal named in CHANGES.
PUBLIC_NAMES = [
    "CONVENTIONS", "CONVENTION_DEFAULT", "CONVENTION_GAP",
    "Certificate", "CosetTable", "DEFAULT_MAX_COSETS", "Derivation",
    "EnumerationResult", "Factor", "H1", "NoDefiningRelator", "NotFound",
    "ParseError", "Presentation", "RunReport", "STRATEGIES", "Scenario",
    "SmithForm", "StepResult", "Word", "abelianized_relation_matrix",
    "check_equivalence", "commutator", "conjugate", "cyclic_reduce",
    "derivation_to_certificate", "derive_all", "derive_by_collapse",
    "eliminate_generator", "enumerate_cosets", "free_reduce", "homology_h1",
    "invert", "list_scenarios", "load_presentation_file", "load_scenario",
    "parse_presentation", "parse_word", "permutation_action",
    "print_presentation", "replay_moves", "run_all", "run_scenario",
    "search_certificate", "simplify", "smith_normal_form", "substitute",
    "verify_certificate", "verify_derivation", "verify_trivial",
]


def test_the_public_names_are_pinned():
    assert sorted(fpverify.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(fpverify.__all__)) == len(fpverify.__all__)
    assert [n for n in PUBLIC_NAMES if not hasattr(fpverify, n)] == []
