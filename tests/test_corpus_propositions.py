import pytest

import gradedalg.core
from gradedalg import (
    PROPOSITION_IDS,
    Corpus,
    CorpusEntry,
    StructureParseError,
    UnknownProposition,
    build_standard_corpus,
    classify_submodule,
    coprimary_via_characterization,
    is_graded_comultiplication_module,
    make_module,
    make_ring,
    recheck_coprimary_violation,
    search_counterexample,
    verify_proposition,
)
from gradedalg.grading import module_same_as_ring, ring_trivial

CORPUS = build_standard_corpus()


def test_corpus_composition():
    names = [e.name for e in CORPUS]
    for n in (4, 6, 8, 9, 12, 36):
        assert f"zmod{n}" in names
    assert "groupring2-c2" in names and "groupring3-c2" in names
    assert "torsion180" in names
    assert any(e.factors for e in CORPUS)
    assert any(e.mulsets for e in CORPUS)


def test_example_entry_provenance_and_named():
    entry = next(e for e in CORPUS if e.name == "torsion180")
    assert "exponent 180" in entry.note
    assert len(entry.named["N"].members) == 36


def test_unknown_proposition():
    with pytest.raises(UnknownProposition):
        verify_proposition("no-such-prop", CORPUS)


@pytest.mark.parametrize("prop_id", PROPOSITION_IDS)
def test_every_proposition_nonvacuous(prop_id):
    report = verify_proposition(prop_id, CORPUS)
    assert report.instances >= 1


@pytest.mark.parametrize(
    "prop_id",
    [p for p in PROPOSITION_IDS if p != "hom-preimage"],
)
def test_propositions_hold_on_corpus(prop_id):
    report = verify_proposition(prop_id, CORPUS)
    assert report.violations == [], report.to_plain()


def test_hom_preimage_violations_are_real():
    # the preimage transport statement fails on this corpus (see the z12
    # multiplication-by-2 instance); every reported violation must re-check
    # against the definitional predicate, so the failure is self-certifying
    report = verify_proposition("hom-preimage", CORPUS)
    assert report.violations, "expected corpus counterexamples to the preimage statement"
    first = report.violations[0]
    assert first["entry"] == "zmod12"


def test_machine_report_format_is_stable():
    r1 = verify_proposition("characterization-equiv", CORPUS).to_machine()
    r2 = verify_proposition("characterization-equiv", CORPUS).to_machine()
    assert r1 == r2
    assert r1.startswith("prop=characterization-equiv status=pass ")
    assert "wall" not in r1


def test_skips_are_reported_not_pass_counted():
    report = verify_proposition("localization", CORPUS)
    assert report.skipped["localizes-to-zero"] >= 1
    assert report.instances >= 1


def test_implication_chain_over_corpus():
    for entry in CORPUS:
        for n in entry.graded_submodules():
            if n.is_zero:
                continue
            second = classify_submodule(n, "second").value
            strong = classify_submodule(n, "strong-2a-second").value
            cop = coprimary_via_characterization(n).value
            if second:
                assert strong, (entry.name, n)
            if strong:
                assert cop, (entry.name, n)


def test_every_predicate_has_true_and_false_instances():
    preds = {
        "second": set(),
        "strong-2a-second": set(),
        "2a-coprimary": set(),
        "comultiplication": set(),
    }
    for entry in CORPUS:
        preds["comultiplication"].add(is_graded_comultiplication_module(entry.gmodule).value)
        for n in entry.graded_submodules():
            if n.is_zero:
                continue
            preds["second"].add(classify_submodule(n, "second").value)
            preds["strong-2a-second"].add(classify_submodule(n, "strong-2a-second").value)
            preds["2a-coprimary"].add(coprimary_via_characterization(n).value)
    for name, seen in preds.items():
        assert seen == {True, False}, name


def test_search_finds_strictness_witness():
    found = search_counterexample("2a-coprimary and not strong-2a-second", CORPUS)
    assert found is not None
    n = found["handle"]
    assert coprimary_via_characterization(n).value
    assert not classify_submodule(n, "strong-2a-second").value


def test_search_chain_has_no_counterexample():
    assert search_counterexample("second and not 2a-coprimary", CORPUS) is None


def test_search_not_coprimary_finds_z12_whole():
    found = search_counterexample("not 2a-coprimary", CORPUS)
    assert found is not None
    assert found["entry"] == "zmod12"
    assert len(found["handle"].members) == 12
    w = coprimary_via_characterization(found["handle"]).witness
    assert recheck_coprimary_violation(found["handle"], w["x"], w["y"])


def test_search_parser_errors():
    with pytest.raises(StructureParseError):
        search_counterexample("second and", CORPUS)
    with pytest.raises(StructureParseError):
        search_counterexample("(second", CORPUS)
    with pytest.raises(StructureParseError):
        search_counterexample("bogus-predicate", CORPUS)


def test_search_budget_exhaustion_returns_none():
    assert search_counterexample("not 2a-coprimary", CORPUS, budget=1) is None


def test_search_parenthesized_expression():
    found = search_counterexample(
        "(2a-coprimary or second) and not (strong-2a-second)", CORPUS
    )
    assert found is not None


def test_cold_corpus_build_validates_each_structure_once(monkeypatch):
    calls = []
    original = gradedalg.core.validate_axioms
    monkeypatch.setattr(gradedalg.core, "validate_axioms", lambda s: calls.append(s) or original(s))
    build_standard_corpus.__wrapped__()
    # 12 groups, 12 rings and the 4 modules that are not a ring acting on itself
    assert len(calls) == 28


def _z12_entry(denominators, gmodule=None):
    if gmodule is None:
        ring = make_ring(("zmod", 12))
        gmodule = module_same_as_ring(make_module(("self",), ring), ring_trivial(ring))
    return CorpusEntry("zmod12", gmodule.gring, gmodule, mulsets={"S": denominators})


def test_localization_memo_is_keyed_by_denominators():
    # same module and mulset name, different denominators: a memo keyed by
    # the name would hand the second entry the first entry's localization
    sets = ((1, 3, 9), (1, 5))
    alone = [verify_proposition("localization", Corpus([_z12_entry(s)])).to_machine() for s in sets]
    assert alone[0] != alone[1]
    shared = _z12_entry(sets[0]).gmodule
    reports = [
        verify_proposition("localization", Corpus([_z12_entry(s, shared)])).to_machine() for s in sets
    ]
    assert reports == alone
