import dataclasses
import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gradedalg.core
import gradedalg.propositions
from gradedalg import (
    PROPOSITION_IDS,
    CorpusEntry,
    PredicateVerdict,
    StructureParseError,
    SubobjectHandle,
    UnknownProposition,
    annihilator,
    build_standard_corpus,
    classify_submodule,
    colon,
    colon_by_element,
    combine,
    coprimary_via_characterization,
    graded_radical,
    hom_image,
    hom_preimage,
    ideal_component,
    identity_hom,
    is_graded_comultiplication_module,
    make_module,
    make_ring,
    multiplication_hom,
    recheck_coprimary_violation,
    search_counterexample,
    validate_axioms,
    verify_proposition,
    whole_subobject,
)
from gradedalg.cli import run_cli
from gradedalg.core import DEFAULT_MAX_ELEMENTS, FiniteRing, make_group
from gradedalg.corpus import _standard_corpus
from gradedalg.grading import GradedRing, attach_grading, module_same_as_ring, ring_trivial
from gradedalg.propositions import _CHECKERS, _members_label

CORPUS = build_standard_corpus()


def test_corpus_composition():
    # the order decides the order of violation records and the first hit of a search
    rows = [
        (e.name, (e.gring.ring.size, e.gmodule.module.size, e.gring.grading.group.size), e.mulsets,
         {name: len(h.members) for name, h in e.named.items()}, e.factors is not None)
        for e in CORPUS
    ]
    assert rows == [
        ("zmod4", (4, 4, 1), {}, {}, False),
        ("zmod6", (6, 6, 1), {}, {}, False),
        ("zmod8", (8, 8, 1), {}, {}, False),
        ("zmod9", (9, 9, 1), {}, {}, False),
        ("zmod12", (12, 12, 1), {"S": (1, 3, 9)}, {}, False),
        ("zmod36", (36, 36, 1), {}, {}, False),
        ("groupring2-c2", (4, 4, 2), {}, {}, False),
        ("groupring3-c2", (9, 9, 2), {}, {}, False),
        ("torsion180", (180, 180, 1), {"S5": (1, 5, 25, 65, 85, 125, 145)}, {"N": 36}, False),
        ("z2-plane", (2, 4, 1), {}, {}, False),
        ("product-z2xz3", (6, 6, 1), {}, {}, True),
        ("product-z4xz9", (36, 36, 1), {}, {}, True),
    ]


def test_one_standard_corpus_per_cap():
    # however the cap is passed, callers share one corpus and so its memos;
    # it is a tuple, so no caller can append to it
    assert type(CORPUS) is tuple
    assert build_standard_corpus() is CORPUS
    assert build_standard_corpus(DEFAULT_MAX_ELEMENTS) is CORPUS
    assert build_standard_corpus(max_elements=DEFAULT_MAX_ELEMENTS) is CORPUS


def test_verify_keeps_the_memo_of_a_callers_corpus():
    # only the CLI releases entries, and only those it parsed itself: every
    # run on the shared corpus reuses the lattices of the runs before it
    verify_proposition("ann-2AP", CORPUS)
    lattices = [e.graded_submodules() for e in CORPUS]
    verify_proposition("ann-2AP", CORPUS)
    assert run_cli(["verify", "--prop", "ann-2AP"], out=io.StringIO()) == 0
    assert all(e.graded_submodules() is lattice for e, lattice in zip(CORPUS, lattices))


def test_example_entry_provenance_and_named():
    entry = next(e for e in CORPUS if e.name == "torsion180")
    assert "exponent 180" in entry.note
    assert len(entry.named["N"].members) == 36


def test_unknown_proposition():
    with pytest.raises(UnknownProposition, match="^unknown proposition 'no-such-prop'$"):
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
    # against the definitional predicate, so the failure is self-certifying;
    # records name scalars by label, which on product-z4xz9 are pairs
    report = verify_proposition("hom-preimage", CORPUS)
    assert report.violations, "expected corpus counterexamples to the preimage statement"
    assert report.violations[0]["entry"] == "zmod12"
    assert Counter(v["entry"] for v in report.violations)["product-z4xz9"] == 45
    entries = {e.name: e for e in CORPUS}
    for v in report.violations:
        entry = entries[v["entry"]]
        gm = entry.gmodule
        k = next(h for h in entry.graded_submodules() if _members_label(h) == v["K"])
        labels, index = gm.gring.ring.labels, gm.gring.ring.index
        assert {v["r"], v["witness"]["x"], v["witness"]["y"]} <= set(labels), v
        f = multiplication_hom(gm, index[v["r"]])
        assert classify_submodule(k, "2a-coprimary-def").value, v
        assert k.members <= hom_image(f, whole_subobject(gm)).members, v
        x, y = index[v["witness"]["x"]], index[v["witness"]["y"]]
        assert recheck_coprimary_violation(hom_preimage(f, k), x, y), v


def test_checkers_record_handles_and_verify_labels_them():
    entry = next(e for e in CORPUS if e.name == "zmod12")
    _, bad, _ = _CHECKERS["hom-preimage"](entry)
    assert bad
    for record in bad:
        assert list(record) == ["K", "r", "witness"]
        assert isinstance(record["K"], SubobjectHandle) and record["K"].ctx is entry.gmodule
    report = verify_proposition("hom-preimage", [entry])
    assert [list(v.items()) for v in report.violations] == [
        [("entry", "zmod12"), ("K", _members_label(r["K"])), ("r", r["r"]), ("witness", r["witness"])] for r in bad
    ]


# closure-lemma's decision points in the propositions module: the two
# verdicts that decide sums (by counting) and intersections and the scalar
# families (by popcount), and the operators whose handles decide the rest
_FORCED = ("sum_is_graded", "graded_mask", "combine", "colon", "span")


def _forced_closure_details(patch, entry, names=_FORCED):
    """closure-lemma's violation details on ``entry``, by op, with the
    propositions-module decision points ``names`` patched so that every
    instance they decide is a violation: a verdict becomes False, an
    operator returns a non-graded copy of its handle."""
    def ungraded(op):
        def forced(*args):
            result = op(*args)
            if isinstance(result, bool):
                return False
            handle = dataclasses.replace(result)  # a copy, with nothing cached yet
            handle.__dict__["graded"] = False  # stored where the cached property keeps its value
            return handle
        return forced

    for name in names:
        patch.setattr(gradedalg.propositions, name, ungraded(getattr(gradedalg.propositions, name)))
    details = {}
    for v in verify_proposition("closure-lemma", [entry]).violations:
        assert list(v) == ["entry", "op", "detail"] and v["entry"] == entry.name
        details.setdefault(v["op"], []).append(v["detail"])
    return details


def _zmod4_forced_details():
    """What ``_forced_closure_details`` gives on zmod4, where labels are indices."""
    entry = next(e for e in CORPUS if e.name == "zmod4")
    ideals, subs, gm = entry.graded_ideals(), entry.graded_submodules(), entry.gmodule

    def pairs(a, b):
        return [(_members_label(x), _members_label(y)) for x in a for y in b]

    return entry, {
        "ideal-sum": pairs(ideals, ideals),
        "ideal-intersect": pairs(ideals, ideals),
        "submodule-sum": pairs(subs, subs),
        "submodule-intersect": pairs(subs, subs),
        "cyclic-span": list(gm.hom),
        "ideal-product": pairs(ideals, subs),
        "scalar-multiple": [r for r in gm.gring.hom for _ in subs],
        "colon-into-module": [_members_label(n) for n in subs],
        "colon-by-element": [x for x in gm.gring.hom for _ in subs],
    }


def test_closure_lemma_violations_keep_their_labelled_shapes(monkeypatch):
    # with every decision point forced, every instance it decides is a
    # violation, reported with labels: a pair of labels, one label or a
    # scalar, as each record had before
    entry, expected = _zmod4_forced_details()
    assert _forced_closure_details(monkeypatch, entry) == expected


def test_closure_lemma_violations_name_elements_by_label(monkeypatch):
    # product-z4xz9 labels its elements by pairs, so a table index in a
    # detail would name another element
    entry = next(e for e in CORPUS if e.name == "product-z4xz9")
    subs, gm = entry.graded_submodules(), entry.gmodule
    ring_labels, module_labels = gm.gring.ring.labels, gm.module.labels
    details = _forced_closure_details(monkeypatch, entry)
    assert details["cyclic-span"] == [module_labels[x] for x in gm.hom]
    assert details["scalar-multiple"] == [ring_labels[r] for r in gm.gring.hom for _ in subs]
    assert details["colon-by-element"] == [ring_labels[x] for x in gm.gring.hom for _ in subs]
    for op in ("cyclic-span", "scalar-multiple", "colon-by-element"):
        assert all(isinstance(d, tuple) and len(d) == 2 for d in details[op]), op


def test_closure_lemma_reads_each_scalar_family_at_its_own_orbit(monkeypatch):
    # the scalar families take one verdict per unit orbit and N; with gradedness
    # forced to "odd size", the verdicts differ between orbits, and each
    # scalar's details must be those of its own rN and (N :_M x)
    entry = next(e for e in CORPUS if e.name == "product-z4xz9")
    subs, gm = entry.graded_submodules(), entry.gmodule
    hom, labels = gm.gring.hom, gm.gring.ring.labels
    def odd(mask):
        return mask.bit_count() % 2 == 1

    monkeypatch.setattr(gradedalg.propositions, "graded_mask", lambda ctx, mask: odd(mask))
    details = {}
    for v in verify_proposition("closure-lemma", [entry]).violations:
        details.setdefault(v["op"], []).append(v["detail"])
    scaled = [labels[r] for r in hom for n in subs if not odd(combine(r, n, "scalar_product").mask)]
    colons = [labels[x] for x in hom for n in subs if not odd(colon_by_element(n, x).mask)]
    assert 0 < len(scaled) < len(hom) * len(subs) and 0 < len(colons) < len(hom) * len(subs)
    assert (details["scalar-multiple"], details["colon-by-element"]) == (scaled, colons)


def test_closure_lemma_keeps_no_shared_memo_between_checker_and_operators(monkeypatch):
    # the checker's per-orbit values live for one call: a run before the
    # patch must not hide the patched operators, and the patched handles
    # must not reach a later unpatched run
    assert verify_proposition("closure-lemma", CORPUS).violations == []
    entry, expected = _zmod4_forced_details()
    with monkeypatch.context() as patch:
        assert _forced_closure_details(patch, entry) == expected
    assert verify_proposition("closure-lemma", CORPUS).violations == []


def test_hom_preimage_checker_matches_definitional_recomputation():
    # the checker states hom-preimage with no hypothesis on f; recompute that
    # statement over the same hom family (the identity and every
    # multiplication by a degree-e scalar, one per mapping table) from public
    # constructions and the definitional classifier, and compare violation sets
    report = verify_proposition("hom-preimage", CORPUS)
    modules = {e.name: e.gmodule for e in CORPUS}
    records = []
    for v in report.violations:  # records name scalars by label
        gm = modules[v["entry"]]
        records.append((v["entry"], v["K"], multiplication_hom(gm, gm.gring.ring.index[v["r"]]).mapping))
    instances, expected = 0, {}
    for entry in CORPUS:
        gm = entry.gmodule
        whole = whole_subobject(gm)
        identity = identity_hom(gm)
        homs = {identity.mapping: identity}
        for r in gm.gring.grading.components[gm.group.identity]:
            f = multiplication_hom(gm, r)
            homs.setdefault(f.mapping, f)
        for mapping, f in homs.items():
            image = hom_image(f, whole).members
            for k in entry.graded_submodules():
                if k.is_zero or not k.members <= image:
                    continue
                if not classify_submodule(k, "2a-coprimary-def").value:
                    continue
                instances += 1
                if not classify_submodule(hom_preimage(f, k), "2a-coprimary-def").value:
                    expected[(entry.name, _members_label(k), mapping)] = len(image) == gm.module.size
    assert len(records) == len(set(records))
    assert set(records) == set(expected)
    assert report.instances == instances
    # an injective endomorphism of a finite module is a graded automorphism,
    # which carries coprimary submodules to coprimary submodules
    assert not any(expected.values())
    z12 = modules["zmod12"]
    assert ("zmod12", "{0,2,4,6,8,10}", multiplication_hom(z12, 2).mapping) in expected


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


def test_counted_adds_up_blocks_and_keeps_only_the_violation_records():
    # a million passing instances one by one and a million in blocks: the
    # count must not keep a pointer per instance (8 MB for the first million)
    records = [{"N": i} for i in range(3)]

    def check(entry, skip):
        skip["vacuous"] += 2
        yield records[0]
        for _ in range(10 ** 6):
            yield None
        yield records[1]
        for _ in range(10 ** 3):
            yield 10 ** 3
        yield records[2]

    tracemalloc.start()
    try:
        instances, bad, skip = gradedalg.propositions._counted(check)(None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert instances == 2 * 10 ** 6 + 3
    assert bad == records and all(a is b for a, b in zip(bad, records))
    assert skip == Counter(vacuous=2)


def _z12_dual_numbers_graded_by_c2() -> CorpusEntry:
    """(Z/12)[x]/(x^2) graded by C2 with deg x = 1, as the ring acting on
    itself: a + bx at index 12a + b, R_0 = {a} and R_1 = {bx}."""
    a, b = np.divmod(np.arange(144), 12)
    add = (a[:, None] + a) % 12 * 12 + (b[:, None] + b) % 12
    mul = a[:, None] * a % 12 * 12 + (a[:, None] * b + b[:, None] * a) % 12
    ring = FiniteRing(tuple(zip(a.tolist(), b.tolist())), add, mul, 0, 12)
    assert validate_axioms(ring).ok
    group = make_group(("cyclic", 2))
    grading = attach_grading(ring, group, {0: {12 * i for i in range(12)}, 1: set(range(12))})
    gring = GradedRing(ring, grading)
    return CorpusEntry("z12[x]/(x2)@C2", gring, module_same_as_ring(make_module(("self",), ring), gring))


def test_ideal_pair_checkers_skip_each_degree_by_its_own_g_coprimary_verdict():
    # the first entry with a g-2a-coprimary verdict that depends on the degree
    # g: 6 of its 17 non-zero graded N are not g-coprimary at g = 0 and are at
    # g = 1, so a checker that classified every degree at g = e would skip 12
    entry = _z12_dual_numbers_graded_by_c2()
    nonzero = [n for n in entry.graded_submodules() if not n.is_zero]
    assert len(nonzero) == 17
    not_coprimary = [sum(not classify_submodule(n, "g-2a-coprimary", g=g).value for n in nonzero) for g in (0, 1)]
    assert not_coprimary == [6, 0]
    for pid, want in (("ideal-lemma", 99918), ("two-ideal-theorem", 147107)):
        instances, bad, skip = _CHECKERS[pid](entry)
        assert (instances, len(bad), skip["N-not-g-coprimary"]) == (want, 0, sum(not_coprimary)), pid


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
    # caught before any evaluation, so an earlier atom that holds does not hide it
    with pytest.raises(StructureParseError, match="^predicate 'prime' needs an ideal target$"):
        search_counterexample("second or prime", CORPUS)


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
    _standard_corpus.__wrapped__(DEFAULT_MAX_ELEMENTS)
    # 12 groups, 12 rings and the 2 direct sums: every other module, the two
    # products included, is its ring acting on itself
    assert len(calls) == 26


def _z12_entry(denominators, gmodule=None):
    if gmodule is None:
        ring = make_ring(("zmod", 12))
        gmodule = module_same_as_ring(make_module(("self",), ring), ring_trivial(ring))
    return CorpusEntry("zmod12", gmodule.gring, gmodule, mulsets={"S": denominators})


def test_localization_memo_is_keyed_by_denominators():
    # same module and mulset name, different denominators: a memo keyed by
    # the name would hand the second entry the first entry's localization
    sets = ((1, 3, 9), (1, 5))
    alone = [verify_proposition("localization", [_z12_entry(s)]).to_machine() for s in sets]
    assert alone[0] != alone[1]
    shared = _z12_entry(sets[0]).gmodule
    reports = [
        verify_proposition("localization", [_z12_entry(s, shared)]).to_machine() for s in sets
    ]
    assert reports == alone


# ---------------------------------------------------------------------------
# differential tests: the bitset checkers against the naive per-K loops
# ---------------------------------------------------------------------------

def _is_g_coprimary(n, g):
    return classify_submodule(n, "g-2a-coprimary", g=g).value


def oracle_ideal_lemma(entry, guard=_is_g_coprimary):
    """Naive loops over g, N, I, x in R_g and K, with the colon and graded
    radical computed from their definitions."""
    inst, skip, bad = 0, Counter(), []
    gm = entry.gmodule
    mul = gm.gring.ring.mul
    act = gm.module.action
    subs = entry.graded_submodules()
    for g in range(gm.group.size):
        for n in entry.graded_submodules():
            if n.is_zero:
                continue
            if not guard(n, g):
                skip["N-not-g-coprimary"] += 1
                continue
            grads = {k: graded_radical(colon(k, n)).members for k in subs}
            ann = annihilator(n).members
            for i in entry.graded_ideals():
                in_members = combine(i, n, "ideal_product").members
                ig = ideal_component(i, g)
                for x in sorted(gm.gring.grading.components[g]):
                    ixn = {act[x][m] for m in in_members}
                    for k in subs:
                        if not ixn <= k.members:
                            skip["hypothesis-IxN-not-in-K"] += 1
                            continue
                        inst += 1
                        if x in grads[k] or ig <= grads[k]:
                            continue
                        if all(mul[y][x] in ann for y in ig):
                            continue
                        bad.append({
                            "entry": entry.name, "g": gm.group.labels[g], "N": _members_label(n),
                            "I": _members_label(i), "x": gm.gring.ring.labels[x], "K": _members_label(k),
                        })
    return inst, bad, skip


def oracle_two_ideal_theorem(entry, guard=_is_g_coprimary):
    inst, skip, bad = 0, Counter(), []
    gm = entry.gmodule
    mul = gm.gring.ring.mul
    subs = entry.graded_submodules()
    ideals = entry.graded_ideals()
    for g in range(gm.group.size):
        for n in entry.graded_submodules():
            if n.is_zero:
                continue
            if not guard(n, g):
                skip["N-not-g-coprimary"] += 1
                continue
            grads = {k: graded_radical(colon(k, n)).members for k in subs}
            ann = annihilator(n).members
            for i in ideals:
                ig = ideal_component(i, g)
                for j in ideals:
                    jg = ideal_component(j, g)
                    ijn = combine(j, combine(i, n, "ideal_product"), "ideal_product").members
                    for k in subs:
                        if not ijn <= k.members:
                            skip["hypothesis-IJN-not-in-K"] += 1
                            continue
                        inst += 1
                        if ig <= grads[k] or jg <= grads[k]:
                            continue
                        if all(mul[a][b] in ann for a in ig for b in jg):
                            continue
                        bad.append({
                            "entry": entry.name, "g": gm.group.labels[g], "N": _members_label(n),
                            "I": _members_label(i), "J": _members_label(j), "K": _members_label(k),
                        })
    return inst, bad, skip


_ORACLES = {"ideal-lemma": oracle_ideal_lemma, "two-ideal-theorem": oracle_two_ideal_theorem}


@pytest.mark.parametrize("prop_id", sorted(_ORACLES))
def test_bitset_checker_matches_oracle_on_standard_corpus(prop_id):
    for entry in CORPUS:
        report = verify_proposition(prop_id, [entry])
        inst, bad, skip = _ORACLES[prop_id](entry)
        assert (report.instances, report.violations, report.skipped) == (inst, bad, skip), entry.name


@pytest.mark.parametrize("prop_id", sorted(_ORACLES))
def test_bitset_checker_reports_violations_like_oracle(prop_id, monkeypatch):
    # with the g-coprimary hypothesis forced open, non-coprimary N enter the
    # checkers and violate the conclusion: the violation records and their
    # order must match the naive loops
    monkeypatch.setattr(
        gradedalg.propositions, "classify_submodule", lambda n, p, g=None: PredicateVerdict(True)
    )
    total = 0
    for entry in CORPUS:
        if entry.gmodule.module.size > 36:
            continue
        report = verify_proposition(prop_id, [entry])
        inst, bad, skip = _ORACLES[prop_id](entry, guard=lambda n, g: True)
        assert (report.instances, report.violations, report.skipped) == (inst, bad, skip), entry.name
        total += len(bad)
    assert total > 0
