"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria are asserted at the stated tolerances.  Criterion 1 asserts what the
paper's definition of a graded 2-absorbing coprimary submodule gives for its
example: N = Z/4 + Z/9 + 0 in the Z/180-module Z/4 + Z/9 + Z/5 is not
coprimary, with the witness (x, y, K) = (2, 3, 6N), re-derived in the test with
integer arithmetic.  Criterion 5 asserts that every proposition holds on the
corpus; it fails on `hom-preimage`, which the checker states with no hypothesis
on f and which has genuine counterexamples that re-check against the
definitional predicates.  Whether the paper's statement assumes a monomorphism
is open; docs/FINDINGS.md has both derivations.
"""
import io
import time

from gradedalg import (
    PROPOSITION_IDS,
    annihilator,
    build_standard_corpus,
    classify_ideal,
    classify_submodule,
    coprimary_via_characterization,
    enumerate_graded_subobjects,
    graded_radical,
    localize_module,
    localize_ring,
    localize_subobject,
    make_module,
    make_ring,
    parse_structure_text,
    recheck_coprimary_violation,
    search_counterexample,
    span,
    subobject,
    verify_proposition,
    whole_subobject,
)
from gradedalg.cli import run_cli
from gradedalg.grading import module_same_as_ring, ring_trivial

CORPUS = build_standard_corpus()

EXAMPLE_TEXT = """\
group trivial
ring zmod 180
grading trivial
module directsum 4 9 5
submodule N gens (1,0,0) (0,1,0)
"""


def _report(k: int, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'}{' -- ' + detail if detail else ''}")
    return ok


def _z12_module():
    gr = ring_trivial(make_ring(("zmod", 12)))
    return gr, module_same_as_ring(make_module(("self",), gr.ring), gr)


def _example_violation_by_hand():
    """N, K = 6N, (K :_R N), its radical and Ann_R(N) for the criterion 1
    example, over integer labels only: r acts on (a, b, c) coordinatewise."""

    def act(r, m):
        return (r * m[0] % 4, r * m[1] % 9, r * m[2] % 5)

    n = {(a, b, 0) for a in range(4) for b in range(9)}
    k = {act(6, m) for m in n}
    colon_kn = {r for r in range(180) if all(act(r, m) in k for m in n)}
    # the grading is trivial, so the graded radical is the radical; every
    # prime divides 180 at most squared, so r**2 reaches what any power does
    radical = {r for r in range(180) if r in colon_kn or r * r % 180 in colon_kn}
    ann = {r for r in range(180) if all(act(r, m) == (0, 0, 0) for m in n)}
    return n, k, colon_kn, radical, ann


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    entry = parse_structure_text(EXAMPLE_TEXT)
    n = entry.named["N"]
    cop = classify_submodule(n, "2a-coprimary-def")
    strong = classify_submodule(n, "strong-2a-second").value
    char = coprimary_via_characterization(n)
    elapsed = time.perf_counter() - t0

    ring_labels = entry.gmodule.gring.ring.labels
    mod_labels = n.carrier.labels
    w = cop.witness or {}
    got = (
        ring_labels[w["x"]] if "x" in w else None,
        ring_labels[w["y"]] if "y" in w else None,
        {mod_labels[m] for m in w["K"].members} if "K" in w else None,
    )
    hand_n, hand_k, hand_colon, hand_radical, hand_ann = _example_violation_by_hand()
    sixes = {r for r in range(180) if r % 6 == 0}
    by_hand = (
        hand_colon == sixes
        and hand_radical == sixes
        and hand_ann == {r for r in range(180) if r % 36 == 0}
        and 6 not in hand_ann
        and 2 not in hand_radical
        and 3 not in hand_radical
    )
    ok = (
        {mod_labels[m] for m in n.members} == hand_n
        and cop.value is False
        and got == (2, 3, hand_k)
        and recheck_coprimary_violation(n, w["x"], w["y"], w["K"])
        and char.value is False
        and {k: ring_labels[v] for k, v in char.witness.items()} == {"x": 2, "y": 3}
        and by_hand
        and strong is False
        and elapsed < 30.0
    )
    assert _report(
        1,
        ok,
        f"coprimary={cop.value} (expected False) witness x={got[0]} y={got[1]} |K|="
        f"{len(got[2]) if got[2] is not None else None} (expected 2, 3, 6N) "
        f"char={char.value} (expected False) by_hand={by_hand} strong={strong} "
        f"(expected False) wall={elapsed:.1f}s",
    )


def test_criterion_2_lattice_count():
    entry = next(e for e in CORPUS if e.name == "torsion180")
    subs = enumerate_graded_subobjects(entry.gmodule)
    ok = len(subs) == 18
    assert _report(2, ok, f"count={len(subs)}")


def test_criterion_3_characterization_equivalence():
    mismatches = 0
    for entry in CORPUS:
        for n in entry.graded_submodules():
            if n.is_zero:
                continue
            if (
                classify_submodule(n, "2a-coprimary-def").value
                != coprimary_via_characterization(n).value
            ):
                mismatches += 1
    assert _report(3, mismatches == 0, f"mismatches={mismatches}")


def test_criterion_4_implication_chain():
    violations = 0
    for entry in CORPUS:
        for n in entry.graded_submodules():
            if n.is_zero:
                continue
            second = classify_submodule(n, "second").value
            strong = classify_submodule(n, "strong-2a-second").value
            cop = coprimary_via_characterization(n).value
            if (second and not strong) or (strong and not cop):
                violations += 1
    strict = search_counterexample("2a-coprimary and not strong-2a-second", CORPUS)
    none_expected = search_counterexample("second and not 2a-coprimary", CORPUS)
    ok = violations == 0 and strict is not None and none_expected is None
    assert _report(4, ok, f"violations={violations} strictness_witness={strict and strict['entry']}")


def test_criterion_5_proposition_suite():
    t0 = time.perf_counter()
    reports = [verify_proposition(pid, CORPUS) for pid in PROPOSITION_IDS]
    elapsed = time.perf_counter() - t0
    bad = {r.prop_id: len(r.violations) for r in reports if r.violations}
    vacuous = [r.prop_id for r in reports if r.instances < 1]
    ok = not bad and not vacuous and elapsed < 300.0
    assert _report(5, ok, f"violations={bad or 0} vacuous={vacuous or 0} wall={elapsed:.1f}s"), (
        "propositions with corpus counterexamples (each violation re-checks "
        f"against the definitional predicates): {bad}"
    )


def test_criterion_6_radical_oracle():
    gr, _ = _z12_module()
    got = graded_radical(span({4}, gr)).members
    ok = got == frozenset({0, 2, 4, 6, 8, 10})
    assert _report(6, ok, f"Grad((4))={sorted(got)}")


def test_criterion_7_annihilator_oracle():
    entry = next(e for e in CORPUS if e.name == "torsion180")
    ann = annihilator(entry.named["N"])
    verdict = classify_ideal(ann, "2-absorbing-primary").value
    ok = ann.members == frozenset({0, 36, 72, 108, 144}) and verdict is True
    assert _report(7, ok, f"Ann(N)={sorted(ann.members)} 2AP={verdict}")


def test_criterion_8_localization_sanity():
    gr, gm = _z12_module()
    loc_ring = localize_ring(gr, (1, 3, 9))
    loc_mod = localize_module(gm, (1, 3, 9), ring_loc=loc_ring)
    sn = localize_subobject(loc_mod, subobject(gm, {0, 4, 8}))
    ok = len(loc_ring.reps) == 4 and sn.is_zero
    assert _report(8, ok, f"classes={len(loc_ring.reps)} localized_zero={sn.is_zero}")


def test_criterion_9_negative_instance_witness():
    gr, gm = _z12_module()
    whole = whole_subobject(gm)
    v = classify_submodule(whole, "2a-coprimary-def")
    ok = (
        v.value is False
        and v.witness is not None
        and recheck_coprimary_violation(whole, v.witness["x"], v.witness["y"], v.witness["K"])
    )
    assert _report(9, ok, f"witness={v.witness}")


def test_criterion_10_determinism():
    argv = ["--threads", "4", "--report", "machine", "verify", "--suite", "all"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        run_cli(argv, out=buf)
        outs.append(buf.getvalue().encode())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    assert _report(10, ok, f"bytes={len(outs[0])}")
