"""Differential tests: the counting and per-orbit checkers against the
per-instance checkers they replaced, kept here verbatim as oracles.

The oracles build a sum, an intersection, a colon, a scalar multiple or a
hom table for every instance.  Each new checker must give the same sequence
of yields (records and None, in order) and the same skip Counter on every
standard entry, every file of ``structures/`` and a 374-element lattice.
"""
from collections import Counter
from pathlib import Path

import pytest

from gradedalg import build_standard_corpus
from gradedalg.classifiers import classify_ideal, coprimary_via_characterization
from gradedalg.constructions import identity_hom, multiplication_hom
from gradedalg.propositions import (
    _check_closure_lemma,
    _check_colon_2ap,
    _check_scalar_multiple,
    _coprimary,
    _hom_family,
    _nonzero_subs,
)
from gradedalg.structfile import parse_structure_file
from gradedalg.subobjects import annihilator, colon, colon_by_element, combine, span, whole_subobject

STRUCTURES = sorted((Path(__file__).resolve().parent.parent / "structures").glob("*.gstruct"))


def oracle_closure_lemma(entry, skip):
    ideals = entry.graded_ideals()
    subs = entry.graded_submodules()
    gm = entry.gmodule
    gring = gm.gring
    module_labels, ring_labels = gm.module.labels, gring.ring.labels

    def graded(handle, what, detail):
        return None if handle.graded else {"op": what, "detail": detail}

    for objs, kind in ((ideals, "ideal"), (subs, "submodule")):
        add, meet = kind + "-sum", kind + "-intersect"
        for a in objs:
            for b in objs:
                yield graded(combine(a, b, "sum"), add, (a, b))
                yield graded(combine(a, b, "intersect"), meet, (a, b))
    spans = {}
    for x in gm.hom:
        m = gm.orbit_min[x]
        if m not in spans:
            spans[m] = span({m}, gm)
        yield graded(spans[m], "cyclic-span", module_labels[x])
    for i in ideals:
        for n in subs:
            yield graded(combine(i, n, "ideal_product"), "ideal-product", (i, n))
    for r in gring.hom:
        for n in subs:
            yield graded(combine(r, n, "scalar_product"), "scalar-multiple", ring_labels[r])
    whole = whole_subobject(gm)
    for n in subs:
        yield graded(colon(n, whole), "colon-into-module", n)
        yield graded(annihilator(n), "annihilator", n)
    for x in gring.hom:
        for n in subs:
            yield graded(colon_by_element(n, x), "colon-by-element", ring_labels[x])


def oracle_colon_2ap(entry, skip):
    subs = entry.graded_submodules()
    for n in _coprimary(_nonzero_subs(entry), skip, weight=len(subs)):
        for k in subs:
            if n <= k:
                skip["N-contained-in-K"] += 1
                continue
            v = classify_ideal(colon(k, n), "2-absorbing-primary")
            yield None if v.value else {"N": n, "K": k, "witness": v.witness}


def oracle_scalar_multiple(entry, skip):
    for n in _coprimary(_nonzero_subs(entry), skip):
        ann = annihilator(n).members
        for a in entry.gmodule.gring.hom:
            if a in ann:
                skip["scalar-annihilates-N"] += 1
                continue
            v = coprimary_via_characterization(combine(a, n, "scalar_product"))
            yield None if v.value else {"N": n, "a": a}


def oracle_hom_family(entry):
    gm = entry.gmodule
    orbit_min, one = gm.gring.orbit_min, gm.gring.ring.one
    fams = [(one, identity_hom(gm))]
    seen, first = {fams[0][1].mapping}, {orbit_min[one]: fams[0][1]}
    for r in sorted(gm.gring.grading.components[gm.group.identity]):
        h = multiplication_hom(gm, r)
        if h.mapping not in seen:
            seen.add(h.mapping)
            fams.append((r, first.setdefault(orbit_min[r], h)))
    return fams


CHECKERS = {
    "closure-lemma": (_check_closure_lemma, oracle_closure_lemma),
    "colon-2AP": (_check_colon_2ap, oracle_colon_2ap),
    "scalar-multiple": (_check_scalar_multiple, oracle_scalar_multiple),
}


def _yields(check, entry):
    skip = Counter()
    return list(check(entry, skip)), skip


def _family(fams):
    """(r, the mapping of f, the first position whose f is this f) per pair:
    the pairs, and which of them share one hom object."""
    homs = [f for _, f in fams]
    return [(r, f.mapping, next(i for i, h in enumerate(homs) if h is f)) for r, f in fams]


def _assert_matches_oracles(entry):
    for pid, (check, oracle) in CHECKERS.items():
        assert _yields(check, entry) == _yields(oracle, entry), (pid, entry.name)
    assert _family(_hom_family(entry)) == _family(oracle_hom_family(entry)), entry.name


@pytest.mark.parametrize("entry", build_standard_corpus(), ids=lambda e: e.name)
def test_checkers_match_their_oracles_on_the_standard_corpus(entry):
    _assert_matches_oracles(entry)


@pytest.mark.parametrize("path", STRUCTURES, ids=lambda p: p.name)
def test_checkers_match_their_oracles_on_the_structure_files(path):
    _assert_matches_oracles(parse_structure_file(path))


def test_checkers_match_their_oracles_on_a_374_element_lattice(tmp_path):
    # F2^5: every subgroup is graded, 374 of them, so closure-lemma has
    # 139876 submodule sums and colon-2AP 134107 instances
    path = tmp_path / "f2-5.gstruct"
    path.write_text("group trivial\nring zmod 2\ngrading trivial\nmodule directsum 2 2 2 2 2\n")
    entry = parse_structure_file(path)
    assert len(entry.graded_submodules()) == 374
    _assert_matches_oracles(entry)

