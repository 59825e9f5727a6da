"""The ideal and submodule predicates on Z/n against number theory.

Every proper ideal of Z/n is dZ/n for a divisor d of n (d = n is the zero
ideal), and its preimage in Z is dZ.  So, with p and q distinct primes:

- prime iff d = p;
- primary iff d = p^a;
- 2-absorbing iff d is p, p^2 or pq (Badawi 2007, Bull. Austral. Math. Soc. 75);
- 2-absorbing primary iff d = p^a q^b (Badawi, Tekir and Yetkin 2014,
  Bull. Korean Math. Soc. 51).

A non-zero submodule N of a Z/n-module has Ann(N) = eZ/n, where e is the
gcd of n and the residues of Ann(N), and (xyN :_R N) = gcd(xy, e)Z/n.  So:

- N is second iff e = p;
- N is strongly 2-absorbing second iff e is p, p^2 or pq;
- N is 2-absorbing coprimary (definition and characterization) iff e is p^a
  or pq.

These verdicts share neither the package's canonical order nor its subobject
calculus: d and e are read off member sets and the action table, and factored
by trial division here.
"""
import math
from pathlib import Path

import pytest

from gradedalg import (
    IDEAL_PREDICATES,
    build_standard_corpus,
    classify_ideal,
    classify_submodule,
    coprimary_via_characterization,
    enumerate_graded_subobjects,
    make_module,
    make_ring,
)
from gradedalg.grading import module_trivial, ring_trivial
from gradedalg.structfile import parse_structure_dir


def _exponents(d):
    """The prime exponents of d, by trial division."""
    out = []
    p = 2
    while p * p <= d:
        a = 0
        while d % p == 0:
            d //= p
            a += 1
        if a:
            out.append(a)
        p += 1
    if d > 1:
        out.append(1)
    return out


def closed_form(d, predicate):
    exps = _exponents(d)
    if predicate == "prime":
        return exps == [1]
    if predicate == "primary":
        return len(exps) == 1
    if predicate == "2-absorbing":
        return sum(exps) in (1, 2)
    return len(exps) in (1, 2)


def test_the_closed_forms_read_the_factorization():
    assert [d for d in range(2, 40) if closed_form(d, "prime")][:6] == [2, 3, 5, 7, 11, 13]
    assert [d for d in range(2, 30) if closed_form(d, "primary") and not closed_form(d, "prime")] == [
        4, 8, 9, 16, 25, 27]
    assert [d for d in range(2, 30) if closed_form(d, "2-absorbing") and not closed_form(d, "prime")] == [
        4, 6, 9, 10, 14, 15, 21, 22, 25, 26]
    assert [d for d in range(2, 80) if not closed_form(d, "2-absorbing-primary")] == [30, 42, 60, 66, 70, 78]


def _mismatches(ns):
    """(n, d, predicate) for each verdict on a proper ideal dZ/n of some n in
    ``ns`` that differs from the closed form, and the number of verdicts."""
    bad, count = [], 0
    for n in ns:
        gring = ring_trivial(make_ring(("zmod", n)))
        for p in enumerate_graded_subobjects(gring):
            if p.is_whole:
                continue
            d = math.gcd(n, *p.members)
            for predicate in IDEAL_PREDICATES:
                count += 1
                if classify_ideal(p, predicate).value != closed_form(d, predicate):
                    bad.append((n, d, predicate))
    return bad, count


def test_ideal_verdicts_match_the_closed_forms():
    bad, count = _mismatches(range(2, 128))
    assert bad == []
    assert count == 4 * sum(sum(1 for d in range(2, n + 1) if n % d == 0) for n in range(2, 128))


@pytest.mark.slow
def test_ideal_verdicts_match_the_closed_forms_below_200():
    bad, count = _mismatches(range(2, 200))
    assert bad == []
    assert count == 3548


def submodule_closed_form(e, predicate):
    exps = _exponents(e)
    if predicate == "second":
        return exps == [1]
    if predicate == "strong-2a-second":
        return sum(exps) in (1, 2)
    return len(exps) == 1 or exps == [1, 1]


def test_the_submodule_closed_forms_read_the_factorization():
    assert [e for e in range(2, 30) if submodule_closed_form(e, "strong-2a-second")] == [
        2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 25, 26, 29]
    assert [e for e in range(2, 30) if not submodule_closed_form(e, "2a-coprimary-def")] == [12, 18, 20, 24, 28]


_SUBMODULE_VERDICTS = {
    "second": lambda n: classify_submodule(n, "second"),
    "strong-2a-second": lambda n: classify_submodule(n, "strong-2a-second"),
    "2a-coprimary-def": lambda n: classify_submodule(n, "2a-coprimary-def"),
    "2a-coprimary-char": coprimary_via_characterization,
}


def _submodule_mismatches(ns):
    """(n, shape, e, predicate) for each verdict on a non-zero submodule of
    ``directsum d`` or ``directsum a b`` over Z/n, for n in ``ns``, d, a and b
    dividing n and 1 < a <= b with ab <= 64, that differs from the closed form;
    and the number of submodules."""
    bad, count = [], 0
    for n in ns:
        gring = ring_trivial(make_ring(("zmod", n)))
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        shapes = [(d,) for d in divisors] + [(a, b) for a in divisors for b in divisors if a <= b and a * b <= 64]
        for shape in shapes:
            gm = module_trivial(make_module(("directsum",) + shape, gring.ring), gring)
            act, zero = gm.module.action, gm.module.zero
            for sub in enumerate_graded_subobjects(gm):
                if sub.is_zero:
                    continue
                count += 1
                e = math.gcd(n, *(r for r in range(n) if all(act[r][m] == zero for m in sub.members)))
                for predicate, verdict in _SUBMODULE_VERDICTS.items():
                    form = "2a-coprimary-def" if predicate == "2a-coprimary-char" else predicate
                    if verdict(sub).value != submodule_closed_form(e, form):
                        bad.append((n, shape, e, predicate))
    return bad, count


def test_submodule_verdicts_match_the_closed_forms():
    bad, count = _submodule_mismatches(range(2, 41))
    assert bad == []
    assert count == 2291


@pytest.mark.slow
def test_submodule_verdicts_match_the_closed_forms_up_to_60():
    bad, count = _submodule_mismatches(range(2, 61))
    assert bad == []
    assert count == 3801


# The local-ring law.  If every homogeneous non-unit of R is nilpotent, every
# non-zero graded N is 2-absorbing coprimary and every proper graded ideal is
# primary.  For xyN ⊆ K: a non-unit x has x^m = 0 in (K :_R N), so x is in its
# graded radical; if x and y are both units, N = (xy)^-1 xyN ⊆ K.  For ab ∈ P
# with a ∉ P: b is not a unit, or a = ab·b^-1 would lie in P, so b is nilpotent.
# The condition is read off the tables alone: a unit's mul row holds the one,
# and a nilpotent's powers hold the zero.

def _homogeneous_non_units_are_nilpotent(gring):
    ring = gring.ring
    return all(
        ring.one in ring.mul[x] or ring.zero in ring.power_sets[x]
        for component in gring.grading.components for x in component
    )


_LAW_CORPORA = {
    "standard": build_standard_corpus(),
    "structures": parse_structure_dir(Path(__file__).resolve().parents[1] / "structures"),
}


def test_the_local_ring_condition_is_met_by_the_local_and_natural_entries():
    qualifying = {
        name: [Path(e.name).stem for e in corpus if _homogeneous_non_units_are_nilpotent(e.gring)]
        for name, corpus in _LAW_CORPORA.items()
    }
    assert qualifying == {
        "standard": ["zmod4", "zmod8", "zmod9", "groupring2-c2", "groupring3-c2", "z2-plane"],
        "structures": ["groupring2"],
    }


@pytest.mark.parametrize(
    "entry",
    [e for corpus in _LAW_CORPORA.values() for e in corpus if _homogeneous_non_units_are_nilpotent(e.gring)],
    ids=lambda e: Path(e.name).stem,
)
def test_the_local_ring_law(entry):
    submodules = [n for n in entry.graded_submodules() if not n.is_zero]
    ideals = [p for p in entry.graded_ideals() if not p.is_whole]
    assert submodules and ideals
    assert [n for n in submodules if not classify_submodule(n, "2a-coprimary-def").value] == []
    assert [n for n in submodules if not coprimary_via_characterization(n).value] == []
    assert [p for p in ideals if not classify_ideal(p, "primary").value] == []
