"""The ideal predicates on Z/n against number theory.

Every proper ideal of Z/n is dZ/n for a divisor d of n (d = n is the zero
ideal), and its preimage in Z is dZ.  So, with p and q distinct primes:

- prime iff d = p;
- primary iff d = p^a;
- 2-absorbing iff d is p, p^2 or pq (Badawi 2007, Bull. Austral. Math. Soc. 75);
- 2-absorbing primary iff d = p^a q^b (Badawi, Tekir and Yetkin 2014,
  Bull. Korean Math. Soc. 51).

These verdicts share neither the package's canonical order nor its subobject
calculus: d is read off the member set and factored by trial division here.
"""
import math

import pytest

from gradedalg import IDEAL_PREDICATES, classify_ideal, enumerate_graded_subobjects, make_ring
from gradedalg.grading import ring_trivial


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
