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
import itertools
import math
from collections import Counter
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


def _factor(d):
    """{p: a} over the prime powers p^a exactly dividing d, by trial division."""
    out = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            d //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if d > 1:
        out[d] = 1
    return out


def _exponents(d):
    """The prime exponents of d, smallest prime first."""
    return list(_factor(d).values())


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


# Subgroup counts.  Over Z/n with the trivial grading the graded lattice of
# ``directsum m_1 ... m_k`` is the subgroup lattice of Z/m_1 + ... + Z/m_k.  By
# the Chinese remainder theorem it is the product of the lattices of its
# p-parts, and a p-group of type lambda has
#   prod_{i>=1} p^{mu'_{i+1} (lambda'_i - mu'_i)} [lambda'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p
# subgroups of type mu, each of order p^|mu|, where ' is the conjugate
# partition and [n, k]_p the Gaussian binomial (Birkhoff 1935; Butler,
# Subgroup lattices and symmetric functions, Mem. AMS 539, 1994).

def _gaussian(n, k, p):
    """The Gaussian binomial [n, k]_p, for 0 <= k <= n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _conjugate(partition, length):
    """The first ``length`` parts of the conjugate partition, zeros included."""
    return [sum(1 for part in partition if part >= i) for i in range(1, length + 1)]


def _p_group_types(p, lam):
    """{mu': number of subgroups of type mu} of the abelian p-group of type
    ``lam`` (non-increasing exponents), each mu keyed by its first lam[0]
    conjugate parts."""
    counts = {}
    lc = _conjugate(lam, lam[0] + 1)
    for mu in itertools.product(*(range(part + 1) for part in lam)):
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue  # not a partition
        mc = _conjugate(mu, lam[0] + 1)
        counts[tuple(mc[:-1])] = math.prod(
            p ** (mc[i + 1] * (lc[i] - mc[i])) * _gaussian(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
            for i in range(lam[0])
        )
    return counts


def _p_parts(ms):
    """{p: the exponents of p in m_1, ..., m_k, largest first} over the primes
    p dividing some m_i, smallest p first."""
    parts = {}
    for m in ms:
        for p, a in _factor(m).items():
            parts.setdefault(p, []).append(a)
    return {p: sorted(parts[p], reverse=True) for p in sorted(parts)}


def subgroup_types(ms):
    """{type: number of subgroups of that type} of Z/m_1 + ... + Z/m_k, where
    a type holds (p, mu') for each p of ``_p_parts(ms)``, mu the type of the
    subgroup's p-part."""
    counts = {(): 1}
    for p, lam in _p_parts(ms).items():  # the p-parts of a subgroup are chosen independently
        p_counts = _p_group_types(p, lam)
        counts = {t + ((p, mc),): x * y for t, x in counts.items() for mc, y in p_counts.items()}
    return counts


def subgroup_counts(ms):
    """{order: number of subgroups of that order} of Z/m_1 + ... + Z/m_k."""
    counts = Counter()
    for t, x in subgroup_types(ms).items():
        counts[math.prod(p ** sum(mc) for p, mc in t)] += x
    return dict(counts)


def _log(p, size):
    e = 0
    while size % p == 0:
        size, e = size // p, e + 1
    assert size == 1
    return e


def _walk_types(gm, ms):
    """The type of each subgroup H the lattice walk finds, read from the
    counts |H[p^j]| of its members whose order, counted in the add table,
    divides p^j: their base-p logarithms are the partial sums of mu'."""
    add, zero = gm.module.add, gm.module.zero
    order = []
    for x in range(gm.module.size):
        k, cur = 1, x
        while cur != zero:
            k, cur = k + 1, add[cur][x]
        order.append(k)
    types = Counter()
    for h in enumerate_graded_subobjects(gm):
        t = []
        for p, lam in _p_parts(ms).items():
            logs = [_log(p, sum(1 for x in h.members if p ** j % order[x] == 0)) for j in range(lam[0] + 1)]
            t.append((p, tuple(b - a for a, b in zip(logs, logs[1:]))))
        types[tuple(t)] += 1
    return types


def test_subgroup_counts_match_known_lattices():
    # Z/n has one subgroup per divisor; (2^k) has the sum of the Gaussian
    # binomials [k, j]_2 subgroups
    assert subgroup_counts((12,)) == {d: 1 for d in (1, 2, 3, 4, 6, 12)}
    # Z/4 + Z/2: 1, Z/2 three times, Z/4 twice, Z/2 + Z/2, and itself
    assert subgroup_types((4, 2)) == {
        ((2, (0, 0)),): 1, ((2, (1, 0)),): 3, ((2, (1, 1)),): 2, ((2, (2, 0)),): 1, ((2, (2, 1)),): 1}
    assert subgroup_counts((2, 2)) == {1: 1, 2: 3, 4: 1}
    assert [sum(subgroup_counts((2,) * k).values()) for k in range(1, 8)] == [2, 5, 16, 67, 374, 2825, 29212]
    assert sum(subgroup_counts((36, 6)).values()) == 80
    assert sum(subgroup_counts((9, 3, 3)).values()) == 50


def _directsum_types(limit):
    """Every abelian group of order at most ``limit`` but 1, once, as its
    invariant factors m_1, m_2, ... with each m_{i+1} dividing m_i."""
    def extend(prefix, order):
        yield prefix
        for m in range(2, prefix[-1] + 1):
            if prefix[-1] % m == 0 and order * m <= limit:
                yield from extend(prefix + (m,), order * m)
    for m in range(2, limit + 1):
        yield from extend((m,), m)


def _walk_mismatches(limit):
    """The types of ``_directsum_types(limit)`` whose lattice walk's size
    histogram differs from ``subgroup_counts``, or whose histogram of subgroup
    types differs from ``subgroup_types``; and the number of types."""
    bad, types = [], list(_directsum_types(limit))
    for ms in types:
        gring = ring_trivial(make_ring(("zmod", ms[0])))
        gm = module_trivial(make_module(("directsum",) + ms, gring.ring), gring)
        sizes = Counter(len(h.members) for h in enumerate_graded_subobjects(gm))
        if sizes != subgroup_counts(ms) or _walk_types(gm, ms) != subgroup_types(ms):
            bad.append(ms)
    return bad, len(types)


def test_the_lattice_walk_finds_every_subgroup_up_to_64_elements():
    # (2^5) has 374 subgroups and (2^6) 2825, the largest lattice here; each
    # type is counted, so a walk that found Z/4 in place of Z/2 + Z/2 fails
    assert _walk_mismatches(64) == ([], 116)


@pytest.mark.slow
def test_the_lattice_walk_finds_every_subgroup_up_to_128_elements():
    assert _walk_mismatches(128) == ([], 246)
