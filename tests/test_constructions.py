import pytest

from gradedalg import (
    HomInvalid,
    InvalidDenominators,
    PreconditionViolation,
    annihilator,
    hom_image,
    hom_kernel,
    hom_preimage,
    identity_hom,
    localize,
    localize_module,
    localize_ring,
    localize_subobject,
    make_hom,
    make_module,
    make_ring,
    multiplication_hom,
    product_graded_module,
    product_graded_ring,
    product_submodule,
    span,
    subobject,
    whole_subobject,
)
from gradedalg.constructions import Localization, _check_denominators
from gradedalg.core import FiniteModule, FiniteRing, make_group
from gradedalg.corpus import build_standard_corpus
from gradedalg.grading import (
    GradedModule,
    GradedRing,
    attach_grading,
    groupring_natural,
    module_same_as_ring,
    module_trivial,
    ring_trivial,
)


def _z12_module():
    gr = ring_trivial(make_ring(("zmod", 12)))
    return gr, module_same_as_ring(make_module(("self",), gr.ring), gr)


# ---------------------------------------------------------------------------
# homs
# ---------------------------------------------------------------------------

def test_reduction_hom_z4_to_z2z2_plane_component():
    # reduction Z4 -> Z2 embedded as the first axis of Z2 x Z2 (as modules
    # over Z4 via the trivial grading)
    ring = make_ring(("zmod", 4))
    gr = ring_trivial(ring)
    src = module_same_as_ring(make_module(("self",), ring), gr)
    tgt = module_trivial(make_module(("directsum", 2, 2), ring), gr)
    mapping = [tgt.module.index[(x % 2, 0)] for x in range(4)]
    f = make_hom(src, tgt, mapping)
    img = hom_image(f, whole_subobject(src))
    assert {tgt.module.labels[i] for i in img.members} == {(0, 0), (1, 0)}
    ker = hom_kernel(f)
    assert ker.members == frozenset({0, 2})


def test_make_hom_rejects_non_linear_map():
    gr, gm = _z12_module()
    mapping = list(range(12))
    mapping[5] = 7
    with pytest.raises(HomInvalid):
        make_hom(gm, gm, mapping)


def test_multiplication_hom_and_preimage():
    gr, gm = _z12_module()
    f = multiplication_hom(gm, 2)
    k = span({4}, gm)
    pre = hom_preimage(f, k)
    assert pre.members == frozenset({0, 2, 4, 6, 8, 10})
    assert hom_image(f, pre).members <= k.members


def test_identity_hom_roundtrip():
    gr, gm = _z12_module()
    f = identity_hom(gm)
    n = span({3}, gm)
    assert hom_image(f, n).members == n.members
    assert hom_preimage(f, n).members == n.members


def test_homs_take_a_ring_as_a_module_over_itself():
    # f = x2 on Z/12 with both ends the graded ring, so its subobjects are ideals
    gr = ring_trivial(make_ring(("zmod", 12)))
    assert identity_hom(gr).mapping == tuple(range(12))
    f = multiplication_hom(gr, 2)
    assert make_hom(gr, gr, f.mapping).mapping == f.mapping == tuple(2 * x % 12 for x in range(12))
    three_r, six_r = span({3}, gr), span({6}, gr)
    assert hom_image(f, three_r) == six_r
    assert hom_preimage(f, six_r) == three_r
    assert hom_kernel(f) == six_r
    assert hom_kernel(f).kind == "ideal"


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localize_z12_at_powers_of_3():
    gr, gm = _z12_module()
    loc = localize_ring(gr, (1, 3, 9))
    assert len(loc.reps) == 4
    # 3 becomes a unit: 3/1 * 3/9 = 9/9 = 1/1
    mloc = localize_module(gm, (1, 3, 9), ring_loc=loc)
    n = subobject(gm, {0, 4, 8})
    assert localize_subobject(mloc, n).is_zero
    # a submodule not killed by S survives
    m = span({2}, gm)
    assert not localize_subobject(mloc, m).is_zero


def test_localize_dispatch():
    # a ring and a module localize to one type; the module's ring_loc is the
    # localized ring it is a module over
    gr, gm = _z12_module()
    rloc, mloc = localize(gr, (1, 3, 9)), localize(gm, (1, 3, 9))
    assert type(rloc) is type(mloc) is Localization
    assert rloc.localized.ring.size == mloc.localized.module.size == 4
    assert rloc.ring_loc is None
    assert mloc.ring_loc.localized is mloc.localized.gring


def test_localization_rejects_bad_sets():
    gr, _ = _z12_module()
    with pytest.raises(InvalidDenominators):
        localize_ring(gr, (3, 9))  # missing 1
    with pytest.raises(InvalidDenominators):
        localize_ring(gr, (1, 2))  # 2*2 = 4 not in the set


def test_localize_module_checks_its_ring_localization():
    gr, gm = _z12_module()
    loc = localize_ring(gr, (1, 3, 9))
    # S^{-1}M at S = {1, 5} is all of Z/12 (5 is a unit), not the 4-element
    # localization at {1, 3, 9} that was passed in
    assert localize_module(gm, (1, 5)).localized.module.size == 12
    with pytest.raises(PreconditionViolation):
        localize_module(gm, (1, 5), ring_loc=loc)
    with pytest.raises(InvalidDenominators):
        localize_module(gm, (1, 2), ring_loc=loc)
    other = localize_ring(ring_trivial(make_ring(("zmod", 12))), (1, 3, 9))
    with pytest.raises(PreconditionViolation):
        localize_module(gm, (1, 3, 9), ring_loc=other)
    assert localize_module(gm, (9, 3, 1, 3), ring_loc=loc).ring_loc is loc


def test_localize_subobject_rejects_a_handle_of_another_carrier():
    gr, gm = _z12_module()
    gr2, gm2 = _z12_module()
    for loc, foreign in (
        (localize_ring(gr, (1, 3, 9)), span({2}, gr2)),
        (localize_ring(gr, (1, 3, 9)), span({2}, gm)),
        (localize_module(gm, (1, 3, 9)), span({2}, gm2)),
        (localize_module(gm, (1, 3, 9)), span({2}, gr)),
    ):
        with pytest.raises(PreconditionViolation, match="localized base"):
            localize_subobject(loc, foreign)
    with pytest.raises(PreconditionViolation, match="localized structure"):
        localize_subobject(gr, span({2}, gr))


# The localization code before ring and module shared one fraction builder,
# kept as the oracle for it: a greedy partition of the pairs under the
# definition of equal fractions, with no class key.

def _negation(add, zero):
    """neg[i] = the first j with add[i][j] == zero."""
    return tuple(list(row).index(zero) for row in add)


def _fraction_classes(pairs, equivalent):
    """Greedy partition of ``pairs`` (in canonical order) under ``equivalent``.

    Returns (reps, class_of) where reps[i] is the smallest member of class i.
    """
    reps = []
    class_of = {}
    for p in pairs:
        for i, r in enumerate(reps):
            if equivalent(p, r):
                class_of[p] = i
                break
        else:
            class_of[p] = len(reps)
            reps.append(p)
    return reps, class_of


def _oracle_localize_ring(gring, s):
    s = _check_denominators(gring, s)
    ring = gring.ring
    mul, add, neg = ring.mul, ring.add, _negation(ring.add, ring.zero)

    def equivalent(p, q):
        a, sden = p
        b, tden = q
        diff = add[mul[tden][a]][neg[mul[sden][b]]]
        return any(mul[u][diff] == ring.zero for u in s)

    pairs = [(a, d) for a in range(ring.size) for d in s]
    reps, class_of = _fraction_classes(pairs, equivalent)
    labels = tuple(f"{ring.labels[a]}/{ring.labels[d]}" for a, d in reps)
    ladd = tuple(
        tuple(class_of[(add[mul[t][a]][mul[sden][b]], mul[sden][t])] for (b, t) in reps)
        for (a, sden) in reps
    )
    lmul = tuple(
        tuple(class_of[(mul[a][b], mul[sden][t])] for (b, t) in reps)
        for (a, sden) in reps
    )
    zero = class_of[(ring.zero, ring.one)]
    one = class_of[(ring.one, ring.one)]
    lring = FiniteRing(labels, ladd, lmul, zero, one)

    group = gring.group
    assignment = {g: set() for g in range(group.size)}
    rcomps = gring.grading.components
    for g in range(group.size):
        for h in range(group.size):
            d = group.op[h][group.inverse[g]]
            for sden in s:
                if sden not in rcomps[d]:
                    continue
                for a in rcomps[h]:
                    assignment[g].add(class_of[(a, sden)])
    grading = attach_grading(lring, group, assignment)
    return s, GradedRing(lring, grading), tuple(reps), class_of


def _oracle_localize_module(gm, ring_loc):
    s, lgring, ring_reps, _ = ring_loc
    module = gm.module
    ring = gm.gring.ring
    act, madd, mneg = module.action, module.add, _negation(module.add, module.zero)

    def equivalent(p, q):
        m, sden = p
        m2, tden = q
        diff = madd[act[tden][m]][mneg[act[sden][m2]]]
        return any(act[u][diff] == module.zero for u in s)

    pairs = [(m, d) for m in range(module.size) for d in s]
    reps, class_of = _fraction_classes(pairs, equivalent)
    labels = tuple(f"{module.labels[m]}/{ring.labels[d]}" for m, d in reps)
    ladd = tuple(
        tuple(class_of[(madd[act[t][m]][act[sden][m2]], ring.mul[sden][t])] for (m2, t) in reps)
        for (m, sden) in reps
    )
    laction = tuple(
        tuple(class_of[(act[a][m], ring.mul[sden][t])] for (m, t) in reps)
        for (a, sden) in ring_reps
    )
    zero = class_of[(module.zero, ring.one)]
    lmodule = FiniteModule(lgring.ring, labels, ladd, zero, laction)

    group = gm.group
    assignment = {g: set() for g in range(group.size)}
    mcomps = gm.grading.components
    rcomps = gm.gring.grading.components
    for g in range(group.size):
        for h in range(group.size):
            d = group.op[h][group.inverse[g]]
            for sden in s:
                if sden not in rcomps[d]:
                    continue
                for m in mcomps[h]:
                    assignment[g].add(class_of[(m, sden)])
    grading = attach_grading(lmodule, group, assignment, ring_grading=lgring.grading)
    return GradedModule(lmodule, lgring, grading), tuple(reps), class_of


def _single_element_closures(ring):
    """The multiplicative closures {1, x, x^2, ...} of the elements x of ``ring``."""
    closures = set()
    for x in range(ring.size):
        s, cur = {ring.one}, x
        while cur not in s:
            s.add(cur)
            cur = ring.mul[cur][x]
        closures.add(tuple(sorted(s)))
    return sorted(closures)


def _localization_cases():
    for n in range(2, 37):
        ring = make_ring(("zmod", n))
        gm = module_same_as_ring(make_module(("self",), ring), ring_trivial(ring))
        for s in _single_element_closures(ring):
            yield f"zmod{n}", gm, s
    # modules other than the ring itself
    for n, sizes in ((8, (2, 4)), (12, (4, 6)), (36, (4, 9)), (36, (2, 6, 3))):
        ring = make_ring(("zmod", n))
        gm = module_trivial(make_module(("directsum", *sizes), ring), ring_trivial(ring))
        for s in _single_element_closures(ring):
            yield f"zmod{n}-directsum{sizes}", gm, s
    torsion = next(e for e in build_standard_corpus() if e.name == "torsion180")
    yield "torsion180", torsion.gmodule, torsion.mulsets["S5"]
    c2 = make_group(("cyclic", 2))
    for p in (2, 3):
        ring = make_ring(("groupring", p, c2))
        gr = groupring_natural(ring, c2)
        gm = module_same_as_ring(make_module(("self",), ring), gr)
        units = {ring.index[(c, 0)] for c in (1, p - 1)} | {ring.index[(0, c)] for c in (1, p - 1)}
        yield f"F{p}[C2]", gm, tuple(units)


def _assert_same_graded(got, want, table):
    c, w = got.grading.carrier, want.grading.carrier
    assert c.labels == w.labels
    for name in ("add", table):
        assert [list(row) for row in getattr(c, name)] == [list(row) for row in getattr(w, name)], name
    assert c.zero == w.zero
    assert got.grading.components == want.grading.components


def test_localization_builder_matches_the_separate_ring_and_module_code():
    seen = direct_sums = 0
    for name, gm, s in _localization_cases():
        loc = localize_module(gm, s)
        ring_loc = _oracle_localize_ring(gm.gring, s)
        want_s, want_gring, want_ring_reps, want_ring_class_of = ring_loc
        assert loc.ring_loc.denominators == want_s, name
        _assert_same_graded(loc.ring_loc.localized, want_gring, "mul")
        assert loc.ring_loc.localized.ring.one == want_gring.ring.one, (name, s)
        assert loc.ring_loc.reps == want_ring_reps, (name, s)
        assert loc.ring_loc.class_of == want_ring_class_of, (name, s)
        want_gm, want_reps, want_class_of = _oracle_localize_module(gm, ring_loc)
        _assert_same_graded(loc.localized, want_gm, "action")
        assert loc.reps == want_reps, (name, s)
        assert loc.class_of == want_class_of, (name, s)
        seen += 1
        direct_sums += "directsum" in name
    assert seen > 100
    assert direct_sums == 80


def test_localized_structures_pass_validation():
    from gradedalg import validate_axioms

    gr, gm = _z12_module()
    loc = localize_module(gm, (1, 3, 9))
    assert validate_axioms(loc.ring_loc.localized.ring).ok
    assert validate_axioms(loc.localized.module).ok


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _product_setup():
    group = make_group("trivial")
    r1 = make_ring(("zmod", 4))
    r2 = make_ring(("zmod", 9))
    gr1 = ring_trivial(r1, group)
    gr2 = ring_trivial(r2, group)
    gring = product_graded_ring(gr1, gr2)
    gm1 = module_same_as_ring(make_module(("self",), r1), gr1)
    gm2 = module_same_as_ring(make_module(("self",), r2), gr2)
    gm = product_graded_module(gm1, gm2, gring)
    return gm1, gm2, gring, gm


def test_product_submodule_annihilator_splits():
    gm1, gm2, gring, gm = _product_setup()
    n1 = span({2}, gm1)
    n2 = span({3}, gm2)
    n = product_submodule(n1, n2, gm)
    a1 = annihilator(n1).members
    a2 = annihilator(n2).members
    expected = {i1 * 9 + i2 for i1 in a1 for i2 in a2}
    assert annihilator(n).members == frozenset(expected)


def test_product_requires_shared_group_object():
    r1 = make_ring(("zmod", 4))
    r2 = make_ring(("zmod", 9))
    gr1 = ring_trivial(r1)  # two distinct trivial group objects
    gr2 = ring_trivial(r2)
    with pytest.raises(PreconditionViolation):
        product_graded_ring(gr1, gr2)


def test_product_grading_components():
    gm1, gm2, gring, gm = _product_setup()
    assert gring.grading.components[0] == frozenset(range(36))
    assert gm.grading.components[0] == frozenset(range(36))
