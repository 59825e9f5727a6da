import math

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedalg import (
    IDEAL_PREDICATES,
    PreconditionViolation,
    TooLarge,
    build_standard_corpus,
    classify_ideal,
    classify_submodule,
    colon,
    coprimary_via_characterization,
    enumerate_graded_subobjects,
    graded_radical,
    is_graded_comultiplication_module,
    make_group,
    make_module,
    make_ring,
    parse_structure_text,
    recheck_coprimary_violation,
    recheck_strong_violation,
    span,
    whole_subobject,
    zero_subobject,
)
from gradedalg.classifiers import _good_bits, _orbit_min
from gradedalg.grading import groupring_natural, module_same_as_ring, ring_trivial
from gradedalg.subobjects import rn_masks


def _self_module(n):
    gr = ring_trivial(make_ring(("zmod", n)))
    return gr, module_same_as_ring(make_module(("self",), gr.ring), gr)


# ---------------------------------------------------------------------------
# ideal predicates
# ---------------------------------------------------------------------------

def test_prime_ideal_in_z12():
    gr, _ = _self_module(12)
    p2 = span({2}, gr)
    p4 = span({4}, gr)
    assert classify_ideal(p2, "prime").value
    v = classify_ideal(p4, "prime")
    assert not v.value
    a, b = v.witness["a"], v.witness["b"]
    assert gr.ring.mul[a][b] in p4.members and a not in p4.members and b not in p4.members


def test_primary_ideal_in_z12():
    gr, _ = _self_module(12)
    assert classify_ideal(span({4}, gr), "primary").value
    assert not classify_ideal(span({6}, gr), "primary").value


def test_zero_ideal_of_z30_not_2_absorbing():
    gr = ring_trivial(make_ring(("zmod", 30)))
    z = zero_subobject(gr)
    v = classify_ideal(z, "2-absorbing")
    assert not v.value
    assert {v.witness["a"], v.witness["b"], v.witness["c"]} == {2, 3, 5}


def test_2_absorbing_primary_in_z12():
    gr, _ = _self_module(12)
    assert classify_ideal(span({6}, gr), "2-absorbing-primary").value
    assert classify_ideal(zero_subobject(gr), "2-absorbing-primary").value


def test_classify_ideal_rejects_improper():
    gr, _ = _self_module(12)
    with pytest.raises(PreconditionViolation):
        classify_ideal(whole_subobject(gr), "prime")


# ---------------------------------------------------------------------------
# submodule predicates
# ---------------------------------------------------------------------------

def test_second_submodule():
    gr, gm = _self_module(6)
    n = span({2}, gm)  # {0,2,4}, a simple module over Z6
    assert classify_submodule(n, "second").value
    whole = whole_subobject(gm)
    assert not classify_submodule(whole, "second").value


def test_z12_whole_module_not_coprimary_with_recheck():
    gr, gm = _self_module(12)
    whole = whole_subobject(gm)
    v = classify_submodule(whole, "2a-coprimary-def")
    assert not v.value
    w = v.witness
    assert recheck_coprimary_violation(whole, w["x"], w["y"], w["K"])
    c = coprimary_via_characterization(whole)
    assert not c.value
    assert recheck_coprimary_violation(whole, c.witness["x"], c.witness["y"])


def test_z8_whole_module_separates_coprimary_from_strong():
    gr, gm = _self_module(8)
    whole = whole_subobject(gm)
    assert classify_submodule(whole, "2a-coprimary-def").value
    v = classify_submodule(whole, "strong-2a-second")
    assert not v.value
    w = v.witness
    assert recheck_strong_violation(whole, w["x"], w["y"], w["K"])


@pytest.mark.parametrize("n, predicate, recheck", [
    (12, "2a-coprimary-def", recheck_coprimary_violation),
    (8, "strong-2a-second", recheck_strong_violation),
])
def test_recheck_does_not_read_the_memoized_rn_masks(n, predicate, recheck):
    # the kernels read rn_masks(N); a re-check that read them too would
    # accept whatever a wrong mask made the kernels find
    gr, gm = _self_module(n)
    whole = whole_subobject(gm)
    w = classify_submodule(whole, predicate).witness
    gm._caches[("zmask", whole.members)] = (0,) * gr.ring.size  # rN = {} for every r
    assert recheck(whole, w["x"], w["y"], w["K"])
    if recheck is recheck_coprimary_violation:
        assert recheck(whole, w["x"], w["y"])


def test_characterization_agrees_on_z36():
    gr, gm = _self_module(36)
    from gradedalg import enumerate_graded_subobjects

    for n in enumerate_graded_subobjects(gm):
        if n.is_zero:
            continue
        assert (
            classify_submodule(n, "2a-coprimary-def").value
            == coprimary_via_characterization(n).value
        )


def test_g_form_on_group_ring():
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 2, c2))
    gr = groupring_natural(ring, c2)
    gm = module_same_as_ring(make_module(("self",), ring), gr)
    whole = whole_subobject(gm)
    # scalars restricted to one component are a weaker quantifier, so the
    # g-form verdict is implied by the full verdict when that is true
    full = classify_submodule(whole, "2a-coprimary-def").value
    for g in range(2):
        gv = classify_submodule(whole, "g-2a-coprimary", g=g).value
        if full:
            assert gv


def test_g_form_requires_group_element():
    gr, gm = _self_module(4)
    whole = whole_subobject(gm)
    with pytest.raises(PreconditionViolation):
        classify_submodule(whole, "g-2a-coprimary")


@pytest.mark.parametrize("g", [-1, 5])
def test_g_form_rejects_a_degree_outside_the_grading_group(g):
    entry = next(e for e in build_standard_corpus() if e.name == "groupring2-c2")
    whole = whole_subobject(entry.gmodule)
    with pytest.raises(PreconditionViolation, match=f"group element {g} outside the grading group"):
        classify_submodule(whole, "g-2a-coprimary", g=g)
    assert ("submodule_verdict", "g-2a-coprimary", g, whole.members) not in entry.gmodule._caches
    # the key the lookup would use: a valid degree is cached under it
    classify_submodule(whole, "g-2a-coprimary", g=1)
    assert ("submodule_verdict", "g-2a-coprimary", 1, whole.members) in entry.gmodule._caches


def test_g_form_is_the_definitional_verdict_where_r_g_holds_every_homogeneous_scalar():
    # Z/12 is trivially graded, so R_e = h(R) and the g = e form quantifies
    # over the definitional form's scalars: it reads the same memoized verdict
    _, gm = _self_module(12)
    e = gm.group.identity
    for n in enumerate_graded_subobjects(gm):
        if not n.is_zero:
            assert classify_submodule(n, "g-2a-coprimary", g=e) is classify_submodule(n, "2a-coprimary-def")


def test_g_form_at_a_proper_component_has_its_own_verdict():
    entry = next(e for e in build_standard_corpus() if e.name == "groupring2-c2")
    gring = entry.gmodule.gring
    e = gring.group.identity
    assert gring.grading.components[e] != gring.hom_set
    whole = whole_subobject(entry.gmodule)
    classify_submodule(whole, "g-2a-coprimary", g=e)
    assert ("submodule_verdict", "g-2a-coprimary", e, whole.members) in entry.gmodule._caches


_CAPPED = {
    "strong-2a-second": lambda n, cap: classify_submodule(n, "strong-2a-second", max_elements=cap),
    "2a-coprimary-def": lambda n, cap: classify_submodule(n, "2a-coprimary-def", max_elements=cap),
    "g-2a-coprimary": lambda n, cap: classify_submodule(n, "g-2a-coprimary", g=0, max_elements=cap),
    "comultiplication": lambda n, cap: is_graded_comultiplication_module(n.ctx, max_elements=cap),
}


@pytest.mark.parametrize("predicate", sorted(_CAPPED))
def test_a_cached_verdict_does_not_get_round_the_cap(predicate):
    # the lattice these verdicts read is capped, so the cap is checked on
    # every call, before the memo is read
    _, gm = _self_module(12)
    n = whole_subobject(gm)
    check = _CAPPED[predicate]
    with pytest.raises(TooLarge):
        check(n, 4)
    check(n, 512)
    with pytest.raises(TooLarge):
        check(n, 4)


def test_second_reads_no_lattice_so_takes_no_cap():
    _, gm = _self_module(12)
    n = whole_subobject(gm)
    assert classify_submodule(n, "second", max_elements=4) == classify_submodule(n, "second")


def test_predicates_reject_zero_submodule():
    gr, gm = _self_module(4)
    z = zero_subobject(gm)
    with pytest.raises(PreconditionViolation):
        classify_submodule(z, "second")


def test_comultiplication_modules():
    gr, gm = _self_module(12)
    assert is_graded_comultiplication_module(gm).value
    # a rank-2 plane over a field is not a comultiplication module: the two
    # axis lines share the annihilator (0), so neither equals (0 : Ann)
    ring = make_ring(("zmod", 2))
    gr2 = ring_trivial(ring)
    from gradedalg.grading import module_trivial

    plane = module_trivial(make_module(("directsum", 2, 2), ring), gr2)
    v = is_graded_comultiplication_module(plane)
    assert not v.value
    assert v.witness is not None


# ---------------------------------------------------------------------------
# differential tests: the bitset kernel against the naive loops
# ---------------------------------------------------------------------------

def oracle_classify_ideal(p, predicate):
    """Naive loops over homogeneous (a, b) or (a, b, c), in canonical order."""
    mul = p.ctx.ring.mul
    hom = p.ctx.hom
    pm = p.members
    escape = pm if predicate in ("prime", "2-absorbing") else graded_radical(p).members
    if predicate in ("prime", "primary"):
        for a in hom:
            if a in pm:
                continue
            for b in hom:
                if mul[a][b] in pm and b not in escape:
                    return False, {"a": a, "b": b}
        return True, None
    for a in hom:
        for b in hom:
            ab = mul[a][b]
            if ab in pm:
                continue
            for c in hom:
                if mul[ab][c] in pm and mul[a][c] not in escape and mul[b][c] not in escape:
                    return False, {"a": a, "b": b, "c": c}
    return True, None


def oracle_classify_submodule(n, predicate, g=None):
    """Naive loops over the scalar a ("second") or over scalars x, y and the
    lattice K, in canonical order, with the colon and graded radical computed
    from their definitions."""
    gm = n.ctx
    mul = gm.gring.ring.mul
    act = gm.module.action
    lattice = enumerate_graded_subobjects(gm)
    scalars = sorted(gm.gring.grading.components[g]) if predicate == "g-2a-coprimary" else gm.gring.hom
    images = [frozenset(act[r][m] for m in n.members) for r in range(gm.gring.ring.size)]
    if predicate == "second":
        for a in gm.gring.hom:
            if images[a] not in ({gm.module.zero}, n.members):
                return False, {"a": a}
        return True, None
    grads = {}

    def escapes(r, k):
        if predicate == "strong-2a-second":
            return images[r] <= k.members
        if k not in grads:
            grads[k] = graded_radical(colon(k, n)).members
        return r in grads[k]

    for x in scalars:
        for y in scalars:
            w = images[mul[x][y]]
            if w == {gm.module.zero}:
                continue
            for k in lattice:
                if w <= k.members and not escapes(x, k) and not escapes(y, k):
                    return False, {"x": x, "y": y, "K": k}
    return True, None


def oracle_coprimary_via_characterization(n):
    """Naive loop over homogeneous (x, y) in canonical order: the definition
    at K = xyN, with the rN masks compared directly."""
    gm = n.ctx
    mul = gm.gring.ring.mul
    powers = gm.gring.ring.power_sets
    zmask = rn_masks(n)
    zero_mask = 1 << gm.module.zero
    for x in gm.gring.hom:
        for y in gm.gring.hom:
            w = zmask[mul[x][y]]
            if w == zero_mask:
                continue  # xy in Ann(N)
            if any(zmask[p] & w == zmask[p] for p in powers[x]):
                continue
            if any(zmask[p] & w == zmask[p] for p in powers[y]):
                continue
            return False, {"x": x, "y": y}
    return True, None


def _assert_kernel_matches_oracle(gm):
    gring = gm.gring
    for p in enumerate_graded_subobjects(gring):
        if p.is_whole:
            continue
        for predicate in IDEAL_PREDICATES:
            v = classify_ideal(p, predicate)
            assert (v.value, v.witness) == oracle_classify_ideal(p, predicate), (predicate, p)
    cases = [("second", None), ("strong-2a-second", None), ("2a-coprimary-def", None)]
    cases += [("g-2a-coprimary", g) for g in range(gm.group.size)]
    for n in enumerate_graded_subobjects(gm):
        if n.is_zero:
            continue
        for predicate, g in cases:
            v = classify_submodule(n, predicate, g=g)
            assert (v.value, v.witness) == oracle_classify_submodule(n, predicate, g), (predicate, g, n)
            if not v.value and predicate != "second":
                w = v.witness
                recheck = recheck_strong_violation if predicate == "strong-2a-second" else recheck_coprimary_violation
                assert recheck(n, w["x"], w["y"], w["K"])
        c = coprimary_via_characterization(n)
        assert (c.value, c.witness) == oracle_coprimary_via_characterization(n), n
        if not c.value:
            assert recheck_coprimary_violation(n, c.witness["x"], c.witness["y"])
        lattice = enumerate_graded_subobjects(gm)
        good = _good_bits(n, lattice)
        for i, k in enumerate(lattice):
            grad = graded_radical(colon(k, n)).members
            assert all((good[r] >> i & 1) == (r in grad) for r in gm.gring.hom), (n, k)


@pytest.mark.parametrize("entry", build_standard_corpus(), ids=lambda e: e.name)
def test_kernel_matches_oracle_on_standard_corpus(entry):
    _assert_kernel_matches_oracle(entry.gmodule)


@pytest.mark.parametrize("entry", build_standard_corpus(), ids=lambda e: e.name)
def test_unit_orbits_partition_the_ring_into_graded_pieces(entry):
    gring = entry.gring
    ring, components = gring.ring, gring.grading.components
    units = [u for u in components[gring.group.identity] if any(v == ring.one for v in ring.mul[u])]
    for u in units:
        for comp in components:
            assert {ring.mul[u][z] for z in comp} <= comp, (u, comp)
    orbit_min = _orbit_min(gring)
    classes = {}
    for z in range(ring.size):
        classes.setdefault(orbit_min[z], set()).add(z)
    for rep, members in classes.items():
        assert members == {ring.mul[u][rep] for u in units}, rep
        assert rep == min(members)
    if entry.name == "torsion180":
        assert len(units) == 48
        assert len([x for x in gring.hom if orbit_min[x] == x]) == 18


_ZMOD_SELF = st.integers(2, 64).map(lambda n: f"ring zmod {n}\nmodule self\n")
# at most 64 elements over the smallest ring that acts, Z/lcm: a larger
# modulus only repeats scalars and makes the naive loops slow
_DIRECTSUM = (
    st.lists(st.integers(2, 32), min_size=1, max_size=3)
    .filter(lambda ds: math.prod(ds) <= 64)
    .map(lambda ds: f"ring zmod {math.lcm(*ds)}\nmodule directsum {' '.join(map(str, ds))}\n")
)
_GROUPRING = st.tuples(st.sampled_from((2, 3)), st.sampled_from((2, 3))).map(
    lambda pk: f"group cyclic {pk[1]}\nring groupring {pk[0]}\ngrading natural\nmodule self\n"
)
# R_e = R and R_g = {0} for g != e, so the g-form's scalars are not h(R)
_TRIVIAL_C2 = st.integers(2, 36).map(lambda n: f"group cyclic 2\nring zmod {n}\ngrading trivial\nmodule self\n")
# a unit group that is a product of two, so orbits under it are not cyclic
_PRODUCT = (
    st.tuples(st.integers(2, 16), st.integers(2, 16))
    .filter(lambda ns: ns[0] * ns[1] <= 64)
    .map(lambda ns: f"ring product {ns[0]} {ns[1]}\nmodule self\n")
)


@settings(max_examples=25, deadline=None)
@given(text=st.one_of(_ZMOD_SELF, _DIRECTSUM, _GROUPRING, _TRIVIAL_C2, _PRODUCT))
@example(text="group cyclic 2\nring zmod 12\ngrading trivial\nmodule self\n")  # Z/12 is not coprimary
def test_kernel_matches_oracle_on_generated_structures(text):
    _assert_kernel_matches_oracle(parse_structure_text(text).gmodule)
