import functools
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedalg import (
    IDEAL,
    SUBMODULE,
    GradedModule,
    GradedRing,
    PreconditionViolation,
    SubobjectHandle,
    TooLarge,
    annihilator,
    build_standard_corpus,
    colon,
    colon_by_element,
    combine,
    enumerate_graded_subobjects,
    graded_radical,
    hom_image,
    hom_kernel,
    hom_preimage,
    ideal_component,
    is_graded,
    localize,
    localize_subobject,
    make_group,
    make_module,
    make_ring,
    parse_structure_file,
    parse_structure_text,
    span,
    subobject,
    whole_subobject,
    zero_subobject,
)
import gradedalg.structfile as structfile
import gradedalg.subobjects as subobjects
from gradedalg.core import coset_sum
from gradedalg.grading import (
    attach_grading,
    groupring_natural,
    module_same_as_ring,
    module_trivial,
    ring_trivial,
)
from gradedalg.propositions import _hom_family
from gradedalg.subobjects import _enumerate_by_generators


def enumerate_all_subobjects(ctx, max_elements=64):
    """Independent oracle: every subobject (graded or not), by a lattice walk
    over *all* carrier elements."""
    return _enumerate_by_generators(ctx, range(ctx.grading.carrier.size), max_elements)


@functools.cache
def decomposition_by_walk(grading):
    """Oracle: ``decomposition_by_walk(grading)[x]`` is the tuple of the
    homogeneous parts of x, found by summing every tuple of one element per
    component; each x is reached exactly once."""
    carrier = grading.carrier
    parts = [None] * carrier.size
    for tup in itertools.product(*(sorted(c) for c in grading.components)):
        x = carrier.zero
        for part in tup:
            x = carrier.add[x][part]
        assert parts[x] is None, (x, parts[x], tup)
        parts[x] = tup
    assert None not in parts
    return parts


def graded_by_walk(members, grading):
    """Oracle: a set is graded iff every member's homogeneous components are
    members."""
    decomposition = decomposition_by_walk(grading)
    return all(part in members for x in members for part in decomposition[x])


def sumset(a, b, add):
    """Oracle: A + B as every pairwise sum."""
    return frozenset(add[x][y] for x in a for y in b)


def closure_by_sums(seed, add):
    """Oracle: the least superset of ``seed`` closed under pairwise sums."""
    out = frozenset(seed)
    while (grown := out | sumset(out, out, add)) != out:
        out = grown
    return out


def radical_by_walk(p):
    """Oracle: Grad(P) as the r all of whose homogeneous components have a
    power in P."""
    ring = p.ctx.ring
    decomposition = decomposition_by_walk(p.ctx.grading)
    return frozenset(
        r for r in range(ring.size)
        if all(not ring.power_sets[part].isdisjoint(p.members) for part in decomposition[r])
    )


def _z12():
    return ring_trivial(make_ring(("zmod", 12)))


def _natural(p, group):
    group = make_group(group)
    return groupring_natural(make_ring(("groupring", p, group)), group)


def _gr2():
    return _natural(2, ("cyclic", 2))


def _nilpotent_degrees(group):
    """F2[G] for G = C2 or C2 x C2 is F2[x]/(x^2) or F2[x, y]/(x^2, y^2), with
    x = 1 + g and y = 1 + h.  Grade each monomial by its group element, so the
    radical of (0) has non-zero parts outside degree e."""
    group = make_group(group)
    ring = make_ring(("groupring", 2, group))
    # the monomial of degree t is the sum of the group elements k below t bitwise
    monomials = [ring.index[tuple(int(k & t == k) for k in range(group.size))] for t in range(group.size)]
    return GradedRing(ring, attach_grading(ring, group, {t: {ring.zero, m} for t, m in enumerate(monomials)}))


_LATTICE_RINGS = {
    "zmod12": _z12,
    "F2[C2]": _gr2,
    "F3[C2]": lambda: _natural(3, ("cyclic", 2)),
    "F2[C2xC2]": lambda: _natural(2, ("product", ("cyclic", 2), ("cyclic", 2))),
    "F2[x]/(x2)": lambda: _nilpotent_degrees(("cyclic", 2)),
    "F2[x,y]/(x2,y2)": lambda: _nilpotent_degrees(("product", ("cyclic", 2), ("cyclic", 2))),
}


@pytest.mark.parametrize("name", sorted(_LATTICE_RINGS))
def test_subgroup_arithmetic_matches_the_oracles_on_every_ideal(name):
    gr = _LATTICE_RINGS[name]()
    add = gr.ring.add
    ideals = enumerate_all_subobjects(gr)
    for a in ideals:
        assert sumset(a.members, a.members, add) == a.members, a
        graded = graded_by_walk(a.members, gr.grading)
        assert is_graded(a) == a.graded == subobjects.graded_mask(gr, a.mask) == graded, a
        for b in ideals:
            assert combine(a, b, "sum").members == sumset(a.members, b.members, add), (a, b)


@pytest.mark.parametrize(
    "gr",
    [f() for _, f in sorted(_LATTICE_RINGS.items())] + [e.gmodule.gring for e in build_standard_corpus()],
    ids=sorted(_LATTICE_RINGS) + [e.name for e in build_standard_corpus()],
)
def test_graded_radical_matches_the_decomposition_walk(gr):
    for p in enumerate_graded_subobjects(gr):
        assert graded_radical(p).members == radical_by_walk(p), p


_SPAN_CARRIERS = {
    "zmod12": _z12,
    "F2[C2xC2]": lambda: _natural(2, ("product", ("cyclic", 2), ("cyclic", 2))),
    "directsum-4-2-over-zmod4": lambda: parse_structure_text("ring zmod 4\nmodule directsum 4 2\n").gmodule,
    "ring-product-2-3": lambda: parse_structure_text("ring product 2 3\nmodule self\n").gring,
}


@pytest.mark.parametrize("name", sorted(_SPAN_CARRIERS))
def test_span_of_two_elements_is_the_closure_of_their_multiples(name):
    # span({a, b}) is the least set holding every r*a and r*b that is closed
    # under sums, whatever sum the package forms it by
    ctx = _SPAN_CARRIERS[name]()
    carrier = ctx.grading.carrier
    for a, b in itertools.combinations_with_replacement(range(carrier.size), 2):
        multiples = {row[x] for row in carrier.action for x in (a, b)}
        assert span({a, b}, ctx).members == closure_by_sums(multiples, carrier.add), (a, b)


@pytest.mark.parametrize(
    "entry",
    [e for e in build_standard_corpus() if max(e.gring.ring.size, e.gmodule.module.size) <= 36],
    ids=lambda e: e.name,
)
def test_ideal_product_is_the_closure_of_the_products(entry):
    module = entry.gmodule.module
    for i in entry.graded_ideals():
        for n in entry.graded_submodules():
            products = {module.action[x][y] for x in i.members for y in n.members}
            assert combine(i, n, "ideal_product").members == closure_by_sums(products, module.add), (i, n)


def test_span_principal_ideal():
    gr = _z12()
    h = span({2}, gr)
    assert h.members == frozenset({0, 2, 4, 6, 8, 10})
    assert h.graded


def test_span_empty_is_zero():
    gr = _z12()
    h = span(set(), gr)
    assert h.members == frozenset({0})
    assert h.graded


def test_span_nongraded_ideal_in_group_ring():
    gr = _gr2()
    ring = gr.ring
    h = span({ring.index[(1, 1)]}, gr)  # generated by 1 + g
    assert h.members == frozenset({ring.zero, ring.index[(1, 1)]})
    assert not h.graded
    assert not is_graded(h)


def test_sum_and_intersection():
    gr = _z12()
    a = span({4}, gr)
    b = span({6}, gr)
    assert combine(a, b, "sum").members == frozenset({0, 2, 4, 6, 8, 10})
    assert combine(a, b, "intersect").members == frozenset({0})


def test_colon_and_annihilator():
    ring = make_ring(("zmod", 180))
    gr = ring_trivial(ring)
    gm = module_trivial(make_module(("directsum", 4, 9, 5), ring), gr)
    n = span({gm.module.index[(1, 0, 0)], gm.module.index[(0, 1, 0)]}, gm)
    ann = annihilator(n)
    assert ann.members == frozenset({0, 36, 72, 108, 144})
    # 5*(a,b,c) = (5a, 5b, 0) with 5 a unit mod 4 and mod 9, so 5M = N and
    # (N : M) is exactly the multiples of 5
    whole = whole_subobject(gm)
    assert colon(n, whole).members == frozenset(range(0, 180, 5))


def _colon_oracle(k, n):
    """(K :_R N) by its definition: a loop over R x N."""
    act = n.ctx.module.action
    return frozenset(r for r in range(n.ctx.gring.ring.size) if all(act[r][m] in k.members for m in n.members))


@pytest.mark.parametrize("entry", build_standard_corpus(), ids=lambda e: e.name)
def test_colon_and_annihilator_match_the_definition_on_the_standard_corpus(entry):
    subs = entry.graded_submodules()
    for n in subs:
        assert annihilator(n).members == _colon_oracle(subs[0], n), n
        for k in subs:
            assert colon(k, n).members == _colon_oracle(k, n), (k, n)


def test_colon_into_a_nongraded_submodule_matches_the_definition():
    entry = next(e for e in build_standard_corpus() if e.name == "groupring2-c2")
    gm = entry.gmodule
    k = span({gm.module.index[(1, 1)]}, gm)  # generated by 1 + g
    assert not k.graded
    for n in entry.graded_submodules() + [k]:
        h = colon(k, n)
        assert h.members == _colon_oracle(k, n) and h.ctx is gm.gring, n


def test_colon_by_element():
    gr = _z12()
    gm = module_same_as_ring(make_module(("self",), gr.ring), gr)
    k = span({6}, gm)
    h = colon_by_element(k, 2)
    assert h.members == frozenset({0, 3, 6, 9})


def test_graded_radical_oracle():
    gr = _z12()
    p = span({4}, gr)
    assert graded_radical(p).members == frozenset({0, 2, 4, 6, 8, 10})


def test_graded_radical_whole_ring_convention():
    gr = _z12()
    assert graded_radical(whole_subobject(gr)).is_whole


def test_graded_radical_rejects_nongraded():
    gr = _gr2()
    h = span({gr.ring.index[(1, 1)]}, gr)
    with pytest.raises(PreconditionViolation):
        graded_radical(h)


def test_graded_radical_in_group_ring():
    # (0) in F2[C2]: g - 1 squares to zero, so Grad((0)) = {0, 1+g}
    gr = _gr2()
    ring = gr.ring
    z = zero_subobject(gr)
    # 1+g is not homogeneous, so it enters Grad only if both its components
    # have a power in (0); component 1 does not, so Grad((0)) = {0}
    assert graded_radical(z).members == frozenset({ring.zero})


def test_ideal_component():
    gr = _gr2()
    h = whole_subobject(gr)
    comp = ideal_component(h, 1)
    assert comp == gr.grading.components[1]


@pytest.mark.parametrize("g", [-1, 2])
def test_ideal_component_rejects_a_degree_outside_the_group(g):
    gr = _gr2()
    with pytest.raises(PreconditionViolation, match=f"group element {g} outside"):
        ideal_component(whole_subobject(gr), g)


def test_enumeration_zmod12_ideals():
    gr = _z12()
    ideals = enumerate_graded_subobjects(gr)
    sizes = sorted(len(h.members) for h in ideals)
    assert sizes == [1, 2, 3, 4, 6, 12]  # one ideal per divisor of 12


def test_enumeration_canonical_order():
    gr = _z12()
    ideals = enumerate_graded_subobjects(gr)
    keys = [(len(h.members), h.sorted_members) for h in ideals]
    assert keys == sorted(keys)


def test_enumeration_respects_cap():
    ring = make_ring(("zmod", 180))
    gr = ring_trivial(ring)
    with pytest.raises(TooLarge):
        enumerate_graded_subobjects(gr, max_elements=64)


def test_enumeration_is_built_once_per_carrier_and_capped_on_every_call():
    gr = _z12()
    ideals = enumerate_graded_subobjects(gr, 12)
    assert enumerate_graded_subobjects(gr) is ideals
    with pytest.raises(TooLarge, match="cap is 11"):
        enumerate_graded_subobjects(gr, 11)


def test_the_lattice_walk_stops_as_it_passes_its_cap(monkeypatch):
    # (2^3) has 16 subgroups: 1 + 7 + 7 + 1 by dimension
    gr = ring_trivial(make_ring(("zmod", 2)))
    monkeypatch.setattr(subobjects, "MAX_LATTICE", 16)
    assert len(enumerate_graded_subobjects(module_trivial(make_module(("directsum", 2, 2, 2), gr.ring), gr))) == 16
    monkeypatch.setattr(subobjects, "MAX_LATTICE", 10)
    gm = module_trivial(make_module(("directsum", 2, 2, 2), gr.ring), gr)
    with pytest.raises(TooLarge, match="^graded lattice reached 11 elements, cap is 10$"):
        enumerate_graded_subobjects(gm)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_enumeration_matches_exhaustive_oracle(n):
    gr = ring_trivial(make_ring(("zmod", n)))
    gm = module_same_as_ring(make_module(("self",), gr.ring), gr)
    fast = {h.members for h in enumerate_graded_subobjects(gm)}
    slow = {
        h.members
        for h in enumerate_all_subobjects(gm)
        if graded_by_walk(h.members, gm.grading)
    }
    assert fast == slow


def test_enumeration_oracle_group_ring():
    gr = _gr2()
    fast = {h.members for h in enumerate_graded_subobjects(gr)}
    slow = {h.members for h in enumerate_all_subobjects(gr) if graded_by_walk(h.members, gr.grading)}
    assert fast == slow
    # the non-graded ideal (1+g) exists but must not be in the graded list
    all_ideals = {h.members for h in enumerate_all_subobjects(gr)}
    assert len(all_ideals) > len(fast)


def test_scalar_product_requires_homogeneous():
    gr = _gr2()
    gm = module_same_as_ring(make_module(("self",), gr.ring), gr)
    n = whole_subobject(gm)
    with pytest.raises(PreconditionViolation):
        combine(gr.ring.index[(1, 1)], n, "scalar_product")


@given(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11))
@settings(max_examples=30, deadline=None)
def test_span_is_idempotent_and_monotone(a, b):
    gr = _z12()
    h = span({a, b}, gr)
    assert span(h.members, gr).members == h.members
    assert span({a}, gr).members <= h.members


def _z12_self():
    gr = _z12()
    return gr, module_trivial(make_module(("self",), gr.ring), gr)


# builders that give a handle over the carrier they are passed
_BUILDERS = {
    "span": lambda ctx: span({2}, ctx),
    "zero_subobject": zero_subobject,
    "whole_subobject": whole_subobject,
    "enumerate_graded_subobjects": lambda ctx: enumerate_graded_subobjects(ctx)[-1],
    "combine-sum": lambda ctx: combine(span({4}, ctx), span({6}, ctx), "sum"),
    "combine-intersect": lambda ctx: combine(span({4}, ctx), span({6}, ctx), "intersect"),
    "combine-scalar_product": lambda ctx: combine(3, span({2}, ctx), "scalar_product"),
    "localize_subobject": lambda ctx: localize_subobject(localize(ctx, (1, 3, 9)), span({2}, ctx)),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
def test_a_handle_takes_its_kind_from_its_carrier(builder):
    gr, gm = _z12_self()
    build = _BUILDERS[builder]
    ideal, sub = build(gr), build(gm)
    assert ideal.kind == IDEAL and isinstance(ideal.ctx, GradedRing)
    assert sub.kind == SUBMODULE and isinstance(sub.ctx, GradedModule)


def test_ideal_and_submodule_operations_give_the_kind_of_their_carrier():
    gr, gm = _z12_self()
    n, k = span({2}, gm), span({4}, gm)
    for ideal in (colon(k, n), annihilator(n), graded_radical(span({4}, gr))):
        assert ideal.kind == IDEAL and ideal.ctx is gr
    for sub in (combine(span({3}, gr), n, "ideal_product"), colon_by_element(k, 2)):
        assert sub.kind == SUBMODULE and sub.ctx is gm


def test_a_handle_equals_a_rebuilt_handle_on_the_same_carrier():
    gr, gm = _z12_self()
    h = span({2}, gm)
    assert h == subobject(gm, h.members) and hash(h) == hash(subobject(gm, h.members))
    # the ring and the ring acting on itself share element indices, not a carrier
    assert h != subobject(gr, h.members)
    assert h != subobject(_z12_self()[1], h.members)


# ---------------------------------------------------------------------------
# the unit-orbit reduction against the per-element definitions: every
# per-scalar value is computed at the least member of the scalar's orbit
# ---------------------------------------------------------------------------

_STANDARD = build_standard_corpus()


@pytest.mark.parametrize("entry", _STANDARD, ids=lambda e: e.name)
def test_colon_by_element_matches_the_per_element_definition(entry):
    gm = entry.gmodule
    act = gm.module.action
    for x in gm.gring.hom:
        for k in entry.graded_submodules():
            expected = {m for m in range(gm.module.size) if act[x][m] in k.members}
            assert colon_by_element(k, x).members == expected, (x, k)


@pytest.mark.parametrize("entry", _STANDARD, ids=lambda e: e.name)
def test_scalar_product_matches_the_per_element_definition(entry):
    for ctx, subs in ((entry.gring, entry.graded_ideals()), (entry.gmodule, entry.graded_submodules())):
        act = ctx.grading.carrier.action
        for a in ctx.gring.hom:
            for n in subs:
                assert combine(a, n, "scalar_product").members == {act[a][m] for m in n.members}, (a, n)


@pytest.mark.parametrize("entry", _STANDARD, ids=lambda e: e.name)
def test_each_multiplication_hom_has_the_image_kernel_and_preimage_of_its_orbit_hom(entry):
    # the hom checkers use the first hom of r's unit orbit in place of ×r
    gm = entry.gmodule
    module = gm.module
    for r, f in _hom_family(entry):
        times_r = module.action[r]  # the identity when r is one
        assert hom_kernel(f).members == {m for m in range(module.size) if times_r[m] == module.zero}, r
        for n in entry.graded_submodules():
            assert hom_image(f, n).members == {times_r[m] for m in n.members}, (r, n)
            assert hom_preimage(f, n).members == {m for m in range(module.size) if times_r[m] in n.members}, (r, n)


@pytest.mark.parametrize("entry", _STANDARD, ids=lambda e: e.name)
def test_the_lattice_from_orbit_minimal_generators_is_the_lattice_from_all(entry):
    for ctx in (entry.gring, entry.gmodule):
        # handles compare by mask, so the canonical order must agree too
        assert enumerate_graded_subobjects(ctx) == _enumerate_by_generators(ctx, ctx.hom, entry.max_elements)


@pytest.mark.parametrize("entry", _STANDARD, ids=lambda e: e.name)
def test_a_handle_is_its_mask_and_is_graded_counts_its_members(entry):
    for ctx in (entry.gring, entry.gmodule):
        comps = ctx.grading.components
        # the graded lattice and every cyclic span, graded or not
        handles = list(enumerate_graded_subobjects(ctx)) + [span({x}, ctx) for x in range(ctx.grading.carrier.size)]
        for h in handles:
            derived = SubobjectHandle(ctx, h.mask)  # members and gradedness read off the mask
            assert derived.members == h.members and derived == h
            assert sum(1 << m for m in h.members) == h.mask
            assert derived.sorted_members == h.sorted_members == tuple(sorted(h.members))
            assert is_graded(h) == h.graded == (len(h.members) == math.prod(len(h.members & c) for c in comps))
        assert any(not h.graded for h in handles) == (entry.name in ("groupring2-c2", "groupring3-c2"))


# ---------------------------------------------------------------------------
# coset_sum and span, on the stored arrays, against the coset sum over row views
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
_STRUCTURE_FILES = sorted((ROOT / "structures").glob("*.gstruct"))


def _oracle_sum(a, b, add) -> frozenset:
    """A + B for additive subgroups: the union of the cosets of the larger over
    the smaller, skipping each y already in the union (its coset is there)."""
    if len(a) < len(b):
        a, b = b, a
    out = set()
    for y in b:
        if y not in out:
            out.update(map(add[y].__getitem__, a))
    return frozenset(out)


@pytest.mark.parametrize("entry", _STANDARD, ids=lambda e: e.name)
def test_coset_sum_of_every_pair_of_graded_subobjects_matches_the_oracle(entry):
    for ctx in (entry.gring, entry.gmodule):
        carrier = ctx.grading.carrier
        lattice = [h.members for h in enumerate_graded_subobjects(ctx)]
        for a, b in itertools.product(lattice, repeat=2):
            assert coset_sum(a, b, carrier.add_array) == _oracle_sum(a, b, carrier.add), (a, b)


def test_coset_sum_matches_the_oracle_on_subgroups_of_the_cap_ring():
    # F2[C9] has 512 elements, so its tables are uint16; each x has order 2,
    # so the subgroup a few x generate is their iterated sums with {0, x}
    ring = make_ring(("groupring", 2, make_group(("cyclic", 9))))
    assert ring.add_array.dtype.itemsize == 2
    rng = random.Random(31)

    def subgroup():
        members = {ring.zero}
        for x in rng.sample(range(ring.size), rng.randint(1, 4)):
            members |= {ring.add[m][x] for m in members}
        return frozenset(members)

    for _ in range(200):
        a, b = subgroup(), subgroup()
        expected = _oracle_sum(a, b, ring.add)
        assert coset_sum(a, b, ring.add_array) == expected, (a, b)
        # sized iterables with repeats, in any order, give the same sum
        assert coset_sum([*a, *sorted(a)], [*b, *b], ring.add_array) == expected, (a, b)
        assert coset_sum(sorted(b) * 3, list(a), ring.add_array) == expected, (a, b)


def _oracle_span(generators, ctx):
    """span as it was before it read the stored arrays: R·g read off the
    action rows, each added by the coset sum over the add rows."""
    carrier = ctx.grading.carrier
    members = frozenset({carrier.zero})
    for g in generators:
        if g not in members:
            members = _oracle_sum(members, {row[g] for row in carrier.action}, carrier.add)
    return subobject(ctx, members)


@pytest.mark.parametrize(
    "entry",
    [*_STANDARD, *map(parse_structure_file, _STRUCTURE_FILES)],
    ids=[e.name for e in _STANDARD] + [p.name for p in _STRUCTURE_FILES],
)
def test_span_of_every_generator_and_pair_matches_the_coset_sum_oracle(entry):
    for ctx in (entry.gring, entry.gmodule):
        n = ctx.grading.carrier.size
        for gens in itertools.chain(itertools.combinations(range(n), 1), itertools.combinations(range(n), 2)):
            assert span(gens, ctx) == _oracle_span(gens, ctx), gens


@pytest.mark.parametrize(
    "text",
    [
        *(path.read_text() for path in sorted((ROOT / "src" / "gradedalg" / "standard").glob("*.gstruct"))),
        *(path.read_text() for path in _STRUCTURE_FILES),
        # the benchmark's validate-cap file at seed 1: 512 elements
        "group cyclic 9\nring groupring 2\ngrading natural\nmodule self\n"
        "submodule N gens (0,1,0,1,1,1,1,0,0)\nideal I gens (1,0,1,1,0,1,1,0,0)\n",
    ],
)
def test_the_named_subobjects_of_each_file_match_the_coset_sum_oracle(text, monkeypatch):
    named = parse_structure_text(text).named
    monkeypatch.setattr(structfile, "span", _oracle_span)
    oracle = parse_structure_text(text).named
    assert {k: (h.kind, h.mask) for k, h in named.items()} == {k: (h.kind, h.mask) for k, h in oracle.items()}
