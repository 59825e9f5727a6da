import math

import pytest
from hypothesis import given, settings, strategies as st

import gradedalg.grading as grading
from gradedalg import (
    GradingInvalid,
    PreconditionViolation,
    build_standard_corpus,
    make_group,
    make_module,
    make_ring,
    parse_structure_text,
)
from gradedalg.core import FiniteRing
from gradedalg.grading import (
    attach_grading,
    groupring_natural,
    module_same_as_ring,
    module_trivial,
    product_assignment,
    ring_trivial,
    trivial_assignment,
)


def test_trivial_grading_on_zmod12():
    gr = ring_trivial(make_ring(("zmod", 12)))
    assert gr.grading.components[0] == frozenset(range(12))
    assert gr.hom == tuple(range(12))


def test_memo_builds_each_key_once_per_carrier():
    ring = make_ring(("zmod", 4))
    first, second = ring_trivial(ring), ring_trivial(ring)  # equal tables, two carriers
    builds = []

    def build(tag):
        return lambda: builds.append(tag) or len(builds)

    assert first.memo(("value", 1), build("first")) == 1
    assert first.memo(("value", 1), build("again")) == 1
    assert first.memo(("value", 2), build("other key")) == 2
    assert second.memo(("value", 1), build("second")) == 3
    assert second.memo(("value", 1), build("again")) == 3
    assert builds == ["first", "other key", "second"]
    # a build that raises stores nothing
    with pytest.raises(ZeroDivisionError):
        first.memo("failing", lambda: 1 // 0)
    assert first.memo("failing", lambda: "built") == "built"


def test_groupring_natural_components():
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 2, c2))
    gr = groupring_natural(ring, c2)
    comp_e = {ring.labels[i] for i in gr.grading.components[0]}
    comp_g = {ring.labels[i] for i in gr.grading.components[1]}
    assert comp_e == {(0, 0), (1, 0)}
    assert comp_g == {(0, 0), (0, 1)}


def test_decomposition_is_unique_sum():
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 3, c2))
    gr = groupring_natural(ring, c2)
    x = ring.index[(2, 1)]  # 2 + g
    e_part, g_part = gr.grading.components
    sums = [(ring.labels[a], ring.labels[b]) for a in e_part for b in g_part if ring.add_array[a, b] == x]
    assert sums == [((2, 0), (0, 1))]


def test_homogeneity_flags():
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 2, c2))
    gr = groupring_natural(ring, c2)
    components = gr.grading.components

    def degrees(x):
        return [g for g, comp in enumerate(components) if x in comp]

    assert ring.index[(0, 1)] in gr.hom_set and degrees(ring.index[(0, 1)]) == [1]
    assert ring.index[(1, 1)] not in gr.hom_set and degrees(ring.index[(1, 1)]) == []  # 1 + g is mixed
    # zero lies in every component, so its degree is e by convention
    assert ring.zero in gr.hom_set and degrees(ring.zero) == list(range(c2.size))


def test_component_not_subgroup_rejected():
    ring = make_ring(("zmod", 4))
    group = make_group(("cyclic", 2))
    with pytest.raises(GradingInvalid):
        attach_grading(ring, group, {0: {0, 1, 2, 3}, 1: {0, 1}})


def test_direct_sum_cardinality_rejected():
    ring = make_ring(("zmod", 4))
    group = make_group(("cyclic", 2))
    # components {0,2} and {0,2} are subgroups, but their sum is not direct
    with pytest.raises(GradingInvalid) as exc:
        attach_grading(ring, group, {0: {0, 2}, 1: {0, 2}})
    assert "direct-sum" in exc.value.axiom


def test_a_component_meeting_the_sum_before_it_is_named():
    # {0,2} + {0,2} has 2 elements, not 2*2: M_1 meets M_0 beyond 0
    ring = make_ring(("zmod", 4))
    group = make_group(("cyclic", 2))
    with pytest.raises(GradingInvalid) as exc:
        attach_grading(ring, group, {0: {0, 2}, 1: {0, 2}})
    assert (exc.value.axiom, exc.value.witness) == ("direct-sum-collision", (1,))


def test_components_summing_to_a_proper_subgroup_are_rejected():
    ring = make_ring(("zmod", 4))
    group = make_group(("cyclic", 2))
    with pytest.raises(GradingInvalid) as exc:
        attach_grading(ring, group, {0: {0, 2}, 1: {0}})
    assert (exc.value.axiom, exc.value.witness) == ("direct-sum-cardinality", (2, 4))


def test_component_product_escape_rejected():
    # put all of Z4 in the non-identity component: 1*1 = 1 must land in
    # component e = {0}, which fails
    ring = make_ring(("zmod", 4))
    group = make_group(("cyclic", 2))
    with pytest.raises(GradingInvalid):
        attach_grading(ring, group, {0: {0}, 1: {0, 1, 2, 3}})


def test_module_grading_needs_ring_grading():
    ring = make_ring(("zmod", 4))
    module = make_module(("self",), ring)
    group = make_group("trivial")
    with pytest.raises(GradingInvalid):
        attach_grading(module, group, trivial_assignment(module, group))


def test_module_same_as_ring_grading():
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 2, c2))
    gr = groupring_natural(ring, c2)
    gm = module_same_as_ring(make_module(("self",), ring), gr)
    assert gm.grading.components == gr.grading.components
    assert gm.group is c2


def test_the_ring_on_itself_takes_the_ring_components_with_no_second_check(monkeypatch):
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 2, c2))
    gr = groupring_natural(ring, c2)

    def refuse(*args, **kwargs):
        raise AssertionError("the ring's grading was checked again")
    monkeypatch.setattr(grading, "attach_grading", refuse)
    gm = module_same_as_ring(make_module(("self",), ring), gr)
    assert gm.grading.components is gr.grading.components
    assert gm.grading.carrier is gm.module and gm.grading.group is c2


def test_module_same_as_ring_refuses_a_module_with_its_own_tables():
    # Z/12 as the direct sum Z/12 is the ring's module up to relabelling, but
    # it has its own arrays, so the ring's grading says nothing about them
    ring = make_ring(("zmod", 12))
    with pytest.raises(PreconditionViolation, match="takes the ring acting on itself"):
        module_same_as_ring(make_module(("directsum", 12), ring), ring_trivial(ring))


def test_a_ring_on_itself_is_graded_once(monkeypatch):
    graded, original = [], grading.attach_grading
    monkeypatch.setattr(grading, "attach_grading", lambda c, *a, **k: graded.append(c) or original(c, *a, **k))
    entry = parse_structure_text("group cyclic 2\nring groupring 2\ngrading natural\nmodule self\n")
    assert graded == [entry.gring.ring]
    graded.clear()
    entry = parse_structure_text("ring product 3 4\nmodule self\n")
    assert graded == [entry.gring.ring] + [gm.gring.ring for gm in entry.factors]
    monkeypatch.undo()
    # every standard entry that is a ring on itself shares its ring's components
    corpus = build_standard_corpus()
    shared = {e.name for e in corpus if e.gmodule.grading.components is e.gring.grading.components}
    assert shared == {e.name for e in corpus} - {"torsion180", "z2-plane"}


def test_trivial_module_grading():
    ring = make_ring(("zmod", 180))
    gr = ring_trivial(ring)
    module = make_module(("directsum", 4, 9, 5), ring)
    gm = module_trivial(module, gr)
    assert len(gm.hom) == 180


def test_ring_grading_names_the_escaping_product():
    # Z2 x Z2 with R_e = {0, (1,1)} and R_g = {0, (1,0)}: (1,0)^2 = (1,0)
    # lies in R_g but must lie in R_{g g} = R_e
    ring = make_ring(("product", ("zmod", 2), ("zmod", 2)))
    group = make_group(("cyclic", 2))
    e_part, g_part = ring.index[(1, 1)], ring.index[(1, 0)]
    with pytest.raises(GradingInvalid) as exc:
        attach_grading(ring, group, {0: {0, e_part}, 1: {0, g_part}})
    assert (exc.value.axiom, exc.value.witness) == ("component-product-escapes", (1, 1, g_part, g_part))


def test_ring_grading_needs_one_in_the_identity_component():
    ring = make_ring(("zmod", 4))
    group = make_group(("cyclic", 2))
    with pytest.raises(GradingInvalid) as exc:
        attach_grading(ring, group, {0: {0}, 1: {0, 1, 2, 3}})
    assert (exc.value.axiom, exc.value.witness) == ("one-not-in-identity-component", (1,))


def test_module_grading_names_the_escaping_action():
    # F2[C2] with its natural grading acting on itself graded trivially:
    # g in R_g times g in M_e is 1, which must lie in M_g = {0}
    c2 = make_group(("cyclic", 2))
    ring = make_ring(("groupring", 2, c2))
    gr = groupring_natural(ring, c2)
    module = make_module(("self",), ring)
    g = ring.index[(0, 1)]
    with pytest.raises(GradingInvalid) as exc:
        attach_grading(module, c2, trivial_assignment(module, c2), ring_grading=gr.grading)
    assert (exc.value.axiom, exc.value.witness) == ("action-escapes-component", (1, 0, g, g))


# ---------------------------------------------------------------------------
# attach_grading against the nested-loop validator
# ---------------------------------------------------------------------------

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


def _oracle_attach_grading(carrier, group, assignment, ring_grading=None):
    """The checks of attach_grading as they were before they became
    whole-array gathers: nested loops over the tuple rows, with the direct
    sum counted by the coset sum.  Returns the components."""
    is_ring = isinstance(carrier, FiniteRing)
    add, zero, n = carrier.add_array.tolist(), carrier.zero, carrier.size
    components = []
    for g in range(group.size):
        comp = frozenset(assignment.get(g, ()))
        for x in comp:
            if not (0 <= x < n):
                raise GradingInvalid("component-element-out-of-range", (g, x))
        components.append(comp)
    for g, comp in enumerate(components):
        if zero not in comp:
            raise GradingInvalid("component-missing-zero", (g,))
        for a in comp:
            for b in comp:
                if add[a][b] not in comp:
                    raise GradingInvalid("component-not-closed-under-add", (g, a, b))
    total = frozenset({zero})
    for g, comp in enumerate(components):
        before = len(total)
        total = _oracle_sum(total, comp, add)
        if len(total) < before * len(comp):
            raise GradingInvalid("direct-sum-collision", (g,))
    if len(total) != n:
        raise GradingInvalid("direct-sum-cardinality", (len(total), n))
    if is_ring and carrier.one not in components[group.identity]:
        raise GradingInvalid("one-not-in-identity-component", (carrier.one,))
    rcomps = components if is_ring else ring_grading.components
    axiom = "component-product-escapes" if is_ring else "action-escapes-component"
    action = carrier.action
    for g in range(group.size):
        for h in range(group.size):
            gh = group.op[g][h]
            for r in rcomps[g]:
                for m in components[h]:
                    if action[r][m] not in components[gh]:
                        raise GradingInvalid(axiom, (g, h, r, m))
    return tuple(components)


_GROUPRINGS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)]


@st.composite
def _graded_carriers(draw):
    """A valid grading as (carrier, group, assignment, ring grading or None):
    zmod graded trivially, a group ring graded naturally (as a ring or on
    itself), a direct sum over a trivially graded zmod, or a product ring."""
    kind = draw(st.sampled_from(["zmod", "groupring", "directsum", "product"]))
    if kind == "zmod":
        group = make_group(("cyclic", draw(st.integers(2, 3))))
        ring = make_ring(("zmod", draw(st.integers(2, 24))))
        return ring, group, trivial_assignment(ring, group), None
    if kind == "groupring":
        p, k = draw(st.sampled_from(_GROUPRINGS))
        group = make_group(("cyclic", k))
        gr = groupring_natural(make_ring(("groupring", p, group)), group)
        assignment = dict(enumerate(gr.grading.components))
        if draw(st.booleans()):
            return gr.ring, group, assignment, None
        return make_module(("self",), gr.ring), group, assignment, gr.grading
    if kind == "directsum":
        group = make_group(("cyclic", draw(st.integers(2, 3))))
        n = draw(st.integers(2, 36))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        sizes = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
        while math.prod(sizes) > 64:
            sizes.pop()
        gr = ring_trivial(make_ring(("zmod", n)), group)
        module = make_module(("directsum", *sizes), gr.ring)
        return module, group, trivial_assignment(module, group), gr.grading
    group = make_group(("cyclic", 2))
    gr1 = groupring_natural(make_ring(("groupring", draw(st.sampled_from([2, 3])), group)), group)
    gr2 = (groupring_natural(make_ring(("groupring", 2, group)), group) if draw(st.booleans())
           else ring_trivial(make_ring(("zmod", draw(st.integers(2, 6)))), group))
    ring = make_ring(("product", gr1.ring, gr2.ring))
    return ring, group, product_assignment(gr1.grading, gr2.grading, gr2.ring.size), None


def _outcome(attach, *args):
    try:
        return "valid", attach(*args)
    except GradingInvalid as exc:
        return exc.axiom, exc.witness


@given(_graded_carriers(), st.data())
@settings(max_examples=300, deadline=None)
def test_attach_grading_matches_the_nested_loop_oracle_on_corrupted_assignments(graded, data):
    carrier, group, assignment, ring_grading = graded
    assignment = {g: set(comp) for g, comp in assignment.items()}
    n = carrier.size
    # drop an element, add one out of range or move one to another component;
    # or add a whole component to another (which keeps both subgroups and may
    # break the direct sum) or swap two (which keeps the direct sum and may
    # break R_g M_h in M_gh)
    g, h = data.draw(st.lists(st.integers(0, group.size - 1), min_size=2, max_size=2, unique=group.size > 1))
    change = data.draw(st.sampled_from(["drop", "out-of-range", "move", "add-component", "swap"]))
    if change == "out-of-range":
        assignment[g].add(data.draw(st.sampled_from([-1, n, n + 1])))
    elif change == "add-component":
        assignment[h] |= assignment[g]
    elif change == "swap":
        assignment[g], assignment[h] = assignment[h], assignment[g]
    else:
        # zero is dropped or moved only from a component {0}
        x = data.draw(st.sampled_from(sorted(assignment[g] - {carrier.zero}) or [carrier.zero]))
        assignment[g].discard(x)
        if change == "move":
            assignment[h].add(x)
    got = _outcome(lambda *a: attach_grading(*a).components, carrier, group, assignment, ring_grading)
    want = _outcome(_oracle_attach_grading, carrier, group, assignment, ring_grading)
    assert got == want


def test_the_oracle_agrees_on_one_case_of_every_grading_axiom():
    c2 = make_group(("cyclic", 2))
    z4 = make_ring(("zmod", 4))
    z2z2 = make_ring(("product", ("zmod", 2), ("zmod", 2)))
    f2c2 = make_ring(("groupring", 2, c2))
    gr = groupring_natural(f2c2, c2)
    cases = [
        ((z4, c2, {0: {0, 1, 2, 3}, 1: {0, 4}}), "component-element-out-of-range"),
        ((z4, c2, {0: {0, 1, 2, 3}, 1: set()}), "component-missing-zero"),
        ((z4, c2, {0: {0, 1}, 1: {0}}), "component-not-closed-under-add"),
        ((z4, c2, {0: {0, 2}, 1: {0, 2}}), "direct-sum-collision"),
        ((z4, c2, {0: {0, 2}, 1: {0}}), "direct-sum-cardinality"),
        ((z4, c2, {0: {0}, 1: {0, 1, 2, 3}}), "one-not-in-identity-component"),
        ((z2z2, c2, {0: {0, z2z2.index[(1, 1)]}, 1: {0, z2z2.index[(1, 0)]}}), "component-product-escapes"),
        ((make_module(("self",), f2c2), c2, {0: {0, 1, 2, 3}, 1: {0}}, gr.grading), "action-escapes-component"),
    ]
    for args, axiom in cases:
        got = _outcome(lambda *a: attach_grading(*a).components, *args)
        assert got == _outcome(_oracle_attach_grading, *args)
        assert got[0] == axiom
