import pytest

from gradedalg import GradingInvalid, make_group, make_module, make_ring
from gradedalg.grading import (
    attach_grading,
    groupring_natural,
    module_same_as_ring,
    module_trivial,
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
    sums = [(ring.labels[a], ring.labels[b]) for a in e_part for b in g_part if ring.add[a][b] == x]
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
