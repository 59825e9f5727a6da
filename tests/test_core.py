import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedalg import (
    InvalidDescriptor,
    make_group,
    make_module,
    make_ring,
    validate_axioms,
)
from gradedalg.core import FiniteModule, FiniteRing, GradingGroup, ValidationReport


def test_trivial_group():
    g = make_group("trivial")
    assert g.size == 1
    assert g.identity == 0


def test_cyclic_group_tables():
    g = make_group(("cyclic", 4))
    assert g.size == 4
    assert g.op[1][3] == 0
    assert g.inverse[1] == 3
    assert not validate_axioms(g).failures


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=15, deadline=None)
def test_zmod_rings_satisfy_axioms(n):
    r = make_ring(("zmod", n))
    assert r.size == n
    assert validate_axioms(r).ok


def test_zmod_arithmetic():
    r = make_ring(("zmod", 12))
    assert r.mul[3][4] == 0
    assert r.add[7][8] == 3
    assert r.neg[5] == 7
    assert r.labels[r.one] == 1


def test_group_ring_arithmetic():
    c2 = make_group(("cyclic", 2))
    r = make_ring(("groupring", 2, c2))
    assert r.size == 4
    assert validate_axioms(r).ok
    # (1 + g)^2 = 1 + 2g + g^2 = 0 over coefficients mod 2
    e = r.index[(1, 1)]
    assert r.mul[e][e] == r.zero


def test_group_ring_needs_prime_coefficients():
    c2 = make_group(("cyclic", 2))
    with pytest.raises(InvalidDescriptor):
        make_ring(("groupring", 4, c2))


def test_product_ring():
    r = make_ring(("product", make_ring(("zmod", 2)), make_ring(("zmod", 3))))
    assert r.size == 6
    assert validate_axioms(r).ok
    assert r.labels[r.one] == (1, 1)


def test_self_module_matches_ring():
    r = make_ring(("zmod", 9))
    m = make_module(("self",), r)
    assert m.size == 9
    assert m.action[4][7] == (4 * 7) % 9
    assert validate_axioms(m).ok


def test_directsum_module():
    r = make_ring(("zmod", 180))
    m = make_module(("directsum", 4, 9, 5), r)
    assert m.size == 180
    v = m.index[(1, 1, 1)]
    w = m.action[7][v]
    assert m.labels[w] == (7 % 4, 7 % 9, 7 % 5)
    assert m.labels[m.neg[v]] == (3, 8, 4)
    assert validate_axioms(m).ok


def test_directsum_rejects_bad_component():
    r = make_ring(("zmod", 12))
    with pytest.raises(InvalidDescriptor):
        make_module(("directsum", 5,), r)  # 5 does not divide 12


def test_validate_axioms_catches_broken_table():
    r = make_ring(("zmod", 4))
    bad_mul = [list(row) for row in r.mul]
    bad_mul[2][3] = 1  # should be 2
    broken = type(r)(r.labels, r.add, tuple(tuple(x) for x in bad_mul), r.zero, r.one)
    report = validate_axioms(broken)
    assert not report.ok
    assert any(axiom for axiom, _ in report.failures)


def test_power_sets():
    r = make_ring(("zmod", 12))
    assert r.power_sets[2] == frozenset({2, 4, 8})
    assert r.power_sets[0] == frozenset({0})
    assert r.power_sets[1] == frozenset({1})


# ---------------------------------------------------------------------------
# validate_axioms against a full-broadcast oracle
# ---------------------------------------------------------------------------

def _oracle_first_mismatch(lhs, rhs):
    bad = np.argwhere(lhs != rhs)
    if bad.size == 0:
        return None
    return tuple(int(v) for v in bad[0])


def _oracle_abelian_group(failures, add, zero, tag):
    n = add.shape[0]
    left = add[add, :]
    right = add[np.arange(n)[:, None, None], add[None, :, :]]
    mm = _oracle_first_mismatch(left, right)
    if mm is not None:
        failures.append((f"{tag}-add-associativity", mm))
    mm = _oracle_first_mismatch(add, add.T)
    if mm is not None:
        failures.append((f"{tag}-add-commutativity", mm))
    mm = _oracle_first_mismatch(add[:, zero], np.arange(n))
    if mm is not None:
        failures.append((f"{tag}-zero-identity", mm))
    for i in range(n):
        if zero not in add[i]:
            failures.append((f"{tag}-add-inverse", (i,)))
            break


def _oracle_validate_axioms(structure):
    """The validator as it was before the row-at-a-time rewrite: every law
    over three elements is one n^3 broadcast."""
    if isinstance(structure, GradingGroup):
        failures = []
        op = np.asarray(structure.op, dtype=np.int32)
        n = structure.size
        left = op[op, :]
        right = op[np.arange(n)[:, None, None], op[None, :, :]]
        mm = _oracle_first_mismatch(left, right)
        if mm is not None:
            failures.append(("group-associativity", mm))
        e = structure.identity
        if _oracle_first_mismatch(op[e], np.arange(n)) is not None or _oracle_first_mismatch(
            op[:, e], np.arange(n)
        ) is not None:
            failures.append(("group-identity", (e,)))
        inv = np.asarray(structure.inverse, dtype=np.int32)
        if _oracle_first_mismatch(op[np.arange(n), inv], np.full(n, e)) is not None:
            failures.append(("group-inverse", None))
        return ValidationReport("group", failures)

    if isinstance(structure, FiniteRing):
        failures = []
        n = structure.size
        add = np.asarray(structure.add, dtype=np.int32)
        mul = np.asarray(structure.mul, dtype=np.int32)
        _oracle_abelian_group(failures, add, structure.zero, "ring")
        left = mul[mul, :]
        right = mul[np.arange(n)[:, None, None], mul[None, :, :]]
        mm = _oracle_first_mismatch(left, right)
        if mm is not None:
            failures.append(("mul-associativity", mm))
        mm = _oracle_first_mismatch(mul, mul.T)
        if mm is not None:
            failures.append(("mul-commutativity", mm))
        lhs = mul[np.arange(n)[:, None, None], add[None, :, :]]
        rhs = add[mul[:, :, None], mul[:, None, :]]
        mm = _oracle_first_mismatch(lhs, rhs)
        if mm is not None:
            failures.append(("distributivity", mm))
        if structure.one == structure.zero:
            failures.append(("one-nonzero", None))
        mm = _oracle_first_mismatch(mul[structure.one], np.arange(n))
        if mm is not None:
            failures.append(("one-identity", mm))
        return ValidationReport("ring", failures)

    failures = []
    ring = structure.ring
    add = np.asarray(structure.add, dtype=np.int32)
    radd = np.asarray(ring.add, dtype=np.int32)
    rmul = np.asarray(ring.mul, dtype=np.int32)
    act = np.asarray(structure.action, dtype=np.int32)
    nr = ring.size
    _oracle_abelian_group(failures, add, structure.zero, "module")
    lhs = act[np.arange(nr)[:, None, None], add[None, :, :]]
    rhs = add[act[:, :, None], act[:, None, :]]
    mm = _oracle_first_mismatch(lhs, rhs)
    if mm is not None:
        failures.append(("action-distributes-over-module-add", mm))
    lhs = act[radd, :]
    rhs = add[act[:, None, :], act[None, :, :]]
    mm = _oracle_first_mismatch(lhs, rhs)
    if mm is not None:
        failures.append(("action-distributes-over-ring-add", mm))
    lhs = act[rmul, :]
    rhs = act[np.arange(nr)[:, None, None], act[None, :, :]]
    mm = _oracle_first_mismatch(lhs, rhs)
    if mm is not None:
        failures.append(("action-associativity", mm))
    mm = _oracle_first_mismatch(act[ring.one], np.arange(structure.size))
    if mm is not None:
        failures.append(("unital-action", mm))
    return ValidationReport("module", failures)


_C2, _C3 = make_group(("cyclic", 2)), make_group(("cyclic", 3))
_GROUPRINGS = [make_ring(("groupring", p, g)) for p in (2, 3) for g in (_C2, _C3)]


@st.composite
def _table_structures(draw):
    """A group, ring or module together with the names of its tables that
    may be corrupted."""
    kind = draw(st.sampled_from(["group", "ring", "module"]))
    if kind == "group":
        if draw(st.booleans()):
            return make_group(("cyclic", draw(st.integers(1, 12)))), ("op",)
        shape = ("product", ("cyclic", draw(st.integers(1, 4))), ("cyclic", draw(st.integers(1, 4))))
        return make_group(shape), ("op",)
    zmod = draw(st.booleans())
    ring = make_ring(("zmod", draw(st.integers(2, 30)))) if zmod else draw(st.sampled_from(_GROUPRINGS))
    if kind == "ring":
        return ring, ("add", "mul")
    if zmod and draw(st.booleans()):
        divisors = [d for d in range(1, ring.size + 1) if ring.size % d == 0]
        sizes = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
        if np.prod(sizes) <= 64:
            return make_module(("directsum", *sizes), ring), ("add", "action")
    return make_module(("self",), ring), ("add", "action")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_validate_axioms_matches_full_broadcast_oracle_on_corrupted_tables(data):
    structure, fields = data.draw(_table_structures())
    field = data.draw(st.sampled_from(fields))
    table = [list(row) for row in getattr(structure, field)]
    i = data.draw(st.integers(0, len(table) - 1))
    j = data.draw(st.integers(0, len(table[i]) - 1))
    # a table's values lie in the carrier of its row length (module elements
    # for the action)
    table[i][j] = data.draw(st.integers(0, len(table[i]) - 1))
    broken = dataclasses.replace(structure, **{field: tuple(tuple(row) for row in table)})
    got, want = validate_axioms(broken), _oracle_validate_axioms(broken)
    assert (got.structure, got.failures) == (want.structure, want.failures)


def test_validate_axioms_matches_oracle_on_every_cell_of_a_small_ring():
    ring = make_ring(("zmod", 6))
    seen_invalid = 0
    for field in ("add", "mul"):
        for i in range(ring.size):
            for j in range(ring.size):
                for v in range(ring.size):
                    table = [list(row) for row in getattr(ring, field)]
                    table[i][j] = v
                    broken = dataclasses.replace(ring, **{field: tuple(tuple(r) for r in table)})
                    want = _oracle_validate_axioms(broken)
                    assert validate_axioms(broken).failures == want.failures
                    seen_invalid += not want.ok
    assert seen_invalid > 300


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_ring(("zmod", 128)),
        lambda: make_module(("directsum", 2, 64), make_ring(("zmod", 128))),
    ],
    ids=["zmod-128", "directsum-2-64"],
)
def test_validate_axioms_memory_is_below_n_cubed(build):
    structure = build()
    n = structure.size
    tracemalloc.start()
    try:
        report = validate_axioms(structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < n ** 3, f"validate_axioms peaked at {peak} bytes on {n} elements"
