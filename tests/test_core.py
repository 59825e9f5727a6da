import dataclasses
import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gradedalg.core as core
from gradedalg import (
    InvalidDescriptor,
    build_standard_corpus,
    make_group,
    make_module,
    make_ring,
    parse_structure_file,
    parse_structure_text,
    validate_axioms,
)
from gradedalg.constructions import localize_module
from gradedalg.core import FiniteModule, FiniteRing, GradingGroup, ValidationReport, first_invalid
from gradedalg.grading import module_trivial, ring_trivial
from gradedalg.structfile import parse_structure_dir

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("entry", build_standard_corpus(), ids=lambda e: e.name)
def test_power_sets_match_the_full_length_walk(entry):
    # the definition: x^1 .. x^|R|, every one of the |R| steps taken
    ring = entry.gring.ring
    expected = []
    for x in range(ring.size):
        powers, cur = set(), x
        for _ in range(ring.size):
            powers.add(cur)
            cur = ring.mul[cur][x]
        expected.append(frozenset(powers))
    assert ring.power_sets == tuple(expected)


# ---------------------------------------------------------------------------
# the stored tables
# ---------------------------------------------------------------------------

def _array_fields(structure) -> tuple:
    return ("add_array", "mul_array") if isinstance(structure, FiniteRing) else ("add_array", "action_array")


def _arrays(structure):
    return [getattr(structure, name) for name in _array_fields(structure)]


def test_ring_and_module_tables_are_read_only_arrays_in_the_narrowest_dtype():
    structures = [s for e in build_standard_corpus() for s in (e.gring.ring, e.gmodule.module)]
    structures += [make_ring(("zmod", n)) for n in (255, 256, 257, 512)] + [make_ring(_F2C9)]
    structures.append(make_module(("directsum", 2, 3, 5), make_ring(("zmod", 300))))
    loc = localize_module(module_trivial(make_module(("self",), make_ring(("zmod", 12))),
                                         ring_trivial(make_ring(("zmod", 12)))), (1, 3, 9))
    structures += [loc.localized.module, loc.ring_loc.localized.ring]  # built from tuple rows
    assert {a.dtype for s in structures for a in _arrays(s)} == {np.dtype(np.uint8), np.dtype(np.uint16)}
    for structure in structures:
        for table in _arrays(structure):
            # uint8 holds every index of a carrier of up to 256 elements, uint16 up to the cap
            assert table.dtype == (np.uint8 if table.shape[1] <= 256 else np.uint16), structure.labels[:3]
            with pytest.raises(ValueError):
                table[0, 0] = 0


def test_a_ring_on_itself_shares_the_ring_tables_and_is_validated_once(monkeypatch):
    ring = make_ring(_F2C9)
    module = make_module(("self",), ring)
    assert module.add_array is ring.add_array and module.action_array is ring.mul_array
    assert module.add is ring.add and module.action is ring.mul  # rows read first through the module
    group = make_group(("cyclic", 9))
    validated = []
    monkeypatch.setattr(core, "validate_axioms", lambda s: validated.append(s) or ValidationReport("", []))
    assert first_invalid(group, ring, module) is None
    assert validated == [group, ring]
    corpus = build_standard_corpus()
    # the corpus builds one set of tables for each ring on itself
    shared = {e.name for e in corpus if e.gmodule.module.add is e.gring.ring.add
              and e.gmodule.module.action is e.gring.ring.mul}
    assert shared == {e.name for e in corpus} - {"torsion180", "z2-plane"}


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
        return ring, ("add_array", "mul_array")
    if zmod and draw(st.booleans()):
        divisors = [d for d in range(1, ring.size + 1) if ring.size % d == 0]
        sizes = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
        if np.prod(sizes) <= 64:
            return make_module(("directsum", *sizes), ring), ("add_array", "action_array")
    return make_module(("self",), ring), ("add_array", "action_array")


def _corrupt(structure, field, i, j, v):
    """``structure`` with cell (i, j) of its table ``field`` set to v: a
    writable copy of a ring or module array, or of a group's op rows, is
    written and passed to the constructor."""
    table = np.array(getattr(structure, field))
    table[i, j] = v
    if field == "op":
        table = tuple(map(tuple, table.tolist()))
    return dataclasses.replace(structure, **{field: table})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_validate_axioms_matches_full_broadcast_oracle_on_corrupted_tables(data):
    structure, fields = data.draw(_table_structures())
    field = data.draw(st.sampled_from(fields))
    rows, cols = np.shape(getattr(structure, field))
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(0, cols - 1))
    # a table's values lie in the carrier of its row length (module elements
    # for the action)
    broken = _corrupt(structure, field, i, j, data.draw(st.integers(0, cols - 1)))
    got, want = validate_axioms(broken), _oracle_validate_axioms(broken)
    assert (got.structure, got.failures) == (want.structure, want.failures)


def test_validate_axioms_matches_oracle_on_every_cell_of_a_small_ring():
    ring = make_ring(("zmod", 6))
    seen_invalid = 0
    for field in ("add_array", "mul_array"):
        for i in range(ring.size):
            for j in range(ring.size):
                for v in range(ring.size):
                    broken = _corrupt(ring, field, i, j, v)
                    want = _oracle_validate_axioms(broken)
                    assert validate_axioms(broken).failures == want.failures
                    seen_invalid += not want.ok
    assert seen_invalid > 300


# carriers of more than one 64-row block, the last one partial in zmod 97 and 150
_MULTI_BLOCK = {
    "cyclic-100": functools.cache(lambda: make_group(("cyclic", 100))),
    "zmod-97": functools.cache(lambda: make_ring(("zmod", 97))),
    "zmod-150": functools.cache(lambda: make_ring(("zmod", 150))),
    "directsum-2-64": functools.cache(lambda: make_module(("directsum", 2, 64), make_ring(("zmod", 128)))),
}


@st.composite
def _multi_block_cells(draw):
    """A carrier of 65-150 elements, one of its tables and a cell in row 64
    or later, with the value to write there."""
    name = draw(st.sampled_from(sorted(_MULTI_BLOCK)))
    structure = _MULTI_BLOCK[name]()
    field = draw(st.sampled_from(("op",) if name == "cyclic-100" else _array_fields(structure)))
    rows, cols = np.shape(getattr(structure, field))
    return name, field, draw(st.integers(64, rows - 1)), draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))


@given(_multi_block_cells())
@settings(max_examples=30, deadline=None)
@example(("zmod-150", "add_array", 100, 50, 1))  # row 100 loses its inverse
@example(("zmod-150", "mul_array", 1, 149, 0))  # one-identity fails in the last block
@example(("zmod-97", "add_array", 96, 0, 0))  # zero-identity fails in the last block
@example(("directsum-2-64", "action_array", 127, 127, 0))
def test_validate_axioms_matches_oracle_on_tables_of_several_row_blocks(cell):
    # the slices and the two-element laws are compared 64 first-axis rows at
    # a time; a corrupted cell past the first block must give the oracle's
    # failures and witnesses
    name, field, i, j, v = cell
    broken = _corrupt(_MULTI_BLOCK[name](), field, i, j, v)
    got, want = validate_axioms(broken), _oracle_validate_axioms(broken)
    assert (got.structure, got.failures) == (want.structure, want.failures)


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


# ---------------------------------------------------------------------------
# table builders against per-element oracles
# ---------------------------------------------------------------------------

def _oracle_make_group(spec):
    """The group builder as it was before the numpy rewrite: nested loops."""
    if spec == "trivial":
        return GradingGroup(("e",), ((0,),), 0, (0,))
    if spec[0] == "cyclic":
        n = spec[1]
        op = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return GradingGroup(tuple(range(n)), op, 0, tuple((-i) % n for i in range(n)))
    g1, g2 = _oracle_make_group(spec[1]), _oracle_make_group(spec[2])
    n2 = g2.size

    def idx(i, j):
        return i * n2 + j

    op = tuple(
        tuple(idx(g1.op[i1][j1], g2.op[i2][j2]) for j1 in range(g1.size) for j2 in range(n2))
        for i1 in range(g1.size)
        for i2 in range(n2)
    )
    inverse = tuple(idx(g1.inverse[i1], g2.inverse[i2]) for i1 in range(g1.size) for i2 in range(n2))
    return GradingGroup(tuple(itertools.product(g1.labels, g2.labels)), op,
                        idx(g1.identity, g2.identity), inverse)


@functools.cache
def _oracle_make_ring(spec):
    """The ring builder as it was before the numpy rewrite: per-element dict
    lookups and nested loops (memoised, since F2[C9] takes seconds)."""
    if spec[0] == "zmod":
        n = spec[1]
        add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
        return FiniteRing(tuple(range(n)), add, mul, 0, 1 % n)
    if spec[0] == "groupring":
        p, group = spec[1], _oracle_make_group(spec[2])
        k = group.size
        labels = tuple(itertools.product(range(p), repeat=k))
        index = {lab: i for i, lab in enumerate(labels)}
        add = tuple(
            tuple(index[tuple((a[t] + b[t]) % p for t in range(k))] for b in labels)
            for a in labels
        )
        mul_rows = []
        for a in labels:
            row = []
            for b in labels:
                out = [0] * k
                for i in range(k):
                    if a[i]:
                        for j in range(k):
                            if b[j]:
                                out[group.op[i][j]] += a[i] * b[j]
                row.append(index[tuple(c % p for c in out)])
            mul_rows.append(tuple(row))
        one = [0] * k
        one[group.identity] = 1
        return FiniteRing(labels, add, tuple(mul_rows), index[(0,) * k], index[tuple(one)])
    r1, r2 = _oracle_make_ring(spec[1]), _oracle_make_ring(spec[2])
    n2 = r2.size
    add = tuple(
        tuple(r1.add[i1][j1] * n2 + r2.add[i2][j2] for j1 in range(r1.size) for j2 in range(n2))
        for i1 in range(r1.size)
        for i2 in range(n2)
    )
    mul = tuple(
        tuple(r1.mul[i1][j1] * n2 + r2.mul[i2][j2] for j1 in range(r1.size) for j2 in range(n2))
        for i1 in range(r1.size)
        for i2 in range(n2)
    )
    return FiniteRing(tuple(itertools.product(r1.labels, r2.labels)), add, mul,
                      r1.zero * n2 + r2.zero, r1.one * n2 + r2.one)


def _oracle_make_module(spec, ring):
    """The module builder as it was before the numpy rewrite."""
    if spec[0] == "directsum":
        ms, n = spec[1:], ring.size
        labels = tuple(itertools.product(*(range(m) for m in ms)))
        index = {lab: i for i, lab in enumerate(labels)}
        add = tuple(
            tuple(index[tuple((a[t] + b[t]) % ms[t] for t in range(len(ms)))] for b in labels)
            for a in labels
        )
        action = tuple(
            tuple(index[tuple((r * x[t]) % ms[t] for t in range(len(ms)))] for x in labels)
            for r in range(n)
        )
        return FiniteModule(ring, labels, add, index[(0,) * len(ms)], action)
    m1, m2 = spec[1], spec[2]
    n2 = m2.size
    add = tuple(
        tuple(m1.add[i1][j1] * n2 + m2.add[i2][j2] for j1 in range(m1.size) for j2 in range(n2))
        for i1 in range(m1.size)
        for i2 in range(n2)
    )
    action = tuple(
        tuple(m1.action[r1][i1] * n2 + m2.action[r2][i2] for i1 in range(m1.size) for i2 in range(n2))
        for r1 in range(m1.ring.size)
        for r2 in range(m2.ring.size)
    )
    return FiniteModule(ring, tuple(itertools.product(m1.labels, m2.labels)), add,
                        m1.zero * n2 + m2.zero, action)


_GROUP_SPECS = st.one_of(
    st.integers(1, 12).map(lambda n: ("cyclic", n)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda ab: ("product", ("cyclic", ab[0]), ("cyclic", ab[1]))),
    st.just(("product", ("product", ("cyclic", 2), ("cyclic", 1)), ("cyclic", 3))),
)
_GROUPRING_SPECS = st.sampled_from([
    ("groupring", p, g)
    for p in (2, 3, 5)
    for g in [("cyclic", n) for n in range(1, 10)]
    + [("product", ("cyclic", a), ("cyclic", b)) for a in range(1, 5) for b in range(1, 5)]
    if p ** _oracle_make_group(g).size <= 512
])
_SMALL_RING_SPECS = st.one_of(
    st.integers(2, 8).map(lambda n: ("zmod", n)),
    st.sampled_from([("groupring", 2, ("cyclic", 2)), ("groupring", 3, ("cyclic", 2))]),
)
_RING_SPECS = st.one_of(
    st.integers(2, 64).map(lambda n: ("zmod", n)),
    _GROUPRING_SPECS,
    st.tuples(_SMALL_RING_SPECS, _SMALL_RING_SPECS).map(lambda rs: ("product", *rs)),
)


@st.composite
def _directsum_specs(draw, max_ring=64, max_elements=64):
    n = draw(st.integers(2, max_ring))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    sizes = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
    if np.prod(sizes) > max_elements:
        sizes = sizes[:1]
    return ("zmod", n), ("directsum", *sizes)


def _assert_same_tables(got, want):
    """Equal labels and indices, and equal tables compared cell by cell as
    ints.  Each row of a group's op, a ring's add and mul and a module's add
    and action is a read-only view of one C-ordered array: the stored array
    of a ring or module table, the op's own array for a group."""
    for field in dataclasses.fields(want):
        name = field.name.removesuffix("_array")
        if name == "ring":
            continue
        value, expected = getattr(got, name), getattr(want, name)
        if name in ("labels", "inverse") or type(expected) is int:
            assert value == expected, name
            ints = () if name == "labels" else value if name == "inverse" else (value,)
            assert all(type(v) is int for v in ints), name
            continue
        assert [[int(v) for v in row] for row in value] == [[int(v) for v in row] for row in expected], name
        assert all(type(v) is int for row in value for v in row), name
        stored = getattr(got, field.name) if field.name.endswith("_array") else value[0].obj
        assert isinstance(stored, np.ndarray) and stored.flags.c_contiguous, name
        assert stored.shape == (len(value), len(value[0])), name
        assert all(type(row) is memoryview and row.readonly and row.obj is stored for row in value), name


@given(_GROUP_SPECS)
@settings(max_examples=60, deadline=None)
def test_make_group_matches_per_element_oracle(spec):
    _assert_same_tables(make_group(spec), _oracle_make_group(spec))


@given(_RING_SPECS)
@settings(max_examples=80, deadline=None)
@example(("groupring", 2, ("cyclic", 9)))
@example(("groupring", 3, ("product", ("cyclic", 1), ("cyclic", 5))))
def test_make_ring_matches_per_element_oracle(spec):
    _assert_same_tables(make_ring(spec), _oracle_make_ring(spec))


@given(_directsum_specs())
@settings(max_examples=60, deadline=None)
@example((("zmod", 180), ("directsum", 4, 9, 5)))
# 256 elements with a leading summand 1, whose place value is |M|
@example((("zmod", 16), ("directsum", 1, 16, 16)))
@example((("zmod", 2), ("directsum", 1, 2, 2, 2, 2, 2, 2, 2, 2)))
def test_make_directsum_module_matches_per_element_oracle(specs):
    ring_spec, spec = specs
    ring = make_ring(ring_spec)
    _assert_same_tables(make_module(spec, ring), _oracle_make_module(spec, ring))


def _int64_directsum_action(ms, n):
    """The direct-sum action as it was built before it was built one summand at
    a time in its stored dtype: accumulated in int64 over n x |M| temporaries."""
    d, places = core._digits(ms)
    r = np.arange(n)[:, None]
    action = np.zeros((n, len(d)), np.int64)
    for t, (m, w) in enumerate(zip(ms, places)):
        action += r * d[None, :, t] % m * w
    return action


def _sorted_divisor_shapes(n, max_elements):
    """Every non-decreasing tuple of divisors > 1 of n whose product is at most ``max_elements``."""
    divisors = [d for d in range(2, n + 1) if n % d == 0]

    def grow(shape, size):
        if shape:
            yield shape
        for d in divisors:
            if (not shape or d >= shape[-1]) and size * d <= max_elements:
                yield from grow(shape + (d,), size * d)
    return grow((), 1)


def test_directsum_action_matches_the_int64_construction_on_every_small_shape():
    shapes = 0
    for n in range(2, 61):
        ring = make_ring(("zmod", n))
        # the sorted shapes, plus summands of order 1 and a summand order out of order
        for ms in (*_sorted_divisor_shapes(n, 512), (1,), (1, n), (n, 1, *(d for d in (2,) if n % d == 0))):
            action = make_module(("directsum", *ms), ring).action_array
            assert action.dtype == np.min_scalar_type(math.prod(ms) - 1), ms
            assert np.array_equal(action, _int64_directsum_action(ms, n)), (n, ms)
            shapes += 1
    assert shapes == 3458
    for n, ms in ((256, (256,)), (512, (512,)), (256, (2, 128)), (128, (2, 64))):
        action = make_module(("directsum", *ms), make_ring(("zmod", n))).action_array
        assert action.dtype == np.min_scalar_type(math.prod(ms) - 1), ms
        assert np.array_equal(action, _int64_directsum_action(ms, n)), ms


def test_torsion180_directsum_action_is_built_without_wide_temporaries():
    ring = make_ring(("zmod", 180))
    tracemalloc.start()
    try:
        make_module(("directsum", 4, 9, 5), ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 build peaked at 786 kB here, the 180 x 180 int64 action alone being 259 kB
    assert peak < 200_000, peak


@given(_directsum_specs(12, 12), _directsum_specs(12, 12))
@settings(max_examples=30, deadline=None)
def test_make_product_module_matches_per_element_oracle(specs1, specs2):
    (r1, s1), (r2, s2) = specs1, specs2
    m1, m2 = make_module(s1, make_ring(r1)), make_module(s2, make_ring(r2))
    ring = make_ring(("product", r1, r2))
    spec = ("product", m1, m2)
    got = make_module(spec, ring)
    assert got.ring is ring
    _assert_same_tables(got, _oracle_make_module(spec, ring))
    assert validate_axioms(got).ok


@pytest.mark.slow
@pytest.mark.parametrize("spec", [("groupring", 3, ("cyclic", 6)), ("groupring", 5, ("cyclic", 4))],
                         ids=["f3-c6", "f5-c4"])
def test_make_ring_matches_per_element_oracle_beyond_the_cap(spec):
    # 729 and 625 elements: carries with coefficients up to p - 1 over more
    # places than the tier-1 range reaches
    _assert_same_tables(make_ring(spec), _oracle_make_ring(spec))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: make_ring(_F2C9), "add"),
        (lambda: make_ring(_F2C9), "mul"),
        (lambda: make_ring(("zmod", 512)), "add"),
        (lambda: make_module(("directsum",) + (2,) * 9, make_ring(("zmod", 2))), "add"),
    ],
    ids=["f2-c9-add", "f2-c9-mul", "zmod-512-add", "directsum-2x9-add"],
)
def test_a_tables_rows_are_views_that_copy_no_cell(build, field):
    # 512 row views of the stored array take about 0.1 MB traced; tuple rows
    # of shared ints took 2.1 MB
    structure = build()
    stored = getattr(structure, f"{field}_array")
    tracemalloc.start()
    try:
        rows = getattr(structure, field)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(rows[0]) == 512
    assert all(type(row) is memoryview and row.readonly and row.obj is stored for row in rows)
    assert size < 200_000, f"the rows of a 512 x 512 table take {size} bytes"


def test_groupring_construction_holds_each_table_once_in_a_narrow_dtype():
    # the two 512^2-cell tables take 0.52 MB each in uint16 and the build
    # peaks near 1.5 MB traced.  Tuple rows of shared ints would add 2.1 MB
    # per table, and building in int64 1.6 MB per table: with both, the
    # build peaked near 8.8 MB
    c9 = make_group(("cyclic", 9))
    tracemalloc.start()
    try:
        ring = make_ring(("groupring", 2, c9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.size == 512
    assert "add" not in ring.__dict__ and "mul" not in ring.__dict__
    assert peak < 2_000_000, f"make_ring peaked at {peak} bytes"


_CAP_TEXT = "group cyclic 9\nring groupring 2\ngrading natural\nmodule self\n"


@pytest.mark.parametrize(
    "text",
    [
        _CAP_TEXT,
        # the benchmark's validate-cap file at seed 1
        _CAP_TEXT + "submodule N gens (0,1,0,1,1,1,1,0,0)\nideal I gens (1,0,1,1,0,1,1,0,0)\n",
    ],
    ids=["bare", "named-submodule-and-ideal"],
)
def test_parsing_the_cap_structure_builds_no_tuple_rows(text):
    # building, grading, validating F2[C9] on itself and spanning named
    # subobjects reads only the stored arrays and peaks near 1.5 MB traced, set
    # by building the tables; the two tables' tuple rows alone would take
    # 4.2 MB, and with them the named file peaked near 5.7 MB
    tracemalloc.start()
    try:
        entry = parse_structure_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ring, module = entry.gring.ring, entry.gmodule.module
    assert ring.size == 512 and module.add_array is ring.add_array and len(entry.named) == text.count(" gens ")
    assert not {"add", "mul"} & ring.__dict__.keys() and not {"add", "action"} & module.__dict__.keys()
    assert peak < 2_500_000, f"parsing the cap structure peaked at {peak} bytes"


def test_the_row_views_of_every_corpus_table_take_under_0_4_mb():
    # fresh copies of every ring and module of the standard corpus and
    # structures/, sharing the stored arrays: their row views take about
    # 0.34 MB traced (0.2 MB of memoryviews per 1000 rows, and torsion180 has
    # 720 rows in each directory), where tuple rows of shared ints took 2.2 MB
    entries = [*parse_structure_dir(ROOT / "src" / "gradedalg" / "standard"), *parse_structure_dir(ROOT / "structures")]
    copies = []
    for entry in entries:
        r, m = entry.gring.ring, entry.gmodule.module
        ring = FiniteRing(r.labels, r.add_array, r.mul_array, r.zero, r.one)
        copies.append((ring, FiniteModule(ring, m.labels, m.add_array, m.zero, m.action_array)))
    tables = [(s, name) for ring, module in copies for s, name in
              ((ring, "add"), (ring, "mul"), (module, "add"), (module, "action"))]
    tracemalloc.start()
    try:
        rows = [getattr(s, name) for s, name in tables]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row.obj is getattr(s, f"{name}_array") for (s, name), t in zip(tables, rows) for row in t)
    assert size < 400_000, f"the corpus's row views take {size} bytes"


def test_validate_axioms_of_f2_c9_compares_its_slices_in_row_blocks():
    # 64-row blocks of the 512 x 512 slices peak near 0.28 MB traced; whole
    # slices and their n x n temporaries peaked near 1.33 MB
    ring = make_ring(_F2C9)
    tracemalloc.start()
    try:
        report = validate_axioms(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 600_000, f"validate_axioms peaked at {peak} bytes"


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_ring(("zmod", 255)),
        lambda: make_ring(("zmod", 256)),
        lambda: make_ring(("zmod", 257)),
        lambda: make_module(("directsum", 2, 3, 5), make_ring(("zmod", 300))),
    ],
    ids=["zmod-255", "zmod-256", "zmod-257", "directsum-2-3-5-over-zmod-300"],
)
def test_validate_axioms_matches_oracle_across_the_uint8_uint16_switch(build):
    # zmod 255 and 256 are held in uint8, zmod 257 in uint16; the module's
    # arrays are uint8 and its ring's (indices up to 299) uint16
    structure = build()
    fields = _array_fields(structure)
    last = structure.size - 1
    cells = [
        (fields[0], 1, 2, 0),
        (fields[1], 3, last, last),
        (fields[1], len(getattr(structure, fields[1])) - 1, 0, 1),
    ]
    for field, i, j, v in cells:
        broken = _corrupt(structure, field, i, j, v)
        got, want = validate_axioms(broken), _oracle_validate_axioms(broken)
        assert want.failures
        assert (got.structure, got.failures) == (want.structure, want.failures)


# ---------------------------------------------------------------------------
# the generating sets whose slices decide the laws over three elements
# ---------------------------------------------------------------------------

def _oracle_closure(table, picks) -> set:
    members = set(picks)
    while True:
        new = {table[a][b] for a in members for b in members} - members
        if not new:
            return members
        members |= new


_F2C9 = ("groupring", 2, ("cyclic", 9))


@given(st.one_of(
    _GROUP_SPECS.map(lambda spec: make_group(spec).op),
    _RING_SPECS.map(lambda spec: make_ring(spec).add),
    _directsum_specs().map(lambda specs: make_module(specs[1], make_ring(specs[0])).add),
))
@settings(max_examples=120, deadline=None)
@example(make_ring(_F2C9).add)
@example(make_group(("product", ("product", ("cyclic", 2), ("cyclic", 1)), ("cyclic", 3))).op)
def test_generators_generate_every_table_of_the_families_within_the_bound(table):
    n = len(table)
    gens = core._generators(np.asarray(table))
    assert gens is not None and len(gens) <= n.bit_length()  # floor(log2 n) + 1
    assert _oracle_closure(table, gens) == set(range(n))


def test_generators_of_f2_c9_and_zmod_n():
    assert core._generators(np.asarray(make_ring(_F2C9).add)) == [2 ** k for k in range(9)]
    assert core._generators(np.asarray(make_ring(("zmod", 512)).add)) == [1]


class _CountedTable:
    """A table that counts its reads."""

    def __init__(self, table):
        self.table, self.reads = np.asarray(table), 0

    def __len__(self):
        return len(self.table)

    def __getitem__(self, key):
        self.reads += 1
        return self.table[key]


@pytest.mark.parametrize("n", [64, 512])
def test_a_constant_add_fails_as_under_the_row_scan_and_the_search_gives_up(n, monkeypatch):
    # under a constant add every element generates only itself and the
    # constant, so an unbounded search would pick all n elements
    ring = make_ring(("groupring", 2, ("cyclic", n.bit_length() - 1)))
    constant = dataclasses.replace(ring, add_array=np.zeros_like(ring.add_array))
    counted = _CountedTable(constant.add_array)
    assert core._generators(counted) is None
    assert counted.reads <= 2 * n.bit_length()  # two reads per element multiplied
    got = validate_axioms(constant).failures
    monkeypatch.setattr(core, "_generators", lambda table: None)  # every law by the row scan
    assert got == validate_axioms(constant).failures == [("ring-zero-identity", (1,))]
    if n == 64:
        assert got == _oracle_validate_axioms(constant).failures


def test_valid_structures_never_run_the_row_scan(monkeypatch):
    def row_scan(rows):
        raise AssertionError("a valid table ran the first-argument row scan")

    monkeypatch.setattr(core, "_law_mismatch", row_scan)
    triples = [(e.gring.grading.group, e.gring.ring, e.gmodule.module) for e in build_standard_corpus()]
    for path in sorted((ROOT / "structures").glob("*.gstruct")):
        entry = parse_structure_file(path)
        triples.append((entry.gring.grading.group, entry.gring.ring, entry.gmodule.module))
    f2c9, z2, z512 = make_ring(_F2C9), make_ring(("zmod", 2)), make_ring(("zmod", 512))
    trivial = make_group("trivial")
    triples += [
        (make_group(("cyclic", 9)), f2c9, make_module(("self",), f2c9)),
        (trivial, z512, make_module(("self",), z512)),
        (trivial, z2, make_module(("directsum",) + (2,) * 9, z2)),
    ]
    assert len(triples) == 17
    for triple in triples:
        assert first_invalid(*triple) is None
