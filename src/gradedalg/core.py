"""Finite grading groups, commutative rings, and modules as explicit operation tables.

Every structure is an immutable table object: elements are canonical labels,
all operations are total lookup tables over element *indices*, and everything
downstream treats elements as opaque indices.  Structures are validated
exhaustively by :func:`validate_axioms`.  Every subgroup sum (:func:`coset_sum`),
:func:`first_escape`, :func:`first_hom_failure` and :func:`fraction_tables` gather on the stored arrays.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

# no floating-point linear algebra here, and OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from .errors import InvalidDescriptor

DEFAULT_MAX_ELEMENTS = 512
_ROWS = 64  # tables are read this many rows at a time where whole-table temporaries would be n^2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class _Carrier:
    """What every table structure shares: its elements are the indices of its
    ``labels``."""

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}


@dataclass(frozen=True, eq=False)
class GradingGroup(_Carrier):
    """A finite group given by a full Cayley table."""

    labels: tuple
    op: tuple  # op[i][j] -> index of labels[i] * labels[j]
    identity: int
    inverse: tuple


def _store(structure, *fields) -> None:
    """Normalise the named table fields of a frozen structure to its one stored
    form: a read-only array in the narrowest unsigned dtype that holds every
    index of the carrier its columns index.  Takes arrays or nested tuples; an
    array already in that form is kept as it is, so structures can share it."""
    for name in fields:
        table = np.asarray(getattr(structure, name))
        table = table.astype(np.min_scalar_type(table.shape[1] - 1), order="C", copy=False)
        table.flags.writeable = False
        object.__setattr__(structure, name, table)


@dataclass(frozen=True, eq=False)
class FiniteRing(_Carrier):
    """A finite commutative ring with unity, as addition/multiplication tables.

    The arrays are the stored tables; ``mul`` is the rows of ``mul_array`` as
    read-only views, built the first time a kernel reads them."""

    labels: tuple
    add_array: np.ndarray
    mul_array: np.ndarray
    zero: int
    one: int

    def __post_init__(self):
        _store(self, "add_array", "mul_array")

    @cached_property
    def mul(self) -> tuple:
        return _rows(self.mul_array)

    @property
    def action(self) -> tuple:
        """The ring acting on itself, as a module over itself: action[r][x] = r*x."""
        return self.mul

    @property
    def action_array(self) -> np.ndarray:
        return self.mul_array

    @cached_property
    def power_sets(self) -> tuple:
        """power_sets[x] = {x^k : 1 <= k <= |R|} as a frozenset of indices.

        The exponent bound |R| suffices: the power sequence of any element of a
        finite ring is eventually periodic within |R| steps.  The walk stops at
        the first repeated power, since x^(k+1) depends only on x^k.
        """
        out = []
        for x, row in enumerate(self.mul):
            seen = set()
            cur = x
            while cur not in seen:
                seen.add(cur)
                cur = row[cur]
            out.append(frozenset(seen))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class FiniteModule(_Carrier):
    """A finite unital module over a :class:`FiniteRing`, as explicit tables
    stored as a ring's are.  The ring acting on itself shares the ring's
    arrays, and so its action's row views."""

    ring: FiniteRing
    labels: tuple
    add_array: np.ndarray
    zero: int
    action_array: np.ndarray  # action_array[r, m] -> module element index

    def __post_init__(self):
        _store(self, "add_array", "action_array")

    @cached_property
    def action(self) -> tuple:
        ring = self.ring
        return ring.mul if self.action_array is ring.mul_array else _rows(self.action_array)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _digits(radices):
    """Mixed-radix digits and place values: row i of the digit array holds the
    digits of element i, the last one varying fastest (the itertools.product
    order of the labels), so element i is ``digits[i] @ places``."""
    radices = tuple(radices)
    places = [math.prod(radices[t + 1:]) for t in range(len(radices))]
    return np.indices(radices).reshape(len(radices), math.prod(radices)).T, places


def _product_table(t1, t2, s2: int) -> np.ndarray:
    """The componentwise table of two tables under the product index convention
    (i1, i2) -> i1*s2 + i2, where s2 is the size of the carrier t2's values
    lie in: serves group op, ring add and mul, module add and action.  The
    values lie in the carrier the columns index, so the table is built in the
    narrowest unsigned dtype that holds its column indices (and s2)."""
    dtype = np.min_scalar_type(max(np.shape(t1)[1] * s2 - 1, s2))
    t1, t2 = np.asarray(t1).astype(dtype), np.asarray(t2).astype(dtype)
    out = t1[:, None, :, None] * s2 + t2[None, :, None, :]
    return out.reshape(t1.shape[0] * t2.shape[0], t1.shape[1] * t2.shape[1])


def _digit_add(radices) -> np.ndarray:
    """The add table of Z/m_1 x ... x Z/m_k on :func:`_digits`' indices: the
    iterated product table of the cyclic add tables."""
    out = np.zeros((1, 1), np.uint8)
    for m in radices:
        a = np.arange(m, dtype=np.min_scalar_type(2 * (m - 1)))  # wide enough for the sums
        out = _product_table(out, (a[:, None] + a) % m, m)
    return out


def _rows(a: np.ndarray) -> tuple:
    """A group's op, or the rows the kernels index of a ring or module table: read-only
    memoryviews of the C-ordered ``a``, each with ``obj`` ``a``, so no cell is copied."""
    flat, n = memoryview(a).toreadonly().cast("B").cast(a.dtype.char), a.shape[1]
    return tuple(flat[lo:lo + n] for lo in range(0, a.size, n))


def make_group(spec) -> GradingGroup:
    """Build a grading group from a descriptor.

    Descriptors: ``"trivial"``, ``("cyclic", n)`` with n >= 1, or
    ``("product", d1, d2)`` where d1/d2 are descriptors or built groups.
    """
    if spec == "trivial":
        return GradingGroup(("e",), _rows(np.zeros((1, 1), np.uint8)), 0, (0,))
    if isinstance(spec, GradingGroup):
        return spec
    if not isinstance(spec, tuple) or not spec:
        raise InvalidDescriptor(f"bad group descriptor: {spec!r}")
    kind = spec[0]
    if kind == "cyclic":
        n = spec[1]
        if not isinstance(n, int) or n <= 0:
            raise InvalidDescriptor(f"cyclic order must be a positive integer, got {n!r}")
        return GradingGroup(tuple(range(n)), _rows(_digit_add((n,))), 0,
                            tuple((-i) % n for i in range(n)))
    if kind == "product":
        g1 = make_group(spec[1])
        g2 = make_group(spec[2])
        n2 = g2.size
        # the inverse is the product of the one-row tables of the inverses
        inverse = tuple(_product_table([g1.inverse], [g2.inverse], n2)[0].tolist())
        return GradingGroup(tuple(itertools.product(g1.labels, g2.labels)),
                            _rows(_product_table(g1.op, g2.op, n2)),
                            g1.identity * n2 + g2.identity, inverse)
    raise InvalidDescriptor(f"unknown group descriptor kind: {kind!r}")


def make_ring(spec) -> FiniteRing:
    """Build a finite commutative ring from a descriptor.

    Descriptors: ``("zmod", n)`` with n >= 2, ``("groupring", p, group)`` with p
    prime (formal sums over the group with coefficients mod p), or
    ``("product", r1, r2)`` with componentwise operations.
    """
    if isinstance(spec, FiniteRing):
        return spec
    if not isinstance(spec, tuple) or not spec:
        raise InvalidDescriptor(f"bad ring descriptor: {spec!r}")
    kind = spec[0]
    if kind == "zmod":
        n = spec[1]
        if not isinstance(n, int) or n < 2:
            raise InvalidDescriptor(f"zmod modulus must be >= 2, got {n!r}")
        a = np.arange(n, dtype=np.min_scalar_type((n - 1) ** 2))  # wide enough for the products
        return FiniteRing(tuple(range(n)), _digit_add((n,)), a[:, None] * a % n, 0, 1 % n)
    if kind == "groupring":
        p, group = spec[1], make_group(spec[2])
        if not _is_prime(p):
            raise InvalidDescriptor(f"group ring coefficient modulus must be prime, got {p!r}")
        k = group.size
        d, places = _digits((p,) * k)
        add = _digit_add((p,) * k)
        # mul by linearity, places filled from the last up: the row of e_t moves
        # coefficient j of b to t*j, and with a' below place t the rows of
        # c*e_t + a' are add[rows of (c-1)*e_t + a', row of e_t]
        mul = np.zeros_like(add)
        for t in reversed(range(k)):
            w, row = places[t], d @ np.take(places, group.op[t])
            for c in range(1, p):
                mul[c * w:(c + 1) * w] = add[mul[(c - 1) * w:c * w], row]
        return FiniteRing(tuple(itertools.product(range(p), repeat=k)), add, mul, 0, places[group.identity])
    if kind == "product":
        r1 = make_ring(spec[1])
        r2 = make_ring(spec[2])
        n2 = r2.size
        # index convention relied on by product gradings/submodules: (i1, i2) -> i1*n2 + i2
        return FiniteRing(tuple(itertools.product(r1.labels, r2.labels)),
                          _product_table(r1.add_array, r2.add_array, n2),
                          _product_table(r1.mul_array, r2.mul_array, n2),
                          r1.zero * n2 + r2.zero, r1.one * n2 + r2.one)
    raise InvalidDescriptor(f"unknown ring descriptor kind: {kind!r}")


def make_module(spec, ring: FiniteRing) -> FiniteModule:
    """Build a finite module over ``ring`` from a descriptor.

    Descriptors: ``("self",)`` (the ring acting on itself),
    ``("directsum", m1, ..., mk)`` over a zmod(n) ring with every m_i | n
    (coordinatewise action with reduction mod m_i), or
    ``("product", mod1, mod2)`` over a product ring.
    """
    if not isinstance(spec, tuple) or not spec:
        raise InvalidDescriptor(f"bad module descriptor: {spec!r}")
    kind = spec[0]
    if kind == "self":
        return FiniteModule(ring, ring.labels, ring.add_array, ring.zero, ring.mul_array)
    if kind == "directsum":
        ms = spec[1:]
        if ring.labels != tuple(range(ring.size)):
            raise InvalidDescriptor("directsum modules require a zmod(n) scalar ring")
        n = ring.size
        for m in ms:
            if not isinstance(m, int) or m < 1:
                raise InvalidDescriptor(f"directsum summand must be a positive integer, got {m!r}")
            if n % m != 0:
                raise InvalidDescriptor(
                    f"action-ill-defined: summand order {m} does not divide ring modulus {n}"
                )
        action = np.zeros((n, 1), np.min_scalar_type(math.prod(ms)))
        for m in ms:  # like _digit_add, one summand at a time, from the tables r*j mod m
            a = np.arange(m, dtype=np.min_scalar_type((m - 1) ** 2))  # wide enough for the products
            times = (a[:, None] * a % m).astype(action.dtype)[np.arange(n) % m]
            action = (action[:, :, None] * m + times[:, None, :]).reshape(n, -1)
        return FiniteModule(ring, tuple(itertools.product(*(range(m) for m in ms))), _digit_add(ms), 0, action)
    if kind == "product":
        m1, m2 = spec[1], spec[2]
        n2 = m2.size
        expected = tuple(itertools.product(m1.ring.labels, m2.ring.labels))
        if ring.labels != expected:
            raise InvalidDescriptor("product module requires the product of the factor rings")
        return FiniteModule(ring, tuple(itertools.product(m1.labels, m2.labels)),
                            _product_table(m1.add_array, m2.add_array, n2), m1.zero * n2 + m2.zero,
                            _product_table(m1.action_array, m2.action_array, n2))
    raise InvalidDescriptor(f"unknown module descriptor kind: {kind!r}")


def coset_sum(a, b, add: np.ndarray) -> frozenset:
    """A + B for additive subgroups (sized iterables of indices) of the carrier
    whose stored add array is ``add``: the union of the cosets y + A over y in
    B, A the larger, each one gather of row y, skipping each y already in the
    union (its coset is there)."""
    if len(a) < len(b):
        a, b = b, a
    cols, out = np.fromiter(a, np.intp, len(a)), set()
    for y in b:
        if y not in out:
            out.update(add[y].take(cols).tolist())
    return frozenset(out)


def first_escape(table: np.ndarray, row_sets, col_sets, op):
    """The first (g, h, r, c) in that order, r in ``row_sets[g]`` and c in ``col_sets[h]``
    (sized iterables, read in their iteration order), with ``table[r, c]`` not in
    ``col_sets[op[g][h]]``, or None: one gather per g over the columns of every h."""
    cols = np.fromiter(itertools.chain.from_iterable(col_sets), np.intp)
    degree = np.repeat(np.arange(len(col_sets)), [len(s) for s in col_sets])
    member = np.zeros((len(col_sets), table.shape[1]), dtype=bool)
    member[degree, cols] = True
    for g, rows in enumerate(row_sets):
        rows = np.fromiter(rows, np.intp, len(rows))
        i, j = np.nonzero(~member[np.take(op[g], degree), table[rows[:, None], cols]])
        if len(j):
            k = np.lexsort((j, i, degree[j]))[0]  # the first in (h, r, c) order
            return g, int(degree[j[k]]), int(rows[i[k]]), int(cols[j[k]])
    return None


def fraction_tables(x, mul: np.ndarray, s, cofactors, ring_reps=None):
    """(reps, classes, add, action) of S^{-1}X for a ring or module ``x`` over the ring with mul array ``mul``
    and sorted ``s``.  a/s_j is in the class of its key ``x.action_array[cofactors[j], a]``; read-only
    ``classes[a, j]`` is that class, numbered by its first pair (a, j) in C order, and reps[i] = (a, s_j).
    (a/s) + (b/t) = (ta + sb)/st; (r/u)(b/t) = rb/ut, r/u over ``ring_reps`` (S^{-1}R's) or x's own classes."""
    act, s = x.action_array, np.asarray(s)
    keys = act[list(cofactors)].T  # keys[a, j] is the key of a/s_j
    flat = keys.ravel()
    order = np.argsort(flat, kind="stable")  # equal keys stay in C order; np.unique would import numpy.ma
    first = np.zeros(keys.shape, dtype=bool)
    first.reshape(-1)[order[np.append(True, flat[order[1:]] != flat[order[:-1]])]] = True  # a run's first
    a, j = np.nonzero(first)  # each class's first pair, in C order
    number = np.zeros(x.size, np.min_scalar_type(len(a) - 1))  # key -> class, in the stored dtype
    number[keys[a, j]] = np.arange(len(a))
    classes = number[keys]
    classes.flags.writeable = False
    d, pos = s[j], np.zeros(len(mul), np.intp)
    pos[s] = np.arange(len(s))
    r, u = (a, d) if ring_reps is None else np.array(ring_reps).T
    add = classes[x.add_array[act[d, a[:, None]], act[d[:, None], a]], pos[mul[d[:, None], d]]]
    action = classes[act[r[:, None], a], pos[mul[u[:, None], d]]]
    return tuple(zip(a.tolist(), d.tolist())), classes, add, action


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Outcome of an exhaustive axiom check; each failure names a witness."""

    structure: str
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def _first_mismatch(lhs: np.ndarray, rhs):
    """The first index in C order where ``lhs != rhs``, 64 first-axis rows at a time."""
    for lo in range(0, len(lhs), _ROWS):
        bad = np.argwhere(lhs[lo:lo + _ROWS] != rhs[lo:lo + _ROWS])
        if len(bad):
            return (lo + int(bad[0, 0]), *map(int, bad[0, 1:]))
    return None


def first_hom_failure(source, target, mapping):
    """``("not-additive", (a, b))``, else ``("not-linear", (r, m))``, at the first failing pair in
    row-major order of ``mapping`` (in-range target indices), or None; gathered in the target's dtype."""
    f = np.array(mapping, dtype=target.add_array.dtype)
    additive = _first_mismatch(f[source.add_array], target.add_array[f[:, None], f])
    if additive is not None:
        return "not-additive", additive
    linear = _first_mismatch(f[source.action_array], target.action_array[:, f])
    return None if linear is None else ("not-linear", linear)


def _law_mismatch(rows):
    """First mismatch of a law over three elements, checked one first-axis row
    at a time: ``rows`` yields the (lhs, rhs) arrays of row 0, 1, ...; the
    witness is the row index followed by the first mismatch in that row."""
    for i, (lhs, rhs) in enumerate(rows):
        mm = _first_mismatch(lhs, rhs)
        if mm is not None:
            return (i, *mm)
    return None


def _generators(t: np.ndarray):
    """The greedy index-order generating set of the carrier under table ``t``:
    each element outside the closure of the earlier picks is picked.  Index 0,
    the zero of every built table, comes last: in a group the closure of the
    other picks reaches it.  Then each non-zero pick at least doubles the
    closure, so past floor(log2 n) of them the search gives up and returns None."""
    n = len(t)
    inside, closure = np.zeros(n, dtype=bool), np.empty(n, dtype=np.intp)
    picks, size, done = [], 0, 0
    for g in (*range(1, n), 0):
        if inside[g]:
            continue
        if g and len(picks) == n.bit_length() - 1:
            return None
        picks.append(g)
        inside[g], closure[size], size = True, g, size + 1
        while done < size:  # multiply the next element both ways by the closure so far
            x, c = closure[done], closure[:size]
            hit = np.zeros(n, dtype=bool)  # not np.unique: it imports numpy.ma (0.7 MB of RSS)
            hit[t[x, c]] = hit[t[c, x]] = True
            new = np.flatnonzero(hit & ~inside)
            inside[new], closure[size:size + len(new)] = True, new
            done, size = done + 1, size + len(new)
    return picks


def _law(rows, at, gens, n: int):
    """First mismatch of a law over n first arguments: ``rows`` as for
    :func:`_law_mismatch`; unless ``gens`` is None, the (lhs, rhs) slices decide
    it holds, ``at(c, b)`` the block b of 64 first-axis rows of the slice at c."""
    blocks = [slice(lo, lo + _ROWS) for lo in range(0, n, _ROWS)]
    if gens is not None and all(np.array_equal(*at(c, b)) for c in gens for b in blocks):
        return None
    return _law_mismatch(rows)


def _assoc(act, mul, gens):
    # (rr')m == r(r'm); with act = mul = T it is the associativity of T
    rows = ((act[mul[r]], act[r].take(act)) for r in range(len(mul)))
    return _law(rows, lambda m, b: (act[:, m][mul[b]], act[b][:, act[:, m]]), gens, len(mul))


def _distrib(act, add, gens):
    # r(m+m') == rm + rm'; with act = mul it is ring distributivity
    rows = ((act[r].take(add), add[act[r]][:, act[r]]) for r in range(len(act)))
    return _law(rows, lambda m, b: (act[b][:, add[:, m]], add[act[b], act[b, m, None]]), gens, len(act))


def _record(failures, axiom: str, mismatch) -> None:
    if mismatch is not None:
        failures.append((axiom, mismatch))


def _check_abelian_group(failures, add: np.ndarray, zero: int, tag: str):
    """Check the additive group; return its generators (None if add-associativity
    failed or the search gave up) and whether add is commutative."""
    n = add.shape[0]
    gens = _generators(add)
    associativity, commutativity = _assoc(add, add, gens), _first_mismatch(add, add.T)
    _record(failures, f"{tag}-add-associativity", associativity)
    _record(failures, f"{tag}-add-commutativity", commutativity)
    _record(failures, f"{tag}-zero-identity", _first_mismatch(add[:, zero], np.arange(n)))
    inverse = [(add[lo:lo + _ROWS] == zero).any(axis=1) for lo in range(0, n, _ROWS)]
    _record(failures, f"{tag}-add-inverse", _first_mismatch(np.concatenate(inverse), np.ones(n, dtype=bool)))
    return (gens if associativity is None else None), commutativity is None


def validate_axioms(structure) -> ValidationReport:
    """Exhaustively check every structural axiom; failures carry witnesses.

    A law over three elements (a, b, c) holds iff its n x n slices at the c in
    S hold, S the greedy generating set of c's carrier under add (op for a
    group): by Light's associativity test the good c are closed under that
    operation given these laws, found earlier in the call.  Associativity of
    one table needs none; distributivity over the carrier's add needs its
    add-associativity; mul-associativity needs distributivity; action
    associativity needs action-distributes-over-module-add, and distributivity
    over ring add needs that and module add-associativity and -commutativity.
    A slice is compared 64 first-axis rows at a time, in O(64 n) memory, not
    O(n^2).  Otherwise (a prerequisite failed or the search for S gave up), or
    when a slice fails, the law is scanned row by row over its first argument
    in O(n^2) memory.  Only that scan gives a witness, the law's first mismatch
    in C order, e.g. ``(a, b, c)``: a failing slice at c need not contain it.
    A ring or module is checked on its stored read-only arrays, each in the
    narrowest unsigned dtype that holds its carrier's indices, and builds no
    row views; a group's op is copied into one such array.  The checks only
    gather and compare, so verdicts and witnesses do not depend on the dtype.
    """
    failures = []
    if isinstance(structure, GradingGroup):
        n = structure.size
        op = np.asarray(structure.op, dtype=np.min_scalar_type(n - 1))
        _record(failures, "group-associativity", _assoc(op, op, _generators(op)))
        e = structure.identity
        if _first_mismatch(op[e], np.arange(n)) is not None or _first_mismatch(
            op[:, e], np.arange(n)
        ) is not None:
            failures.append(("group-identity", (e,)))
        inv = np.asarray(structure.inverse, dtype=op.dtype)
        if _first_mismatch(op[np.arange(n), inv], np.full(n, e)) is not None:
            failures.append(("group-inverse", None))
        return ValidationReport("group", failures)

    if isinstance(structure, FiniteRing):
        n = structure.size
        add, mul = structure.add_array, structure.mul_array
        gens = _check_abelian_group(failures, add, structure.zero, "ring")[0]
        distributivity = _distrib(mul, add, gens)
        _record(failures, "mul-associativity", _assoc(mul, mul, gens if distributivity is None else None))
        _record(failures, "mul-commutativity", _first_mismatch(mul, mul.T))
        _record(failures, "distributivity", distributivity)
        if structure.one == structure.zero:
            failures.append(("one-nonzero", None))
        _record(failures, "one-identity", _first_mismatch(mul[structure.one], np.arange(n)))
        return ValidationReport("ring", failures)

    if isinstance(structure, FiniteModule):
        ring = structure.ring
        add, act, radd, rmul = structure.add_array, structure.action_array, ring.add_array, ring.mul_array
        gens, commutative = _check_abelian_group(failures, add, structure.zero, "module")
        over_module_add = _distrib(act, add, gens)
        _record(failures, "action-distributes-over-module-add", over_module_add)
        gens = gens if over_module_add is None else None
        # (r+r')m == rm + r'm
        ring_add_rows = ((act[radd[r]], add[act[r], act]) for r in range(ring.size))
        _record(failures, "action-distributes-over-ring-add",
                _law(ring_add_rows, lambda m, b: (act[:, m][radd[b]], add[act[b, m]][:, act[:, m]]),
                     gens if commutative else None, ring.size))
        _record(failures, "action-associativity", _assoc(act, rmul, gens))
        _record(failures, "unital-action",
                _first_mismatch(act[ring.one], np.arange(structure.size)))
        return ValidationReport("module", failures)

    raise TypeError(f"cannot validate {type(structure).__name__}")


def is_ring_on_itself(module: FiniteModule, ring: FiniteRing) -> bool:
    """Whether ``module`` is ``ring`` acting on itself: it shares the ring's arrays and zero."""
    return (module.ring is ring and module.add_array is ring.add_array
            and module.action_array is ring.mul_array and module.zero == ring.zero)


def first_invalid(group: GradingGroup, ring: FiniteRing, module: FiniteModule):
    """Validate a grading group, ring and module once each; return the first
    failing :class:`ValidationReport`, or None when all three are valid.

    The module is skipped when it is the ring acting on itself
    (:func:`is_ring_on_itself`): its additive group is the ring's, r(m+m') is
    distributivity, (r+r')m is distributivity plus commutativity, (rr')m is
    associativity and the unital action is one-identity.
    """
    structures = [group, ring]
    if not is_ring_on_itself(module, ring):
        structures.append(module)
    for structure in structures:
        report = validate_axioms(structure)
        if not report.ok:
            return report
    return None
