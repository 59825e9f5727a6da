"""Finite grading groups, commutative rings, and modules as explicit operation tables.

Every structure is an immutable table object: elements are canonical labels,
all operations are total lookup tables over element *indices*, and everything
downstream treats elements as opaque indices.  Structures are validated
exhaustively by :func:`validate_axioms`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDescriptor

DEFAULT_MAX_ELEMENTS = 512


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _negation(add, zero) -> tuple:
    """neg[i] = the first j with add[i][j] == zero."""
    return tuple(row.index(zero) for row in add)


@dataclass(frozen=True, eq=False)
class GradingGroup:
    """A finite group given by a full Cayley table."""

    labels: tuple
    op: tuple  # op[i][j] -> index of labels[i] * labels[j]
    identity: int
    inverse: tuple

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A finite commutative ring with unity, as addition/multiplication tables."""

    labels: tuple
    add: tuple
    mul: tuple
    zero: int
    one: int

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def neg(self) -> tuple:
        return _negation(self.add, self.zero)

    @cached_property
    def power_sets(self) -> tuple:
        """power_sets[x] = {x^k : 1 <= k <= |R|} as a frozenset of indices.

        The exponent bound |R| suffices: the power sequence of any element of a
        finite ring is eventually periodic within |R| steps.
        """
        out = []
        for x in range(self.size):
            seen = []
            cur = x
            for _ in range(self.size):
                seen.append(cur)
                cur = self.mul[cur][x]
            out.append(frozenset(seen))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class FiniteModule:
    """A finite unital module over a :class:`FiniteRing`, as explicit tables."""

    ring: FiniteRing
    labels: tuple
    add: tuple
    zero: int
    action: tuple  # action[r][m] -> module element index

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def neg(self) -> tuple:
        return _negation(self.add, self.zero)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_group(spec) -> GradingGroup:
    """Build a grading group from a descriptor.

    Descriptors: ``"trivial"``, ``("cyclic", n)`` with n >= 1, or
    ``("product", d1, d2)`` where d1/d2 are descriptors or built groups.
    """
    if spec == "trivial" or spec == ("trivial",):
        return GradingGroup(("e",), ((0,),), 0, (0,))
    if isinstance(spec, GradingGroup):
        return spec
    if not isinstance(spec, tuple) or not spec:
        raise InvalidDescriptor(f"bad group descriptor: {spec!r}")
    kind = spec[0]
    if kind == "cyclic":
        n = spec[1]
        if not isinstance(n, int) or n <= 0:
            raise InvalidDescriptor(f"cyclic order must be a positive integer, got {n!r}")
        labels = tuple(range(n))
        op = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        inverse = tuple((-i) % n for i in range(n))
        return GradingGroup(labels, op, 0, inverse)
    if kind == "product":
        g1 = make_group(spec[1])
        g2 = make_group(spec[2])
        labels = tuple(itertools.product(g1.labels, g2.labels))
        n2 = g2.size

        def idx(i, j):
            return i * n2 + j

        op = tuple(
            tuple(
                idx(g1.op[i1][j1], g2.op[i2][j2])
                for j1 in range(g1.size)
                for j2 in range(g2.size)
            )
            for i1 in range(g1.size)
            for i2 in range(g2.size)
        )
        inverse = tuple(
            idx(g1.inverse[i1], g2.inverse[i2])
            for i1 in range(g1.size)
            for i2 in range(g2.size)
        )
        return GradingGroup(labels, op, idx(g1.identity, g2.identity), inverse)
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
        labels = tuple(range(n))
        add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
        return FiniteRing(labels, add, mul, 0, 1 % n)
    if kind == "groupring":
        p, group = spec[1], make_group(spec[2])
        if not _is_prime(p):
            raise InvalidDescriptor(f"group ring coefficient modulus must be prime, got {p!r}")
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
    if kind == "product":
        r1 = make_ring(spec[1])
        r2 = make_ring(spec[2])
        labels = tuple(itertools.product(r1.labels, r2.labels))
        n2 = r2.size
        # index convention relied on by product gradings/submodules: (i1, i2) -> i1*n2 + i2
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
        return FiniteRing(labels, add, mul, r1.zero * n2 + r2.zero, r1.one * n2 + r2.one)
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
        return FiniteModule(ring, ring.labels, ring.add, ring.zero, ring.mul)
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
    if kind == "product":
        m1, m2 = spec[1], spec[2]
        n2 = m2.size
        expected = tuple(itertools.product(m1.ring.labels, m2.ring.labels))
        if ring.labels != expected:
            raise InvalidDescriptor("product module requires the product of the factor rings")
        labels = tuple(itertools.product(m1.labels, m2.labels))
        add = tuple(
            tuple(m1.add[i1][j1] * n2 + m2.add[i2][j2] for j1 in range(m1.size) for j2 in range(n2))
            for i1 in range(m1.size)
            for i2 in range(n2)
        )
        action = tuple(
            tuple(
                m1.action[r1][i1] * n2 + m2.action[r2][i2]
                for i1 in range(m1.size)
                for i2 in range(n2)
            )
            for r1 in range(m1.ring.size)
            for r2 in range(m2.ring.size)
        )
        return FiniteModule(ring, labels, add, m1.zero * n2 + m2.zero, action)
    raise InvalidDescriptor(f"unknown module descriptor kind: {kind!r}")


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
    bad = lhs != rhs
    if not bad.any():
        return None
    return tuple(int(v) for v in np.argwhere(bad)[0])


def _law_mismatch(rows):
    """First mismatch of a law over three elements, checked one first-axis row
    at a time: ``rows`` yields the (lhs, rhs) arrays of row 0, 1, ...; the
    witness is the row index followed by the first mismatch in that row."""
    for i, (lhs, rhs) in enumerate(rows):
        mm = _first_mismatch(lhs, rhs)
        if mm is not None:
            return (i, *mm)
    return None


def _assoc_rows(act, mul):
    # (rr')m == r(r'm); with act = mul = T it is the associativity of T
    return ((act[mul[r]], act[r].take(act)) for r in range(len(mul)))


def _distrib_rows(act, add):
    # r(m+m') == rm + rm'; with act = mul it is ring distributivity
    return ((act[r].take(add), add[act[r]][:, act[r]]) for r in range(len(act)))


def _record(failures, axiom: str, mismatch) -> None:
    if mismatch is not None:
        failures.append((axiom, mismatch))


def _check_abelian_group(failures, add: np.ndarray, zero: int, tag: str):
    n = add.shape[0]
    _record(failures, f"{tag}-add-associativity", _law_mismatch(_assoc_rows(add, add)))
    _record(failures, f"{tag}-add-commutativity", _first_mismatch(add, add.T))
    _record(failures, f"{tag}-zero-identity", _first_mismatch(add[:, zero], np.arange(n)))
    _record(failures, f"{tag}-add-inverse", _first_mismatch((add == zero).any(axis=1), True))


def validate_axioms(structure) -> ValidationReport:
    """Exhaustively check every structural axiom; failures carry witnesses.

    Each law over three elements is checked row by row over its first
    argument, so memory is O(n^2) rather than O(n^3).  A failure's witness is
    the law's first mismatch in C order, e.g. ``(a, b, c)``.
    """
    failures = []
    if isinstance(structure, GradingGroup):
        op = np.asarray(structure.op, dtype=np.int32)
        n = structure.size
        _record(failures, "group-associativity", _law_mismatch(_assoc_rows(op, op)))
        e = structure.identity
        if _first_mismatch(op[e], np.arange(n)) is not None or _first_mismatch(
            op[:, e], np.arange(n)
        ) is not None:
            failures.append(("group-identity", (e,)))
        inv = np.asarray(structure.inverse, dtype=np.int32)
        if _first_mismatch(op[np.arange(n), inv], np.full(n, e)) is not None:
            failures.append(("group-inverse", None))
        return ValidationReport("group", failures)

    if isinstance(structure, FiniteRing):
        n = structure.size
        add = np.asarray(structure.add, dtype=np.int32)
        mul = np.asarray(structure.mul, dtype=np.int32)
        _check_abelian_group(failures, add, structure.zero, "ring")
        _record(failures, "mul-associativity", _law_mismatch(_assoc_rows(mul, mul)))
        _record(failures, "mul-commutativity", _first_mismatch(mul, mul.T))
        _record(failures, "distributivity", _law_mismatch(_distrib_rows(mul, add)))
        if structure.one == structure.zero:
            failures.append(("one-nonzero", None))
        _record(failures, "one-identity", _first_mismatch(mul[structure.one], np.arange(n)))
        return ValidationReport("ring", failures)

    if isinstance(structure, FiniteModule):
        ring = structure.ring
        add = np.asarray(structure.add, dtype=np.int32)
        radd = np.asarray(ring.add, dtype=np.int32)
        rmul = np.asarray(ring.mul, dtype=np.int32)
        act = np.asarray(structure.action, dtype=np.int32)
        _check_abelian_group(failures, add, structure.zero, "module")
        _record(failures, "action-distributes-over-module-add",
                _law_mismatch(_distrib_rows(act, add)))
        # (r+r')m == rm + r'm
        ring_add_rows = ((act[radd[r]], add[act[r], act]) for r in range(ring.size))
        _record(failures, "action-distributes-over-ring-add", _law_mismatch(ring_add_rows))
        _record(failures, "action-associativity", _law_mismatch(_assoc_rows(act, rmul)))
        _record(failures, "unital-action",
                _first_mismatch(act[ring.one], np.arange(structure.size)))
        return ValidationReport("module", failures)

    raise TypeError(f"cannot validate {type(structure).__name__}")


def first_invalid(group: GradingGroup, ring: FiniteRing, module: FiniteModule):
    """Validate a grading group, ring and module once each; return the first
    failing :class:`ValidationReport`, or None when all three are valid.

    The module is skipped when it is the ring acting on itself (it shares the
    ring's add and mul tables): its additive group is the ring's, r(m+m') is
    distributivity, (r+r')m is distributivity plus commutativity, (rr')m is
    associativity and the unital action is one-identity.
    """
    structures = [group, ring]
    if not (module.ring is ring and module.add is ring.add and module.action is ring.mul
            and module.zero == ring.zero):
        structures.append(module)
    for structure in structures:
        report = validate_axioms(structure)
        if not report.ok:
            return report
    return None
