"""Graded ideals and submodules as closed element sets, plus the operator
calculus on them: span, sum/intersection/products, colon, annihilator, graded
radical, and exhaustive enumeration of graded subobjects.

A handle's ``kind`` is ``"ideal"`` (context: :class:`GradedRing`) or
``"submodule"`` (context: :class:`GradedModule`).  Member sets are frozensets
of element indices; hot paths use the integer bitmask view.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import DEFAULT_MAX_ELEMENTS
from .errors import PreconditionViolation, TooLarge
from .grading import GradedModule, GradedRing

IDEAL = "ideal"
SUBMODULE = "submodule"


@dataclass(frozen=True, eq=False)
class SubobjectHandle:
    kind: str
    ctx: object  # GradedRing for ideals, GradedModule for submodules
    members: frozenset
    graded: bool

    def __eq__(self, other):
        return (
            isinstance(other, SubobjectHandle)
            and self.kind == other.kind
            and self.ctx is other.ctx
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.kind, id(self.ctx), self.members))

    def __repr__(self):
        labels = [self.carrier.labels[i] for i in self.sorted_members[:8]]
        more = "..." if len(self.members) > 8 else ""
        return (
            f"<{self.kind} |{len(self.members)}| graded={self.graded} "
            f"members={labels}{more}>"
        )

    @property
    def carrier(self):
        return self.ctx.grading.carrier

    @cached_property
    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))

    @cached_property
    def mask(self) -> int:
        m = 0
        for i in self.members:
            m |= 1 << i
        return m

    @property
    def is_zero(self) -> bool:
        return len(self.members) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.carrier.size

    @property
    def grading(self):
        return self.ctx.grading


_CONTEXT = {IDEAL: GradedRing, SUBMODULE: GradedModule}


def _carrier(kind: str, ctx):
    """The carrier a kind/ctx pair's subobjects live in.  An ideal is a
    submodule of the ring acting on itself, so both kinds are closed under the
    carrier's add and action tables."""
    if kind not in _CONTEXT:
        raise PreconditionViolation(f"unknown subobject kind {kind!r}")
    if not isinstance(ctx, _CONTEXT[kind]):
        raise PreconditionViolation(f"{kind} handles live over a {_CONTEXT[kind].__name__}")
    return ctx.grading.carrier


def is_graded_set(members, grading) -> bool:
    """True iff every member's homogeneous components are members."""
    decomposition = grading.decomposition
    for x in members:
        for part in decomposition[x]:
            if part not in members:
                return False
    return True


def subobject(kind: str, ctx, members) -> SubobjectHandle:
    """Wrap an already-closed member set in a handle (gradedness computed)."""
    members = frozenset(members)
    return SubobjectHandle(kind, ctx, members, is_graded_set(members, ctx.grading))


def is_graded(handle: SubobjectHandle) -> bool:
    return is_graded_set(handle.members, handle.ctx.grading)


def _additive_closure(seed, add, zero) -> set:
    """Subgroup of the additive group generated by ``seed``."""
    closed = {zero}
    for x in sorted(seed):
        if x in closed:
            continue
        cyc = {zero}
        cur = x
        while cur not in cyc:
            cyc.add(cur)
            cur = add[cur][x]
        closed = {add[a][b] for a in closed for b in cyc}
    return closed


def span(generators, kind: str, ctx) -> SubobjectHandle:
    """Smallest subobject of the given kind containing the generators."""
    carrier = _carrier(kind, ctx)
    for g in generators:
        if not (0 <= g < carrier.size):
            raise PreconditionViolation(f"generator {g} outside the carrier")
    orbit = {row[g] for row in carrier.action for g in generators}
    orbit.add(carrier.zero)
    return subobject(kind, ctx, _additive_closure(orbit, carrier.add, carrier.zero))


def zero_subobject(kind: str, ctx) -> SubobjectHandle:
    return SubobjectHandle(kind, ctx, frozenset({_carrier(kind, ctx).zero}), True)


def whole_subobject(kind: str, ctx) -> SubobjectHandle:
    return subobject(kind, ctx, range(_carrier(kind, ctx).size))


def combine(a: SubobjectHandle, b, op: str) -> SubobjectHandle:
    """sum / intersect of like handles, ideal_product (ideal x submodule -> IN),
    or scalar_product (homogeneous scalar x handle -> rN)."""
    if op == "sum":
        if a.kind != b.kind or a.ctx is not b.ctx:
            raise PreconditionViolation("sum requires handles of the same kind and carrier")
        add = a.carrier.add
        return subobject(a.kind, a.ctx, {add[x][y] for x in a.members for y in b.members})
    if op == "intersect":
        if a.kind != b.kind or a.ctx is not b.ctx:
            raise PreconditionViolation("intersect requires handles of the same kind and carrier")
        return subobject(a.kind, a.ctx, a.members & b.members)
    if op == "ideal_product":
        # a: ideal over the scalar ring of b's module
        if a.kind != IDEAL or b.kind != SUBMODULE or b.ctx.gring is not a.ctx:
            raise PreconditionViolation("ideal_product takes (ideal, submodule) over the same ring")
        act = b.ctx.module.action
        prods = {act[i][n] for i in a.members for n in b.members}
        return subobject(SUBMODULE, b.ctx, _additive_closure(prods, b.ctx.module.add, b.ctx.module.zero))
    if op == "scalar_product":
        # a: homogeneous ring element (index), b: handle
        if a not in b.ctx.gring.hom_set:
            raise PreconditionViolation("scalar_product requires a homogeneous scalar")
        act = b.carrier.action
        return subobject(b.kind, b.ctx, {act[a][n] for n in b.members})
    raise PreconditionViolation(f"unknown combine op {op!r}")


def colon(k: SubobjectHandle, n: SubobjectHandle) -> SubobjectHandle:
    """(K :_R N) = {r in R : r*N subset K}, an ideal of the scalar ring."""
    if k.kind != SUBMODULE or n.kind != SUBMODULE or k.ctx is not n.ctx:
        raise PreconditionViolation("colon takes two submodules of the same module")
    gm = k.ctx
    act = gm.module.action
    km = k.members
    members = set()
    for r in range(gm.gring.ring.size):
        if all(act[r][m] in km for m in n.members):
            members.add(r)
    return subobject(IDEAL, gm.gring, members)


def colon_by_element(k: SubobjectHandle, x: int) -> SubobjectHandle:
    """(K :_M x) = {m in M : x*m in K}, for homogeneous x."""
    if k.kind != SUBMODULE:
        raise PreconditionViolation("colon_by_element takes a submodule")
    gm = k.ctx
    if x not in gm.gring.hom_set:
        raise PreconditionViolation("colon_by_element requires a homogeneous ring element")
    act = gm.module.action
    km = k.members
    return subobject(SUBMODULE, gm, {m for m in range(gm.module.size) if act[x][m] in km})


def annihilator(n: SubobjectHandle) -> SubobjectHandle:
    """Ann_R(N) = (0 :_R N)."""
    if n.kind != SUBMODULE:
        raise PreconditionViolation("annihilator takes a submodule")
    return colon(zero_subobject(SUBMODULE, n.ctx), n)


def graded_radical(p: SubobjectHandle) -> SubobjectHandle:
    """Grad(P): elements all of whose homogeneous components have a power in P.

    Defined on graded ideals; for the improper ideal we use the convention
    Grad(R) = R so colon-radical compositions stay total.
    """
    if p.kind != IDEAL:
        raise PreconditionViolation("graded_radical takes an ideal")
    if not p.graded:
        raise PreconditionViolation("graded_radical takes a graded ideal")
    gring = p.ctx
    ring = gring.ring
    if p.is_whole:
        return p
    powers = ring.power_sets
    decomposition = gring.grading.decomposition
    pm = p.members
    members = set()
    for r in range(ring.size):
        if all(not powers[part].isdisjoint(pm) for part in decomposition[r]):
            members.add(r)
    return subobject(IDEAL, gring, members)


def ideal_component(i: SubobjectHandle, g: int) -> frozenset:
    """I intersect R_g."""
    if i.kind != IDEAL:
        raise PreconditionViolation("ideal_component takes an ideal")
    if not i.graded:
        raise PreconditionViolation("ideal_component takes a graded ideal")
    return i.members & i.ctx.grading.components[g]


def _join(a: SubobjectHandle, b: SubobjectHandle) -> frozenset:
    add = a.carrier.add
    return frozenset(add[x][y] for x in a.members for y in b.members)


def _enumerate_by_generators(ctx, kind: str, generators, max_elements: int):
    carrier = _carrier(kind, ctx)
    if carrier.size > max_elements:
        raise TooLarge(f"carrier has {carrier.size} elements, cap is {max_elements}")

    # distinct cyclic spans of single generators
    singles = {}
    for x in sorted(generators):
        h = span({x}, kind, ctx)
        singles.setdefault(h.members, h)
    found = {frozenset({carrier.zero}): zero_subobject(kind, ctx)}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for s in frontier:
            for dm, d in singles.items():
                if dm <= s.members:
                    continue
                joined = _join(s, d)
                if joined not in found:
                    h = subobject(kind, ctx, joined)
                    found[joined] = h
                    nxt.append(h)
        frontier = nxt
    return sorted(found.values(), key=lambda h: (len(h.members), h.sorted_members))


def enumerate_graded_subobjects(ctx, kind: str, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """All graded subobjects, in canonical order (size, then member list).

    Graded subobjects are exactly those generated by homogeneous elements, so
    the lattice is walked by repeatedly joining homogeneous cyclic spans.
    Results are memoized on the carrier.
    """
    cache = ctx._caches.setdefault("graded_subobjects", {})
    key = (kind, max_elements)
    if key not in cache:
        cache[key] = _enumerate_by_generators(ctx, kind, ctx.hom, max_elements)
    return cache[key]
