"""Graded ideals and submodules as closed element sets, plus the operator
calculus on them: span, sum/intersection/products, colon, annihilator, graded
radical, and exhaustive enumeration of graded subobjects.

A handle's ``kind`` is read from its carrier: ``"ideal"`` over a
:class:`GradedRing`, ``"submodule"`` over a :class:`GradedModule`.  Member
sets are frozensets of element indices; hot paths use the integer bitmask view.

Member sets are additive subgroups: ``_sum`` forms every A + B as a union of
cosets A + y, gradedness is decided by counting (|S| = Π_g |S ∩ M_g|), and
Grad(P) is built one degree at a time from the rooted parts of each R_g.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .core import DEFAULT_MAX_ELEMENTS
from .errors import PreconditionViolation, TooLarge
from .grading import IDEAL, SUBMODULE


@dataclass(frozen=True, eq=False)
class SubobjectHandle:
    ctx: object  # GradedRing or GradedModule
    members: frozenset
    graded: bool

    def __eq__(self, other):
        return isinstance(other, SubobjectHandle) and self.ctx is other.ctx and self.members == other.members

    def __hash__(self):
        return hash((id(self.ctx), self.members))

    def __repr__(self):
        labels = [self.carrier.labels[i] for i in self.sorted_members[:8]]
        more = "..." if len(self.members) > 8 else ""
        return (
            f"<{self.kind} |{len(self.members)}| graded={self.graded} "
            f"members={labels}{more}>"
        )

    @property
    def kind(self) -> str:
        return self.ctx.kind

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


def is_graded_set(members, grading) -> bool:
    """True iff the additive subgroup S = ``members`` is graded: the S ∩ M_g
    sum directly inside S, so S is their sum iff |S| = Π_g |S ∩ M_g|.  S must
    be a subgroup, as every ``subobject`` member set is."""
    return len(members) == prod(len(members & comp) for comp in grading.components)


def subobject(ctx, members) -> SubobjectHandle:
    """Wrap an already-closed member set in a handle (gradedness computed)."""
    members = frozenset(members)
    return SubobjectHandle(ctx, members, is_graded_set(members, ctx.grading))


def is_graded(handle: SubobjectHandle) -> bool:
    return is_graded_set(handle.members, handle.ctx.grading)


def _sum(a, b, add) -> frozenset:
    """A + B for an additive subgroup A: the union of the cosets A + y over
    y in B, skipping each y already in the union (its coset is there)."""
    out = set()
    for y in b:
        if y not in out:
            out.update(map(add[y].__getitem__, a))
    return frozenset(out)


def _additive_closure(seed, add, zero) -> frozenset:
    """Subgroup of the additive group generated by ``seed``."""
    closed = frozenset({zero})
    for x in sorted(seed):
        if x in closed:
            continue
        cyc = {zero}
        cur = x
        while cur not in cyc:
            cyc.add(cur)
            cur = add[cur][x]
        closed = _sum(closed, cyc, add)
    return closed


def span(generators, ctx) -> SubobjectHandle:
    """Smallest subobject of the carrier containing the generators.  An ideal
    is a submodule of the ring acting on itself, so both kinds are closed
    under the carrier's add and action tables."""
    carrier = ctx.grading.carrier
    for g in generators:
        if not (0 <= g < carrier.size):
            raise PreconditionViolation(f"generator {g} outside the carrier")
    orbit = {row[g] for row in carrier.action for g in generators}
    orbit.add(carrier.zero)
    return subobject(ctx, _additive_closure(orbit, carrier.add, carrier.zero))


def zero_subobject(ctx) -> SubobjectHandle:
    return SubobjectHandle(ctx, frozenset({ctx.grading.carrier.zero}), True)


def whole_subobject(ctx) -> SubobjectHandle:
    return subobject(ctx, range(ctx.grading.carrier.size))


def combine(a: SubobjectHandle, b, op: str) -> SubobjectHandle:
    """sum / intersect of like handles, ideal_product (ideal x submodule -> IN),
    or scalar_product (homogeneous scalar x handle -> rN)."""
    if op in ("sum", "intersect"):
        if a.ctx is not b.ctx:
            raise PreconditionViolation(f"{op} requires handles over the same carrier")
        if op == "sum":
            return subobject(a.ctx, _sum(a.members, b.members, a.carrier.add))
        return subobject(a.ctx, a.members & b.members)
    if op == "ideal_product":
        # a: ideal over the scalar ring of b's module
        if b.kind != SUBMODULE or b.ctx.gring is not a.ctx:
            raise PreconditionViolation("ideal_product takes (ideal, submodule) over the same ring")
        act = b.ctx.module.action
        prods = {act[i][n] for i in a.members for n in b.members}
        return subobject(b.ctx, _additive_closure(prods, b.ctx.module.add, b.ctx.module.zero))
    if op == "scalar_product":
        # a: homogeneous ring element (index), b: handle
        if a not in b.ctx.gring.hom_set:
            raise PreconditionViolation("scalar_product requires a homogeneous scalar")
        act = b.carrier.action
        return subobject(b.ctx, {act[a][n] for n in b.members})
    raise PreconditionViolation(f"unknown combine op {op!r}")


def rn_masks(n: SubobjectHandle) -> tuple:
    """``rn_masks(n)[r]``: the mask of rN, for every ring element r."""
    def build():
        act = n.ctx.module.action
        members = n.sorted_members
        zmask = []
        for z in range(n.ctx.gring.ring.size):
            row = act[z]
            m = 0
            for x in members:
                m |= 1 << row[x]
            zmask.append(m)
        return tuple(zmask)
    return n.ctx.memo(("zmask", n.members), build)


def colon(k: SubobjectHandle, n: SubobjectHandle) -> SubobjectHandle:
    """(K :_R N) = {r in R : r*N subset K}, an ideal of the scalar ring."""
    if n.kind != SUBMODULE or k.ctx is not n.ctx:
        raise PreconditionViolation("colon takes two submodules of the same module")
    km = k.mask
    return subobject(n.ctx.gring, {r for r, w in enumerate(rn_masks(n)) if w & km == w})


def colon_by_element(k: SubobjectHandle, x: int) -> SubobjectHandle:
    """(K :_M x) = {m in M : x*m in K}, for homogeneous x."""
    if k.kind != SUBMODULE:
        raise PreconditionViolation("colon_by_element takes a submodule")
    gm = k.ctx
    if x not in gm.gring.hom_set:
        raise PreconditionViolation("colon_by_element requires a homogeneous ring element")
    act = gm.module.action
    km = k.members
    return subobject(gm, {m for m in range(gm.module.size) if act[x][m] in km})


def annihilator(n: SubobjectHandle) -> SubobjectHandle:
    """Ann_R(N) = (0 :_R N)."""
    if n.kind != SUBMODULE:
        raise PreconditionViolation("annihilator takes a submodule")
    return colon(zero_subobject(n.ctx), n)


def graded_radical(p: SubobjectHandle) -> SubobjectHandle:
    """Grad(P): elements all of whose homogeneous components have a power in P.

    Built one degree at a time: the sums of one rooted part per component (an
    h in R_g with a power in P; these form a subgroup, the radical's R_g).

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
    pm = p.members
    members = frozenset({ring.zero})
    for comp in gring.grading.components:
        members = _sum(members, [h for h in comp if not powers[h].isdisjoint(pm)], ring.add)
    return subobject(gring, members)


def ideal_component(i: SubobjectHandle, g: int) -> frozenset:
    """I intersect R_g."""
    if i.kind != IDEAL:
        raise PreconditionViolation("ideal_component takes an ideal")
    if not i.graded:
        raise PreconditionViolation("ideal_component takes a graded ideal")
    if not 0 <= g < i.ctx.group.size:
        raise PreconditionViolation(f"group element {g} outside the grading group")
    return i.members & i.ctx.grading.components[g]


def _capped_carrier(ctx, max_elements: int):
    carrier = ctx.grading.carrier
    if carrier.size > max_elements:
        raise TooLarge(f"carrier has {carrier.size} elements, cap is {max_elements}")
    return carrier


def _enumerate_by_generators(ctx, generators, max_elements: int):
    carrier = _capped_carrier(ctx, max_elements)
    add = carrier.add

    # distinct cyclic spans of single generators
    singles = {span({x}, ctx).members for x in sorted(generators)}
    found = {frozenset({carrier.zero})}
    frontier = set(found)
    while frontier:
        frontier = {_sum(s, d, add) for s in frontier for d in singles if not d <= s} - found
        found |= frontier
    return sorted((subobject(ctx, s) for s in found), key=lambda h: (len(h.members), h.sorted_members))


def enumerate_graded_subobjects(ctx, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """All graded subobjects, in canonical order (size, then member list).

    Graded subobjects are exactly those generated by homogeneous elements, so
    the lattice is walked by repeatedly joining homogeneous cyclic spans.
    Results are memoized on the carrier; the cap is checked on every call and
    only decides whether the lattice may be returned.
    """
    _capped_carrier(ctx, max_elements)
    return ctx.memo("graded_subobjects", lambda: _enumerate_by_generators(ctx, ctx.hom, max_elements))
