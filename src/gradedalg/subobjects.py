"""Graded ideals and submodules as closed element sets, plus the operator
calculus on them: span, sum/intersection/products, colon, annihilator, graded
radical, and exhaustive enumeration of graded subobjects.

A handle's ``kind`` is read from its carrier: ``"ideal"`` over a
:class:`GradedRing`, ``"submodule"`` over a :class:`GradedModule`.  A handle
is its int mask (bit i for element i): an intersection is ``a & b``, and the
member set is derived on demand, or kept from the set a sum built.

Member sets are additive subgroups, and every sum of two is one kernel,
``core.coset_sum`` on the carrier's stored add array: span(G) = Σ_{g∈G} R·g
(R·g is column g of the action array), IN = Σ_{i∈I} iN, A + B, the lattice
walk and Grad(P) (one degree at a time, from the rooted parts of each R_g).
Gradedness is decided by counting (|S| = Π_g |S ∩ M_g|, one popcount), and
``sum_is_graded`` decides A + B of two lattice elements without building it,
from the lattice's ``containment_index``.

A unit u of R_e gives (ux)N = xN, (K :_M ux) = (K :_M x) and R·ux = R·x, so
every per-scalar value is computed once per unit orbit (the carrier's
``orbit_min``): ``rn_masks`` builds one row per orbit, IN sums iN over the
orbit-minimal i, ``colon_by_element`` is memoized at the orbit's least
member, and the lattice walk joins the spans of orbit-minimal generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .core import DEFAULT_MAX_ELEMENTS, coset_sum
from .errors import PreconditionViolation, TooLarge
from .grading import IDEAL, SUBMODULE

MAX_LATTICE = 2 ** 15  # graded subobjects a walk may find; the (2^7) lattice has 29212


@dataclass(frozen=True)
class SubobjectHandle:
    """A subobject as its int mask.  Handles are equal when their carriers are
    one object and their masks agree."""

    ctx: object  # GradedRing or GradedModule
    mask: int  # bit i set iff element i is a member

    def __repr__(self):
        labels = [self.carrier.labels[i] for i in self.sorted_members[:8]]
        more = "..." if len(self.members) > 8 else ""
        return (
            f"<{self.kind} |{len(self.members)}| graded={self.graded} "
            f"members={labels}{more}>"
        )

    def __le__(self, other) -> bool:
        """Inclusion of subobjects of one carrier."""
        return not self.mask & ~other.mask

    @property
    def kind(self) -> str:
        return self.ctx.kind

    @property
    def carrier(self):
        return self.ctx.grading.carrier

    @cached_property
    def sorted_members(self) -> tuple:
        return tuple(_bits(self.mask))

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members)

    @cached_property
    def graded(self) -> bool:
        """Whether the subgroup S is graded: the S ∩ M_g sum directly inside
        S, so S is their sum iff |S| = Π_g |S ∩ M_g|."""
        mask = self.mask
        return mask.bit_count() == prod((mask & c).bit_count() for c in self.ctx.component_masks)

    @property
    def is_zero(self) -> bool:
        return self.mask == 1 << self.carrier.zero

    @property
    def is_whole(self) -> bool:
        return self.mask == (1 << self.carrier.size) - 1


def _bits(mask: int) -> list:
    """The set bits of ``mask``, lowest first."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _mask(members) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def subobject(ctx, members) -> SubobjectHandle:
    """Wrap an already-closed member set in a handle, which keeps the set as
    its derived ``members``."""
    members = frozenset(members)
    handle = SubobjectHandle(ctx, _mask(members))
    handle.__dict__["members"] = members  # what the cached property would derive
    return handle


def is_graded(handle: SubobjectHandle) -> bool:
    return handle.graded


def graded_mask(ctx, mask: int) -> bool:
    """``SubobjectHandle(ctx, mask).graded`` without the handle, for a subgroup
    decided once and then dropped."""
    return mask.bit_count() == prod((mask & c).bit_count() for c in ctx.component_masks)


def span(generators, ctx) -> SubobjectHandle:
    """Smallest subobject of the carrier containing the generators: the sum
    of the cyclic submodules R·g, column g of the carrier's action array.  An
    ideal is a submodule of the ring acting on itself."""
    carrier = ctx.grading.carrier
    for g in generators:
        if not (0 <= g < carrier.size):
            raise PreconditionViolation(f"generator {g} outside the carrier")
    members = frozenset({carrier.zero})
    for g in generators:
        if g not in members:
            members = coset_sum(members, set(carrier.action_array[:, g].tolist()), carrier.add_array)
    return subobject(ctx, members)


def zero_subobject(ctx) -> SubobjectHandle:
    return SubobjectHandle(ctx, 1 << ctx.grading.carrier.zero)


def whole_subobject(ctx) -> SubobjectHandle:
    return SubobjectHandle(ctx, (1 << ctx.grading.carrier.size) - 1)


def combine(a: SubobjectHandle, b, op: str) -> SubobjectHandle:
    """sum / intersect of like handles, ideal_product (ideal x submodule -> IN),
    or scalar_product (homogeneous scalar x handle -> rN)."""
    if op in ("sum", "intersect"):
        if a.ctx is not b.ctx:
            raise PreconditionViolation(f"{op} requires handles over the same carrier")
        if op == "intersect":
            return SubobjectHandle(a.ctx, a.mask & b.mask)
        return subobject(a.ctx, coset_sum(a.members, b.members, a.carrier.add_array))
    if op == "ideal_product":
        # a: ideal over the scalar ring of b's module
        if b.kind != SUBMODULE or b.ctx.gring is not a.ctx:
            raise PreconditionViolation("ideal_product takes (ideal, submodule) over the same ring")
        rn, orbit_min = rn_masks(b), a.ctx.orbit_min
        members, mask = frozenset({b.carrier.zero}), 1 << b.carrier.zero
        for i in a.sorted_members:
            if orbit_min[i] == i and rn[i] & ~mask:  # iN is not in the sum yet
                members = coset_sum(members, _bits(rn[i]), b.carrier.add_array)
                mask = _mask(members)
        return subobject(b.ctx, members)
    if op == "scalar_product":
        # a: homogeneous ring element (index), b: handle
        if a not in b.ctx.gring.hom_set:
            raise PreconditionViolation("scalar_product requires a homogeneous scalar")
        return SubobjectHandle(b.ctx, rn_masks(b)[a])
    raise PreconditionViolation(f"unknown combine op {op!r}")


def rn_masks(n: SubobjectHandle) -> tuple:
    """``rn_masks(n)[r]``: the mask of rN, for every ring element r; one row
    per unit orbit, since (ur)N = rN."""
    def build():
        act, orbit_min = n.carrier.action, n.ctx.gring.orbit_min
        row = {z: _mask(map(act[z].__getitem__, n.sorted_members)) for z in set(orbit_min)}
        return tuple(map(row.__getitem__, orbit_min))
    return n.ctx.memo(("zmask", n.mask), build)


def colon(k: SubobjectHandle, n: SubobjectHandle) -> SubobjectHandle:
    """(K :_R N) = {r in R : r*N subset K}, an ideal of the scalar ring."""
    if n.kind != SUBMODULE or k.ctx is not n.ctx:
        raise PreconditionViolation("colon takes two submodules of the same module")
    km, rk = k.mask, 0
    for r, w in enumerate(rn_masks(n)):
        if w & km == w:
            rk |= 1 << r
    return SubobjectHandle(n.ctx.gring, rk)


def colon_by_element(k: SubobjectHandle, x: int) -> SubobjectHandle:
    """(K :_M x) = {m in M : x*m in K}, for homogeneous x; memoized at the
    least member of x's unit orbit, which has the same colon."""
    if k.kind != SUBMODULE:
        raise PreconditionViolation("colon_by_element takes a submodule")
    gm = k.ctx
    if x not in gm.gring.hom_set:
        raise PreconditionViolation("colon_by_element requires a homogeneous ring element")
    x = gm.gring.orbit_min[x]

    def build():
        km, mask = k.members, 0
        for m, xm in enumerate(gm.module.action[x]):
            if xm in km:
                mask |= 1 << m
        return SubobjectHandle(gm, mask)
    return gm.memo(("colon_by_element", k.mask, x), build)


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
        members = coset_sum(members, [h for h in comp if not powers[h].isdisjoint(pm)], ring.add_array)
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
    add = carrier.add_array

    # distinct cyclic spans of single generators
    singles = {span({x}, ctx).members for x in sorted(generators)}
    found = {frozenset({carrier.zero})}
    frontier = set(found)
    while frontier:
        level = set()
        for t in (coset_sum(s, d, add) for s in frontier for d in singles if not d <= s):
            if t not in found:
                level.add(t)
                if len(found) + len(level) > MAX_LATTICE:  # checked as each set is found
                    raise TooLarge(f"graded lattice reached {MAX_LATTICE + 1} elements, cap is {MAX_LATTICE}")
        found |= level
        frontier = level
    return sorted((subobject(ctx, s) for s in found), key=lambda h: (len(h.members), h.sorted_members))


def containment_index(lattice) -> list:
    """``up[i]``: bit j set iff ``lattice[i]`` lies inside ``lattice[j]``, for a
    lattice in canonical order, so the lowest set bit of ``up[a] & up[b]`` is
    the least element holding both.  It takes L² bits: built per caller and
    never memoized."""
    masks = [h.mask for h in lattice]
    return [sum(1 << j for j, k in enumerate(masks[i:], i) if m & k == m) for i, m in enumerate(masks)]


def sum_is_graded(lattice, up, a: int, b: int) -> bool:
    """Whether ``lattice[a] + lattice[b]`` is graded, by counting.  The least
    element J of the lattice holding both contains the sum, and |A + B| =
    |A|·|B| / |A ∩ B|.  The lattice holds every graded subobject, so J is the
    sum exactly when the sum is graded."""
    joins = up[a] & up[b]
    ma, mb, mj = lattice[a].mask, lattice[b].mask, lattice[(joins & -joins).bit_length() - 1].mask
    return mj.bit_count() * (ma & mb).bit_count() == ma.bit_count() * mb.bit_count()


def enumerate_graded_subobjects(ctx, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """All graded subobjects, in canonical order (size, then member list).

    Graded subobjects are exactly those generated by homogeneous elements, so
    the lattice is walked by repeatedly joining homogeneous cyclic spans, one
    per unit orbit (R·ux = R·x).  Results are memoized on the carrier; the cap
    is checked on every call and only decides whether the lattice may be
    returned.  The walk stops with ``TooLarge`` past ``MAX_LATTICE`` sets.
    """
    _capped_carrier(ctx, max_elements)

    def build():
        return _enumerate_by_generators(ctx, [x for x in ctx.hom if ctx.orbit_min[x] == x], max_elements)
    return ctx.memo("graded_subobjects", build)
