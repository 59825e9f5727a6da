"""Gradings on rings and modules: validated component sets (a grading stores
nothing else, and is checked by gathers on the stored arrays), and the
graded-carrier wrapper objects used by the rest of the package, which also
hold the component masks and the unit-orbit map ``orbit_min``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import FiniteModule, FiniteRing, GradingGroup, coset_sum, first_escape, make_group
from .errors import GradingInvalid


@dataclass(frozen=True, eq=False)
class Grading:
    """A validated decomposition of a ring or module into components:
    ``components[g]`` is the element set of the degree-g component."""

    group: GradingGroup
    carrier: object  # FiniteRing | FiniteModule
    components: tuple  # tuple[frozenset[int], ...], indexed by group element


def attach_grading(carrier, group: GradingGroup, assignment, ring_grading: Grading | None = None) -> Grading:
    """Validate a component assignment and return a :class:`Grading`.

    ``assignment`` maps each group element index to an iterable of carrier
    element indices.  For a module grading, ``ring_grading`` must be the
    already-validated grading of the scalar ring over the same group.

    Closure and R_g M_h ⊆ M_gh (one gather per g) are :func:`first_escape`
    calls and the direct sum is counted by :func:`coset_sum`, on the stored
    arrays, so grading builds no row views.  Each witness is the first failing
    cell with the components read in their frozenset iteration order.

    Raises :class:`GradingInvalid` naming the violated axiom and a witness.
    """
    is_ring = isinstance(carrier, FiniteRing)
    if not is_ring and not isinstance(carrier, FiniteModule):
        raise TypeError(f"cannot grade {type(carrier).__name__}")
    if not is_ring and ring_grading is None:
        raise GradingInvalid("module-grading-requires-ring-grading")
    if not is_ring and ring_grading.group is not group:
        raise GradingInvalid("grading-group-mismatch")

    add = carrier.add_array
    zero = carrier.zero
    n = carrier.size

    components = []
    for g in range(group.size):
        comp = frozenset(assignment.get(g, ()))
        for x in comp:
            if not (0 <= x < n):
                raise GradingInvalid("component-element-out-of-range", (g, x))
        components.append(comp)

    # each component is an additive subgroup
    for g, comp in enumerate(components):
        if zero not in comp:
            raise GradingInvalid("component-missing-zero", (g,))
        outside = first_escape(add, [comp], [comp], ((0,),))
        if outside is not None:
            raise GradingInvalid("component-not-closed-under-add", (g, *outside[2:]))

    # direct sum: each M_g meets the sum of those before it in 0, and all give M
    total = frozenset({zero})
    for g, comp in enumerate(components):
        before = len(total)
        total = coset_sum(total, comp, add)
        if len(total) < before * len(comp):
            raise GradingInvalid("direct-sum-collision", (g,))
    if len(total) != n:
        raise GradingInvalid("direct-sum-cardinality", (len(total), n))

    if is_ring and carrier.one not in components[group.identity]:
        raise GradingInvalid("one-not-in-identity-component", (carrier.one,))
    # R_g acting on M_h lands in M_gh, where a ring is M = R acting on itself
    rcomps = components if is_ring else ring_grading.components
    escape = first_escape(carrier.action_array, rcomps, components, group.op)
    if escape is not None:
        raise GradingInvalid("component-product-escapes" if is_ring else "action-escapes-component", escape)

    return Grading(group, carrier, tuple(components))


# ---------------------------------------------------------------------------
# graded carriers
# ---------------------------------------------------------------------------

IDEAL = "ideal"
SUBMODULE = "submodule"


class _GradedCarrier:
    """What a graded ring and a graded module share; each subclass holds the
    ``grading`` field and names the ``kind`` of the subobjects over it."""

    @property
    def group(self) -> GradingGroup:
        return self.grading.group

    @cached_property
    def hom_set(self) -> frozenset:
        """The homogeneous elements, h(R) or h(M): the union of the components."""
        return frozenset().union(*self.grading.components)

    @cached_property
    def hom(self) -> tuple:
        return tuple(sorted(self.hom_set))

    @cached_property
    def component_masks(self) -> tuple:
        """The bitmasks of the components other than {0}, in degree order."""
        return tuple(sum(1 << x for x in comp) for comp in self.grading.components if len(comp) > 1)

    @cached_property
    def orbit_min(self) -> tuple:
        """``orbit_min[z]``: the least u*z over the units u of R_e (the u whose
        multiplication row holds 1), read through the carrier's action.  A unit
        of R_e keeps each component, and u*z spans, annihilates and is carried
        into a subobject exactly as z is."""
        gring = self.gring
        ring = gring.ring
        units = [u for u in gring.grading.components[gring.group.identity] if ring.one in ring.mul[u]]
        action = self.grading.carrier.action
        return tuple(map(min, zip(*(action[u] for u in units))))

    @cached_property
    def _caches(self) -> dict:
        return {}

    def memo(self, key, build):
        """Return ``build()``, computed once per carrier and ``key``.

        This is the one memo for values derived from the carrier.  ``key``
        starts with a tag naming the value and must cover every input of
        ``build`` other than the carrier itself: two calls with equal keys
        get the first call's value.
        """
        cache = self._caches
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def clear_memo(self) -> None:
        """Drop every memoized value.  The memo holds handles that hold the
        carrier, so without this a carrier that is no longer used is freed
        only when the cyclic garbage collector runs."""
        self.__dict__.pop("_caches", None)


@dataclass(frozen=True, eq=False)
class GradedRing(_GradedCarrier):
    """A finite commutative ring together with a validated grading."""

    kind = IDEAL
    ring: FiniteRing
    grading: Grading

    @property
    def gring(self) -> GradedRing:
        """The scalar ring: a ring is a module over itself."""
        return self


@dataclass(frozen=True, eq=False)
class GradedModule(_GradedCarrier):
    """A finite module with a validated grading over a :class:`GradedRing`."""

    kind = SUBMODULE
    module: FiniteModule
    gring: GradedRing
    grading: Grading


def trivial_assignment(carrier, group: GradingGroup) -> dict:
    """Everything in the identity component, {0} elsewhere."""
    assignment = {g: {carrier.zero} for g in range(group.size)}
    assignment[group.identity] = set(range(carrier.size))
    return assignment


def ring_trivial(ring: FiniteRing, group: GradingGroup | None = None) -> GradedRing:
    group = group if group is not None else make_group("trivial")
    grading = attach_grading(ring, group, trivial_assignment(ring, group))
    return GradedRing(ring, grading)


def module_trivial(module: FiniteModule, gring: GradedRing) -> GradedModule:
    grading = attach_grading(
        module, gring.group, trivial_assignment(module, gring.group), ring_grading=gring.grading
    )
    return GradedModule(module, gring, grading)


def groupring_natural(ring: FiniteRing, group: GradingGroup) -> GradedRing:
    """Natural grading of a group ring: component g = the coefficient line of g."""
    assignment = {g: set() for g in range(group.size)}
    for i, lab in enumerate(ring.labels):
        support = [t for t, c in enumerate(lab) if c]
        if len(support) <= 1:  # homogeneous; the zero label lies in every component
            for g in support or assignment:
                assignment[g].add(i)
    grading = attach_grading(ring, group, assignment)
    return GradedRing(ring, grading)


def module_same_as_ring(module: FiniteModule, gring: GradedRing) -> GradedModule:
    """Grade a ring-as-module by copying the ring's component sets."""
    assignment = {g: set(comp) for g, comp in enumerate(gring.grading.components)}
    grading = attach_grading(module, gring.group, assignment, ring_grading=gring.grading)
    return GradedModule(module, gring, grading)


def product_assignment(c1: Grading, c2: Grading, size2: int) -> dict:
    """Componentwise product grading: component(g) = c1(g) x c2(g) under the
    product index convention i1*size2 + i2."""
    out = {}
    for g in range(c1.group.size):
        out[g] = {i1 * size2 + i2 for i1 in c1.components[g] for i2 in c2.components[g]}
    return out
