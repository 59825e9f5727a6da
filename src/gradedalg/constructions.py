"""Transport machinery: graded module homomorphisms (image, preimage, kernel),
localization at homogeneous multiplicative sets, and product modules.

S^{-1}R and S^{-1}M come from one fraction builder as one
:class:`Localization`: ``localized`` is the graded S^{-1}X, and a module's
``ring_loc`` is the S^{-1}R it is a module over."""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .core import FiniteModule, FiniteRing, first_escape, first_hom_failure, fraction_tables, make_module, make_ring
from .errors import HomInvalid, InvalidDenominators, PreconditionViolation
from .grading import GradedModule, GradedRing, attach_grading, product_assignment
from .subobjects import SUBMODULE, SubobjectHandle, preimage_mask, subobject, zero_subobject


# ---------------------------------------------------------------------------
# graded homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GradedHom:
    """A validated graded R-homomorphism between graded modules, as a table.
    Either end may be a graded ring, the ring as a module over itself."""

    source: GradedModule
    target: GradedModule
    mapping: tuple  # mapping[m] -> target element index


def make_hom(source: GradedModule, target: GradedModule, mapping) -> GradedHom:
    """Validate additivity, linearity (``core.first_hom_failure``) and degree preservation exhaustively."""
    if source.gring is not target.gring:
        raise PreconditionViolation("hom endpoints must share the same graded ring")
    sm, tm = source.grading.carrier, target.grading.carrier
    mapping = tuple(mapping)
    if len(mapping) != sm.size:
        raise HomInvalid("map-not-total", (len(mapping), sm.size))
    for v in mapping:
        if not (0 <= v < tm.size):
            raise HomInvalid("map-out-of-range", (v,))
    failure = first_hom_failure(sm, tm, mapping)
    if failure is not None:
        raise HomInvalid(*failure)
    tcomps = target.grading.components
    for g, comp in enumerate(source.grading.components):
        for m in comp:
            if mapping[m] not in tcomps[g]:
                raise HomInvalid("not-degree-preserving", (g, m))
    return GradedHom(source, target, mapping)


def identity_hom(gm: GradedModule) -> GradedHom:
    return GradedHom(gm, gm, tuple(range(gm.grading.carrier.size)))


def multiplication_hom(gm: GradedModule, r: int) -> GradedHom:
    """m -> r*m; a graded endomorphism whenever r has identity degree."""
    e = gm.group.identity
    if r not in gm.gring.grading.components[e]:
        raise PreconditionViolation("multiplication homs need a degree-e scalar")
    return GradedHom(gm, gm, tuple(gm.grading.carrier.action[r]))


def hom_image(f: GradedHom, l: SubobjectHandle) -> SubobjectHandle:
    """f(L) as a graded submodule of the target."""
    if l.ctx is not f.source:
        raise PreconditionViolation("hom_image takes a submodule of the source")
    return subobject(f.target, {f.mapping[m] for m in l.members})


def hom_preimage(f: GradedHom, k: SubobjectHandle) -> SubobjectHandle:
    """f^{-1}(K) as a graded submodule of the source."""
    if k.ctx is not f.target:
        raise PreconditionViolation("hom_preimage takes a submodule of the target")
    return SubobjectHandle(f.source, preimage_mask(f.mapping, k.mask))


def hom_kernel(f: GradedHom) -> SubobjectHandle:
    return hom_preimage(f, zero_subobject(f.target))


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def _check_denominators(gring: GradedRing, s) -> tuple:
    s = tuple(sorted(set(s)))
    ring = gring.ring
    if ring.one not in s:
        raise InvalidDenominators("localization set must contain 1")
    for x in s:
        if x not in gring.hom_set:
            raise InvalidDenominators(f"denominator {ring.labels[x]!r} is not homogeneous")
    escape = first_escape(ring.mul_array, [s], [s], ((0,),))
    if escape is not None:
        a, b = escape[2:]
        raise InvalidDenominators(f"not closed under multiplication: {ring.labels[a]!r} * {ring.labels[b]!r}")
    return s


@dataclass(frozen=True, eq=False)
class Localization:
    """S^{-1}X for a finite graded ring or module X and homogeneous
    multiplicative S, with the induced grading; a module's is over S^{-1}R."""

    base: GradedRing | GradedModule
    denominators: tuple
    reps: tuple  # reps[i] = (numerator index, denominator index) in the base
    classes: object  # read-only array: classes[a, j] is the localized index of a / denominators[j]
    localized: GradedRing | GradedModule
    ring_loc: Localization | None = None  # S^{-1}R when the base is a module


def _fractions(base, s: tuple, ring_reps=None):
    """(reps, classes, labels, add, action, zero, degree assignment) of S^{-1}X
    for the graded carrier X = ``base``, a module over ``base.gring`` or that
    ring acting on itself, by ``core.fraction_tables``: the action's rows are
    the classes ``ring_reps`` of S^{-1}R, or X's own classes when X is the ring."""
    x, ring = base.grading.carrier, base.gring.ring

    def times(ts, start):
        return reduce(lambda u, t: ring.mul[u][t], ts, start)

    w = times(s, ring.one)
    # a/d = b/t iff w(ta - db) = 0 (u in S divides w = prod S), iff c_d a = c_t b for c_d = w^2 prod(S - {d}):
    # multiply by the cofactors of d and t in w, or back by dt, since w^3 is in S
    cofactors = [times((t for t in s if t != d), ring.mul[w][w]) for d in s]
    reps, classes, add, action = fraction_tables(x, ring.mul_array, s, cofactors, ring_reps)
    labels = tuple(f"{x.labels[a]}/{ring.labels[d]}" for a, d in reps)
    columns = classes.T.tolist()  # columns[j][a] is the class of a / s[j]
    group = base.group
    assignment = {g: set() for g in range(group.size)}
    rcomps = base.gring.grading.components
    for g in range(group.size):
        for h in range(group.size):
            d = group.op[h][group.inverse[g]]
            for column, sden in zip(columns, s):
                if sden in rcomps[d]:
                    assignment[g].update(column[a] for a in base.grading.components[h])
    return reps, classes, labels, add, action, columns[s.index(ring.one)][x.zero], assignment


def localize_ring(gring: GradedRing, s) -> Localization:
    s = _check_denominators(gring, s)
    reps, classes, labels, add, mul, zero, assignment = _fractions(gring, s)
    one = gring.ring.one
    lring = FiniteRing(labels, add, mul, zero, int(classes[one, s.index(one)]))
    grading = attach_grading(lring, gring.group, assignment)
    return Localization(gring, s, reps, classes, GradedRing(lring, grading))


def localize_module(gm: GradedModule, s, ring_loc: Localization | None = None) -> Localization:
    """S^{-1}M; a given ``ring_loc`` must be S^{-1}R for gm's ring and this S."""
    if ring_loc is None:
        ring_loc = localize_ring(gm.gring, s)
    elif ring_loc.base is not gm.gring or ring_loc.denominators != _check_denominators(gm.gring, s):
        raise PreconditionViolation("ring_loc must localize the module's ring at the same set")
    reps, classes, labels, add, action, zero, assignment = _fractions(gm, ring_loc.denominators, ring_loc.reps)
    gring = ring_loc.localized
    lmodule = FiniteModule(gring.ring, labels, add, zero, action)
    grading = attach_grading(lmodule, gm.group, assignment, ring_grading=gring.grading)
    return Localization(gm, ring_loc.denominators, reps, classes, GradedModule(lmodule, gring, grading), ring_loc)


def localize(base, s):
    """Localize a graded ring or module at a homogeneous multiplicative set."""
    if isinstance(base, GradedRing):
        return localize_ring(base, s)
    if isinstance(base, GradedModule):
        return localize_module(base, s)
    raise PreconditionViolation("localize takes a GradedRing or GradedModule")


def localize_subobject(loc, n: SubobjectHandle) -> SubobjectHandle:
    """S^{-1}N: the classes of N's elements over all denominators, one gather."""
    if not isinstance(loc, Localization):
        raise PreconditionViolation("localize_subobject takes a localized structure")
    if n.ctx is not loc.base:
        raise PreconditionViolation("subobject must live on the localized base")
    return subobject(loc.localized, loc.classes[list(n.members)].ravel().tolist())


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def product_graded_ring(gr1: GradedRing, gr2: GradedRing) -> GradedRing:
    """R1 x R2 graded by (R_g = (R1)_g x (R2)_g); factors must share G."""
    if gr1.group is not gr2.group:
        raise PreconditionViolation("product factors must be graded by the same group object")
    ring = make_ring(("product", gr1.ring, gr2.ring))
    assignment = product_assignment(gr1.grading, gr2.grading, gr2.ring.size)
    grading = attach_grading(ring, gr1.group, assignment)
    return GradedRing(ring, grading)


def product_graded_module(gm1: GradedModule, gm2: GradedModule, gring: GradedRing) -> GradedModule:
    """M1 x M2 over R1 x R2 with M_g = (M1)_g x (M2)_g."""
    if gm1.group is not gm2.group:
        raise PreconditionViolation("product factors must be graded by the same group object")
    module = make_module(("product", gm1.module, gm2.module), gring.ring)
    assignment = product_assignment(gm1.grading, gm2.grading, gm2.module.size)
    grading = attach_grading(module, gm1.group, assignment, ring_grading=gring.grading)
    return GradedModule(module, gring, grading)


def product_submodule(n1: SubobjectHandle, n2: SubobjectHandle, gm: GradedModule) -> SubobjectHandle:
    """N1 x N2 inside an already-built product module."""
    if n1.kind != SUBMODULE or n2.kind != SUBMODULE:
        raise PreconditionViolation("product_submodule takes two submodules")
    size2 = n2.ctx.module.size
    members = {i1 * size2 + i2 for i1 in n1.members for i2 in n2.members}
    return subobject(gm, members)
