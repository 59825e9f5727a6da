"""Classification predicates for graded ideals and graded submodules.

Ideal predicates quantify over homogeneous ring elements; submodule predicates
additionally quantify over the full lattice of graded submodules (definitional
forms) or avoid it (characterization form).  All verdicts are deterministic:
the first counterexample in canonical order is reported, and every false
verdict carries a witness that re-checks against the definition.

The eight (x, y, third) predicates share one kernel, ``_first_violation``:
the first scalar pair whose ``hyp[xy] & ~esc[x] & ~esc[y]`` is non-zero.
For 2-absorbing(-primary) ideals bit j stands for c = hom[j]: hyp[z] holds
the c with zc in P (0 when z is in P) and esc[z] the c with zc in the escape
set.  Prime and primary use one bit.  For submodules bit i stands for the
lattice's i-th K: ``contains[r]`` holds the K with rN inside K, ``good[r]``
the OR of contains[p] over the powers p of r (for homogeneous r, the K with
r in Grad(K :_R N)), and hyp[z] is contains[z] (0 when zN = 0).  The
characterization form builds the same tables with bit i standing for the
i-th distinct zN instead of a lattice element.  Bits follow the canonical
order of hom(R) and of the lattice, so the lowest set bit of the first
violating pair is the witness the nested loops found.

A unit u of R_e maps each R_g onto itself, (ux)N = xN, and ux lies in an
ideal exactly when x does, so every table above is equal along the orbit {ux}.
The kernel scans only orbit-minimal x and y (``_orbit_min``, one table per
ring), and ``_product_bits`` and ``_power_or`` build one row per orbit.  The
witness is unchanged: the least member of x's orbit violates with the same bits
as x and comes no later, so the first violating pair is orbit-minimal in both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import DEFAULT_MAX_ELEMENTS
from .errors import PreconditionViolation
from .subobjects import (
    IDEAL,
    SUBMODULE,
    SubobjectHandle,
    _capped_carrier,
    annihilator,
    colon,
    enumerate_graded_subobjects,
    graded_radical,
    rn_masks,
    span,
    subobject,
)

IDEAL_PREDICATES = ("prime", "primary", "2-absorbing", "2-absorbing-primary")
SUBMODULE_PREDICATES = ("second", "strong-2a-second", "2a-coprimary-def", "g-2a-coprimary")


@dataclass(frozen=True)
class PredicateVerdict:
    value: bool
    witness: dict | None = None

    def __bool__(self):
        return self.value


# ---------------------------------------------------------------------------
# the first-violation kernel
# ---------------------------------------------------------------------------

def _first_violation(xs, ys, mul, hyp, escx, escy):
    """First (x, y, i) in canonical order, x over ``xs`` then y over ``ys``,
    whose ``hyp[xy] & ~escx[x] & ~escy[y]`` is non-zero, with i its lowest set
    bit; None when every pair escapes."""
    for x in xs:
        row = mul[x]
        keep = ~escx[x]
        for y in ys:
            bits = hyp[row[y]] & keep & ~escy[y]
            if bits:
                return x, y, (bits & -bits).bit_length() - 1
    return None


def _orbit_min(gring) -> tuple:
    """``orbit_min[z]``: the least u*z over the units u of R_e (the u whose
    multiplication row holds 1)."""
    mul, one = gring.ring.mul, gring.ring.one
    units = gring.grading.components[gring.group.identity]
    return gring.memo("orbit_min", lambda: tuple(map(min, zip(*(mul[u] for u in units if one in mul[u])))))


def _reps(gring, g=None) -> list:
    """The orbit-minimal elements of h(R), or of R_g, in index order."""
    orbit_min = _orbit_min(gring)
    scalars = gring.hom if g is None else sorted(gring.grading.components[g])
    return [x for x in scalars if orbit_min[x] == x]


def _product_bits(gring, members) -> tuple:
    """For every ring element z, the bitset of the positions j with
    z * hom[j] in ``members``; one row per unit orbit, shared by its members."""
    mul = gring.ring.mul
    orbit_min = _orbit_min(gring)
    row = {z: sum(1 << j for j, c in enumerate(gring.hom) if mul[z][c] in members) for z in set(orbit_min)}
    return tuple(map(row.__getitem__, orbit_min))


# ---------------------------------------------------------------------------
# ideal predicates
# ---------------------------------------------------------------------------

def classify_ideal(p: SubobjectHandle, predicate: str) -> PredicateVerdict:
    """Exhaustively classify a proper graded ideal.

    Predicates: "prime", "primary", "2-absorbing", "2-absorbing-primary";
    quantifiers run over homogeneous elements only.
    """
    if p.kind != IDEAL:
        raise PreconditionViolation("classify_ideal takes an ideal handle")
    if not p.graded:
        raise PreconditionViolation("classify_ideal takes a graded ideal")
    if p.is_whole:
        raise PreconditionViolation("classify_ideal takes a proper ideal")
    if predicate not in IDEAL_PREDICATES:
        raise PreconditionViolation(f"unknown ideal predicate {predicate!r}")
    return p.ctx.memo(("ideal_verdict", predicate, p.members), lambda: _ideal_verdict(p, predicate))


def _ideal_verdict(p: SubobjectHandle, predicate: str) -> PredicateVerdict:
    gring = p.ctx
    hom = gring.hom
    reps = _reps(gring)
    pm = p.members
    escape = pm if predicate in ("prime", "2-absorbing") else graded_radical(p).members
    if predicate in ("prime", "primary"):
        inside = tuple(int(z in pm) for z in range(gring.ring.size))
        esc = tuple(int(z in escape) for z in range(gring.ring.size))
        hit = _first_violation(reps, reps, gring.ring.mul, inside, inside, esc)
        return PredicateVerdict(hit is None, None if hit is None else {"a": hit[0], "b": hit[1]})
    col = _product_bits(gring, pm)
    hyp = tuple(0 if z in pm else bits for z, bits in enumerate(col))
    esc = col if predicate == "2-absorbing" else _product_bits(gring, escape)
    hit = _first_violation(reps, reps, gring.ring.mul, hyp, esc, esc)
    return PredicateVerdict(hit is None, None if hit is None else {"a": hit[0], "b": hit[1], "c": hom[hit[2]]})


# ---------------------------------------------------------------------------
# per-submodule tables
# ---------------------------------------------------------------------------

def _containing(ws, ks) -> tuple:
    """For every mask w of ``ws``, the bitset of the positions i with w inside
    the mask ``ks[i]``; computed once per distinct w, and shared."""
    row = {w: sum(1 << i for i, k in enumerate(ks) if w & k == w) for w in set(ws)}
    return tuple(map(row.__getitem__, ws))


def _power_or(gring, bits) -> tuple:
    """For every ring element r, the OR of ``bits[p]`` over the powers p of r,
    one per unit orbit: ``bits`` is equal along orbits, and (ur)^k = u^k r^k."""
    orbit_min = _orbit_min(gring)
    ors = {z: reduce(or_, map(bits.__getitem__, gring.ring.power_sets[z])) for z in set(orbit_min)}
    return tuple(map(ors.__getitem__, orbit_min))


def _hypothesis(n: SubobjectHandle, contains) -> tuple:
    """``contains`` with the rows of the r that annihilate N zeroed."""
    zero_mask = 1 << n.ctx.module.zero
    return tuple(0 if w == zero_mask else bits for w, bits in zip(rn_masks(n), contains))


def _contains_bits(n: SubobjectHandle, lattice) -> tuple:
    """``contains[r]``: bit i set iff rN is inside ``lattice[i]``.  The key
    leaves out ``lattice``: it is always the carrier's canonical lattice."""
    return n.ctx.memo(("contains", n.members), lambda: _containing(rn_masks(n), [k.mask for k in lattice]))


def _good_bits(n: SubobjectHandle, lattice) -> tuple:
    """``good[r]``: bit i set iff some power of r carries N into ``lattice[i]``,
    over the carrier's canonical lattice like ``_contains_bits``.  For
    homogeneous r (its own decomposition) that is r in Grad(lattice[i] :_R N);
    every reader looks at homogeneous r only."""
    return n.ctx.memo(("good", n.members), lambda: _power_or(n.ctx.gring, _contains_bits(n, lattice)))


def _require_classifiable(n: SubobjectHandle):
    if n.kind != SUBMODULE:
        raise PreconditionViolation("submodule predicates take a submodule handle")
    if not n.graded:
        raise PreconditionViolation("submodule predicates take a graded submodule")
    if n.is_zero:
        raise PreconditionViolation("submodule predicates take a non-zero submodule")


def _grad_colon_members(n: SubobjectHandle, k: SubobjectHandle, zmask, zero_mask_k) -> frozenset:
    """Grad((K :_R N)) member set.  Nothing calls it: ``_good_bits`` reads the
    radical off power bitsets.  It and its unused ``zmask`` and ``zero_mask_k``
    stay only because ``bench/traced.py`` wraps it by name in LAYERS and its
    ``_grad_colon_key`` binds four arguments; it goes with the next change to
    the benchmark."""
    return graded_radical(colon(k, n)).members


# ---------------------------------------------------------------------------
# submodule predicates
# ---------------------------------------------------------------------------

def classify_submodule(
    n: SubobjectHandle,
    predicate: str,
    g: int | None = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> PredicateVerdict:
    """Definitional classification of a non-zero graded submodule.

    Predicates: "second", "strong-2a-second", "2a-coprimary-def", and
    "g-2a-coprimary" (pass the group element ``g``; scalars range over R_g).
    The K-quantified predicates enumerate the full graded-submodule lattice of
    the carrier (may raise TooLarge beyond ``max_elements``).
    """
    _require_classifiable(n)
    if predicate not in SUBMODULE_PREDICATES:
        raise PreconditionViolation(f"unknown submodule predicate {predicate!r}")
    if predicate == "g-2a-coprimary":
        if g is None:
            raise PreconditionViolation("g-2a-coprimary needs a group element")
        if not 0 <= g < n.ctx.group.size:
            raise PreconditionViolation(f"group element {g} outside the grading group")
        gring = n.ctx.gring
        if gring.grading.components[g] == gring.hom_set:
            # R_g = h(R): the g-form quantifies over the definitional form's scalars
            predicate, g = "2a-coprimary-def", None
    else:
        g = None
    if predicate != "second":  # the lattice the other predicates need is capped
        _capped_carrier(n.ctx, max_elements)
    return n.ctx.memo(
        ("submodule_verdict", predicate, g, n.members),
        lambda: _submodule_verdict(n, predicate, g, max_elements),
    )


def _submodule_verdict(n: SubobjectHandle, predicate: str, g: int | None, max_elements: int) -> PredicateVerdict:
    gm = n.ctx
    gring = gm.gring
    if predicate == "second":
        zmask = rn_masks(n)
        a = next((a for a in _reps(gring) if zmask[a] not in (1 << gm.module.zero, n.mask)), None)
        return PredicateVerdict(a is None, None if a is None else {"a": a})
    lattice = enumerate_graded_subobjects(gm, max_elements)
    scalars = _reps(gring, g)
    contains = _contains_bits(n, lattice)
    esc = contains if predicate == "strong-2a-second" else _good_bits(n, lattice)
    hit = _first_violation(scalars, scalars, gring.ring.mul, _hypothesis(n, contains), esc, esc)
    return PredicateVerdict(hit is None, None if hit is None else {"x": hit[0], "y": hit[1], "K": lattice[hit[2]]})


def coprimary_via_characterization(n: SubobjectHandle) -> PredicateVerdict:
    """Quantifier-free coprimary test: for all homogeneous x, y, some bounded
    power of x or of y carries N into xyN, or xy annihilates N."""
    _require_classifiable(n)
    return n.ctx.memo(("submodule_verdict", "2a-coprimary-char", None, n.members), lambda: _char_verdict(n))


def _char_verdict(n: SubobjectHandle) -> PredicateVerdict:
    """The definition at K = xyN only: bit i stands for the i-th distinct rN,
    and a violation at any K containing xyN is one at K = xyN, so the first
    violating (x, y) is the definition's."""
    gring = n.ctx.gring
    zmask = rn_masks(n)
    contains = _containing(zmask, sorted(set(zmask)))
    esc = _power_or(gring, contains)
    reps = _reps(gring)
    hit = _first_violation(reps, reps, gring.ring.mul, _hypothesis(n, contains), esc, esc)
    return PredicateVerdict(hit is None, None if hit is None else {"x": hit[0], "y": hit[1]})


def is_graded_comultiplication_module(gm, max_elements: int = DEFAULT_MAX_ELEMENTS) -> PredicateVerdict:
    """True iff every graded submodule N equals (0 :_M Ann_R(N))."""
    _capped_carrier(gm, max_elements)
    return gm.memo("comultiplication", lambda: _comultiplication_verdict(gm, max_elements))


def _comultiplication_verdict(gm, max_elements: int) -> PredicateVerdict:
    act = gm.module.action
    zero = gm.module.zero
    for nh in enumerate_graded_subobjects(gm, max_elements):
        ann = annihilator(nh).sorted_members
        back = {m for m in range(gm.module.size) if all(act[a][m] == zero for a in ann)}
        if back != nh.members:
            return PredicateVerdict(False, {"N": nh, "zero_colon": subobject(gm, back)})
    return PredicateVerdict(True)


# ---------------------------------------------------------------------------
# witness re-checking (self-certification)
# ---------------------------------------------------------------------------

def recheck_coprimary_violation(n: SubobjectHandle, x: int, y: int, k: SubobjectHandle | None = None) -> bool:
    """Re-derive a coprimary violation from the definition, independently of
    the classifier loops and of the rN masks they read: Ann(N) and (K :_R N)
    come from the action and the member sets.  With no K given, uses K = xyN
    (the characterization witness route).  Returns True iff the implication
    is genuinely violated."""
    gm = n.ctx
    ring = gm.gring.ring
    act = gm.module.action
    xy = ring.mul[x][y]
    xy_n = frozenset(act[xy][m] for m in n.members)
    if k is None:
        k = span(xy_n, gm)
    if not xy_n <= k.members:
        return False  # hypothesis fails; not a violation
    if xy_n == {gm.module.zero}:
        return False  # xy in Ann(N)
    kn = {r for r in range(ring.size) if all(act[r][m] in k.members for m in n.members)}
    grad = graded_radical(subobject(gm.gring, kn)).members
    return x not in grad and y not in grad


def recheck_strong_violation(n: SubobjectHandle, x: int, y: int, k: SubobjectHandle) -> bool:
    gm = n.ctx
    ring = gm.gring.ring
    act = gm.module.action
    xy = ring.mul[x][y]
    xy_n = frozenset(act[xy][m] for m in n.members)
    if not xy_n <= k.members:
        return False
    if xy_n == {gm.module.zero}:
        return False  # xy in Ann(N)
    xn = frozenset(act[x][m] for m in n.members)
    yn = frozenset(act[y][m] for m in n.members)
    return not (xn <= k.members) and not (yn <= k.members)
