"""Classification predicates for graded ideals and graded submodules.

Ideal predicates quantify over homogeneous ring elements; submodule predicates
additionally quantify over the full lattice of graded submodules (definitional
forms) or avoid it (characterization form).  All verdicts are deterministic:
the first counterexample in canonical order is reported, and every false
verdict carries a witness that re-checks against the definition.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_MAX_ELEMENTS
from .errors import PreconditionViolation
from .subobjects import (
    IDEAL,
    SUBMODULE,
    SubobjectHandle,
    annihilator,
    colon,
    enumerate_graded_subobjects,
    graded_radical,
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

    gring = p.ctx
    cache = gring._caches.setdefault("ideal_verdicts", {})
    key = (predicate, p.members)
    if key in cache:
        return cache[key]

    mul = gring.ring.mul
    hom = gring.hom
    pm = p.members
    verdict = None

    if predicate in ("prime", "primary"):
        escape = pm if predicate == "prime" else graded_radical(p).members
        for a in hom:
            row = mul[a]
            if a in pm:
                continue
            for b in hom:
                if row[b] in pm and b not in escape:
                    verdict = PredicateVerdict(False, {"a": a, "b": b})
                    break
            if verdict is not None:
                break
    else:
        escape = pm if predicate == "2-absorbing" else graded_radical(p).members
        for a in hom:
            arow = mul[a]
            for b in hom:
                ab = arow[b]
                if ab in pm:
                    continue  # conclusion holds for every c
                abrow = mul[ab]
                brow = mul[b]
                for c in hom:
                    if abrow[c] in pm and arow[c] not in escape and brow[c] not in escape:
                        verdict = PredicateVerdict(False, {"a": a, "b": b, "c": c})
                        break
                if verdict is not None:
                    break
            if verdict is not None:
                break

    if verdict is None:
        verdict = PredicateVerdict(True)
    cache[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# per-submodule scratch data
# ---------------------------------------------------------------------------

def _module_data(n: SubobjectHandle):
    """Per-(module, N) table: the mask of zN for every ring element z."""
    gm = n.ctx
    cache = gm._caches.setdefault("submodule_data", {})
    if n.members not in cache:
        act = gm.module.action
        members = n.sorted_members
        zmask = []
        for z in range(gm.gring.ring.size):
            row = act[z]
            m = 0
            for x in members:
                m |= 1 << row[x]
            zmask.append(m)
        cache[n.members] = tuple(zmask)
    return cache[n.members]


def _require_classifiable(n: SubobjectHandle):
    if n.kind != SUBMODULE:
        raise PreconditionViolation("submodule predicates take a submodule handle")
    if not n.graded:
        raise PreconditionViolation("submodule predicates take a graded submodule")
    if n.is_zero:
        raise PreconditionViolation("submodule predicates take a non-zero submodule")


def _grad_colon_members(n: SubobjectHandle, k: SubobjectHandle, zmask, zero_mask_k) -> frozenset:
    """Grad((K :_R N)) member set, via the rN-mask view of the colon."""
    gm = n.ctx
    cache = gm._caches.setdefault("grad_colon", {})
    key = (n.members, k.members)
    if key not in cache:
        km = k.mask
        col = {r for r in range(gm.gring.ring.size) if zmask[r] & km == zmask[r]}
        handle = subobject(IDEAL, gm.gring, col)
        cache[key] = graded_radical(handle).members
    return cache[key]


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
    else:
        g = None

    gm = n.ctx
    cache = gm._caches.setdefault("submodule_verdicts", {})
    key = (predicate, g, n.members)
    if key in cache:
        return cache[key]

    gring = gm.gring
    mul = gring.ring.mul
    zmask = _module_data(n)
    zero_mask = 1 << gm.module.zero

    if predicate == "second":
        verdict = PredicateVerdict(True)
        for a in gring.hom:
            m = zmask[a]
            if m != zero_mask and m != n.mask:
                verdict = PredicateVerdict(False, {"a": a})
                break
        cache[key] = verdict
        return verdict

    lattice = enumerate_graded_subobjects(gm, SUBMODULE, max_elements)

    if predicate == "g-2a-coprimary":
        scalars = tuple(sorted(gring.grading.components[g]))
    else:
        scalars = gring.hom

    coprimary = predicate in ("2a-coprimary-def", "g-2a-coprimary")
    verdict = None
    for x in scalars:
        xrow = mul[x]
        for y in scalars:
            w = zmask[xrow[y]]
            if w == zero_mask:
                continue  # xy kills N: conclusion holds for every K
            for k in lattice:
                km = k.mask
                if w & km != w:
                    continue  # hypothesis xyN <= K fails
                if coprimary:
                    grad = _grad_colon_members(n, k, zmask, zero_mask)
                    if x in grad or y in grad:
                        continue
                else:
                    if zmask[x] & km == zmask[x] or zmask[y] & km == zmask[y]:
                        continue
                verdict = PredicateVerdict(False, {"x": x, "y": y, "K": k})
                break
            if verdict is not None:
                break
        if verdict is not None:
            break

    if verdict is None:
        verdict = PredicateVerdict(True)
    cache[key] = verdict
    return verdict


def coprimary_via_characterization(n: SubobjectHandle) -> PredicateVerdict:
    """Quantifier-free coprimary test: for all homogeneous x, y, some bounded
    power of x or of y carries N into xyN, or xy annihilates N."""
    _require_classifiable(n)
    gm = n.ctx
    cache = gm._caches.setdefault("submodule_verdicts", {})
    key = ("2a-coprimary-char", None, n.members)
    if key in cache:
        return cache[key]

    gring = gm.gring
    mul = gring.ring.mul
    powers = gring.ring.power_sets
    zmask = _module_data(n)
    zero_mask = 1 << gm.module.zero

    verdict = None
    for x in gring.hom:
        xrow = mul[x]
        xpow = tuple(sorted(powers[x]))
        for y in gring.hom:
            w = zmask[xrow[y]]
            if w == zero_mask:
                continue  # xy in Ann(N)
            if any(zmask[p] & w == zmask[p] for p in xpow):
                continue
            ypow = tuple(sorted(powers[y]))
            if any(zmask[p] & w == zmask[p] for p in ypow):
                continue
            verdict = PredicateVerdict(False, {"x": x, "y": y})
            break
        if verdict is not None:
            break

    if verdict is None:
        verdict = PredicateVerdict(True)
    cache[key] = verdict
    return verdict


def is_graded_comultiplication_module(gm, max_elements: int = DEFAULT_MAX_ELEMENTS) -> PredicateVerdict:
    """True iff every graded submodule N equals (0 :_M Ann_R(N))."""
    cache = gm._caches.setdefault("module_verdicts", {})
    if "comultiplication" in cache:
        return cache["comultiplication"]
    lattice = enumerate_graded_subobjects(gm, SUBMODULE, max_elements)
    act = gm.module.action
    zero = gm.module.zero
    verdict = None
    for nh in lattice:
        ann = annihilator(nh).sorted_members
        back = {m for m in range(gm.module.size) if all(act[a][m] == zero for a in ann)}
        if back != nh.members:
            verdict = PredicateVerdict(False, {"N": nh, "zero_colon": frozenset(back)})
            break
    if verdict is None:
        verdict = PredicateVerdict(True)
    cache["comultiplication"] = verdict
    return verdict


# ---------------------------------------------------------------------------
# witness re-checking (self-certification)
# ---------------------------------------------------------------------------

def recheck_coprimary_violation(n: SubobjectHandle, x: int, y: int, k: SubobjectHandle | None = None) -> bool:
    """Re-derive a coprimary violation from the definition, independently of
    the classifier loops.  With no K given, uses K = xyN (the characterization
    witness route).  Returns True iff the implication is genuinely violated."""
    gm = n.ctx
    ring = gm.gring.ring
    act = gm.module.action
    xy = ring.mul[x][y]
    xy_n = frozenset(act[xy][m] for m in n.members)
    if k is None:
        k = span(xy_n, SUBMODULE, gm)
    if not xy_n <= k.members:
        return False  # hypothesis fails; not a violation
    if xy in annihilator(n).members:
        return False
    grad = graded_radical(colon(k, n)).members
    return x not in grad and y not in grad


def recheck_strong_violation(n: SubobjectHandle, x: int, y: int, k: SubobjectHandle) -> bool:
    gm = n.ctx
    ring = gm.gring.ring
    act = gm.module.action
    xy = ring.mul[x][y]
    xy_n = frozenset(act[xy][m] for m in n.members)
    if not xy_n <= k.members:
        return False
    if xy in annihilator(n).members:
        return False
    xn = frozenset(act[x][m] for m in n.members)
    yn = frozenset(act[y][m] for m in n.members)
    return not (xn <= k.members) and not (yn <= k.members)
