"""Classification predicates for graded ideals and graded submodules.

Ideal predicates quantify over homogeneous ring elements; submodule predicates
additionally quantify over the full lattice of graded submodules (definitional
forms) or avoid it (characterization form).  All verdicts are deterministic:
the first counterexample in canonical order is reported, and every false
verdict carries a witness that re-checks against the definition.

The seven (x, y, third) predicates share one kernel, ``_first_violation``:
the first scalar pair whose ``hyp[xy] & ~esc[x] & ~esc[y]`` is non-zero.
For 2-absorbing(-primary) ideals bit j stands for c = hom[j]: hyp[z] holds
the c with zc in P (0 when z is in P) and esc[z] the c with zc in the escape
set.  Prime and primary use one bit.  For submodules bit i stands for the
lattice's i-th K: ``contains[r]`` holds the K with rN inside K, ``good[r]``
the K with r in Grad(K :_R N), and hyp[z] is contains[z] (0 when zN = 0).
Bits follow the canonical order of hom(R) and of the lattice, so the lowest
set bit of the first violating pair is the witness the nested loops found.
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


def _product_bits(gring, members) -> tuple:
    """For every ring element z, the bitset of the positions j with
    z * hom[j] in ``members``."""
    mul = gring.ring.mul
    hom = gring.hom
    return tuple(
        sum(1 << j for j, c in enumerate(hom) if row[c] in members) for row in mul
    )


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

    hom = gring.hom
    pm = p.members
    escape = pm if predicate in ("prime", "2-absorbing") else graded_radical(p).members
    if predicate in ("prime", "primary"):
        inside = tuple(int(z in pm) for z in range(gring.ring.size))
        esc = tuple(int(z in escape) for z in range(gring.ring.size))
        hit = _first_violation(hom, hom, gring.ring.mul, inside, inside, esc)
        witness = None if hit is None else {"a": hit[0], "b": hit[1]}
    else:
        col = _product_bits(gring, pm)
        hyp = tuple(0 if z in pm else bits for z, bits in enumerate(col))
        esc = col if predicate == "2-absorbing" else _product_bits(gring, escape)
        hit = _first_violation(hom, hom, gring.ring.mul, hyp, esc, esc)
        witness = None if hit is None else {"a": hit[0], "b": hit[1], "c": hom[hit[2]]}

    verdict = PredicateVerdict(hit is None, witness)
    cache[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# per-submodule tables
# ---------------------------------------------------------------------------

def _module_data(n: SubobjectHandle) -> dict:
    """Per-(module, N) record in the carrier memo.  ``"zmask"`` holds the mask
    of zN for every ring element z; ``_contains_bits`` and ``_good_bits`` add
    bitsets over the carrier's canonical graded-submodule lattice."""
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
        cache[n.members] = {"zmask": tuple(zmask)}
    return cache[n.members]


def _contains_bits(n: SubobjectHandle, lattice) -> tuple:
    """``contains[r]``: bit i set iff rN is inside ``lattice[i]``."""
    data = _module_data(n)
    if "contains" not in data:
        masks = [k.mask for k in lattice]
        data["contains"] = tuple(
            sum(1 << i for i, km in enumerate(masks) if w & km == w) for w in data["zmask"]
        )
    return data["contains"]


def _good_bits(n: SubobjectHandle, lattice) -> tuple:
    """``good[r]``: bit i set iff r is in Grad(lattice[i] :_R N)."""
    data = _module_data(n)
    if "good" not in data:
        zmask = data["zmask"]
        zero_mask = 1 << n.ctx.module.zero
        good = [0] * len(zmask)
        for i, k in enumerate(lattice):
            for r in _grad_colon_members(n, k, zmask, zero_mask):
                good[r] |= 1 << i
        data["good"] = tuple(good)
    return data["good"]


def _require_classifiable(n: SubobjectHandle):
    if n.kind != SUBMODULE:
        raise PreconditionViolation("submodule predicates take a submodule handle")
    if not n.graded:
        raise PreconditionViolation("submodule predicates take a graded submodule")
    if n.is_zero:
        raise PreconditionViolation("submodule predicates take a non-zero submodule")


def _grad_colon_members(n: SubobjectHandle, k: SubobjectHandle, zmask, zero_mask_k) -> frozenset:
    """Grad((K :_R N)) member set, via the rN-mask view of the colon."""
    gring = n.ctx.gring
    km = k.mask
    col = {r for r in range(gring.ring.size) if zmask[r] & km == zmask[r]}
    return graded_radical(subobject(IDEAL, gring, col)).members


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
    zmask = _module_data(n)["zmask"]
    zero_mask = 1 << gm.module.zero

    if predicate == "second":
        a = next((a for a in gring.hom if zmask[a] not in (zero_mask, n.mask)), None)
        verdict = PredicateVerdict(a is None, None if a is None else {"a": a})
    else:
        lattice = enumerate_graded_subobjects(gm, SUBMODULE, max_elements)
        scalars = gring.hom if g is None else tuple(sorted(gring.grading.components[g]))
        contains = _contains_bits(n, lattice)
        hyp = tuple(0 if w == zero_mask else bits for w, bits in zip(zmask, contains))
        esc = contains if predicate == "strong-2a-second" else _good_bits(n, lattice)
        hit = _first_violation(scalars, scalars, gring.ring.mul, hyp, esc, esc)
        witness = None if hit is None else {"x": hit[0], "y": hit[1], "K": lattice[hit[2]]}
        verdict = PredicateVerdict(hit is None, witness)
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
    zmask = _module_data(n)["zmask"]
    zero_mask = 1 << gm.module.zero

    verdict = None
    for x in gring.hom:
        xrow = mul[x]
        for y in gring.hom:
            w = zmask[xrow[y]]
            if w == zero_mask:
                continue  # xy in Ann(N)
            if any(zmask[p] & w == zmask[p] for p in powers[x]):
                continue
            if any(zmask[p] & w == zmask[p] for p in powers[y]):
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
