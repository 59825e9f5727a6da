"""Instance verification of every stated result over a corpus, the one
resolver of predicate names, and the counterexample-search expression language.

A "pass" means no corpus counterexample was found: propositions are checked on
exhaustively enumerated hypothesis instances, never assumed.  Vacuous
candidates are tallied under ``skipped`` with a reason, never as passes.
``classify_named`` maps a predicate name to its classifier call, for both
``classify`` and ``search``.  The proposition ids are the keys of the checker
table, and ``_named`` labels every record.

No checker builds an object per instance.  ``closure-lemma`` counts each sum
against the ``containing`` index of the lattice, built for the call and never
memoized (L² bits); ``colon-2AP`` reads every (K :_R N) of one N off
``_contains_bits``, which keeps its scan of the lattice per distinct rN, so a
single ``classify`` never pays for the O(L²) index.
"""
from __future__ import annotations

import re
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

from .classifiers import (
    IDEAL_PREDICATES,
    PredicateVerdict,
    _contains_bits,
    _good_bits,
    classify_ideal,
    classify_submodule,
    coprimary_via_characterization,
    is_graded_comultiplication_module,
)
from .constructions import (
    hom_image,
    hom_kernel,
    hom_preimage,
    identity_hom,
    localize_module,
    localize_subobject,
    multiplication_hom,
    product_submodule,
)
from .errors import PreconditionViolation, StructureParseError, TooLarge, UnknownProposition
from .structfile import CorpusEntry, element_token
from .subobjects import (
    IDEAL,
    SUBMODULE,
    SubobjectHandle,
    _bits,
    annihilator,
    colon,
    combine,
    containing,
    enumerate_graded_subobjects,
    graded_mask,
    graded_radical,
    ideal_component,
    preimage_mask,
    rn_masks,
    span,
    sum_is_graded,
    whole_subobject,
)

@dataclass
class VerificationReport:
    prop_id: str
    instances: int = 0
    violations: list = field(default_factory=list)
    skipped: Counter = field(default_factory=Counter)
    wall_time: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    def to_machine(self) -> str:
        # wall time deliberately excluded: machine reports must be byte-stable
        reasons = ";".join(f"{k}:{v}" for k, v in sorted(self.skipped.items())) or "-"
        return (
            f"prop={self.prop_id} status={self.status} instances={self.instances} "
            f"violations={len(self.violations)} skipped={sum(self.skipped.values())} "
            f"reasons={reasons}"
        )

    def to_plain(self) -> str:
        reasons = ", ".join(f"{k}: {v}" for k, v in sorted(self.skipped.items()))
        lines = [f"[{self.prop_id}] {self.status.upper()}", f"  instances: {self.instances}",
                 f"  skipped:   {sum(self.skipped.values())}" + (f" ({reasons})" if reasons else "")]
        lines += (f"  violation: {v}" for v in self.violations[:10])
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more violations")
        lines.append(f"  wall:      {self.wall_time:.2f}s")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _members_label(handle) -> str:
    labels = handle.carrier.labels
    return "{" + ",".join(str(labels[i]) for i in handle.sorted_members) + "}"


_RING_KEYS = frozenset("rabcxy")  # the record and witness keys that hold a ring scalar


def _named(value, entry: CorpusEntry, key=None):
    """A violation record or witness as reported: handles, also in tuples,
    become member sets, and an int under a ring-scalar key or ``g`` (at the
    top level or in ``witness``) becomes its ring or degree label."""
    if isinstance(value, SubobjectHandle):
        return _members_label(value)
    if isinstance(value, dict):  # an unchanged witness stays the verdict's own dict
        named = {k: _named(v, entry, k) for k, v in value.items()}
        return value if named == value else named
    if isinstance(value, tuple):
        return tuple(_named(v, entry) for v in value)
    if key in _RING_KEYS:
        return entry.gring.ring.labels[value]
    if key == "g":
        return entry.gring.group.labels[value]
    return value


def _nonzero_subs(entry: CorpusEntry):
    return [h for h in entry.graded_submodules() if not h.is_zero]


def _coprimary(subs, skip: Counter, reason: str = "N-not-coprimary", weight: int = 1):
    """Yield the 2-absorbing coprimary handles of ``subs``; every other handle
    is tallied ``weight`` times under ``reason``."""
    for n in subs:
        if coprimary_via_characterization(n).value:
            yield n
        else:
            skip[reason] += weight


def _g_coprimary(entry: CorpusEntry, skip: Counter):
    """Yield ``(g, N, good, Ann(N))`` for every degree g and every non-zero
    graded g-2-absorbing coprimary N, where ``good`` is ``_good_bits`` of N
    over the graded submodules; every other (g, N) is tallied."""
    for g in range(entry.gmodule.group.size):
        for n in _nonzero_subs(entry):
            if not classify_submodule(n, "g-2a-coprimary", g=g).value:
                skip["N-not-g-coprimary"] += 1
                continue
            yield g, n, _good_bits(n), annihilator(n).members


def _hom_family(entry: CorpusEntry):
    """Canonical finite hom family as (r, f) pairs: the identity
    (multiplication by one) plus every multiplication by a degree-e
    homogeneous scalar r, one per action row, from the first r that gives
    it.  f is the first hom of r's unit orbit: ×ur is ×r followed by the
    automorphism ×u, so f(N), ker f and f⁻¹(K) are those of ×r; no other hom
    is built."""
    gm = entry.gmodule
    orbit_min, one, rows = gm.gring.orbit_min, gm.gring.ring.one, gm.module.action_array
    fams = [(one, identity_hom(gm))]
    seen, first = {rows[one].tobytes()}, {orbit_min[one]: fams[0][1]}
    for r in sorted(gm.gring.grading.components[gm.group.identity]):
        row = rows[r].tobytes()
        if row not in seen:
            seen.add(row)
            if orbit_min[r] not in first:
                first[orbit_min[r]] = multiplication_hom(gm, r)
            fams.append((r, first[orbit_min[r]]))
    return fams


def _factor_pairs(entry: CorpusEntry, skip: Counter):
    """Yield every pair (N1, N2) of non-zero graded factor submodules.  A zero
    factor makes the factor annihilator improper, and the product statements
    presume both factors non-zero, so pairs with one count as zero-factor."""
    if entry.factors is None:
        return
    subs1, subs2 = (enumerate_graded_subobjects(gm, entry.max_elements) for gm in entry.factors)
    skip["zero-factor"] += len(subs1) + len(subs2) - 1  # subs[0] is the zero submodule
    for n1 in subs1[1:]:
        for n2 in subs2[1:]:
            yield n1, n2


# ---------------------------------------------------------------------------
# proposition checkers: a generator (entry, skip) yields, per hypothesis
# instance, None or its violation record, or one int, the size of a block of
# instances that hold; it tallies every other candidate in skip.
# ---------------------------------------------------------------------------

def _counted(check):
    """The checker ``entry -> (instances, violations, skipped)`` of the
    generator ``check``, which keeps the violation records only."""
    def counted(entry: CorpusEntry):
        skip, instances, bad = Counter(), 0, []
        for record in check(entry, skip):
            if record is None:
                instances += 1
            elif isinstance(record, int):
                instances += record
            else:
                bad.append(record)
        return instances + len(bad), bad, skip
    return counted


def _check_closure_lemma(entry: CorpusEntry, skip: Counter):
    """Sums are counted against the lattice (``sum_is_graded``): that relies on
    the lattice holding every graded subobject, which the closed-form walk
    tests pin.  Intersections are decided by the popcount product, and rN and
    (N :_M x) once per unit orbit of the scalar and N, read back per scalar."""
    ideals = entry.graded_ideals()
    subs = entry.graded_submodules()
    gm = entry.gmodule
    gring = gm.gring
    module_labels, ring_labels, orbit_min = gm.module.labels, gring.ring.labels, gring.orbit_min

    def graded(ok, what, detail):
        return None if ok else {"op": what, "detail": detail}

    for objs, kind in ((ideals, "ideal"), (subs, "submodule")):
        masks = [h.mask for h in objs]
        add, meet, up = kind + "-sum", kind + "-intersect", containing(masks, masks)
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                yield graded(sum_is_graded(objs, up, i, j), add, (a, b))
                yield graded(graded_mask(a.ctx, a.mask & b.mask), meet, (a, b))
    spans = {}  # R·ux = R·x: one span per module orbit, kept for this call only
    for x in gm.hom:
        m = gm.orbit_min[x]
        if m not in spans:
            spans[m] = span({m}, gm)
        yield graded(spans[m].graded, "cyclic-span", module_labels[x])

    def per_scalar(mask_of):  # (r, verdict) per homogeneous r and N, one verdict per orbit
        verdicts = {z: [graded_mask(gm, mask_of(z, n)) for n in subs] for z in {orbit_min[r] for r in gring.hom}}
        return ((r, ok) for r in gring.hom for ok in verdicts[orbit_min[r]])

    for i in ideals:
        for n in subs:
            yield graded(combine(i, n, "ideal_product").graded, "ideal-product", (i, n))
    for r, ok in per_scalar(lambda z, n: rn_masks(n)[z]):
        yield graded(ok, "scalar-multiple", ring_labels[r])
    whole = whole_subobject(gm)
    for n in subs:
        yield graded(colon(n, whole).graded, "colon-into-module", n)
        yield graded(annihilator(n).graded, "annihilator", n)
    act = gm.module.action
    for x, ok in per_scalar(lambda z, n: preimage_mask(act[z], n.mask)):
        yield graded(ok, "colon-by-element", ring_labels[x])


def _check_colon_2ap(entry: CorpusEntry, skip: Counter):
    """(K :_R N) for every K at once, off the rows of ``_contains_bits``: bit K of
    contains[r] says r is in it, and rows are equal along unit orbits.  One
    verdict per distinct colon; the colon is R exactly when N lies in K."""
    subs = entry.graded_submodules()
    gring = entry.gmodule.gring
    orbits = {}
    for r, z in enumerate(gring.orbit_min):
        orbits[z] = orbits.get(z, 0) | 1 << r
    for n in _coprimary(_nonzero_subs(entry), skip, weight=len(subs)):
        contains, colons, verdicts = _contains_bits(n), [0] * len(subs), {}
        for z, members in orbits.items():
            for k in _bits(contains[z]):
                colons[k] |= members
        for k, rk in zip(subs, colons):
            if n <= k:
                skip["N-contained-in-K"] += 1
                continue
            if rk not in verdicts:  # proper: 1*N = N is not inside K
                verdicts[rk] = classify_ideal(SubobjectHandle(gring, rk), "2-absorbing-primary")
            v = verdicts[rk]
            yield None if v.value else {"N": n, "K": k, "witness": v.witness}


def _ann_checker(ideal_of, predicate: str):
    """Checker of "N coprimary implies ``ideal_of(N)`` satisfies ``predicate``"."""
    def check(entry: CorpusEntry, skip: Counter):
        for n in _coprimary(_nonzero_subs(entry), skip):
            v = classify_ideal(ideal_of(n), predicate)
            yield None if v.value else {"N": n, "witness": v.witness}
    return check


def _check_scalar_multiple(entry: CorpusEntry, skip: Counter):
    """One verdict per unit orbit and N: aN is the orbit's row of ``rn_masks``,
    and Ann(N) is a union of orbits."""
    gm = entry.gmodule
    zero, orbit_min = 1 << gm.module.zero, gm.gring.orbit_min
    for n in _coprimary(_nonzero_subs(entry), skip):
        rn, verdicts = rn_masks(n), {}
        for a in gm.gring.hom:
            z = orbit_min[a]
            if rn[z] == zero:
                skip["scalar-annihilates-N"] += 1
                continue
            if z not in verdicts:
                verdicts[z] = coprimary_via_characterization(SubobjectHandle(gm, rn[z])).value
            yield None if verdicts[z] else {"N": n, "a": a}


def _check_hom_image(entry: CorpusEntry, skip: Counter):
    homs = entry.gmodule.memo("hom_family", lambda: _hom_family(entry))
    kernels = {f: hom_kernel(f) for f in dict.fromkeys(f for _, f in homs)}
    for n in _coprimary(_nonzero_subs(entry), skip):
        images = {}
        for r, f in homs:
            if n <= kernels[f]:
                skip["N-inside-kernel"] += 1
                continue
            if f not in images:
                images[f] = hom_image(f, n)
            v = coprimary_via_characterization(images[f])
            yield None if v.value else {"N": n, "r": r, "witness": v.witness}


def _check_hom_preimage(entry: CorpusEntry, skip: Counter):
    homs = entry.gmodule.memo("hom_family", lambda: _hom_family(entry))
    ks = list(_coprimary(_nonzero_subs(entry), skip, "K-not-coprimary", len(homs)))
    whole = whole_subobject(entry.gmodule)
    preimages = {}  # per hom of an orbit: f⁻¹(K) for each K inside f(M), else None
    for r, f in homs:
        if f not in preimages:
            fm = hom_image(f, whole)
            preimages[f] = [hom_preimage(f, k) if k <= fm else None for k in ks]
        for k, pre in zip(ks, preimages[f]):
            if pre is None:
                skip["K-not-inside-image"] += 1
                continue
            v = coprimary_via_characterization(pre)
            yield None if v.value else {"K": k, "r": r, "witness": v.witness}


def _check_characterization_equiv(entry: CorpusEntry, skip: Counter):
    skip["zero-submodule"] += 1  # every lattice has one zero submodule
    for n in _nonzero_subs(entry):
        d = classify_submodule(n, "2a-coprimary-def")
        c = coprimary_via_characterization(n)
        yield None if d.value == c.value else {"N": n, "def": d.value, "char": c.value}


def _check_localization(entry: CorpusEntry, skip: Counter):
    for sname, s in sorted(entry.mulsets.items()):
        loc = localize_module(entry.gmodule, s)
        for n in _coprimary(_nonzero_subs(entry), skip):
            sn = localize_subobject(loc, n)
            if sn.is_zero:
                skip["localizes-to-zero"] += 1
                continue
            yield None if coprimary_via_characterization(sn).value else {"S": sname, "N": n}


def _ideal_pair_checker(key: str, reason: str, second):
    """Checker of "for N g-2-absorbing coprimary and IJN inside K, I_g or J_g
    lies in Grad(K :_R N), or I_g J_g annihilates N", I over the graded
    ideals.  ``second(gm, g, good, rows)`` lists the J as rows (J, members,
    J_g, the K whose radical holds J_g), given ``rows`` of the graded ideals;
    a violation record names J under ``key``, and the instances that hold
    are one count, yielded last.  Sets keep one element per unit orbit:
    (uy)IN = yIN, good is orbit-constant, Ann(N) an ideal."""
    def check(entry: CorpusEntry, skip: Counter):
        gm = entry.gmodule
        subs = entry.graded_submodules()
        full = (1 << len(subs)) - 1
        mul, orbit_min = gm.gring.ring.mul, gm.gring.orbit_min
        ideals, comps, misses, held = entry.graded_ideals(), {}, 0, 0
        for g, n, good, ann in _g_coprimary(entry, skip):
            if g not in comps:
                comps[g] = [(i, {orbit_min[x] for x in i.members}, {orbit_min[x] for x in ideal_component(i, g)})
                            for i in ideals]
            rows = [(i, im, ig, reduce(and_, (good[y] for y in ig), full)) for i, im, ig in comps[g]]
            js = second(gm, g, good, rows)
            for i, _, ig, ig_good in rows:
                in_handle = gm.memo(("IN", i.mask, n.mask), lambda: combine(i, n, "ideal_product"))
                ixn = _contains_bits(in_handle)  # ixn[y]: the K containing IyN
                for j, jm, jg, jg_good in js:
                    hyp = full  # becomes the K containing IJN
                    for y in jm:
                        hyp &= ixn[y]
                    misses += len(subs) - hyp.bit_count()
                    bits = hyp & ~(ig_good | jg_good)
                    if bits and not all(mul[a][b] in ann for a in ig for b in jg):
                        yield from ({"g": g, "N": n, "I": i, key: j, "K": subs[k]} for k in _bits(bits))
                        hyp &= ~bits  # each violation counts with its record
                    held += hyp.bit_count()
        yield held
        if misses:  # a reason counted 0 times would still be printed
            skip[reason] += misses
    return check


def _degree_singletons(gm, g, good, rows):
    """The J = {x} for x in R_g, as rows of ``_ideal_pair_checker``."""
    return [(x, (x,), (x,), good[x]) for x in sorted(gm.gring.grading.components[g])]


def _check_comultiplication(entry: CorpusEntry, skip: Counter):
    if not is_graded_comultiplication_module(entry.gmodule).value:
        skip["module-not-comultiplication"] += len(_nonzero_subs(entry))
        return
    for n in _coprimary(_nonzero_subs(entry), skip):
        ann = annihilator(n)
        if graded_radical(ann) != ann:
            skip["radical-annihilator-differs"] += 1
            continue
        yield None if classify_submodule(n, "strong-2a-second").value else {"N": n}


def _check_product_part1(entry: CorpusEntry, skip: Counter):
    factors = {product_submodule(n1, n2, entry.gmodule): (n1, n2) for n1, n2 in _factor_pairs(entry, skip)}
    for n in _coprimary(factors, skip):
        n1, n2 = factors[n]
        ok1 = classify_ideal(annihilator(n1), "primary").value
        ok2 = classify_ideal(annihilator(n2), "primary").value
        yield None if ok1 and ok2 else {"N1": n1, "N2": n2}


def _check_product_part2(entry: CorpusEntry, skip: Counter):
    for n1, n2 in _factor_pairs(entry, skip):
        if not classify_ideal(annihilator(n1), "primary").value:
            skip["Ann-N1-not-primary"] += 1
            continue
        if not classify_ideal(annihilator(n2), "primary").value:
            skip["Ann-N2-not-primary"] += 1
            continue
        n = product_submodule(n1, n2, entry.gmodule)
        yield None if classify_ideal(annihilator(n), "2-absorbing-primary").value else {"N1": n1, "N2": n2}


def _side_checker(side: int):
    """Checker of "a coprimary factor N_side times the zero submodule of the
    other factor has a 2-absorbing primary annihilator"."""
    def check(entry: CorpusEntry, skip: Counter):
        if entry.factors is None:
            return
        lattices = [enumerate_graded_subobjects(gm, entry.max_elements) for gm in entry.factors]
        skip["zero-factor"] += 1  # lattices[side][0] is the zero submodule
        for ni in _coprimary(lattices[side][1:], skip, "factor-not-coprimary"):
            n1, n2 = (ni, lattices[1][0]) if side == 0 else (lattices[0][0], ni)
            n = product_submodule(n1, n2, entry.gmodule)
            yield None if classify_ideal(annihilator(n), "2-absorbing-primary").value else {"factor": ni, "side": side}
    return check


_CHECKERS = {
    "closure-lemma": _counted(_check_closure_lemma),
    "colon-2AP": _counted(_check_colon_2ap),
    "ann-2AP": _counted(_ann_checker(lambda n: annihilator(n), "2-absorbing-primary")),
    "grad-ann-2A": _counted(_ann_checker(lambda n: graded_radical(annihilator(n)), "2-absorbing")),
    "scalar-multiple": _counted(_check_scalar_multiple),
    "hom-image": _counted(_check_hom_image),
    "hom-preimage": _counted(_check_hom_preimage),
    "characterization-equiv": _counted(_check_characterization_equiv),
    "localization": _counted(_check_localization),
    "ideal-lemma": _counted(_ideal_pair_checker("x", "hypothesis-IxN-not-in-K", _degree_singletons)),
    "two-ideal-theorem": _counted(
        _ideal_pair_checker("J", "hypothesis-IJN-not-in-K", lambda gm, g, good, rows: rows)),
    "comultiplication": _counted(_check_comultiplication),
    "product-part-1": _counted(_check_product_part1),
    "product-part-2": _counted(_check_product_part2),
    "product-part-3": _counted(_side_checker(0)),
    "product-part-4": _counted(_side_checker(1)),
}
PROPOSITION_IDS = tuple(_CHECKERS)


@contextmanager
def _in_entry(entry: CorpusEntry):
    """A ``TooLarge`` raised inside the block names the entry."""
    try:
        yield
    except TooLarge as exc:
        raise TooLarge(f"{entry.name}: {exc}") from exc


def verify_suite(prop_ids, corpus) -> list:
    """One report per id of ``prop_ids``, over the corpus, an iterable of
    entries: each entry is checked for every id before the next is taken, so
    a corpus read one entry at a time needs one entry in memory."""
    for pid in prop_ids:
        if pid not in _CHECKERS:
            raise UnknownProposition(f"unknown proposition {pid!r}")
    reports = [VerificationReport(pid) for pid in prop_ids]
    for entry in corpus:
        for report in reports:
            t0 = time.perf_counter()
            with _in_entry(entry):
                inst, bad, skip = _CHECKERS[report.prop_id](entry)
            report.instances += inst
            for record in bad:  # checkers record handles; only violations are labelled
                report.violations.append({"entry": entry.name, **_named(record, entry)})
            report.skipped.update(skip)
            report.wall_time += time.perf_counter() - t0
    return reports


def verify_proposition(prop_id: str, corpus) -> VerificationReport:
    """Check one proposition on every hypothesis instance over the corpus, an
    iterable of entries."""
    return verify_suite((prop_id,), corpus)[0]


# ---------------------------------------------------------------------------
# predicate names
# ---------------------------------------------------------------------------

_PREDICATES = IDEAL_PREDICATES + (
    "second", "strong-2a-second", "2a-coprimary", "2a-coprimary-def", "2a-coprimary-char", "comultiplication"
)


def _known_predicate(name: str) -> bool:
    return name in _PREDICATES or name.startswith("g-2a-coprimary:")


class _NoSuchDegree(PreconditionViolation):
    """``g-2a-coprimary:LABEL`` names no element of the entry's grading group."""


def classify_named(entry: CorpusEntry, target: SubobjectHandle, name: str) -> PredicateVerdict:
    """The verdict of predicate ``name`` on ``target``, a subobject of ``entry``:
    an ideal predicate, "comultiplication" of the entry's module, or a submodule
    predicate, where "2a-coprimary" is the definition and LABEL in
    "g-2a-coprimary:LABEL" is a degree written like an element token."""
    if name == "comultiplication":
        return is_graded_comultiplication_module(entry.gmodule)
    if name in IDEAL_PREDICATES:
        if target.kind != IDEAL:
            raise PreconditionViolation(f"predicate {name!r} needs an ideal target")
        return classify_ideal(target, name)
    if not _known_predicate(name):
        raise PreconditionViolation(f"unknown predicate {name!r}")
    if target.kind != SUBMODULE:
        raise PreconditionViolation(f"predicate {name!r} needs a submodule target")
    if name == "2a-coprimary-char":
        return coprimary_via_characterization(target)
    if name.startswith("g-2a-coprimary:"):
        label = name.split(":", 1)[1]
        g = next((g for g, lab in enumerate(entry.gmodule.group.labels) if element_token(lab) == label), None)
        if g is None:
            raise _NoSuchDegree(f"grading group has no element labeled {label!r}")
        return classify_submodule(target, "g-2a-coprimary", g=g)
    return classify_submodule(target, "2a-coprimary-def" if name == "2a-coprimary" else name)


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------

# parser and evaluator recurse once per parenthesis level: stay well inside the recursion limit
_MAX_NESTING = 100


def _parse_expr(text: str):
    """The expression as a tree of ("or" | "and", [two or more operands]),
    ("not", operand) and ("pred", name); a run of ``not`` folds to its parity."""
    # a degree label may be a tuple: g-2a-coprimary:(0,1) is one token
    tokens = re.findall(r"g-2a-coprimary:\([^\s()]*\)|\(|\)|[^\s()]+", text)
    pos = depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_nary(op, operand):
        operands = [operand()]
        while peek() == op:
            take()
            operands.append(operand())
        return operands[0] if len(operands) == 1 else (op, operands)

    def parse_or():
        return parse_nary("or", lambda: parse_nary("and", parse_not))

    def parse_not():
        negated = False
        while peek() == "not":
            take()
            negated = not negated
        node = parse_atom()
        return ("not", node) if negated else node

    def parse_atom():
        nonlocal depth
        tok = take()
        if tok is None:
            raise StructureParseError("unexpected end of expression")
        if tok == "(":
            depth += 1
            if depth > _MAX_NESTING:
                raise StructureParseError(f"parentheses nested deeper than {_MAX_NESTING}")
            node = parse_or()
            if take() != ")":
                raise StructureParseError("missing closing parenthesis")
            depth -= 1
            return node
        if tok in (")", "and", "or", "not"):
            raise StructureParseError(f"unexpected token {tok!r}")
        if tok in IDEAL_PREDICATES:  # the search ranges over submodules
            raise StructureParseError(f"predicate {tok!r} needs an ideal target")
        if _known_predicate(tok):
            return ("pred", tok)
        raise StructureParseError(f"unknown predicate {tok!r}")

    node = parse_or()
    if pos != len(tokens):
        raise StructureParseError(f"trailing tokens in expression: {tokens[pos:]}")
    return node


class _BudgetExhausted(Exception):
    pass


def search_counterexample(expr: str, corpus, budget: int = 10**6):
    """First submodule (canonical order) of the corpus, an iterable of
    entries, satisfying the expression, or None if there is none or finding
    it takes more than ``budget`` predicate evaluations.

    Returns a dict with the entry name, the member list, and the handle.
    """
    if budget < 1:
        raise PreconditionViolation(f"search budget must be at least 1, got {budget}")
    node = _parse_expr(expr)
    calls = 0

    def holds(node, n, entry) -> bool:
        nonlocal calls
        op = node[0]
        if op == "not":
            return not holds(node[1], n, entry)
        if op == "and":
            return all(holds(operand, n, entry) for operand in node[1])
        if op == "or":
            return any(holds(operand, n, entry) for operand in node[1])
        calls += 1
        if calls > budget:
            raise _BudgetExhausted
        try:
            return classify_named(entry, n, node[1]).value
        except _NoSuchDegree:  # an entry whose grading group has no such element satisfies nothing
            return False

    def first(entry):  # the entry's first nonzero submodule that satisfies the expression
        return next((n for n in _nonzero_subs(entry) if holds(node, n, entry)), None)

    try:
        for entry in corpus:
            with _in_entry(entry):
                n = first(entry)
            if n is not None:
                members = [element_token(n.carrier.labels[i]) for i in n.sorted_members]
                return {"entry": entry.name, "members": members, "handle": n}
    except _BudgetExhausted:
        pass
    return None
