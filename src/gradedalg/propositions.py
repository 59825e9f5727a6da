"""Instance verification of every stated result over a corpus, plus the
counterexample-search expression language.

A "pass" means no corpus counterexample was found: propositions are checked on
exhaustively enumerated hypothesis instances, never assumed.  Vacuous
candidates are tallied under ``skipped`` with a reason, never as passes.
"""
from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

from .classifiers import (
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
from .corpus import Corpus, CorpusEntry
from .errors import PreconditionViolation, StructureParseError, UnknownProposition
from .subobjects import (
    SubobjectHandle,
    annihilator,
    colon,
    colon_by_element,
    combine,
    enumerate_graded_subobjects,
    graded_radical,
    ideal_component,
    span,
    whole_subobject,
)

PROPOSITION_IDS = (
    "closure-lemma",
    "colon-2AP",
    "ann-2AP",
    "grad-ann-2A",
    "scalar-multiple",
    "hom-image",
    "hom-preimage",
    "characterization-equiv",
    "localization",
    "ideal-lemma",
    "two-ideal-theorem",
    "comultiplication",
    "product-part-1",
    "product-part-2",
    "product-part-3",
    "product-part-4",
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
        lines = [f"[{self.prop_id}] {self.status.upper()}"]
        lines.append(f"  instances: {self.instances}")
        reasons = ", ".join(f"{k}: {v}" for k, v in sorted(self.skipped.items()))
        lines.append(f"  skipped:   {sum(self.skipped.values())}" + (f" ({reasons})" if reasons else ""))
        for v in self.violations[:10]:
            lines.append(f"  violation: {v}")
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


def _named(value):
    """A violation record's value as reported: handles, also in tuples, become labels."""
    if isinstance(value, SubobjectHandle):
        return _members_label(value)
    if isinstance(value, tuple):
        return tuple(_named(v) for v in value)
    return value


def _nonzero_subs(entry: CorpusEntry):
    return [h for h in entry.graded_submodules() if not h.is_zero]


def _is_coprimary(n) -> bool:
    return coprimary_via_characterization(n).value


def _coprimary(subs, skip: Counter, reason: str = "N-not-coprimary", weight: int = 1):
    """Yield the 2-absorbing coprimary handles of ``subs``; every other handle
    is tallied ``weight`` times under ``reason``."""
    for n in subs:
        if _is_coprimary(n):
            yield n
        else:
            skip[reason] += weight


def _g_coprimary(entry: CorpusEntry, skip: Counter):
    """Yield ``(g, N, good, Ann(N))`` for every degree g and every non-zero
    graded g-2-absorbing coprimary N, where ``good`` is ``_good_bits`` of N
    over the graded submodules; every other (g, N) is tallied."""
    subs = entry.graded_submodules()
    for g in range(entry.gmodule.group.size):
        for n in _nonzero_subs(entry):
            if not classify_submodule(n, "g-2a-coprimary", g=g).value:
                skip["N-not-g-coprimary"] += 1
                continue
            yield g, n, _good_bits(n, subs), annihilator(n).members


def _hom_family(entry: CorpusEntry):
    """Canonical finite hom family as (scalar, hom) pairs: the identity
    (multiplication by one) plus every multiplication by a degree-e
    homogeneous scalar, deduplicated by mapping table; each hom keeps the
    first scalar that gives it, so ``multiplication_hom(gm, r)`` rebuilds it."""
    gm = entry.gmodule
    fams = [(gm.gring.ring.one, identity_hom(gm))]
    seen = {fams[0][1].mapping}
    for r in sorted(gm.gring.grading.components[gm.group.identity]):
        h = multiplication_hom(gm, r)
        if h.mapping not in seen:
            seen.add(h.mapping)
            fams.append((r, h))
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
# proposition checkers: each yields (instances, violations, skipped) per entry
# ---------------------------------------------------------------------------

def _check_closure_lemma(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    ideals = entry.graded_ideals()
    subs = entry.graded_submodules()
    gm = entry.gmodule

    def expect_graded(handle, what, detail):
        nonlocal inst
        inst += 1
        if not handle.graded:
            bad.append({"op": what, "detail": detail})

    for i in ideals:
        for j in ideals:
            expect_graded(combine(i, j, "sum"), "ideal-sum", (i, j))
            expect_graded(combine(i, j, "intersect"), "ideal-intersect", (i, j))
    for n in subs:
        for k in subs:
            expect_graded(combine(n, k, "sum"), "submodule-sum", (n, k))
            expect_graded(combine(n, k, "intersect"), "submodule-intersect", (n, k))
    for x in gm.hom:
        expect_graded(span({x}, gm), "cyclic-span", x)
    for i in ideals:
        for n in subs:
            expect_graded(combine(i, n, "ideal_product"), "ideal-product", (i, n))
    for r in gm.gring.hom:
        for n in subs:
            expect_graded(combine(r, n, "scalar_product"), "scalar-multiple", r)
    whole = whole_subobject(gm)
    for n in subs:
        expect_graded(colon(n, whole), "colon-into-module", n)
        expect_graded(annihilator(n), "annihilator", n)
    for x in gm.gring.hom:
        for n in subs:
            expect_graded(colon_by_element(n, x), "colon-by-element", x)
    return inst, bad, skip


def _check_colon_2ap(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    subs = entry.graded_submodules()
    for n in _coprimary(_nonzero_subs(entry), skip, weight=len(subs)):
        for k in subs:
            if n.members <= k.members:
                skip["N-contained-in-K"] += 1
                continue
            p = colon(k, n)  # proper: 1*N = N is not inside K
            inst += 1
            v = classify_ideal(p, "2-absorbing-primary")
            if not v.value:
                bad.append({"N": n, "K": k, "witness": v.witness})
    return inst, bad, skip


def _ann_checker(ideal_of, predicate: str):
    """Checker of "N coprimary implies ``ideal_of(N)`` satisfies ``predicate``"."""
    def check(entry: CorpusEntry):
        inst, skip, bad = 0, Counter(), []
        for n in _coprimary(_nonzero_subs(entry), skip):
            inst += 1
            v = classify_ideal(ideal_of(n), predicate)
            if not v.value:
                bad.append({"N": n, "witness": v.witness})
        return inst, bad, skip
    return check


def _check_scalar_multiple(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    for n in _coprimary(_nonzero_subs(entry), skip):
        ann = annihilator(n).members
        for a in entry.gmodule.gring.hom:
            if a in ann:
                skip["scalar-annihilates-N"] += 1
                continue
            an = combine(a, n, "scalar_product")
            inst += 1
            if not _is_coprimary(an):
                bad.append({"N": n, "a": a})
    return inst, bad, skip


def _check_hom_image(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    homs = entry.gmodule.memo("hom_family", lambda: _hom_family(entry))
    for n in _coprimary(_nonzero_subs(entry), skip):
        for r, f in homs:
            ker = entry.gmodule.memo(("kernel", f.mapping), lambda: hom_kernel(f))
            if n.members <= ker.members:
                skip["N-inside-kernel"] += 1
                continue
            inst += 1
            v = coprimary_via_characterization(hom_image(f, n))
            if not v.value:
                bad.append({"N": n, "r": r, "witness": v.witness})
    return inst, bad, skip


def _check_hom_preimage(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    homs = entry.gmodule.memo("hom_family", lambda: _hom_family(entry))
    ks = list(_coprimary(_nonzero_subs(entry), skip, "K-not-coprimary", len(homs)))
    whole = whole_subobject(entry.gmodule)
    for r, f in homs:
        fm = hom_image(f, whole)
        for k in ks:
            if not (k.members <= fm.members):
                skip["K-not-inside-image"] += 1
                continue
            inst += 1
            v = coprimary_via_characterization(hom_preimage(f, k))
            if not v.value:
                bad.append({"K": k, "r": r, "witness": v.witness})
    return inst, bad, skip


def _check_characterization_equiv(entry: CorpusEntry):
    inst, skip, bad = 0, Counter({"zero-submodule": 1}), []  # every lattice has one zero submodule
    for n in _nonzero_subs(entry):
        inst += 1
        d = classify_submodule(n, "2a-coprimary-def")
        c = coprimary_via_characterization(n)
        if d.value != c.value:
            bad.append({"N": n, "def": d.value, "char": c.value})
    return inst, bad, skip


def _check_localization(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    for sname, s in sorted(entry.mulsets.items()):
        loc = entry.gmodule.memo(("loc", s), lambda: localize_module(entry.gmodule, s))
        for n in _coprimary(_nonzero_subs(entry), skip):
            sn = localize_subobject(loc, n)
            if sn.is_zero:
                skip["localizes-to-zero"] += 1
                continue
            inst += 1
            if not _is_coprimary(sn):
                bad.append({"S": sname, "N": n})
    return inst, bad, skip


def _bit_indices(bits):
    """Indices of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _ideal_pair_checker(key: str, reason: str, second):
    """Checker of "for N g-2-absorbing coprimary and IJN inside K, I_g or J_g
    lies in Grad(K :_R N), or I_g J_g annihilates N", I over the graded
    ideals.  ``second(gm, g, good, rows)`` lists the J as rows (J, members,
    J_g, the K whose radical holds J_g), given ``rows`` of the graded ideals;
    a violation record names J under ``key``."""
    def check(entry: CorpusEntry):
        inst, skip, bad = 0, Counter(), []
        gm = entry.gmodule
        ideals = entry.graded_ideals()
        subs = entry.graded_submodules()
        full = (1 << len(subs)) - 1
        mul = gm.gring.ring.mul
        misses = 0
        for g, n, good, ann in _g_coprimary(entry, skip):
            comps = [ideal_component(i, g) for i in ideals]
            rows = [(i, i.members, ig, reduce(and_, (good[y] for y in ig), full)) for i, ig in zip(ideals, comps)]
            js = second(gm, g, good, rows)
            for i, _, ig, ig_good in rows:
                in_handle = gm.memo(("IN", i.members, n.members), lambda: combine(i, n, "ideal_product"))
                ixn = _contains_bits(in_handle, subs)  # ixn[y]: the K containing IyN
                for j, jm, jg, jg_good in js:
                    hyp = full  # becomes the K containing IJN
                    for y in jm:
                        hyp &= ixn[y]
                    found = hyp.bit_count()
                    inst += found
                    misses += len(subs) - found
                    bits = hyp & ~(ig_good | jg_good)
                    if bits and not all(mul[a][b] in ann for a in ig for b in jg):
                        bad.extend({"g": g, "N": n, "I": i, key: j, "K": subs[k]} for k in _bit_indices(bits))
        if misses:  # a reason counted 0 times would still be printed
            skip[reason] += misses
        return inst, bad, skip
    return check


def _degree_singletons(gm, g, good, rows):
    """The J = {x} for x in R_g, as rows of ``_ideal_pair_checker``."""
    return [(x, (x,), (x,), good[x]) for x in sorted(gm.gring.grading.components[g])]


def _check_comultiplication(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    if not is_graded_comultiplication_module(entry.gmodule).value:
        skip["module-not-comultiplication"] += len(_nonzero_subs(entry))
        return inst, bad, skip
    for n in _coprimary(_nonzero_subs(entry), skip):
        ann = annihilator(n)
        if graded_radical(ann).members != ann.members:
            skip["radical-annihilator-differs"] += 1
            continue
        inst += 1
        if not classify_submodule(n, "strong-2a-second").value:
            bad.append({"N": n})
    return inst, bad, skip


def _check_product_part1(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    factors = {product_submodule(n1, n2, entry.gmodule): (n1, n2) for n1, n2 in _factor_pairs(entry, skip)}
    for n in _coprimary(factors, skip):
        n1, n2 = factors[n]
        inst += 1
        ok1 = classify_ideal(annihilator(n1), "primary").value
        ok2 = classify_ideal(annihilator(n2), "primary").value
        if not (ok1 and ok2):
            bad.append({"N1": n1, "N2": n2})
    return inst, bad, skip


def _check_product_part2(entry: CorpusEntry):
    inst, skip, bad = 0, Counter(), []
    for n1, n2 in _factor_pairs(entry, skip):
        if not classify_ideal(annihilator(n1), "primary").value:
            skip["Ann-N1-not-primary"] += 1
            continue
        if not classify_ideal(annihilator(n2), "primary").value:
            skip["Ann-N2-not-primary"] += 1
            continue
        n = product_submodule(n1, n2, entry.gmodule)
        inst += 1
        if not classify_ideal(annihilator(n), "2-absorbing-primary").value:
            bad.append({"N1": n1, "N2": n2})
    return inst, bad, skip


def _side_checker(side: int):
    """Checker of "a coprimary factor N_side times the zero submodule of the
    other factor has a 2-absorbing primary annihilator"."""
    def check(entry: CorpusEntry):
        inst, skip, bad = 0, Counter(), []
        if entry.factors is None:
            return inst, bad, skip
        lattices = [enumerate_graded_subobjects(gm, entry.max_elements) for gm in entry.factors]
        skip["zero-factor"] += 1  # lattices[side][0] is the zero submodule
        for ni in _coprimary(lattices[side][1:], skip, "factor-not-coprimary"):
            n1, n2 = (ni, lattices[1][0]) if side == 0 else (lattices[0][0], ni)
            n = product_submodule(n1, n2, entry.gmodule)
            inst += 1
            if not classify_ideal(annihilator(n), "2-absorbing-primary").value:
                bad.append({"factor": ni, "side": side})
        return inst, bad, skip
    return check


_CHECKERS = {
    "closure-lemma": _check_closure_lemma,
    "colon-2AP": _check_colon_2ap,
    "ann-2AP": _ann_checker(lambda n: annihilator(n), "2-absorbing-primary"),
    "grad-ann-2A": _ann_checker(lambda n: graded_radical(annihilator(n)), "2-absorbing"),
    "scalar-multiple": _check_scalar_multiple,
    "hom-image": _check_hom_image,
    "hom-preimage": _check_hom_preimage,
    "characterization-equiv": _check_characterization_equiv,
    "localization": _check_localization,
    "ideal-lemma": _ideal_pair_checker("x", "hypothesis-IxN-not-in-K", _degree_singletons),
    "two-ideal-theorem": _ideal_pair_checker("J", "hypothesis-IJN-not-in-K", lambda gm, g, good, rows: rows),
    "comultiplication": _check_comultiplication,
    "product-part-1": _check_product_part1,
    "product-part-2": _check_product_part2,
    "product-part-3": _side_checker(0),
    "product-part-4": _side_checker(1),
}


def verify_proposition(prop_id: str, corpus: Corpus) -> VerificationReport:
    """Check one proposition on every hypothesis instance over the corpus."""
    if prop_id not in _CHECKERS:
        raise UnknownProposition(f"unknown proposition {prop_id!r}")
    t0 = time.perf_counter()
    report = VerificationReport(prop_id)
    for entry in corpus:
        inst, bad, skip = _CHECKERS[prop_id](entry)
        report.instances += inst
        for record in bad:  # checkers record handles; only violations are labelled
            report.violations.append({"entry": entry.name, **{k: _named(v) for k, v in record.items()}})
        report.skipped.update(skip)
    report.wall_time = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------

_SEARCH_PREDICATES = ("second", "strong-2a-second", "2a-coprimary", "comultiplication")


def _parse_expr(text: str):
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() == "or":
            take()
            node = ("or", node, parse_and())
        return node

    def parse_and():
        node = parse_not()
        while peek() == "and":
            take()
            node = ("and", node, parse_not())
        return node

    def parse_not():
        if peek() == "not":
            take()
            return ("not", parse_not())
        return parse_atom()

    def parse_atom():
        tok = take()
        if tok is None:
            raise StructureParseError("unexpected end of expression")
        if tok == "(":
            node = parse_or()
            if take() != ")":
                raise StructureParseError("missing closing parenthesis")
            return node
        if tok in (")", "and", "or", "not"):
            raise StructureParseError(f"unexpected token {tok!r}")
        if tok in _SEARCH_PREDICATES or tok.startswith("g-2a-coprimary:"):
            return ("pred", tok)
        raise StructureParseError(f"unknown predicate {tok!r}")

    node = parse_or()
    if pos != len(tokens):
        raise StructureParseError(f"trailing tokens in expression: {tokens[pos:]}")
    return node


def g_coprimary_degree(entry: CorpusEntry, name: str) -> int | None:
    """The degree g that ``g-2a-coprimary:LABEL`` names on ``entry``: the index
    of the grading-group element whose label prints as LABEL, or None."""
    label = name.split(":", 1)[1]
    return next((g for g, lab in enumerate(entry.gmodule.group.labels) if str(lab) == label), None)


class _BudgetExhausted(Exception):
    pass


def search_counterexample(expr: str, corpus: Corpus, budget: int = 10**6):
    """First corpus submodule (canonical order) satisfying the expression,
    or None if there is none or finding it takes more than ``budget``
    predicate evaluations.

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
            return holds(node[1], n, entry) and holds(node[2], n, entry)
        if op == "or":
            return holds(node[1], n, entry) or holds(node[2], n, entry)
        calls += 1
        if calls > budget:
            raise _BudgetExhausted
        name = node[1]
        if name == "2a-coprimary":
            return _is_coprimary(n)
        if name == "comultiplication":
            return is_graded_comultiplication_module(entry.gmodule).value
        if name.startswith("g-2a-coprimary:"):
            g = g_coprimary_degree(entry, name)
            # an entry whose grading group has no such element satisfies nothing
            return g is not None and classify_submodule(n, "g-2a-coprimary", g=g).value
        return classify_submodule(n, name).value  # second, strong-2a-second

    try:
        for entry in corpus:
            for n in _nonzero_subs(entry):
                if holds(node, n, entry):
                    return {
                        "entry": entry.name,
                        "members": [str(n.carrier.labels[i]) for i in n.sorted_members],
                        "handle": n,
                    }
    except _BudgetExhausted:
        return None
    return None
