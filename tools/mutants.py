"""A fixed list of one-line mutants of ``src/gradedalg`` that tier-1 must kill.

Usage (from the root of a checkout; stdlib only):

    python3 tools/mutants.py [ID ...]

Each mutant replaces one whole line of one module with another.  Every old
line must occur exactly once in its module, so a list that has gone stale is
an error (exit 2) before anything runs.  Each mutant then runs in its own
temporary copy of the checkout, never in the checkout itself, under
``pytest -x -q`` with criterion 5 deselected (it fails by design).  A mutant
is killed when pytest fails; a survivor costs a full tier-1 run.

One row is printed per mutant: its id, "killed" with the first failing test,
or "survived", and whether that is what the list expects.  The last line is
one JSON object.  The exit code is 0 when every mutant met its expectation.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "gradedalg"
PYTEST = ("-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_5_proposition_suite")
TIMEOUT_S = 1200
KILL, EQUIVALENT, SURVIVOR = "kill", "equivalent", "expected-survivor"


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # a module of src/gradedalg
    old: str  # one whole line, indentation included
    new: str
    expect: str  # KILL, EQUIVALENT or SURVIVOR
    reason: str  # the fault; for the other two, why tier-1 cannot see it


MUTANTS = (
    Mutant("escx-for-escy", "classifiers.py",
           "            bits = hyp[row[y]] & keep & ~escy[y]",
           "            bits = hyp[row[y]] & keep & ~escx[y]",
           KILL, "_first_violation reads escx[y] for escy[y], so primary escapes through P, not Grad(P)"),
    Mutant("hypothesis-keeps-annihilators", "classifiers.py",
           "    return tuple(0 if w == zero_mask else bits for w, bits in zip(rn_masks(n), contains))",
           "    return tuple(bits for w, bits in zip(rn_masks(n), contains))",
           KILL, "_hypothesis keeps the rows of the r that annihilate N"),
    Mutant("power-or-no-powers", "classifiers.py",
           "    return per_orbit(gring, lambda z: reduce(or_, map(bits.__getitem__, gring.ring.power_sets[z])))",
           "    return per_orbit(gring, lambda z: bits[z])",
           KILL, "_power_or reads no powers, so the radical of a colon is the colon"),
    Mutant("colon-by-overlap", "subobjects.py",
           "        if w & km == w:",
           "        if w & km:",
           KILL, "colon keeps r when rN meets K, not when rN lies in K"),
    Mutant("ideal-pair-escapes-on-i", "propositions.py",
           "                    bits = hyp & ~(ig_good | jg_good)",
           "                    bits = hyp & ~ig_good",
           KILL, "the ideal-pair checker lets only I_g escape, not J_g"),
    Mutant("radical-identity-only", "subobjects.py",
           "    for comp in gring.grading.components:",
           "    for comp in gring.grading.components[gring.group.identity:gring.group.identity + 1]:",
           KILL, "graded_radical reads the identity component only"),
    Mutant("walk-drops-last-generator", "subobjects.py",
           "                    lambda: _enumerate_by_generators(ctx, [x for x in ctx.hom if ctx.orbit_min[x] == x]))",
           "                    lambda: _enumerate_by_generators(ctx, [x for x in ctx.hom if ctx.orbit_min[x] == x][:-1]))",
           KILL, "the lattice walk drops its last generator"),
    Mutant("hom-family-drops-first-scalar", "propositions.py",
           "    for r in sorted(gm.gring.grading.components[gm.group.identity]):",
           "    for r in sorted(gm.gring.grading.components[gm.group.identity])[1:]:",
           KILL, "the hom family drops its first degree-e scalar"),
    Mutant("comultiplication-no-radical-guard", "propositions.py",
           "        if graded_radical(ann) != ann:",
           "        if False:",
           KILL, "the comultiplication checker drops its Grad(Ann(N)) = Ann(N) guard"),
    Mutant("strong-recheck-through-radical", "classifiers.py",
           "    return _recheck_violation(n, x, y, k, lambda kn: kn.members)",
           "    return _recheck_violation(n, x, y, k, lambda kn: graded_radical(kn).members)",
           KILL, "the strong re-check escapes through Grad((K :_R N)), not (K :_R N)"),
    Mutant("ideal-memo-without-predicate", "classifiers.py",
           '    return p.ctx.memo(("ideal_verdict", predicate, p.mask), lambda: _ideal_verdict(p, predicate))',
           '    return p.ctx.memo(("ideal_verdict", p.mask), lambda: _ideal_verdict(p, predicate))',
           KILL, "the ideal-verdict memo key leaves out the predicate"),
    Mutant("recheck-without-annihilator-test", "classifiers.py",
           "    if xy_n == {gm.module.zero}:",
           "    if False:",
           KILL, "_recheck_violation accepts an xy that annihilates N"),
    Mutant("recheck-always-true", "classifiers.py",
           "    and neither x nor y is in ``escape((K :_R N))``.\"\"\"",
           "    and neither x nor y is in ``escape((K :_R N))``.\"\"\"; return True",
           KILL, "_recheck_violation returns True at once"),
    Mutant("sum-join-by-union", "subobjects.py",
           "    joins = up[a] & up[b]",
           "    joins = up[a] | up[b]",
           KILL, "sum_is_graded counts against the least element holding A or B, not A and B"),
    Mutant("graded-mask-ge", "subobjects.py",
           "    return mask.bit_count() == prod((mask & c).bit_count() for c in ctx.component_masks)",
           "    return mask.bit_count() >= prod((mask & c).bit_count() for c in ctx.component_masks)",
           KILL, "graded_mask, and so every handle's graded, calls every subgroup graded: |S| >= prod_g |S & M_g| "
           "holds for every subgroup"),
    Mutant("colon-transpose-assigns", "propositions.py",
           "                colons[k] |= members",
           "                colons[k] = members",
           KILL, "colon-2AP keeps only the last unit orbit whose row has bit K, not their union"),
    Mutant("closure-scalar-family-at-zero-orbit", "propositions.py",
           "        return ((r, ok) for r in gring.hom for ok in verdicts[orbit_min[r]])",
           "        return ((r, ok) for r in gring.hom for ok in verdicts[orbit_min[0]])",
           KILL, "closure-lemma reads every scalar's family at the orbit of 0; every verdict of the corpus is "
           "True, so only the test that forces odd-sized subgroups non-graded sees it"),
    Mutant("scalar-multiple-module-orbits", "propositions.py",
           "    zero, orbit_min = 1 << gm.module.zero, gm.gring.orbit_min",
           "    zero, orbit_min = 1 << gm.module.zero, gm.orbit_min",
           KILL, "scalar-multiple reads each scalar at an orbit of the module's orbit map, not the ring's"),
    Mutant("hom-family-own-hom", "propositions.py",
           "            fams.append((r, first[orbit_min[r]]))",
           "            fams.append((r, multiplication_hom(gm, r)))",
           KILL, "_hom_family pairs each r with its own ×r, not its orbit's first hom; the verdicts are the same"),
    Mutant("g-coprimary-at-e", "propositions.py",
           '            if not classify_submodule(n, "g-2a-coprimary", g=g).value:',
           '            if not classify_submodule(n, "g-2a-coprimary", g=entry.gmodule.group.identity).value:',
           KILL, "_g_coprimary classifies every degree g at g = e; no standard entry has a g-2a-coprimary "
           "verdict that differs between degrees, so only the hand-built (Z/12)[x]/(x^2) graded by C2 sees it"),
    Mutant("graded-le", "subobjects.py",
           "    return mask.bit_count() == prod((mask & c).bit_count() for c in ctx.component_masks)",
           "    return mask.bit_count() <= prod((mask & c).bit_count() for c in ctx.component_masks)",
           EQUIVALENT, "equivalent: the S & M_g sum directly inside S, so prod_g |S & M_g| <= |S| always holds"),
    Mutant("char-without-zero-k", "classifiers.py",
           "    contains = containing(zmask, sorted(set(zmask)))",
           "    contains = containing(zmask, sorted(set(zmask) - {1 << n.ctx.module.zero}))",
           EQUIVALENT, "equivalent: only the r that annihilate N carry N into K = 0, and _hypothesis zeroes their rows"),
    Mutant("preimage-mask-by-position", "subobjects.py",
           "    return _mask(i for i, v in enumerate(row) if mask >> v & 1)",
           "    return _mask(i for i, v in enumerate(row) if mask >> i & 1)",
           KILL, "preimage_mask tests the position i, not the value row[i], so (K :_M x) and f⁻¹(K) are K"),
    Mutant("per-orbit-one-orbit", "subobjects.py",
           "    return tuple(map(row.__getitem__, gring.orbit_min))",
           "    return tuple(row[gring.orbit_min[0]] for _ in gring.orbit_min)",
           KILL, "per_orbit gives every ring element the row of 0's orbit, for rN, the product bits and the "
           "power ORs alike"),
    Mutant("counted-block-as-one", "propositions.py",
           "                instances += record",
           "                instances += 1",
           KILL, "_counted counts a block of instances that hold as one instance, so ideal-lemma and "
           "two-ideal-theorem lose nearly all their instances"),
    Mutant("coset-sum-reads-a-set", "core.py",
           "    cols, out = np.fromiter(a, np.intp, len(a)), set()",
           "    cols, out = np.fromiter(set(a), np.intp, len(a)), set()",
           KILL, "coset_sum reads A through a set, so a sized iterable with repeats is shorter than its count; "
           "no caller passes repeats, so only the coset_sum oracle sees it"),
    Mutant("hom-check-additivity-only", "core.py",
           "    linear = _first_mismatch(f[source.action_array], target.action_array[:, f])",
           "    linear = None",
           KILL, "first_hom_failure, and so make_hom, checks additivity only; every map the package builds "
           "is linear, so only the witness oracle's F2-linear map on F2[C9] that does not commute with g sees it"),
    Mutant("denominators-first-row-only", "constructions.py",
           "    escape = first_escape(ring.mul_array, [s], [s], ((0,),))",
           "    escape = first_escape(ring.mul_array, [s[:1]], [s], ((0,),))",
           KILL, "_check_denominators checks the products of the least denominator only"),
    Mutant("containing-by-equality", "subobjects.py",
           "    row = {w: sum(1 << i for i, k in enumerate(ks) if w & k == w) for w in set(ws)}",
           "    row = {w: sum(1 << i for i, k in enumerate(ks) if w == k) for w in set(ws)}",
           KILL, "containing tests w == k for w inside k, so each lattice element is contained only in itself"),
    Mutant("directsum-action-in-uint8", "core.py",
           "        action = np.zeros((n, 1), np.min_scalar_type(math.prod(ms)))",
           "        action = np.zeros((n, 1), np.uint8)",
           KILL, "the direct-sum action is built in uint8 whatever its size, so above 256 elements it wraps"),
    Mutant("localization-last-pair", "core.py",
           '    order = np.argsort(flat, kind="stable")  # equal keys stay in C order; np.unique would import numpy.ma',
           '    order = np.argsort(flat, kind="stable")[::-1]  # equal keys stay in C order; np.unique would import numpy.ma',
           KILL, "fraction_tables numbers each class of fractions by its last pair, not its first; the "
           "localized structures are the same up to renumbering, so only the localization oracle sees it"),
    Mutant("localization-add-swaps-denominators", "core.py",
           "    add = classes[x.add_array[act[d, a[:, None]], act[d[:, None], a]], pos[mul[d[:, None], d]]]",
           "    add = classes[x.add_array[act[d[:, None], a[:, None]], act[d, a]], pos[mul[d[:, None], d]]]",
           KILL, "fraction_tables adds a/s + b/t as (sa + tb)/st: s_i and t_k swap in the numerator"),
    Mutant("entry-never-released", "cli.py",
           "        entry.release()",
           "        entry.release",
           KILL, "verify never releases the entries it streams, so each memo lives until the cyclic collector "
           "runs; the verdicts are the same, so only the memory-scaling test sees it.  The method is still "
           "named, so the dead-member check does not see it either"),
    Mutant("self-grading-any-module", "grading.py",
           "    if not is_ring_on_itself(module, gring.ring):",
           "    if False:",
           KILL, "module_same_as_ring grades any module by the ring's components; every module the package "
           "grades so is the ring on itself, so only the refusal test sees it"),
)


def stale(mutants) -> list:
    """The mutants whose old line does not occur exactly once in their module."""
    out = []
    for m in mutants:
        lines = (ROOT / PACKAGE / m.file).read_text(encoding="utf-8").splitlines()
        if lines.count(m.old) != 1:
            out.append((m.id, m.file, lines.count(m.old)))
    return out


def run(m: Mutant) -> tuple:
    """Run tier-1 on a temporary copy with ``m`` applied: (killed, detail, seconds)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{m.id}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        path = copy / PACKAGE / m.file
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        i = [line.rstrip("\n") for line in lines].index(m.old)
        lines[i] = m.new + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return False, "", seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return True, first.group(1) if first else f"pytest exit {proc.returncode}", seconds


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = sorted(set(argv) - {m.id for m in MUTANTS})
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = stale(chosen)
    if bad:
        for mid, file, count in bad:
            print(f"{mid}: its old line occurs {count} times in {file}, not once", file=sys.stderr)
        return 2
    results = []
    for m in chosen:
        killed, detail, seconds = run(m)
        met = killed == (m.expect == KILL)
        results.append({"id": m.id, "expect": m.expect, "killed": killed, "first_failure": detail or None,
                        "seconds": round(seconds, 1), "met": met})
        status = f"killed by {detail}" if killed else "survived"
        print(f"{m.id:36} {m.expect:17} {'ok ' if met else 'UNEXPECTED'} {seconds:6.1f} s  {status}", flush=True)
    summary = {
        "mutants": len(results),
        "killed": sum(r["killed"] for r in results),
        "unexpected": [r["id"] for r in results if not r["met"]],
        "results": results,
    }
    print(json.dumps(summary))
    return 0 if not summary["unexpected"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
