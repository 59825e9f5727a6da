"""The standard corpus of graded structures every proposition is checked on.

Entries are deterministic and versioned by construction order; infinite scalar
rings from the literature are modeled by integers mod the module exponent,
recorded in the entry's provenance note.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .core import DEFAULT_MAX_ELEMENTS, first_invalid, make_group, make_module, make_ring
from .errors import GradedAlgError
from .grading import GradedModule, GradedRing, groupring_natural, module_same_as_ring, module_trivial, ring_trivial
from .subobjects import enumerate_graded_subobjects, span
from .constructions import product_graded_module, product_graded_ring


@dataclass(eq=False)
class CorpusEntry:
    name: str
    gring: GradedRing
    gmodule: GradedModule
    note: str = ""
    named: dict = field(default_factory=dict)  # name -> SubobjectHandle
    mulsets: dict = field(default_factory=dict)  # name -> tuple of denominator indices
    factors: tuple | None = None  # (gmodule1, gmodule2) for product entries
    max_elements: int = DEFAULT_MAX_ELEMENTS

    def graded_submodules(self):
        return enumerate_graded_subobjects(self.gmodule, self.max_elements)

    def graded_ideals(self):
        return enumerate_graded_subobjects(self.gring, self.max_elements)


@dataclass
class Corpus:
    entries: list

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _validated(entry: CorpusEntry) -> CorpusEntry:
    report = first_invalid(entry.gring.grading.group, entry.gring.ring, entry.gmodule.module)
    if report is not None:
        raise GradedAlgError(f"corpus entry {entry.name}: {report.failures}")
    return entry


def _zmod_self_entry(n: int, note: str = "", mulsets=None) -> CorpusEntry:
    ring = make_ring(("zmod", n))
    gring = ring_trivial(ring)
    gmodule = module_same_as_ring(make_module(("self",), ring), gring)
    return _validated(
        CorpusEntry(f"zmod{n}", gring, gmodule, note=note, mulsets=dict(mulsets or {}))
    )


def _groupring_self_entry(p: int) -> CorpusEntry:
    group = make_group(("cyclic", 2))
    ring = make_ring(("groupring", p, group))
    gring = groupring_natural(ring, group)
    gmodule = module_same_as_ring(make_module(("self",), ring), gring)
    return _validated(
        CorpusEntry(f"groupring{p}-c2", gring, gmodule, note="natural grading by C2")
    )


def _torsion180_entry() -> CorpusEntry:
    ring = make_ring(("zmod", 180))
    gring = ring_trivial(ring)
    module = make_module(("directsum", 4, 9, 5), ring)
    gmodule = module_trivial(module, gring)
    entry = CorpusEntry(
        "torsion180",
        gring,
        gmodule,
        note="finite model, exponent 180 (integer scalars act through residues mod 180)",
    )
    gens = {module.index[(1, 0, 0)], module.index[(0, 1, 0)]}
    entry.named["N"] = span(gens, gmodule)
    # closure of {5} under multiplication mod 180, plus 1
    s = {1}
    cur = 5
    while cur not in s:
        s.add(cur)
        cur = (cur * 5) % 180
    entry.mulsets["S5"] = tuple(sorted(s))
    return _validated(entry)


def _plane_entry() -> CorpusEntry:
    ring = make_ring(("zmod", 2))
    gring = ring_trivial(ring)
    module = make_module(("directsum", 2, 2), ring)
    gmodule = module_trivial(module, gring)
    return _validated(
        CorpusEntry("z2-plane", gring, gmodule, note="rank-2 free module over a field")
    )


def _product_entry(n1: int, n2: int) -> CorpusEntry:
    r1 = make_ring(("zmod", n1))
    r2 = make_ring(("zmod", n2))
    group = make_group("trivial")
    gr1 = ring_trivial(r1, group)
    gr2 = ring_trivial(r2, group)
    gring = product_graded_ring(gr1, gr2)
    gm1 = module_same_as_ring(make_module(("self",), r1), gr1)
    gm2 = module_same_as_ring(make_module(("self",), r2), gr2)
    gmodule = product_graded_module(gm1, gm2, gring)
    return _validated(
        CorpusEntry(
            f"product-z{n1}xz{n2}",
            gring,
            gmodule,
            note="product ring with product module",
            factors=(gm1, gm2),
        )
    )


def build_standard_corpus(max_elements: int = DEFAULT_MAX_ELEMENTS) -> Corpus:
    """Deterministic standard corpus; one per cap, however the cap is passed,
    so repeated runs share memoized work."""
    return _standard_corpus(max_elements)


@lru_cache(maxsize=4)
def _standard_corpus(max_elements: int) -> Corpus:
    entries = [
        _zmod_self_entry(4),
        _zmod_self_entry(6),
        _zmod_self_entry(8),
        _zmod_self_entry(9),
        _zmod_self_entry(12, note="carries localization set S={1,3,9}", mulsets={"S": (1, 3, 9)}),
        _zmod_self_entry(36),
        _groupring_self_entry(2),
        _groupring_self_entry(3),
        _torsion180_entry(),
        _plane_entry(),
        _product_entry(2, 3),
        _product_entry(4, 9),
    ]
    for e in entries:
        e.max_elements = max_elements
        if e.gmodule.module.size > max_elements or e.gring.ring.size > max_elements:
            raise GradedAlgError(f"corpus entry {e.name} exceeds the size cap {max_elements}")
    return Corpus(entries)
