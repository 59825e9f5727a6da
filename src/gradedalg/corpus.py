"""The standard corpus of graded structures every proposition is checked on.

It is the structure files in ``standard/``, read in file-name order by the
same parser as ``verify --corpus``.  A file's number prefix only orders the
corpus: ``05-zmod12.gstruct`` is the entry ``zmod12``, and its leading comment
is the entry's note.  Infinite scalar rings from the literature are modeled by
integers mod the module exponent, as the torsion180 note records.
"""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .core import DEFAULT_MAX_ELEMENTS
from .structfile import iter_structure_dir

_STANDARD = Path(__file__).with_name("standard")


def iter_standard_corpus(max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The standard entries in order, each parsed only when it is reached."""
    for entry in iter_structure_dir(_STANDARD, max_elements):
        entry.name = Path(entry.name).stem.split("-", 1)[1]
        yield entry


def build_standard_corpus(max_elements: int = DEFAULT_MAX_ELEMENTS) -> tuple:
    """Deterministic standard corpus, a tuple of entries; one per cap, however
    the cap is passed, so repeated runs share memoized work."""
    return _standard_corpus(max_elements)


@lru_cache(maxsize=4)
def _standard_corpus(max_elements: int) -> tuple:
    return tuple(iter_standard_corpus(max_elements))
