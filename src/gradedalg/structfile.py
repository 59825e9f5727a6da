"""Line-oriented structure description files.

Grammar (one directive per line, ``#`` starts a comment):

    group trivial | cyclic N | product N1 N2
    ring zmod N | groupring P | product N1 N2
    grading trivial | natural
    module self | directsum M1 M2 ...
    submodule NAME gens TOK ...
    ideal NAME gens TOK ...
    mulset NAME TOK ...

Each shape takes exactly the integer arguments shown; an extra or missing
argument is an error.  Element tokens are integers or parenthesized integer
tuples like ``(1,0,0)``.  Each of ``group``, ``ring``, ``grading`` and
``module`` may appear once, and each NAME once among the submodules and
ideals and once among the mulsets; ``M`` names the whole module, not a
submodule or ideal.  ``groupring`` takes its grading group from the
``group`` directive; ``natural`` grading means by-degree for group rings and
is an alias of ``trivial`` otherwise.  ``ring product N1 N2`` is Z/N1 × Z/N2,
graded trivially; over it ``module self`` is the product of the factors
acting on themselves, which are kept as the entry's ``factors``.  ``module
self`` is graded like its ring, a direct sum trivially.  Every group, ring
and module size is checked against ``max_elements`` before its tables are
built; ``product N1 N2`` counts as max(N1, 1)·max(N2, 1), which bounds each
factor too.  The result is a fully validated corpus entry; its note is the
file's leading comment.  A directory of files is read one entry at a time,
or all at once as a tuple of entries.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path

from .constructions import _check_denominators
from .core import DEFAULT_MAX_ELEMENTS, first_invalid, make_group, make_module, make_ring
from .errors import GradedAlgError, InvalidDenominators, InvalidDescriptor, StructureParseError
from .grading import (
    GradedModule,
    GradedRing,
    groupring_natural,
    module_same_as_ring,
    module_trivial,
    ring_trivial,
)
from .subobjects import SUBMODULE, enumerate_graded_subobjects, span


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

    def release(self) -> None:
        """Drop the memo of every carrier of the entry: the module, its ring
        and each factor with its ring.  Call it only on an entry no one else
        holds; the entry stays usable and recomputes what it needs."""
        for gm in (self.gmodule, *(self.factors or ())):
            gm.clear_memo()
            gm.gring.clear_memo()


_TUPLE_RE = re.compile(r"^\((-?\d+(,-?\d+)*)\)$")


def _parse_token(tok: str, lineno: int):
    if _TUPLE_RE.match(tok):
        return tuple(int(p) for p in tok[1:-1].split(","))
    try:
        return int(tok)
    except ValueError:
        raise StructureParseError(f"bad element token {tok!r}", line=lineno) from None


def _split_line(raw: str) -> list:
    # tuples may contain no spaces, so plain whitespace split is enough
    return raw.split("#", 1)[0].split()


def element_token(label) -> str:
    """An element label written as a token of this format: ``(0,1)``, ``5``."""
    return str(label).replace(" ", "")


def _lookup(carrier, label, lineno: int) -> int:
    idx = carrier.index.get(label)
    if idx is None:
        raise StructureParseError(f"unknown element {label!r}", line=lineno)
    return idx


def _shape(directive: str, args: list, lineno: int) -> tuple:
    """The shape word of a group, ring or module line and its integer arguments."""
    try:
        return args[0] if args else None, tuple(int(a) for a in args[1:])
    except ValueError:
        raise StructureParseError(
            f"{directive} {args[0]} needs integer arguments, got {' '.join(args[1:])!r}", line=lineno
        ) from None


def _build(what: str, make, lineno: int, size: int, max_elements: int, *args):
    """Check ``size`` against the cap, then call a table constructor; a bad
    descriptor becomes a line-numbered error."""
    if size > max_elements:
        raise StructureParseError(
            f"{what} would have {size} elements, above the size cap {max_elements}", line=lineno
        )
    try:
        return make(*args)
    except InvalidDescriptor as exc:
        raise StructureParseError(str(exc), line=lineno) from None


def parse_structure_text(
    text: str, name: str = "<structure>", max_elements: int = DEFAULT_MAX_ELEMENTS
) -> CorpusEntry:
    group = None
    ring = None
    grading_mode = "trivial"
    module = None
    factor_rings = None  # the two Z/N of a ring product
    first_line = {}  # group/ring/grading/module -> the line that set it
    pending = []  # (lineno, directive, args) for submodule/ideal/mulset lines

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = _split_line(raw)
        if not parts:
            continue
        directive, args = parts[0], parts[1:]
        if directive in first_line:
            # a later group or ring would not match the ring or module built on the first
            raise StructureParseError(
                f"{directive} already set on line {first_line[directive]}", line=lineno
            )
        if directive in ("submodule", "ideal", "mulset"):
            pending.append((lineno, directive, args))
            continue
        if directive == "grading":
            if args not in (["trivial"], ["natural"]):
                raise StructureParseError("grading must be 'trivial' or 'natural'", line=lineno)
            grading_mode = args[0]
        elif directive == "module" and ring is None:
            raise StructureParseError("module needs a prior ring directive", line=lineno)
        elif directive in ("group", "ring", "module"):
            match directive, *_shape(directive, args, lineno):
                case "group", "trivial", ():
                    group = make_group("trivial")
                case "group", "cyclic", (n,):
                    group = _build("group", make_group, lineno, n, max_elements, ("cyclic", n))
                case "group", "product", (n1, n2):
                    # bounds each factor, which is built before the product, as well
                    size = max(n1, 1) * max(n2, 1)
                    spec = ("product", ("cyclic", n1), ("cyclic", n2))
                    group = _build("group", make_group, lineno, size, max_elements, spec)
                case "ring", "zmod", (n,):
                    ring = _build("ring", make_ring, lineno, n, max_elements, ("zmod", n))
                    grade_natural = ring_trivial
                case "ring", "product", (n1, n2):
                    size = max(n1, 1) * max(n2, 1)
                    factor_rings = [_build("ring", make_ring, lineno, size, max_elements, ("zmod", n))
                                    for n in (n1, n2)]
                    ring, grade_natural = make_ring(("product", *factor_rings)), ring_trivial
                case "ring", "groupring", (p,):
                    if group is None:
                        raise StructureParseError("groupring needs a prior group directive", line=lineno)
                    spec = ("groupring", p, group)
                    ring = _build("ring", make_ring, lineno, p ** group.size, max_elements, spec)
                    grade_natural = groupring_natural
                case "module", "self", ():
                    module, grade_module = make_module(("self",), ring), module_same_as_ring
                case "module", "directsum", sizes if sizes:
                    module = _build("module", make_module, lineno, math.prod(sizes), max_elements,
                                    ("directsum", *sizes), ring)
                    grade_module = module_trivial
                case _:
                    raise StructureParseError(f"no {directive} shape matches {' '.join(args)!r}", line=lineno)
        else:
            raise StructureParseError(f"unknown directive {directive!r}", line=lineno)
        first_line[directive] = lineno

    if ring is None:
        raise StructureParseError("no ring directive")
    if module is None:
        raise StructureParseError("no module directive")
    if group is None:
        group = make_group("trivial")

    # natural grading is by degree for a group ring and trivial otherwise
    gring = (grade_natural if grading_mode == "natural" else ring_trivial)(ring, group)
    gmodule = grade_module(module, gring)

    report = first_invalid(group, ring, module)
    if report is not None:
        axiom, witness = report.failures[0]
        raise StructureParseError(f"structure axiom failed: {axiom} at {witness}", line=first_line["module"])

    factors = None
    if factor_rings is not None:
        # a direct sum over a product ring is refused, so the module is R1 x R2 on itself
        factors = tuple(module_same_as_ring(make_module(("self",), r), ring_trivial(r, group))
                        for r in factor_rings)

    note = " ".join(c[1:].strip() for c in takewhile(lambda c: c.startswith("#"), text.splitlines()))
    entry = CorpusEntry(name, gring, gmodule, note=note, factors=factors, max_elements=max_elements)

    first_named = {}  # (namespace, NAME) -> the line that defined it
    for lineno, directive, args in pending:
        if directive == "mulset":
            if len(args) < 2:
                raise StructureParseError("mulset needs a name and elements", line=lineno)
            sname, toks = args[0], args[1:]
        else:
            if len(args) < 3 or args[1] != "gens":
                raise StructureParseError(f"{directive} needs: NAME gens TOK ...", line=lineno)
            sname, toks = args[0], args[2:]
        # submodules and ideals share entry.named; mulsets have entry.mulsets
        name = (directive == "mulset", sname)
        if name == (False, "M"):
            raise StructureParseError("name 'M' is reserved for the whole module", line=lineno)
        if name in first_named:
            raise StructureParseError(f"name {sname!r} already defined on line {first_named[name]}", line=lineno)
        first_named[name] = lineno
        if directive == "mulset":
            idxs = [_lookup(ring, _parse_token(t, lineno), lineno) for t in toks]
            try:
                entry.mulsets[sname] = _check_denominators(gring, idxs)
            except InvalidDenominators as exc:
                raise StructureParseError(f"bad mulset {sname!r}: {exc}", line=lineno) from None
        else:
            # the directive names the carrier: an ideal is a submodule of the ring
            ctx = gmodule if directive == SUBMODULE else gring
            gens = {_lookup(ctx.grading.carrier, _parse_token(t, lineno), lineno) for t in toks}
            entry.named[sname] = span(gens, ctx)

    return entry


def _read(path) -> str:
    """The text of ``path``; an error names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureParseError(f"cannot read {path}: {exc}") from None


def parse_structure_file(path, max_elements: int = DEFAULT_MAX_ELEMENTS) -> CorpusEntry:
    return parse_structure_text(_read(path), name=str(path), max_elements=max_elements)


def iter_structure_dir(directory, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The entries of the ``*.gstruct`` files of ``directory`` in name order,
    each named by its path and parsed only when it is reached; an error names
    the file it is in.  A directory with no such file is an error at once."""
    paths = sorted(Path(directory).glob("*.gstruct"))
    if not paths:
        raise GradedAlgError(f"no .gstruct files in {directory}")
    return (_parse_dir_file(path, max_elements) for path in paths)


def _parse_dir_file(path: Path, max_elements: int) -> CorpusEntry:
    text = _read(path)  # a read error names the file already
    try:
        return parse_structure_text(text, name=str(path), max_elements=max_elements)
    except StructureParseError as exc:
        err = StructureParseError(f"{path}: {exc}")
        err.line = exc.line
        raise err from None


def parse_structure_dir(directory, max_elements: int = DEFAULT_MAX_ELEMENTS) -> tuple:
    """The entries of :func:`iter_structure_dir`, all parsed, as a tuple."""
    return tuple(iter_structure_dir(directory, max_elements))
