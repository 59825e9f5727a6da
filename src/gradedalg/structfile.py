"""Line-oriented structure description files.

Grammar (one directive per line, ``#`` starts a comment):

    group trivial | cyclic N | product N1 N2
    ring zmod N | groupring P
    grading trivial | natural
    module self | directsum M1 M2 ...
    submodule NAME gens TOK ...
    ideal NAME gens TOK ...
    mulset NAME TOK ...

Element tokens are integers or parenthesized integer tuples like ``(1,0,0)``.
Each of ``group``, ``ring``, ``grading`` and ``module`` may appear once, and
each NAME once among the submodules and ideals and once among the mulsets.
``groupring`` takes its grading group from the ``group`` directive; ``natural``
grading means by-degree for group rings and is an alias of ``trivial``
otherwise.  Every group, ring and module size is checked against
``max_elements`` before its tables are built.  The result is a fully
validated corpus entry.
"""
from __future__ import annotations

import math
import re

from .constructions import _check_denominators
from .core import DEFAULT_MAX_ELEMENTS, first_invalid, make_group, make_module, make_ring
from .corpus import CorpusEntry
from .errors import InvalidDenominators, InvalidDescriptor, StructureParseError
from .grading import (
    groupring_natural,
    module_same_as_ring,
    module_trivial,
    ring_trivial,
)
from .subobjects import SUBMODULE, span

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


def _lookup(carrier, label, lineno: int) -> int:
    idx = carrier.index.get(label)
    if idx is None:
        raise StructureParseError(f"unknown element {label!r}", line=lineno)
    return idx


def _check_size(what: str, size: int, max_elements: int, lineno: int) -> None:
    if size > max_elements:
        raise StructureParseError(
            f"{what} would have {size} elements, above the size cap {max_elements}", line=lineno
        )


def _build(make, lineno: int, *args):
    """Call a table constructor; a bad descriptor becomes a line-numbered error."""
    try:
        return make(*args)
    except InvalidDescriptor as exc:
        raise StructureParseError(str(exc), line=lineno) from None


def parse_structure_text(
    text: str, name: str = "<structure>", max_elements: int = DEFAULT_MAX_ELEMENTS
) -> CorpusEntry:
    group = None
    ring = None
    ring_kind = None
    grading_mode = None
    module = None
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
        if directive in ("group", "ring", "grading", "module"):
            first_line[directive] = lineno
        if directive == "group":
            if not args:
                raise StructureParseError("group needs a shape", line=lineno)
            shape = args[0]
            try:
                if shape == "trivial":
                    group = make_group("trivial")
                elif shape == "cyclic":
                    n = int(args[1])
                    _check_size("group", n, max_elements, lineno)
                    group = _build(make_group, lineno, ("cyclic", n))
                elif shape == "product":
                    n1, n2 = int(args[1]), int(args[2])
                    if min(n1, n2) < 1:
                        # each factor is built before the product
                        raise StructureParseError("group product sizes must be positive", line=lineno)
                    _check_size("group", n1 * n2, max_elements, lineno)
                    group = _build(make_group, lineno, ("product", ("cyclic", n1), ("cyclic", n2)))
                else:
                    raise StructureParseError(f"unknown group shape {shape!r}", line=lineno)
            except (IndexError, ValueError):
                raise StructureParseError("group shape needs integer sizes", line=lineno) from None
        elif directive == "ring":
            if not args:
                raise StructureParseError("ring needs a shape", line=lineno)
            shape = args[0]
            if shape == "zmod":
                try:
                    n = int(args[1])
                except (IndexError, ValueError):
                    raise StructureParseError("zmod needs a modulus", line=lineno) from None
                _check_size("ring", n, max_elements, lineno)
                ring = _build(make_ring, lineno, ("zmod", n))
            elif shape == "groupring":
                if group is None:
                    raise StructureParseError("groupring needs a prior group directive", line=lineno)
                try:
                    p = int(args[1])
                except (IndexError, ValueError):
                    raise StructureParseError("groupring needs a coefficient modulus", line=lineno) from None
                _check_size("ring", p ** group.size, max_elements, lineno)
                ring = _build(make_ring, lineno, ("groupring", p, group))
            else:
                raise StructureParseError(f"unknown ring shape {shape!r}", line=lineno)
            ring_kind = shape
        elif directive == "grading":
            if not args or args[0] not in ("trivial", "natural"):
                raise StructureParseError("grading must be 'trivial' or 'natural'", line=lineno)
            grading_mode = args[0]
        elif directive == "module":
            if ring is None:
                raise StructureParseError("module needs a prior ring directive", line=lineno)
            if not args:
                raise StructureParseError("module needs a shape", line=lineno)
            shape = args[0]
            if shape == "self":
                module = make_module(("self",), ring)
            elif shape == "directsum":
                try:
                    sizes = [int(a) for a in args[1:]]
                except ValueError:
                    raise StructureParseError("directsum needs integer sizes", line=lineno) from None
                if not sizes:
                    raise StructureParseError("directsum needs at least one summand", line=lineno)
                _check_size("module", math.prod(sizes), max_elements, lineno)
                module = _build(make_module, lineno, ("directsum", *sizes), ring)
            else:
                raise StructureParseError(f"unknown module shape {shape!r}", line=lineno)
        elif directive in ("submodule", "ideal", "mulset"):
            pending.append((lineno, directive, args))
        else:
            raise StructureParseError(f"unknown directive {directive!r}", line=lineno)

    if ring is None:
        raise StructureParseError("no ring directive")
    if module is None:
        raise StructureParseError("no module directive")
    if group is None:
        group = make_group("trivial")
    if grading_mode is None:
        grading_mode = "trivial"

    natural = ring_kind == "groupring" and grading_mode == "natural"
    gring = groupring_natural(ring, group) if natural else ring_trivial(ring, group)
    if natural and module.size == ring.size:
        gmodule = module_same_as_ring(module, gring)
    else:
        gmodule = module_trivial(module, gring)

    report = first_invalid(group, ring, module)
    if report is not None:
        axiom, witness = report.failures[0]
        raise StructureParseError(f"structure axiom failed: {axiom} at {witness}", line=first_line["module"])

    entry = CorpusEntry(name, gring, gmodule, max_elements=max_elements)

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


def parse_structure_file(path, max_elements: int = DEFAULT_MAX_ELEMENTS) -> CorpusEntry:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureParseError(f"cannot read {path}: {exc}") from None
    return parse_structure_text(text, name=str(path), max_elements=max_elements)
