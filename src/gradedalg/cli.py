"""Command-line front end.

Subcommands: validate, classify, verify, search.  Exit codes: 0 = all pass or
verdict printed, 1 = violation / unexpected counterexample, 2 = usage or parse
error.  Machine reports are byte-stable across runs.  ``--threads N`` is
accepted and ignored: propositions always run serially.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classifiers import (
    IDEAL_PREDICATES,
    classify_ideal,
    classify_submodule,
    coprimary_via_characterization,
    is_graded_comultiplication_module,
)
from .core import DEFAULT_MAX_ELEMENTS
from .corpus import Corpus, build_standard_corpus
from .errors import GradedAlgError
from .propositions import PROPOSITION_IDS, _members_label, g_coprimary_degree, search_counterexample, verify_proposition
from .structfile import parse_structure_file
from .subobjects import IDEAL, whole_subobject, SUBMODULE

_SUBMODULE_CLI_PREDICATES = (
    "second",
    "strong-2a-second",
    "2a-coprimary",
    "2a-coprimary-def",
    "2a-coprimary-char",
    "comultiplication",
)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gradedalg")
    top.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    top.add_argument("--threads", type=int, default=1, help="accepted and ignored; runs are serial")
    top.add_argument("--report", choices=("plain", "machine"), default="plain")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure description file")
    p.add_argument("file")

    p = sub.add_parser("classify", help="classify a named subobject from a file")
    p.add_argument("--file", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--predicate", required=True)

    p = sub.add_parser("verify", help="verify propositions over a corpus")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--suite", choices=("all",))
    g.add_argument("--prop")
    p.add_argument("--corpus", help="directory of structure files instead of the standard corpus")

    p = sub.add_parser("search", help="search the corpus for a counterexample")
    p.add_argument("--expr", required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--corpus")
    return top


def _load_corpus(args) -> Corpus:
    if getattr(args, "corpus", None):
        paths = sorted(Path(args.corpus).glob("*.gstruct"))
        if not paths:
            raise GradedAlgError(f"no .gstruct files in {args.corpus}")
        return Corpus([parse_structure_file(p, max_elements=args.max_elements) for p in paths])
    return build_standard_corpus(args.max_elements)


def _cmd_validate(args, out) -> int:
    # parsing validates every structure and raises on the first axiom failure
    entry = parse_structure_file(args.file, max_elements=args.max_elements)
    if args.report == "machine":
        print(
            f"file={args.file} status=ok "
            f"ring_size={entry.gring.ring.size} module_size={entry.gmodule.module.size} "
            f"group_size={entry.gring.grading.group.size} named={','.join(sorted(entry.named)) or '-'}",
            file=out,
        )
    else:
        print(f"{args.file}: ok", file=out)
        print(f"  ring:    {entry.gring.ring.size} elements", file=out)
        print(f"  module:  {entry.gmodule.module.size} elements", file=out)
        print(f"  group:   {entry.gring.grading.group.size} elements", file=out)
        for name in sorted(entry.named):
            h = entry.named[name]
            print(f"  {h.kind} {name}: {len(h.members)} elements, graded={h.graded}", file=out)
        for name in sorted(entry.mulsets):
            print(f"  mulset {name}: {len(entry.mulsets[name])} denominators", file=out)
    return 0


def _witness_str(entry, verdict) -> str:
    if verdict.witness is None:
        return ""
    rlabels = entry.gring.ring.labels
    parts = [f"{key}={rlabels[val] if isinstance(val, int) else _members_label(val)}"
             for key, val in verdict.witness.items()]
    return " witness: " + " ".join(parts)


def _cmd_classify(args, out) -> int:
    entry = parse_structure_file(args.file, max_elements=args.max_elements)
    pred = args.predicate
    if args.target == "M":
        target = whole_subobject(entry.gmodule)
    elif args.target in entry.named:
        target = entry.named[args.target]
    else:
        raise GradedAlgError(f"no subobject named {args.target!r} in {args.file}")

    if pred in IDEAL_PREDICATES:
        if target.kind != IDEAL:
            raise GradedAlgError(f"predicate {pred!r} needs an ideal target")
        verdict = classify_ideal(target, pred)
    elif pred == "comultiplication":
        verdict = is_graded_comultiplication_module(entry.gmodule, max_elements=args.max_elements)
    elif pred in _SUBMODULE_CLI_PREDICATES or pred.startswith("g-2a-coprimary:"):
        if target.kind != SUBMODULE:
            raise GradedAlgError(f"predicate {pred!r} needs a submodule target")
        if pred == "2a-coprimary-char":
            verdict = coprimary_via_characterization(target)
        elif pred in ("2a-coprimary", "2a-coprimary-def"):
            verdict = classify_submodule(target, "2a-coprimary-def", max_elements=args.max_elements)
        elif pred.startswith("g-2a-coprimary:"):
            g = g_coprimary_degree(entry, pred)
            if g is None:
                raise GradedAlgError(f"grading group has no element labeled {pred.split(':', 1)[1]!r}")
            verdict = classify_submodule(target, "g-2a-coprimary", g=g, max_elements=args.max_elements)
        else:
            verdict = classify_submodule(target, pred, max_elements=args.max_elements)
    else:
        raise GradedAlgError(f"unknown predicate {pred!r}")

    if args.report == "machine":
        print(f"target={args.target} predicate={pred} value={str(verdict.value).lower()}", file=out)
    else:
        print(f"{str(verdict.value).lower()}{_witness_str(entry, verdict)}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    corpus = _load_corpus(args)
    prop_ids = PROPOSITION_IDS if args.suite == "all" else (args.prop,)
    reports = [verify_proposition(pid, corpus) for pid in prop_ids]
    failed = False
    for r in reports:
        print(r.to_machine() if args.report == "machine" else r.to_plain(), file=out)
        failed = failed or bool(r.violations)
    return 1 if failed else 0


def _cmd_search(args, out) -> int:
    corpus = _load_corpus(args)
    found = search_counterexample(args.expr, corpus, budget=args.budget)
    if found is None:
        print("none", file=out)
        return 0
    if args.report == "machine":
        print(f"entry={found['entry']} members={','.join(found['members'])}", file=out)
    else:
        print(f"found in {found['entry']}: {{{', '.join(found['members'])}}}", file=out)
    return 1


def run_cli(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "validate":
            return _cmd_validate(args, out)
        if args.command == "classify":
            return _cmd_classify(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "search":
            return _cmd_search(args, out)
    except GradedAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
