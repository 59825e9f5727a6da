"""Command-line front end.

Subcommands: validate, classify, verify, search.  Exit codes: 0 = all pass or
verdict printed, 1 = violation / unexpected counterexample, 2 = usage or parse
error.  Machine reports are byte-stable across runs.  ``--threads N`` is
accepted and ignored: propositions always run serially.  ``classify`` and
``search`` name predicates in one vocabulary, resolved by
``propositions.classify_named``; ``--max-elements`` caps each structure's
elements when it is parsed, which bounds every carrier a run classifies; a
walk that finds more than ``subobjects.MAX_LATTICE`` subobjects exits 2.
"""
from __future__ import annotations

import argparse
import sys

from .core import DEFAULT_MAX_ELEMENTS
from .corpus import build_standard_corpus, iter_standard_corpus
from .errors import GradedAlgError
from .propositions import PROPOSITION_IDS, _named, classify_named, search_counterexample, verify_suite
from .structfile import iter_structure_dir, parse_structure_dir, parse_structure_file
from .subobjects import whole_subobject


def _at_least_one(text: str) -> int:
    """An argparse type: an integer of at least 1, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gradedalg")
    top.add_argument("--max-elements", type=_at_least_one, default=DEFAULT_MAX_ELEMENTS)
    top.add_argument("--threads", type=_at_least_one, default=1, help="accepted and ignored; runs are serial")
    top.add_argument("--report", choices=("plain", "machine"), default="plain")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure description file")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("file")

    p = sub.add_parser("classify", help="classify a named subobject from a file")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--file", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--predicate", required=True)

    p = sub.add_parser("verify", help="verify propositions over a corpus")
    p.set_defaults(run=_cmd_verify)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--suite", choices=("all",))
    g.add_argument("--prop")
    p.add_argument("--corpus", help="directory of structure files instead of the standard corpus")

    p = sub.add_parser("search", help="search the corpus for a counterexample")
    p.set_defaults(run=_cmd_search)
    p.add_argument("--expr", required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--corpus")
    return top


def _load_corpus(args) -> tuple:
    if getattr(args, "corpus", None):
        return parse_structure_dir(args.corpus, args.max_elements)
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
    return " witness: " + " ".join(f"{key}={val}" for key, val in _named(verdict.witness, entry).items())


def _cmd_classify(args, out) -> int:
    entry = parse_structure_file(args.file, max_elements=args.max_elements)
    pred = args.predicate
    if args.target == "M":
        target = whole_subobject(entry.gmodule)
    elif args.target in entry.named:
        target = entry.named[args.target]
    else:
        raise GradedAlgError(f"no subobject named {args.target!r} in {args.file}")
    verdict = classify_named(entry, target, pred)
    if args.report == "machine":
        print(f"target={args.target} predicate={pred} value={str(verdict.value).lower()}", file=out)
    else:
        print(f"{str(verdict.value).lower()}{_witness_str(entry, verdict)}", file=out)
    return 0


def _released(entries):
    """Yield each entry of ``entries``, and release it when the next is asked
    for, so that it is freed before the next file is parsed."""
    for entry in entries:
        yield entry
        entry.release()


def _cmd_verify(args, out) -> int:
    # the run parses its own entries, so no one else holds them
    if args.corpus:
        entries = iter_structure_dir(args.corpus, args.max_elements)
    else:
        entries = iter_standard_corpus(args.max_elements)
    prop_ids = PROPOSITION_IDS if args.suite == "all" else (args.prop,)
    reports = verify_suite(prop_ids, _released(entries))
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
        return args.run(args, out)
    except GradedAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
