"""Run one gradedalg CLI invocation in-process with its layers traced.

Usage: python3 bench/traced.py TRACE_JSON CLI_ARG...

The report goes to stdout exactly as the CLI prints it, and the exit code is
the CLI's, so the caller checks a traced run like an untraced one.  The trace
is kept in memory and written to TRACE_JSON when the run ends.

Tracing is done from outside the package: every function listed in LAYERS is
replaced by a wrapper, both in its defining module and in every gradedalg
module that imported it by name.  The proposition checkers are wrapped inside
``propositions._CHECKERS``, which holds direct references, so each
(proposition, corpus entry) pair gets its own span.

A metric's ``self_s`` is the time inside its functions minus the time inside
calls of other metrics made from there.  A call nested inside a call of the
same metric is folded into the outer one and is not counted again, so the
``self_s`` of all metrics add up to the traced time.  Coarse calls record one
span each (name, start, end, parent, attributes); the millions of inner calls
are only counted and timed in aggregate.
"""
from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Stat:
    """Aggregate of one metric: entries into it, self time and hook counts."""

    __slots__ = ("calls", "self_s", "repeats", "seen", "false", "lattice_elems", "instances", "rss_mb")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.repeats = 0  # calls whose memo key was seen before in this process
        self.seen = set()  # the keys hold their carrier, so no id is reused
        self.false = 0
        self.lattice_elems = 0
        self.instances = 0
        self.rss_mb = 0.0


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.stats: dict[str, Stat] = {}
        self.spans: list = []  # [name, start, end, parent index, attrs]
        self._stack: list = []  # open calls: [stat, time in other metrics, span index]

    def wrap(self, fn, metric, key=None, on_result=None, span=False, span_attrs=None, rss=False):
        """Wrapper that charges ``fn`` to ``metric``.

        ``key(*args, **kwargs)`` gives the memo key the package uses for the
        call; ``on_result(stat, result, new_key)`` inspects the result; with
        ``span`` each call is recorded as a span; with ``rss`` the growth of
        the process's peak RSS during the call is added up.
        """
        stat = self.stats.setdefault(metric, Stat())
        stack = self._stack
        spans = self.spans
        origin = self.origin

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] is stat:
                return fn(*args, **kwargs)
            stat.calls += 1
            new_key = False
            if key is not None:
                k = key(*args, **kwargs)
                if k in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(k)
                    new_key = True
            span_index = parent[2] if parent is not None else None
            if span:
                attrs = span_attrs(*args, **kwargs) if span_attrs is not None else None
                spans.append([metric, 0.0, 0.0, span_index, attrs])
                span_index = len(spans) - 1
            frame = [stat, 0.0, span_index]
            stack.append(frame)
            rss0 = _maxrss_mb() if rss else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.self_s += (t1 - t0) - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
                if span:
                    spans[span_index][1] = t0 - origin
                    spans[span_index][2] = t1 - origin
                if rss:
                    stat.rss_mb += _maxrss_mb() - rss0
            if on_result is not None:
                on_result(stat, result, new_key)
            return result

        return traced

    def record_span(self, name, t0, t1):
        self.spans.append([name, t0 - self.origin, t1 - self.origin, None, None])

    def to_json(self) -> dict:
        stats = {
            name: {
                "calls": s.calls,
                "self_s": s.self_s,
                "repeats": s.repeats,
                "false": s.false,
                "lattice_elems": s.lattice_elems,
                "instances": s.instances,
                "rss_mb": s.rss_mb,
            }
            for name, s in self.stats.items()
        }
        return {"stats": stats, "spans": self.spans}


# ---------------------------------------------------------------------------
# memo keys, mirroring the keys the package's own memos use
# ---------------------------------------------------------------------------

def _enumerate_key(ctx, kind, max_elements=None):
    if max_elements is None:
        max_elements = sys.modules["gradedalg.core"].DEFAULT_MAX_ELEMENTS
    return ctx, kind, max_elements


def _ideal_key(p, predicate):
    return p.ctx, predicate, p.members


def _submodule_key(n, predicate, g=None, lattice=None, max_elements=None):
    return n.ctx, predicate, g if predicate == "g-2a-coprimary" else None, n.members


def _char_key(n):
    return n.ctx, n.members


def _grad_colon_key(n, k, zmask, zero_mask_k):
    return n.ctx, n.members, k.members


# ---------------------------------------------------------------------------
# result hooks
# ---------------------------------------------------------------------------

def _count_false(stat, verdict, new_key):
    if not verdict.value:
        stat.false += 1


def _count_lattice(stat, lattice, new_key):
    if new_key:
        stat.lattice_elems += len(lattice)


def _count_instances(stat, result, new_key):
    stat.instances += result[0]


def _entry_name(entry):
    return {"entry": entry.name}


_VERDICT = {"key": None, "on_result": _count_false}

# metric -> (module, function names, wrapper options).  Functions not listed
# are charged to the metric of their caller.
LAYERS = {
    "core.make": ("core", ("make_group", "make_ring", "make_module"), {"span": True}),
    "core.validate": ("core", ("validate_axioms",), {"span": True, "rss": True}),
    "grading.attach": (
        "grading",
        ("attach_grading", "ring_trivial", "module_trivial", "groupring_natural",
         "module_same_as_ring", "product_assignment"),
        {"span": True},
    ),
    "structfile.parse": ("structfile", ("parse_structure_text", "parse_structure_file"), {"span": True}),
    "corpus.build": ("corpus", ("build_standard_corpus",), {"span": True}),
    "subobjects.enumerate": (
        "subobjects", ("enumerate_graded_subobjects",), {"key": _enumerate_key, "on_result": _count_lattice}
    ),
    "subobjects.ops": (
        "subobjects",
        ("subobject", "span", "combine", "colon", "colon_by_element", "annihilator",
         "graded_radical", "ideal_component", "whole_subobject", "zero_subobject", "is_graded"),
        {},
    ),
    "classifiers.ideal": ("classifiers", ("classify_ideal",), {**_VERDICT, "key": _ideal_key}),
    "classifiers.submodule": ("classifiers", ("classify_submodule",), {**_VERDICT, "key": _submodule_key}),
    "classifiers.char": ("classifiers", ("coprimary_via_characterization",), {**_VERDICT, "key": _char_key}),
    "classifiers.comult": ("classifiers", ("is_graded_comultiplication_module",), _VERDICT),
    "classifiers.grad_colon": ("classifiers", ("_grad_colon_members",), {"key": _grad_colon_key}),
    "constructions": (
        "constructions",
        ("make_hom", "identity_hom", "multiplication_hom", "hom_image", "hom_preimage", "hom_kernel",
         "localize", "localize_ring", "localize_module", "localize_subobject", "product_graded_ring",
         "product_graded_module", "product_submodule", "_check_denominators"),
        {},
    ),
    "cli.report": ("cli", ("run_cli",), {"span": True}),
}


def install(tracer: Tracer) -> None:
    """Replace every LAYERS function, wherever a gradedalg module binds it."""
    modules = [m for name, m in sys.modules.items() if name == "gradedalg" or name.startswith("gradedalg.")]
    for metric, (home, names, options) in LAYERS.items():
        home_module = sys.modules[f"gradedalg.{home}"]
        for name in names:
            original = getattr(home_module, name)
            wrapped = tracer.wrap(original, metric, **options)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapped)
    checkers = sys.modules["gradedalg.propositions"]._CHECKERS
    for pid, checker in list(checkers.items()):
        checkers[pid] = tracer.wrap(
            checker, f"propositions.{pid}", on_result=_count_instances, span=True, span_attrs=_entry_name
        )


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = perf_counter()
    import gradedalg.cli

    t1 = perf_counter()
    tracer.record_span("import", t0, t1)
    install(tracer)
    code = gradedalg.cli.run_cli(cli_args)
    sys.stdout.flush()
    trace = tracer.to_json()
    trace["import_s"] = t1 - t0
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
