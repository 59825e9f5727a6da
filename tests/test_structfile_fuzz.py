"""Mutation fuzzing of structure files: every input either parses or fails
with a GradedAlgError (exit code 2 from the CLI), never another exception,
and a fault on a line names that line."""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from gradedalg import GradedAlgError, StructureParseError, parse_structure_text
from gradedalg.cli import run_cli

MAX_ELEMENTS = 64

SEEDS = [
    "group trivial\nring zmod 12\ngrading trivial\nmodule directsum 4 3\n"
    "submodule N gens (1,0) (0,1)\nideal I gens 4\nmulset S 1 5 7 11\n",
    "group cyclic 2\nring groupring 2\ngrading natural\nmodule self\nideal J gens (1,1)\n",
    "group product 2 2\nring groupring 2\ngrading natural\nmodule self\n",
    "group cyclic 3\nring groupring 3\ngrading trivial\nmodule self\nsubmodule M gens (1,2,0)\n",
    "ring zmod 36\nmodule directsum 2 9  # comment\nsubmodule T gens (1,3) (0,0)\n",
    "# Z/4 x Z/3\nring product 4 3\nmodule self\nsubmodule P gens (2,0) (0,1)\nmulset U (1,1) (3,2)\n",
]

_SEED_LINES = sorted({line for seed in SEEDS for line in seed.splitlines()})

# faults of the file as a whole rather than of one line
WHOLE_FILE_FAULTS = {"no ring directive", "no module directive"}

_INTS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([513, 4096, 10**6, 10**30, -(10**30)]),
).map(str)
_WORDS = st.sampled_from(
    ["cyclic", "product", "trivial", "zmod", "groupring", "natural", "self", "directsum",
     "gens", "torus", "free", "(1,0)", "(0,1,0)", "(1,", "()", "1.5", "x", "#"]
)


@st.composite
def _mutated(draw):
    lines = [line.split() for line in draw(st.sampled_from(SEEDS)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["drop-token", "dup-token", "swap-tokens", "int", "word",
             "drop-line", "dup-line", "swap-lines", "graft-line"]
        ))
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        if op.endswith("line") or op == "swap-lines":
            j = draw(st.integers(0, len(lines) - 1))
            if op == "drop-line" and len(lines) > 1:
                del lines[i]
            elif op == "dup-line":
                lines.insert(j, list(toks))
            elif op == "graft-line":  # a line of another seed
                lines.insert(j, draw(st.sampled_from(_SEED_LINES)).split())
            else:
                lines[i], lines[j] = lines[j], lines[i]
            continue
        if not toks:
            continue
        k = draw(st.integers(0, len(toks) - 1))
        if op == "drop-token":
            del toks[k]
        elif op == "dup-token":
            toks.insert(k, toks[k])
        elif op == "swap-tokens":
            m = draw(st.integers(0, len(toks) - 1))
            toks[k], toks[m] = toks[m], toks[k]
        else:
            toks[k] = draw(_INTS if op == "int" else _WORDS)
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def _check_error(exc, text):
    assert isinstance(exc, StructureParseError), f"{type(exc).__name__}: {exc}"
    if exc.line is None:
        assert str(exc) in WHOLE_FILE_FAULTS, str(exc)
    else:
        assert 1 <= exc.line <= len(text.splitlines())
        assert str(exc).startswith(f"line {exc.line}: ")


@given(_mutated())
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_structure_files_parse_or_fail_with_a_line_numbered_error(text):
    try:
        entry = parse_structure_text(text, max_elements=MAX_ELEMENTS)
        # a parsed entry is one structure: its module is over its ring
        assert entry.gmodule.module.ring is entry.gring.ring
        assert entry.gmodule.gring is entry.gring
        error = None
    except GradedAlgError as exc:
        _check_error(exc, text)
        error = f"error: {exc}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.gstruct"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["--max-elements", str(MAX_ELEMENTS), "validate", str(path)], out=out)
    if error is None:
        assert code == 0 and "ok" in out.getvalue()
    else:
        assert code == 2 and err.getvalue() == error and out.getvalue() == ""
