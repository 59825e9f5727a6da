import gc
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gradedalg.core
import gradedalg.corpus
import gradedalg.structfile
from gradedalg import StructureParseError, parse_structure_text, product_graded_module
from gradedalg.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]

EXAMPLE = """\
# finite model over integers mod 180
group trivial
ring zmod 180
grading trivial
module directsum 4 9 5
submodule N gens (1,0,0) (0,1,0)
"""

GROUPRING = """\
group cyclic 2
ring groupring 2
grading natural
module self
"""


def _write(tmp_path, text, name="s.gstruct"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_example_structure():
    entry = parse_structure_text(EXAMPLE)
    assert entry.gring.ring.size == 180
    assert entry.gmodule.module.size == 180
    n = entry.named["N"]
    assert len(n.members) == 36 and n.graded


def test_parse_groupring_structure():
    entry = parse_structure_text(GROUPRING)
    assert entry.gring.ring.size == 4
    assert len(entry.gring.grading.components[1]) == 2


def test_parse_product_group_structure():
    entry = parse_structure_text("group product 2 2\nring groupring 2\ngrading natural\nmodule self\n")
    assert entry.gring.ring.size == 16
    assert [len(c) for c in entry.gring.grading.components] == [2, 2, 2, 2]


def test_parse_mulset_and_ideal():
    entry = parse_structure_text(
        "ring zmod 12\nmodule self\nideal I gens 4\nmulset S 1 3 9\n"
    )
    assert entry.named["I"].members == frozenset({0, 4, 8})
    assert entry.mulsets["S"] == (1, 3, 9)


def test_unknown_element_is_line_numbered():
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text("ring zmod 12\nmodule self\nsubmodule N gens 99\n")
    assert exc.value.line == 3
    assert "99" in str(exc.value)


def test_non_multiplicative_mulset_rejected():
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text("ring zmod 12\nmodule self\nmulset S 1 2\n")
    assert "mulset" in str(exc.value)


def test_missing_ring_rejected():
    with pytest.raises(StructureParseError):
        parse_structure_text("module self\n")


def test_unknown_directive_rejected():
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text("ring zmod 12\nmodule self\nfrobnicate 3\n")
    assert exc.value.line == 3


def test_comments_and_blank_lines_ignored():
    entry = parse_structure_text("\n# hi\nring zmod 4  # inline\n\nmodule self\n")
    assert entry.gring.ring.size == 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run(argv):
    buf = io.StringIO()
    code = run_cli(argv, out=buf)
    return code, buf.getvalue()


def test_cli_validate(tmp_path):
    path = _write(tmp_path, EXAMPLE)
    code, out = _run(["validate", path])
    assert code == 0 and "ok" in out


def test_cli_validate_product_group_at_the_cap(tmp_path):
    path = _write(tmp_path, "group product 2 2\nring groupring 2\ngrading natural\nmodule self\n")
    code, out = _run(["--max-elements", "16", "--report", "machine", "validate", path])
    assert code == 0 and "ring_size=16" in out


@pytest.mark.parametrize("modulus", [600, 100000])
def test_cli_validate_rejects_oversized_ring_before_building_it(tmp_path, monkeypatch, capsys, modulus):
    def refuse(spec):
        raise AssertionError("ring tables built for an oversized ring")

    monkeypatch.setattr(gradedalg.structfile, "make_ring", refuse)
    path = _write(tmp_path, f"ring zmod {modulus}\nmodule self\n")
    code, _ = _run(["validate", path])
    assert code == 2
    assert "line 1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        ("group cyclic 4\nring groupring 3\nmodule self\n", 2),  # 3^4 = 81 elements
        ("ring zmod 16\nmodule directsum 16 2\n", 2),
        ("group product 4 5\nring zmod 2\nmodule self\n", 1),
        ("ring product 4 5\nmodule self\n", 1),
    ],
)
def test_size_cap_is_checked_per_directive(text, line):
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text(text, max_elements=16)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text, line",
    [
        ("ring zmod 1\nmodule self\n", 1),
        ("ring zmod 12\nmodule directsum 5\n", 2),
        ("group cyclic 0\nring zmod 2\nmodule self\n", 1),
        ("group cyclic 2\nring groupring 4\nmodule self\n", 2),
        ("group cyclic 2\nring groupring 2\nmodule directsum 2\n", 3),
        # each shape takes exactly its arguments; the first seven used to drop the extra ones
        ("group cyclic 2 9\nring zmod 2\nmodule self\n", 1),
        ("group product 2 3 4\nring zmod 2\nmodule self\n", 1),
        ("group trivial 7\nring zmod 2\nmodule self\n", 1),
        ("ring zmod 12 99\nmodule self\n", 1),
        ("group cyclic 2\nring groupring 2 5\nmodule self\n", 2),
        ("ring zmod 12\nmodule self 3\n", 2),
        ("ring zmod 12\ngrading natural bogus\nmodule self\n", 2),
        ("group product 2\nring zmod 2\nmodule self\n", 1),
        ("ring zmod 12\nmodule directsum\n", 2),
        ("group cyclic two\nring zmod 2\nmodule self\n", 1),
        ("ring product 2 3\nmodule directsum 2\n", 2),
        ("ring product 0 3\nmodule self\n", 1),
    ],
    ids=["zmod-1", "directsum-5-over-zmod-12", "cyclic-0", "groupring-4", "directsum-over-groupring",
         "cyclic-2-9", "product-2-3-4", "trivial-7", "zmod-12-99", "groupring-2-5", "self-3", "natural-bogus",
         "product-2", "directsum-empty", "cyclic-two", "directsum-over-ring-product",
         "ring-product-0-3"],
)
def test_bad_descriptor_is_line_numbered(tmp_path, capsys, text, line):
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text(text)
    assert exc.value.line == line
    code, _ = _run(["validate", _write(tmp_path, text)])
    assert code == 2
    assert f"error: line {line}:" in capsys.readouterr().err


def test_module_self_is_graded_like_a_trivially_graded_group_ring():
    entry = parse_structure_text("group cyclic 2\nring groupring 3\ngrading trivial\nmodule self\n")
    assert entry.gmodule.grading.components == entry.gring.grading.components
    assert [len(c) for c in entry.gmodule.grading.components] == [9, 1]


@pytest.mark.parametrize("text, expected", [(GROUPRING, 2), (EXAMPLE, 3)])
def test_cli_validate_checks_each_structure_once(tmp_path, monkeypatch, text, expected):
    # group and ring always; the module only when it is not the ring acting on itself
    calls = []
    original = gradedalg.core.validate_axioms
    monkeypatch.setattr(gradedalg.core, "validate_axioms", lambda s: calls.append(s) or original(s))
    code, _ = _run(["validate", _write(tmp_path, text)])
    assert code == 0 and len(calls) == expected


def test_cli_classify_strong_false(tmp_path):
    path = _write(tmp_path, EXAMPLE)
    code, out = _run(
        ["classify", "--file", path, "--target", "N", "--predicate", "strong-2a-second"]
    )
    assert code == 0
    assert out.startswith("false")
    assert "witness" in out


def test_cli_classify_machine_report(tmp_path):
    path = _write(tmp_path, EXAMPLE)
    code, out = _run(
        ["--report", "machine", "classify", "--file", path, "--target", "N", "--predicate", "second"]
    )
    assert code == 0
    assert out == "target=N predicate=second value=false\n"


def test_cli_classify_labels_every_member_set_of_the_witness(tmp_path):
    path = _write(tmp_path, "ring zmod 2\nmodule directsum 2 2\n")
    argv = ["classify", "--file", path, "--target", "M", "--predicate", "comultiplication"]
    code, out = _run(argv)
    assert code == 0
    assert out == "false witness: N={(0, 0),(0, 1)} zero_colon={(0, 0),(0, 1),(1, 0),(1, 1)}\n"
    assert _run(["--report", "machine", *argv]) == (
        0, "target=M predicate=comultiplication value=false\n")


def test_cli_classify_ideal_predicate(tmp_path):
    path = _write(tmp_path, "ring zmod 12\nmodule self\nideal I gens 4\n")
    code, out = _run(["classify", "--file", path, "--target", "I", "--predicate", "primary"])
    assert code == 0 and out.startswith("true")


def test_cli_verify_single_prop():
    code, out = _run(["--report", "machine", "verify", "--prop", "ann-2AP"])
    assert code == 0
    assert out.startswith("prop=ann-2AP status=pass ")
    # --threads is accepted and ignored: the suite report is the same bytes
    suite = [_run(["--threads", t, "--report", "machine", "verify", "--suite", "all"]) for t in ("1", "4")]
    assert suite[0] == suite[1] and suite[0][1]


@pytest.mark.parametrize("flag", ["--threads", "--max-elements"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_rejects_a_count_flag_below_one(capsys, flag, value):
    # --threads -3 used to run, and --max-elements 0 blamed the first corpus file
    code, out = _run([flag, value, "--report", "machine", "verify", "--prop", "ann-2AP"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: gradedalg ")
    assert err.endswith(f"error: argument {flag}: must be at least 1, got {value}\n")


def test_cli_verify_unknown_prop_exits_2(capsys):
    code, _ = _run(["verify", "--prop", "unknown-name"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown proposition 'unknown-name'\n"


def test_cli_suite_bytes_match_the_benchmark_expectation():
    # the benchmark checks the same bytes on every run; pin them in the tests too.
    # The standard corpus and --corpus read the shipped files on one path.
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())["suite"]
    for corpus in ([], ["--corpus", str(ROOT / "src" / "gradedalg" / "standard")]):
        code, out = _run(["--report", "machine", "--threads", "1", "verify", "--suite", "all", *corpus])
        assert code == expected["exit"] == 1
        assert out == expected["stdout"]


def test_cli_usage_error_exits_2():
    code, _ = _run(["classify", "--file"])
    assert code == 2


def test_cli_search():
    code, out = _run(["search", "--expr", "2a-coprimary and not strong-2a-second"])
    assert code == 1 and "zmod8" in out
    code, out = _run(["search", "--expr", "second and not 2a-coprimary"])
    assert code == 0 and out.strip() == "none"


def test_cli_search_names_predicates_like_classify():
    # one vocabulary: 2a-coprimary is the definition, and the characterization
    # agrees with it on the standard corpus
    found = {
        name: _run(["--report", "machine", "search", "--expr", f"{name} and not strong-2a-second"])
        for name in ("2a-coprimary", "2a-coprimary-def", "2a-coprimary-char")
    }
    assert found["2a-coprimary"] == found["2a-coprimary-def"] == found["2a-coprimary-char"]
    assert found["2a-coprimary"] == (1, "entry=zmod8 members=0,1,2,3,4,5,6,7\n")


@pytest.mark.parametrize("target, predicate, message", [
    ("I", "second", "predicate 'second' needs a submodule target"),
    ("M", "primary", "predicate 'primary' needs an ideal target"),
    ("M", "bogus", "unknown predicate 'bogus'"),
])
def test_cli_classify_rejects_a_predicate_of_the_other_kind(tmp_path, capsys, target, predicate, message):
    path = _write(tmp_path, "ring zmod 12\nmodule self\nideal I gens 4\n")
    code, out = _run(["classify", "--file", path, "--target", target, "--predicate", predicate])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_classifier_call_takes_the_size_cap(tmp_path):
    # a 521-element field is above the default cap of 512 and within --max-elements 600
    _write(tmp_path, "ring zmod 521\nmodule self\n")
    code, out = _run(["--max-elements", "600", "--report", "machine", "verify", "--suite", "all",
                      "--corpus", str(tmp_path)])
    assert code == 0 and out.count("status=pass") == 16
    code, out = _run(["--max-elements", "600", "--report", "machine", "search", "--expr", "strong-2a-second",
                      "--corpus", str(tmp_path)])
    assert code == 1 and out.startswith(f"entry={tmp_path / 's.gstruct'} members=0,1,2,")


def test_cli_classify_refuses_a_file_naming_a_submodule_M(tmp_path, capsys):
    # the target M used to be the whole module Z/6, not the named {0,2,4}
    path = _write(tmp_path, "ring zmod 6\nmodule self\nsubmodule M gens 2\n")
    code, out = _run(["classify", "--file", path, "--target", "M", "--predicate", "second"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: line 3: name 'M' is reserved for the whole module\n"


def test_cli_classify_resolves_a_degree_label():
    path = str(ROOT / "structures" / "groupring2.gstruct")
    code, out = _run(["classify", "--file", path, "--target", "M", "--predicate", "g-2a-coprimary:1"])
    assert (code, out) == (0, "true\n")


def test_cli_classify_unknown_degree_label_exits_2(capsys):
    path = str(ROOT / "structures" / "groupring2.gstruct")
    code, out = _run(["classify", "--file", path, "--target", "M", "--predicate", "g-2a-coprimary:7"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: grading group has no element labeled '7'\n"


def test_cli_search_resolves_a_degree_label_per_entry():
    # the trivially graded entries before groupring2-c2 have no element
    # labelled 1, so they satisfy nothing
    code, out = _run(["--report", "machine", "search", "--expr", "g-2a-coprimary:1"])
    assert code == 1 and out.startswith("entry=groupring2-c2 ")


def test_a_tuple_degree_label_is_written_like_an_element_token(tmp_path):
    # the label (0, 1) prints with a space; it is named without one, as in a structure file
    path = _write(tmp_path, "group product 2 2\nring groupring 2\ngrading natural\nmodule self\n")
    argv = ["classify", "--file", path, "--target", "M", "--predicate", "g-2a-coprimary:(0,1)"]
    assert _run(argv) == (0, "true\n")
    code, out = _run(["--report", "machine", "search", "--corpus", str(tmp_path),
                      "--expr", "g-2a-coprimary:(0,1) and not (g-2a-coprimary:(1,1))"])
    assert (code, out) == (0, "none\n")
    code, out = _run(["--report", "machine", "search", "--corpus", str(tmp_path), "--expr", "g-2a-coprimary:(1,1)"])
    assert code == 1 and out.startswith(f"entry={path} ")


def test_cli_search_writes_members_as_element_tokens():
    # a tuple label prints as "(0, 1)"; the record must split into key=value fields
    code, out = _run(["--report", "machine", "search", "--corpus", str(ROOT / "structures"),
                      "--expr", "g-2a-coprimary:1"])
    assert code == 1
    fields = out.split()
    assert [f.split("=", 1)[0] for f in fields] == ["entry", "members"]
    assert fields[1] == "members=(0,0),(0,1),(1,0),(1,1)"


def _search_in_child(expr):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "gradedalg", "--report", "machine", "search", "--expr", expr],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_cli_search_reads_long_chains_and_folds_negations():
    # a chain is one n-ary node and a run of ``not`` a loop, so neither
    # length recurses; each form gives the answer of its single atom
    single, negated = _search_in_child("second"), _search_in_child("not second")
    assert single.returncode == negated.returncode == 1
    for expr, same in (
        (" or ".join(["second"] * 3000), single),
        (" and ".join(["second"] * 3000), single),
        ("not " * 3000 + "second", single),
        ("not " * 3001 + "second", negated),
        ("(" * 100 + "second" + ")" * 100, single),
    ):
        found = _search_in_child(expr)
        assert "Traceback" not in found.stderr, found.stderr
        assert (found.returncode, found.stdout) == (same.returncode, same.stdout), expr[:40]


@pytest.mark.parametrize("expr", [
    "(" * 101 + "second" + ")" * 101,
    "(" * 3000 + "second" + ")" * 3000,
    "not (" * 3000 + "second" + ")" * 3000,
], ids=["101-parentheses", "3000-parentheses", "3000-negated-parentheses"])
def test_cli_search_rejects_deep_nesting_as_a_parse_error(expr):
    found = _search_in_child(expr)
    assert (found.returncode, found.stdout) == (2, "")
    assert found.stderr == "error: parentheses nested deeper than 100\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_cli_search_rejects_a_budget_below_one(budget, capsys):
    # a budget that allows no evaluation used to print "none", the answer for
    # "no counterexample exists"
    code, out = _run(["search", "--expr", "second", "--budget", budget])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: search budget must be at least 1, got {budget}\n"


def test_parse_product_structure():
    entry = parse_structure_text("# Z/4 x Z/3\nring product 4 3\nmodule self\nsubmodule N gens (2,0)\n")
    assert (entry.gring.ring.size, entry.gmodule.module.size, entry.note) == (12, 12, "Z/4 x Z/3")
    assert [gm.module.size for gm in entry.factors] == [4, 3]
    assert entry.named["N"].members == frozenset({0, 6})
    # the product ring on itself is the product of its factors on themselves
    product = product_graded_module(*entry.factors, entry.gring)
    assert product.module.labels == entry.gmodule.module.labels
    assert product.module.action == entry.gmodule.module.action
    assert product.grading.components == entry.gmodule.grading.components


def test_a_corpus_dir_error_names_its_file(tmp_path, capsys):
    assert _run(["verify", "--prop", "closure-lemma", "--corpus", str(tmp_path)]) == (2, "")
    assert capsys.readouterr().err == f"error: no .gstruct files in {tmp_path}\n"
    _write(tmp_path, "ring zmod 4\nmodule self\n", "a.gstruct")
    bad = _write(tmp_path, "ring zmod 4\nmodule selff\n", "b.gstruct")
    code, out = _run(["verify", "--prop", "closure-lemma", "--corpus", str(tmp_path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {bad}: line 2: no module shape matches 'selff'\n"
    with pytest.raises(StructureParseError) as exc:
        gradedalg.structfile.parse_structure_dir(tmp_path)
    assert exc.value.line == 2


@pytest.mark.parametrize("argv", [["verify", "--suite", "all"], ["search", "--expr", "second"]])
def test_a_bad_last_corpus_file_stops_the_run_with_no_report(tmp_path, capsys, argv):
    # verify reads its corpus one entry at a time, so the bad file is reached
    # after the others are checked; search reads it before it starts
    standard = gradedalg.corpus._STANDARD
    for name in ("01-zmod4.gstruct", "06-zmod36.gstruct"):
        shutil.copy(standard / name, tmp_path / name)
    bad = _write(tmp_path, "ring zmod 4\nmodule self\nideal I gens 7\n", "99-bad.gstruct")
    assert _run([*argv, "--corpus", str(tmp_path)]) == (2, "")
    assert capsys.readouterr().err == f"error: {bad}: line 3: unknown element 7\n"


def _verify_peak_mb(corpus) -> float:
    """The tracemalloc peak of an in-process ``verify --suite all`` on a
    directory, with the cyclic garbage collector off during the run."""
    gc.disable()
    tracemalloc.start()
    try:
        _run(["--report", "machine", "verify", "--suite", "all", "--corpus", str(corpus)])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        gc.enable()


def test_verify_memory_does_not_grow_with_the_corpus(tmp_path):
    # verify frees each entry, memo included, before it parses the next one.
    # An entry kept until the run ends, or freed only by the cyclic collector,
    # adds about 0.1 MB per copy of zmod36.  What does grow is the report:
    # each copy adds 45 labelled hom-preimage violations, about 14 kB.
    dirs = {}
    for copies in (2, 6):
        dirs[copies] = tmp_path / str(copies)
        dirs[copies].mkdir()
        for i in range(copies):
            shutil.copy(gradedalg.corpus._STANDARD / "06-zmod36.gstruct", dirs[copies] / f"{i}.gstruct")
    _verify_peak_mb(dirs[2])  # warm-up: first-use allocations of the interpreter and numpy
    growth = _verify_peak_mb(dirs[6]) - _verify_peak_mb(dirs[2])
    assert growth < 0.1


def test_an_unreadable_corpus_file_is_named_once(tmp_path, capsys):
    _write(tmp_path, "ring zmod 4\nmodule self\n", "a.gstruct")
    bad = tmp_path / "b.gstruct"
    bad.write_bytes(b"ring zmod \xff\n")
    code, out = _run(["verify", "--prop", "closure-lemma", "--corpus", str(tmp_path)])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert err.count(str(bad)) == 1 and err.count("\n") == 1
    # the file alone reads the same through validate
    assert _run(["validate", str(bad)]) == (2, "")
    assert capsys.readouterr().err == err


def test_the_standard_corpus_names_the_file_over_the_cap(capsys):
    code, _ = _run(["--max-elements", "20", "verify", "--prop", "closure-lemma"])
    assert code == 2
    path = gradedalg.corpus._STANDARD / "06-zmod36.gstruct"
    assert capsys.readouterr().err == (
        f"error: {path}: line 1: ring would have 36 elements, above the size cap 20\n")


# Runs argv in a child and prints its exit code, wall time and ru_maxrss (KB)
# from os.wait4.  A child's ru_maxrss starts at the RSS of the process that
# forked it, so a small interpreter forks it rather than the test process.
_WAIT4 = """
import os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
err = child.stderr.read()
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
sys.stderr.buffer.write(err)
"""


@pytest.mark.parametrize("command", [["verify", "--suite", "all"], ["search", "--expr", "second and not second"]],
                         ids=["verify", "search"])
def test_a_lattice_past_the_cap_exits_2_naming_its_file(tmp_path, command):
    # the graded lattice of F_2^9 over Z/2 has 8283458 elements; the walk
    # stops inside its second level, at MAX_LATTICE + 1 sets found
    path = _write(tmp_path, "ring zmod 2\nmodule directsum 2 2 2 2 2 2 2 2 2\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "gradedalg", *command, "--corpus", str(tmp_path)]
    run = subprocess.run([sys.executable, "-c", _WAIT4, *argv], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120)
    code, elapsed, maxrss_kb = run.stdout.split()
    assert int(code) == 2
    assert run.stderr == f"error: {path}: graded lattice reached 32769 elements, cap is 32768\n"
    assert float(elapsed) < 5, f"the capped walk took {elapsed} s"
    assert int(maxrss_kb) < 150 * 1024, f"the capped walk peaked at {maxrss_kb} KB"


def test_cli_custom_corpus_dir(tmp_path):
    _write(tmp_path, "ring zmod 4\nmodule self\n", "a.gstruct")
    _write(tmp_path, "ring zmod 9\nmodule self\n", "b.gstruct")
    code, out = _run(
        ["--report", "machine", "verify", "--prop", "characterization-equiv", "--corpus", str(tmp_path)]
    )
    assert code == 0
    assert "status=pass" in out



def test_bench_tracer_wraps_the_package_without_changing_the_report(tmp_path):
    # bench/traced.py wraps package functions by name and calls their memo-key
    # functions with the package's own arguments: over the whole suite every
    # checker's call shape goes through them, so a renamed or re-signed
    # function fails here, not in the benchmark
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())["suite"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--report", "machine", "--threads", "1", "verify", "--suite", "all"]
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, "bench/traced.py", str(trace), *args], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert traced.returncode == expected["exit"], traced.stderr.decode()
    assert traced.stdout.decode() == expected["stdout"]
    stats = json.loads(trace.read_text())["stats"]
    assert stats["propositions.two-ideal-theorem"]["instances"] == 49606
    assert stats["propositions.ideal-lemma"]["instances"] == 412557
    # a classify that prints a witness and a search go through the tracer's
    # wrappers too, and print what the untraced CLI prints
    for args, printed in (
        (["classify", "--file", "structures/torsion180.gstruct", "--target", "N", "--predicate", "2a-coprimary"],
         b"false witness: x=2 y=3 K="),
        (["--report", "machine", "search", "--expr", "not 2a-coprimary"], b"entry=zmod12 members="),
    ):
        plain = subprocess.run([sys.executable, "-m", "gradedalg", *args], cwd=ROOT, env=env, capture_output=True,
                               timeout=300)
        traced = subprocess.run([sys.executable, "bench/traced.py", str(trace), *args], cwd=ROOT, env=env,
                                capture_output=True, timeout=300)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), traced.stderr.decode()
        assert plain.stdout.startswith(printed), plain


def test_every_traced_layer_names_a_package_function():
    # bench/traced.py wraps each LAYERS name by getattr; a deleted or renamed
    # function makes every traced run fail
    spec = importlib.util.spec_from_file_location("bench_traced", ROOT / "bench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [(home, name) for home, names, _ in traced.LAYERS.values() for name in names
               if not callable(getattr(importlib.import_module(f"gradedalg.{home}"), name, None))]
    assert missing == []


@pytest.mark.parametrize("module", ["gradedalg", "gradedalg.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    verified = run("--report", "machine", "verify", "--prop", "closure-lemma")
    assert verified.returncode == 0, verified.stderr
    assert verified.stdout.startswith("prop=closure-lemma status=pass instances=")
    assert verified.stdout.count("\n") == 1
    missing = run("validate", str(tmp_path / "missing.gstruct"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: cannot read ")
    assert missing.stderr.count("\n") == 1
    # the package must not import gradedalg.cli, or runpy warns before running it
    assert "RuntimeWarning" not in verified.stderr + missing.stderr


_THREAD_PROBE = """\
import io, json, os
import gradedalg
imported = len(os.listdir("/proc/self/task"))
from gradedalg.cli import run_cli
code = run_cli(["--report", "machine", "verify", "--prop", "ann-2AP"], out=io.StringIO())
print(json.dumps([imported, len(os.listdir("/proc/self/task")), code, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
def test_a_cold_run_has_one_os_thread():
    # numpy's OpenBLAS would start a busy-waiting worker per extra CPU for linear
    # algebra the package never does, unless core sets its default first. This
    # process imported core and holds that default, so the child starts without it.
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(ROOT / "src")

    def probe(**extra):
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], cwd=ROOT, env={**env, **extra},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    assert probe() == [1, 1, 0, "1"]
    # a value the user exported wins, and the count sees the pool it asks for
    imported, verified, code, value = probe(OPENBLAS_NUM_THREADS="2")
    assert (code, value) == (0, "2")
    if len(os.sched_getaffinity(0)) >= 2:
        assert imported == verified == 2


def test_unreadable_structure_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.gstruct"
    path.write_bytes(b"ring zmod \xff\xfe\n")
    code, _ = _run(["validate", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")


@pytest.mark.parametrize(
    "text, line",
    [
        # the group ring was built over C2; grading it by C3 used to raise an
        # unnumbered GradingInvalid
        ("group cyclic 2\nring groupring 2\ngroup cyclic 3\ngrading natural\nmodule self\n", 3),
        # the module was built over Z/12 and used to be kept next to the Z/8 ring
        ("ring zmod 12\nmodule directsum 4 3\nring zmod 8\n", 3),
        ("ring zmod 12\ngrading trivial\nmodule self\ngrading natural\n", 4),
        # a factor was built before the product size was known to be positive
        ("group product 1000000000000 0\nring zmod 2\nmodule self\n", 1),
        ("group product 0 5\nring zmod 2\nmodule self\n", 1),
        # a repeated name used to replace the earlier definition silently;
        # submodules and ideals share one namespace
        ("ring zmod 12\nmodule self\nsubmodule N gens 2\nideal N gens 3\n", 4),
        ("ring zmod 12\nmodule self\nsubmodule N gens 2\n\nsubmodule N gens 2\n", 5),
        ("ring zmod 12\nmodule self\nmulset S 1 5\nmulset S 1 7\n", 4),
    ],
    ids=["group-after-groupring", "ring-after-module", "grading-twice", "huge-factor-times-0", "factor-0",
         "submodule-then-ideal", "submodule-twice", "mulset-twice"],
)
def test_conflicting_directives_are_line_numbered(text, line):
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text(text)
    assert exc.value.line == line


def test_a_repeated_name_names_its_first_line():
    text = "ring zmod 12\nmodule self\nideal N gens 3\nmulset S 1 5\nsubmodule N gens 2\n"
    with pytest.raises(StructureParseError, match="'N' already defined on line 3") as exc:
        parse_structure_text(text)
    assert exc.value.line == 5


@pytest.mark.parametrize("directive", ["submodule", "ideal"])
def test_no_subobject_is_named_like_the_whole_module(directive):
    # classify --target M means the whole module, so a subobject named M
    # could never be classified
    with pytest.raises(StructureParseError, match="name 'M' is reserved for the whole module") as exc:
        parse_structure_text(f"ring zmod 6\nmodule self\n{directive} M gens 2\n")
    assert exc.value.line == 3
    assert "M" in parse_structure_text("ring zmod 6\nmodule self\nmulset M 1 5\n").mulsets


def test_a_mulset_may_share_a_submodule_name():
    entry = parse_structure_text("ring zmod 12\nmodule self\nsubmodule S gens 2\nmulset S 1 5\n")
    assert entry.named["S"].members == frozenset(range(0, 12, 2))
    assert entry.mulsets["S"] == (1, 5)
