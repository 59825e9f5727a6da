import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedalg.core
import gradedalg.structfile
from gradedalg import StructureParseError, parse_structure_text, run_cli

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
    ],
    ids=["zmod-1", "directsum-5-over-zmod-12", "cyclic-0", "groupring-4", "directsum-over-groupring"],
)
def test_bad_descriptor_is_line_numbered(tmp_path, capsys, text, line):
    with pytest.raises(StructureParseError) as exc:
        parse_structure_text(text)
    assert exc.value.line == line
    code, _ = _run(["validate", _write(tmp_path, text)])
    assert code == 2
    assert f"error: line {line}:" in capsys.readouterr().err


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


def test_cli_verify_unknown_prop_exits_2():
    code, _ = _run(["verify", "--prop", "unknown-name"])
    assert code == 2


def test_cli_usage_error_exits_2():
    code, _ = _run(["classify", "--file"])
    assert code == 2


def test_cli_search():
    code, out = _run(["search", "--expr", "2a-coprimary and not strong-2a-second"])
    assert code == 1 and "zmod8" in out
    code, out = _run(["search", "--expr", "second and not 2a-coprimary"])
    assert code == 0 and out.strip() == "none"


def test_cli_custom_corpus_dir(tmp_path):
    _write(tmp_path, "ring zmod 4\nmodule self\n", "a.gstruct")
    _write(tmp_path, "ring zmod 9\nmodule self\n", "b.gstruct")
    code, out = _run(
        ["--report", "machine", "verify", "--prop", "characterization-equiv", "--corpus", str(tmp_path)]
    )
    assert code == 0
    assert "status=pass" in out


ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_wraps_the_package_without_changing_the_report(tmp_path):
    # bench/traced.py wraps package functions by name and calls their memo-key
    # functions with the package's own arguments: a renamed or re-signed
    # function must fail here, not in the benchmark
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--report", "machine", "verify", "--prop", "two-ideal-theorem"]
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, "bench/traced.py", str(trace), *args], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    plain = subprocess.run(
        [sys.executable, "-c", "from gradedalg.cli import main; main()", *args],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout
    stats = json.loads(trace.read_text())["stats"]
    assert stats["propositions.two-ideal-theorem"]["instances"] == 49606
