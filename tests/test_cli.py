"""Golden-file tests for the command line: known inputs, byte-exact output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graftwood
from graftwood.cli import execute, main


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = execute(argv)
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return _run


# --- enumerate ---------------------------------------------------------------


def test_enumerate_g_degree_two(run):
    code, out, err = run(["enumerate", "--set", "G", "--degree", "2"])
    assert code == 0
    assert out == "1 2\n1[2]\n2[1]\n"
    assert err == ""


def test_enumerate_with_signature(run):
    code, out, _ = run(["enumerate", "--set", "G", "--degree", "3", "--signature", "+,+,-"])
    assert code == 0
    assert out.splitlines() == ["3[1 2]", "3[1[2]]"]


def test_enumerate_all_plus_forests(run):
    # G0 enumerates the whole all-plus signature set, forests included
    code, out, _ = run(["enumerate", "--set", "G0", "--degree", "2"])
    assert code == 0
    assert out == "1 2\n1[2]\n"


def test_enumerate_count_only(run):
    code, out, _ = run(["enumerate", "--set", "T", "--degree", "4", "--count-only"])
    assert code == 0
    assert out == "22\n"


def test_enumerate_json(run):
    code, out, _ = run(["enumerate", "--set", "T", "--degree", "2", "--json"])
    assert code == 0
    assert out == '["1[2]","2[1]"]\n'


# --- op ----------------------------------------------------------------------

OP_GOLDEN = [
    (["op", "lgraft", "1", "1[2]"], "2[1 3]"),
    (["op", "lgraft", "2[1]", "1[2] 3"], "3[2[1] 4] 5"),
    (["op", "lgraft", "1 2", "1"], "3[1 2]"),
    (["op", "rgraft", "1[2]", "1[2]"], "1[2 4[3]]"),
    (["op", "rgraft", "1", "1 2 3"], "1[2 3 4]"),
    (["op", "nwarrow", "1 2 3", "1[2]"], "1 2 5[3[4]]"),
    (["op", "nwarrow", "2[1]", "2[1]"], "4[3[2[1]]]"),
    (["op", "concat", "1[2]", "1 4[2 3]"], "1[2] 3 6[4 5]"),
    (["op", "rgraft", "()", "1"], "0"),
    (["op", "lgraft", "1", "()"], "0"),
]


@pytest.mark.parametrize("argv,expected", OP_GOLDEN, ids=[" ".join(a[1:]) for a, _ in OP_GOLDEN])
def test_op_golden(run, argv, expected):
    code, out, err = run(argv)
    assert code == 0
    assert out == expected + "\n"
    assert err == ""


def test_op_json_is_a_format_string(run):
    code, out, _ = run(["--json", "op", "rgraft", "1[2]", "1[2]"])
    assert code == 0
    assert json.loads(out) == "1[2 4[3]]"
    code, out, _ = run(["--json", "op", "lgraft", "1", "()"])
    assert code == 0
    assert json.loads(out) == "0"


# --- coproduct ---------------------------------------------------------------


def test_coproduct_single_vertex_json(run):
    code, out, _ = run(["--json", "coproduct", "1"])
    assert code == 0
    assert out == '[{"lea":"1","roo":"()","coeff":"1"},{"lea":"()","roo":"1","coeff":"1"}]\n'


def test_coproduct_caterpillar_full(run):
    code, out, _ = run(["coproduct", "2[4[1] 3]"])
    assert code == 0
    assert out.splitlines() == [
        "1 * 2[4[1] 3] (x) ()",
        "1 * () (x) 2[4[1] 3]",
        "1 * 1 (x) 1[3 2]",
        "1 * 1 (x) 2[3[1]]",
        "1 * 1 2 (x) 1[2]",
        "1 * 2[1] (x) 1[2]",
        "1 * 3[1] 2 (x) 1",
    ]


def test_coproduct_half_variants(run):
    for variant in ("prec", "succ"):
        code, out, _ = run(["coproduct", "--variant", variant, "1 2"])
        assert code == 0
        assert out == "1 * 1 (x) 1\n"


def test_coproduct_variant_choices_rejected(run):
    code, _, err = run(["coproduct", "--variant", "sideways", "1"])
    assert code == 2
    assert "invalid choice" in err


# --- count -------------------------------------------------------------------


def test_count_b_forests(run):
    code, out, _ = run(["count", "--table", "B_forests", "--max", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1"
    assert lines[-1] == "8 20793"


def test_count_tables_golden(run):
    code, out, _ = run(["count", "--table", "Binfty_trees", "--max", "8"])
    assert code == 0
    assert [int(line.split()[1]) for line in out.splitlines()] == [
        1, 2, 6, 20, 70, 252, 924, 3432,
    ]
    code, out, _ = run(["count", "--table", "Bi_trees(3)", "--max", "8"])
    assert code == 0
    assert [int(line.split()[1]) for line in out.splitlines()] == [
        1, 2, 6, 20, 50, 142, 432, 1374,
    ]


def test_count_json(run):
    code, out, _ = run(["count", "--table", "D_dims", "--max", "5", "--json"])
    assert code == 0
    assert out == '{"1":1,"2":1,"3":2,"4":6,"5":22}\n'


def test_count_verify_passes(run):
    code, out, _ = run(["count", "--table", "D_dims", "--max", "4", "--verify"])
    assert code == 0
    assert out.splitlines()[-1] == "ok"


def test_count_verify_beyond_enumeration_ceiling(run):
    code, _, err = run(["count", "--table", "B_trees", "--max", "8", "--verify"])
    assert code == 2
    assert "degree 7" in err


def test_count_unknown_table(run):
    code, _, err = run(["count", "--table", "owls", "--max", "3"])
    assert code == 2
    assert err.startswith("error:")


# --- indexings ---------------------------------------------------------------


def test_indexings_golden(run):
    for shape, family, expected in [
        ("0", "G", 1),
        ("0[0 0]", "G", 3),
        ("0[0 0]", "T", 3),
        ("0[0[0]]", "G", 3),
        ("0[0[0]]", "T", 3),
    ]:
        code, out, _ = run(["indexings", "--family", family, shape])
        assert code == 0
        assert out == "%d\n" % expected


def test_indexings_oracle_agreement(run):
    code, out, _ = run(["indexings", "--family", "T", "0[0 0[0]]", "--oracle", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True
    assert report["count"] == report["oracle"]


# --- check -------------------------------------------------------------------


def test_check_passing_suite(run):
    code, out, _ = run(["check", "--suite", "bigraft", "--max-degree", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "suite bigraft at degree 3: pass"


def test_check_failing_suite_exits_one(run):
    code, out, _ = run(["check", "--suite", "dendriform", "--max-degree", "3"])
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL DELTAPREC") for line in lines)
    assert lines[-1] == "suite dendriform at degree 3: FAIL"


def test_check_json_schema(run):
    code, out, _ = run(["--json", "check", "--suite", "bigraft", "--max-degree", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "bigraft"
    assert report["ok"] is True
    assert report["rows"][0]["label"] == "BIGRAFT"


# --- plumbing ----------------------------------------------------------------


def test_usage_errors_exit_two(run):
    assert run(["enumerate", "--set", "Z", "--degree", "2"])[0] == 2
    assert run(["op", "lgraft", "not a forest", "1"])[0] == 2
    assert run(["nonsense"])[0] == 2
    assert run([])[0] == 2


def test_execute_is_deterministic(run):
    argv = ["--json", "coproduct", "--variant", "reduced", "2[4[1] 3]"]
    first = run(argv)
    second = run(argv)
    assert first == second
    assert first[0] == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(graftwood.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "graftwood", "enumerate", "--set", "G", "--degree", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 2\n1[2]\n2[1]\n"


def test_main_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--set", "G", "--degree", "1"])
    assert exc.value.code == 0
