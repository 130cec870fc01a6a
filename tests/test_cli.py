"""Golden-file tests for the command line: known inputs, byte-exact output."""

import json

import pytest

from graftwood.algebra import COPRODUCT_VARIANTS, _normalize_variant
from graftwood.cli import COPRODUCT_CHOICES, execute, main
from graftwood.forest import _MAX_DEPTH


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


# Plain output of every suite at a small degree; primtot at 6 pins the
# D_dims enumeration cap of 5.  The JSON form is derived from the same rows.
SUITE_GOLDEN = {
    ("hopf", 4): """\
ok   coassociativity: 60 forests, degrees 1..4
ok   counit: 60 forests
ok   antipode: 60 forests
ok   append-move-compatibility: 60 forests
ok   factor-closure-signature-products: 58 forests, all factors stay inside
ok   factor-closure-word-basis: 60 forests, all factors stay inside
ok   factor-closure-layer-1: 42 forests, all factors stay inside
ok   factor-closure-layer-2: 52 forests, all factors stay inside
ok   factor-closure-layer-3: 58 forests, all factors stay inside
ok   branch-refinement-layer-2: 23 trees, branches drop a layer
ok   branch-refinement-layer-3: 29 trees, branches drop a layer
suite hopf at degree 4: pass
""",
    ("duplicial", 4): """\
ok   E1a: 10 cases
ok   E1b: 10 cases
ok   E1c: 10 cases
suite duplicial at degree 4: pass
""",
    ("dendriform", 4): """\
ok   E2a: 60 cases
ok   E2b: 60 cases
ok   E2c: 60 cases
ok   E3prec: 38 cases
ok   E3succ: 38 cases
ok   E4prec: 38 cases
ok   E4succ: 38 cases
ok   DELTASUCC: 38 cases
FAIL DELTAPREC: 9 of 38 cases fail, e.g. (1, 1[2])
suite dendriform at degree 4: FAIL
""",
    ("leftgraft", 4): """\
ok   LGa: 10 cases
ok   LGb: 10 cases
suite leftgraft at degree 4: pass
""",
    ("rightgraft", 4): """\
ok   RGa: 10 cases
ok   RGb: 10 cases
suite rightgraft at degree 4: pass
""",
    ("bigraft", 4): """\
ok   BIGRAFT: 10 cases
suite bigraft at degree 4: pass
""",
    ("counts", 4): """\
ok   table-Binfty_trees: degrees 1..4 agree
ok   table-Binfty_forests: degrees 1..4 agree
ok   table-Binfty_length(1): degrees 1..4 agree
ok   table-Binfty_length(2): degrees 1..4 agree
ok   table-Binfty_length(3): degrees 1..4 agree
ok   table-B0_trees: degrees 1..4 agree
ok   table-B0_forests: degrees 1..4 agree
ok   table-Bi_trees(1): degrees 1..4 agree
ok   table-Bi_forests(1): degrees 1..4 agree
ok   table-Bi_trees(2): degrees 1..4 agree
ok   table-Bi_forests(2): degrees 1..4 agree
ok   table-Bi_trees(3): degrees 1..4 agree
ok   table-Bi_forests(3): degrees 1..4 agree
ok   table-Bi_trees(4): degrees 1..4 agree
ok   table-Bi_forests(4): degrees 1..4 agree
ok   table-Bi_trees(5): degrees 1..4 agree
ok   table-Bi_forests(5): degrees 1..4 agree
ok   table-Bi_trees(6): degrees 1..4 agree
ok   table-Bi_forests(6): degrees 1..4 agree
ok   table-B_trees: degrees 1..4 agree
ok   table-B_forests: degrees 1..4 agree
ok   chain-census: degrees 1..4, one chain per signature
ok   indexing-counts: 18 shape/family cases match the oracle
suite counts at degree 4: pass
""",
    ("primtot", 4): """\
ok   kernel-dimensions: degrees 1..4 match [1, 1, 2, 6]
ok   series-quotient: quotient relation holds to degree 24
suite primtot at degree 4: pass
""",
    ("closure", 4): """\
ok   concat+lgraft+rgraft: 60 forests, degrees 1..4
ok   concat+nwarrow: 22 forests, degrees 1..4
ok   concat+lgraft: 22 forests, degrees 1..4
suite closure at degree 4: pass
""",
    ("primtot", 5): """\
ok   kernel-dimensions: degrees 1..5 match [1, 1, 2, 6, 22]
ok   series-quotient: quotient relation holds to degree 24
suite primtot at degree 5: pass
""",
}


@pytest.mark.parametrize("suite,degree", SUITE_GOLDEN, ids=["%s-%d" % k for k in SUITE_GOLDEN])
def test_check_suite_golden(run, suite, degree):
    expected = SUITE_GOLDEN[suite, degree]
    passed = expected.endswith(": pass\n")
    code, out, err = run(["check", "--suite", suite, "--max-degree", str(degree)])
    assert (code, out, err) == (0 if passed else 1, expected, "")
    rows = []
    for line in expected.splitlines()[:-1]:
        label, detail = line[5:].split(": ", 1)
        rows.append({"label": label, "ok": line.startswith("ok"), "detail": detail})
    report = {"suite": suite, "max_degree": degree, "ok": passed, "rows": rows}
    code, out, err = run(["--json", "check", "--suite", suite, "--max-degree", str(degree)])
    assert (code, out, err) == (0 if passed else 1, json.dumps(report, separators=(",", ":")) + "\n", "")


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


def test_coproduct_choices_are_the_library_variants_in_order():
    assert COPRODUCT_CHOICES == ("full", "reduced", "left-root", "right-root", "prec", "succ")
    assert tuple(map(_normalize_variant, COPRODUCT_CHOICES)) == COPRODUCT_VARIANTS


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


# the degrees at which every row of a capped suite stops
SUITE_CAPS = {"hopf": 6, "counts": 8, "primtot": 5, "closure": 6}


@pytest.mark.parametrize("suite,cap", SUITE_CAPS.items())
def test_check_refuses_bound_above_cap(run, monkeypatch, suite, cap):
    # a pass line for a degree no row reached would overstate the check
    monkeypatch.delenv("GRAFTWOOD_MAX_DEGREE", raising=False)
    error = "error: suite %s checks degrees up to its cap of %d, got %d\n" % (suite, cap, cap + 1)
    for argv in (["check", "--suite", suite, "--max-degree", str(cap + 1)],
                 ["--json", "check", "--suite", suite, "--max-degree", str(cap + 1)]):
        assert run(argv) == (2, "", error)
    monkeypatch.setenv("GRAFTWOOD_MAX_DEGREE", str(cap + 1))
    assert run(["check", "--suite", suite]) == (2, "", error)


def test_check_accepts_bound_at_cap(run, monkeypatch):
    monkeypatch.setenv("GRAFTWOOD_MAX_DEGREE", "5")
    assert run(["check", "--suite", "primtot"]) == (0, SUITE_GOLDEN["primtot", 5], "")
    # the flag takes precedence over an environment bound past the cap
    monkeypatch.setenv("GRAFTWOOD_MAX_DEGREE", "6")
    argv = ["check", "--suite", "primtot", "--max-degree", "4"]
    assert run(argv) == (0, SUITE_GOLDEN["primtot", 4], "")


def test_check_json_schema(run):
    code, out, _ = run(["--json", "check", "--suite", "bigraft", "--max-degree", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "bigraft"
    assert report["ok"] is True
    assert report["rows"][0]["label"] == "BIGRAFT"


# --- input limits ------------------------------------------------------------


def _chain(n):
    return "".join("%d[" % i for i in range(1, n)) + str(n) + "]" * (n - 1)


def test_deep_nesting_exits_two(run):
    deep = _chain(1500)
    for argv in (["op", "concat", deep, "1"], ["op", "nwarrow", deep, "1"], ["coproduct", deep]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: trees nested deeper than %d" % _MAX_DEPTH)


def test_nesting_at_the_cap_runs(run):
    chain = _chain(_MAX_DEPTH)
    code, out, err = run(["op", "concat", chain, "1"])
    assert (code, out, err) == (0, "%s %d\n" % (chain, _MAX_DEPTH + 1), "")
    # nwarrow stacks the right chain under the left one: twice the cap deep
    code, out, err = run(["op", "nwarrow", chain, chain])
    assert (code, err) == (0, "")
    assert out.count("[") == 2 * _MAX_DEPTH - 1


@pytest.mark.parametrize("label", ["\u0661", "01"])
def test_labels_are_ascii_without_leading_zeros(run, label):
    code, out, err = run(["op", "lgraft", label, "1[2]"])
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert run(["indexings", "0[0 0]"]) == (0, "3\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--table", "Bi_trees(\u0661)", "--max", "3"],
        ["--json", "count", "--table", "Bi_trees(\u0661)", "--max", "3", "--verify"],
        ["count", "--table", "Bi_trees(01)", "--max", "3"],
        ["enumerate", "--set", "G\u0661", "--degree", "3"],
        ["enumerate", "--set", "G01", "--degree", "3"],
    ],
)
def test_parameters_are_ascii_without_leading_zeros(run, argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown")
    # the same parameters in ASCII without the zero are accepted
    fixed = [a.replace("\u0661", "1").replace("01", "1") for a in argv]
    assert run(fixed)[0] == 0


def test_labels_past_the_int_conversion_limit_exit_two(run):
    for argv in (["coproduct", "1" * 4301], ["op", "concat", "1", "1[%s]" % ("2" * 4301)]):
        assert run(argv) == (2, "", "error: label has 4301 digits, more than 4300\n")


def test_coproduct_cut_budget(run):
    code, out, err = run(["coproduct", " ".join(str(i) for i in range(1, 31))])
    assert (code, out) == (2, "")
    assert err == "error: 1073741824 admissible cuts exceed the budget of 65536\n"
    # 16 vertices, 4375 cuts
    code, out, err = run(["coproduct", "16[1[2] 3[4] 5[6] 7[8] 9[10] 11[12] 13[14] 15]"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "1 * 16[1[2] 3[4] 5[6] 7[8] 9[10] 11[12] 13[14] 15] (x) ()"


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


def test_python_dash_m_runs_the_cli(fresh_python):
    proc = fresh_python(["-m", "graftwood", "enumerate", "--set", "G", "--degree", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"1 2\n1[2]\n2[1]\n"


# Runs the CLI after throwaway allocations, so every object the run makes
# sits at another address than in a plain run.
_SHIFTED = (
    "import sys; junk = [[n] * (n % 7) for n in range(50000)]; "
    "from graftwood.cli import main; main(sys.argv[1:])"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "check", "--suite", "hopf"],
        ["check", "--suite", "dendriform"],
        ["coproduct", "--variant", "reduced", "2[4[1] 3]"],
        ["enumerate", "--set", "G", "--degree", "4"],
    ],
)
def test_output_depends_on_neither_addresses_nor_the_hash_seed(fresh_python, argv):
    # forests hash by identity, so sets of them iterate in address order
    plain = fresh_python(["-m", "graftwood", *argv], PYTHONHASHSEED="0")
    shifted = fresh_python(["-c", _SHIFTED, *argv], PYTHONHASHSEED="4242")
    assert plain.stdout and plain.returncode in (0, 1), plain.stderr
    assert (shifted.returncode, shifted.stdout) == (plain.returncode, plain.stdout)


def test_main_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--set", "G", "--degree", "1"])
    assert exc.value.code == 0
