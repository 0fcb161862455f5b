import hashlib
import json
from itertools import product

import jsonschema
import pytest

from invkloos import polytope
from invkloos.cli import (SCHEMAS, laurent_to_json, main, parse_laurent,
                          parse_laurent_json, parse_laurent_text)
from invkloos.errors import ParseError
from invkloos.gf import build_field


# ----------------------------------------------------------------------
# polynomial parsing
# ----------------------------------------------------------------------

def test_parse_text_example():
    F = build_field(3, 1)
    f = parse_laurent_text("x1 + x2 + 2*x1^-1*x2^-1", F)
    assert f.n_vars == 2
    assert set(f.terms) == {(1, (1, 0)), (1, (0, 1)), (2, (-1, -1))}


def test_parse_zero_coefficient_dropped_then_rejected():
    F = build_field(3, 1)
    with pytest.raises(ParseError, match="identically zero"):
        parse_laurent_text("0*x1", F)
    f = parse_laurent_text("0*x1 + x2", F)
    assert f.terms == ((1, (0, 1)),)


def test_parse_characteristic_two_cancellation():
    F = build_field(2, 1)
    with pytest.raises(ParseError, match="identically zero"):
        parse_laurent_text("x1 + x1", F)


def test_parse_merges_and_signs():
    F = build_field(5, 1)
    f = parse_laurent_text("2*x1 + 4*x1 - x2", F)
    assert set(f.terms) == {(1, (1, 0)), (4, (0, 1))}


def test_parse_errors_carry_offsets():
    F = build_field(3, 1)
    with pytest.raises(ParseError, match="offset"):
        parse_laurent_text("x1 + ", F)
    with pytest.raises(ParseError, match="factor"):
        parse_laurent_text("x1 * y2", F)


def test_parse_json_roundtrip():
    F = build_field(7, 1)
    obj = {"p": 7, "a": 1, "vars": 3,
           "terms": [{"c": 1, "e": [1, 0, 0]}, {"c": 3, "e": [-1, -1, 1]}]}
    field, f = parse_laurent_json(obj)
    assert field is F
    back = laurent_to_json(field, f)
    assert back["p"] == 7 and back["vars"] == 3
    assert sorted(map(str, back["terms"])) == sorted(map(str, obj["terms"]))
    with pytest.raises(ParseError, match="reducible"):
        parse_laurent_json({"p": 7, "a": 1, "vars": 1,
                            "terms": [{"c": 9, "e": [1]}]})


def test_parse_dispatch_inline_json_and_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"p": 3, "a": 1, "vars": 1,
                                "terms": [{"c": 1, "e": [1]}]}))
    field, f = parse_laurent(str(path))
    assert (field.p, f.n_vars) == (3, 1)
    field2, f2 = parse_laurent('{"p":3,"a":1,"vars":1,"terms":[{"c":1,"e":[2]}]}')
    assert f2.terms == ((1, (2,)),)
    with pytest.raises(ParseError, match="line"):
        parse_laurent('{"p":3,')


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_sum_json_schema_and_determinism(capsys):
    code, out1 = run(capsys, "sum", "--p", "3", "--n", "1", "--b", "1",
                     "--out", "json")
    assert code == 0
    obj = json.loads(out1)
    jsonschema.validate(obj, SCHEMAS["sum"])
    code, out2 = run(capsys, "sum", "--p", "3", "--n", "1", "--b", "1",
                     "--out", "json")
    assert out1 == out2     # reports are byte-identical across runs


def test_cli_lfun_json_schema(capsys):
    code, out = run(capsys, "lfun", "--p", "3", "--n", "1", "--b", "1",
                    "--heldout", "3", "--out", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["lfun"])
    assert obj["P"] == [[1, 1], [1, 1], [3, 1]]
    assert obj["slopes"] == [[0, 1, 1], [1, 1, 1]]
    assert obj["heldout"] == [{"k": 3, "match": True}]


def test_cli_lfun_json_reports_base_field_degree(capsys):
    code, out = run(capsys, "lfun", "--p", "3", "--a", "2", "--n", "1",
                    "--b", "1", "--out", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["lfun"])
    assert (obj["p"], obj["a"], obj["q"]) == (3, 2, 9)


def test_cli_lfun_n3_p5_heldout_k7(capsys):
    code, out = run(capsys, "lfun", "--p", "5", "--n", "3", "--b", "1",
                    "--heldout", "7", "--out", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["lfun"])
    assert obj["slopes"] == [[0, 1, 1], [1, 1, 2], [2, 1, 2], [3, 1, 1]]
    assert obj["heldout"] == [{"k": 7, "match": True}]


# sha256 of the whole stdout, recorded from the Fraction-vector CycloRational
# before its integer-vector rewrite: the exact bytes, complex magnitudes
# included, must survive changes to the arithmetic underneath
@pytest.mark.parametrize("argv, digest", [
    (("--p", "7", "--n", "2", "--b", "3"),        # P_cyclotomic is printed
     "c4fda452ab4c8378006ce19e174c7c167e465a6d0bcb9d22542184b32189e319"),
    (("--p", "53", "--n", "1", "--b", "2", "--heldout", "3"),
     "cb1fb6c5d3bf49fa4b061f2caa0bf856275d0fdc15217b95fc47a911748c23a3"),
    # recorded while n = 1 still enumerated the torus once per b
    (("--p", "3", "--n", "1", "--b", "2", "--heldout", "11"),
     "541a1a4d571905d131186bd3afb933c87497a35e00e096aaf4aaa2f933a8436e"),
    (("--p", "3", "--a", "2", "--n", "1", "--b", "4", "--heldout", "5"),
     "d34872778601ca7b912467a7c93103504e4172def4cbe4d626af997db9cd7884"),
], ids=["p7-n2-b3", "p53-n1-b2-heldout3", "p3-n1-b2-heldout11", "q9-n1-b4-heldout5"])
def test_cli_lfun_json_bytes_are_pinned(capsys, argv, digest):
    code = main(["lfun", *argv, "--out", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout, in both output forms, recorded while every
# single value was a SumValue object: the tables keep its "SumValue(...)"
# rendering and the JSON its literal "denom": 1
@pytest.mark.parametrize("argv, json_digest, table_digest", [
    (("sum", "--p", "7", "--n", "2", "--b", "3", "--k", "2"),
     "3ca678649112071885b856efc7ea10eff041f564d1896c8201ad3cc199b34a3e",
     "c71ef2971d77e2f782a768ddb64d212cb1eebc219612b32e87e1ccff00861ba9"),
    (("sum", "--p", "7", "--n", "2", "--b", "3", "--tn"),
     "0c0aee1b1ea094e8311a46d40634ee279472c20d50c4ef8174708db3e286b902",
     "3f2173f149b43bee22a90d2412d1b1e0d95750705defa475ce5f1e94e2c88d91"),
    (("sum", "--p", "5", "--n", "1", "--b", "2", "--chi", "1,2"),
     "2f5e40f46efc1244bcdbcbd7bee7bea6bffb43e9e02b74ebc0ed4f9e29974bea",
     "fd8d3a4f45d409259120fcb0b17959372d8f8aab182024c654650c9f090c792f"),
    (("gauss", "--p", "7", "--j", "2"),
     "2c147fcc34858f305efaa3b21964c493e811ae8b5cf988b50933bbceb48cba62",
     "390b87619f2ffedc9f44e115e93b3dc966f2fff4f3d45c573c6dc0bf9343e8ec"),
    (("toric", "--poly", "x1+x2+2*x1^-1*x2^-1", "--p", "3"),
     "15def314f6901e47434853615df8682bded8856618beb2cb4a2548967f086968",
     "f203fdf46ed2d798b61b295db2081d322fe0b56b1b3ae5bab2f1d533275ca42f"),
], ids=["sum-p7-n2-b3-k2", "sum-p7-n2-b3-tn", "sum-p5-n1-b2-chi12", "gauss-p7-j2",
        "toric-p3"])
def test_cli_single_value_bytes_are_pinned(capsys, argv, json_digest, table_digest):
    for out_form, digest in (("json", json_digest), ("table", table_digest)):
        code = main([*argv, "--out", out_form])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), out_form
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out_form


# sha256 of the whole stdout, recorded before the tower route moved into
# expsum.tower_sums (one count array per (p, k) in place of one per b)
@pytest.mark.parametrize("argv, digest", [
    ((), "73a862f70c5b0bab9531317ee0b496ee6acf747b56cf1f087a93ea535fa7727c"),
    (("--p", "7,13,17", "--n", "2,2,2"),
     "7037f5d6e48dc0c8ae07807942d1a3054b0480354d5905e13847c098ac2df847"),
], ids=["default", "p7-13-17-n2"])
def test_cli_verify_cor1_json_bytes_are_pinned(capsys, argv, digest):
    code = main(["verify", "cor1", *argv, "--out", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout at the default grids.  thm0 and thm2 were
# recorded while every twisted sum was embedded one SumValue at a time;
# identities after its oracle case (d) became exact ("exact"/"exact" where
# it printed a float deviation and 1e-6 q^((n+1)/2))
@pytest.mark.parametrize("suite, digest", [
    ("thm0", "a201275c4136c2574df00fbd8638302ab8df8aadb0b75cb1a3ad7cdd328b335c"),
    ("thm2", "3fc51394a3a1d29c9ae9b6923f02daec083e2c14aa9dddd70ac367fef23ad9a7"),
    ("identities", "12fb867b3efa5f0b2505e7fcdd9a5ffbff1a8bc7e93aa8cb74ed4160af8dbd8b"),
])
def test_cli_verify_twisted_json_bytes_are_pinned(capsys, suite, digest):
    code = main(["verify", suite, "--out", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout at the default grids, recorded while each
# facet hyperplane was a cofactor expansion and every hull was rebuilt
@pytest.mark.parametrize("suite, digest", [
    ("prop31", "a9db485d1386b749678335332a305e71fa06aa646ec45e68f009e9a239be9c60"),
    ("thm33", "64a04e25853187093d2177f4534d1558b93a3ca7bfef7506395db7e73c73f0e0"),
])
def test_cli_verify_polytope_json_bytes_are_pinned(capsys, suite, digest):
    code = main(["verify", suite, "--out", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_polytope_json_schema_and_csv(capsys):
    code, out = run(capsys, "polytope", "--n", "2", "--out", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["polytope"])
    assert obj["D"] == 1 and obj["nvol"] == 6
    code, out = run(capsys, "polytope", "--n", "1", "--out", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x,y_num,y_den"
    code, out = run(capsys, "polytope", "--n", "6", "--out", "json")
    obj = json.loads(out)
    assert code == 0 and obj["H"] == [1, 2, 2, 2, 2, 2, 2, 1, 0] and obj["nvol"] == 14


@pytest.mark.parametrize("suite", ["thm33", "prop31"])
def test_cli_polytope_suites_reach_n_8(capsys, suite):
    code, out = run(capsys, "verify", suite, "--n", "5,6,7,8", "--out", "json")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_cli_vertices_file_errors_are_parse_errors(capsys, tmp_path):
    nokey, five = tmp_path / "nokey.json", tmp_path / "five.json"
    nokey.write_text('{"points": [[0, 0], [1, 0], [0, 1]]}')
    five.write_text('{"vertices": 5}')
    for path in (tmp_path / "missing.json", nokey, five):
        assert main(["polytope", "--vertices", str(path)]) == 2, path
        captured = capsys.readouterr()
        assert captured.out == "" and "parse error" in captured.err, path


def test_cli_hull_search_refused_before_any_subset(capsys, tmp_path, monkeypatch):
    def kernel(rows):
        raise AssertionError("_kernel reached before the refusal")
    monkeypatch.setattr(polytope, "_kernel", kernel)
    cube = tmp_path / "cube.json"                       # {0, 1}^6: 64 points
    cube.write_text(json.dumps({"vertices": list(product((0, 1), repeat=6))}))
    assert main(["polytope", "--vertices", str(cube)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "74974368 6-point subsets" in captured.err


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3"], ["gauss", "--p", "7", "--j", "2"],
    ["sum", "--p", "3", "--n", "1", "--b", "1"], ["toric", "--poly", "x1", "--p", "5"],
    ["lfun", "--p", "3", "--n", "1", "--b", "1"]], ids=lambda argv: argv[0])
def test_cli_csv_is_refused_where_it_is_not_implemented(capsys, argv):
    assert main([*argv, "--out", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'csv'" in captured.err


def test_cli_verify_csv_has_one_row_per_case(capsys):
    code, out = run(capsys, "verify", "prop31", "--n", "1,2", "--out", "json")
    cases = json.loads(out)["cases"]
    code_csv, out = run(capsys, "verify", "prop31", "--n", "1,2", "--out", "csv")
    assert code == code_csv == 0
    lines = out.splitlines()
    assert lines[0] == "suite,case,status,lhs,rhs,detail"
    assert len(lines) == 1 + len(cases) > 1
    for line, case in zip(lines[1:], cases):
        assert line.startswith(f"prop31,{case['name']},{case['status']},")


def test_cli_verify_json_schema(capsys):
    code, out = run(capsys, "verify", "prop31", "--n", "1,2",
                    "--out", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["verify"])
    assert obj["verdict"] == "pass"


def test_cli_verify_deterministic_json(capsys):
    _, out1 = run(capsys, "verify", "thm0", "--p", "3", "--n", "1",
                  "--out", "json")
    _, out2 = run(capsys, "verify", "thm0", "--p", "3", "--n", "1",
                  "--out", "json")
    assert out1 == out2


# cor1 and thm1 read the tower through count arrays, priced by table cap
# and rounding bound; prop31 and thm33 enumerate nothing
@pytest.mark.parametrize("suite", ["prop31", "thm33", "cor1", "thm1"])
@pytest.mark.parametrize("flag", [["--budget", "1"], ["--budget", "10000000000"],
                                  ["--force"]])
def test_cli_verify_rejects_budget_flags_where_nothing_enumerates(capsys, suite,
                                                                   flag):
    grid = ["--p", "3", "--n", "1"] if suite in ("cor1", "thm1") else ["--n", "1"]
    assert main(["verify", suite, *grid, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err  # no such flag
    code, _ = run(capsys, "verify", suite, *grid)
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["lfun", "--p", "3", "--n", "1", "--b", "1"],
    ["sum", "--p", "3", "--n", "1", "--b", "1"],
    ["toric", "--poly", "x1", "--p", "5"],
    ["verify", "thm0", "--p", "3", "--n", "1"]], ids=lambda argv: argv[0])
def test_cli_lfun_has_no_budget_flag(capsys, argv):
    assert main([*argv, "--budget", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 5" in captured.err


def test_cli_field_and_gauss(capsys):
    code, out = run(capsys, "field", "--p", "3", "--a", "2")
    assert code == 0 and "x^2+1" in out
    code, out = run(capsys, "gauss", "--p", "7", "--j", "2")
    assert code == 0 and "|G| = 2.6457" in out


def test_cli_toric_text_poly(capsys):
    code, out = run(capsys, "toric", "--poly", "x1", "--p", "5")
    assert code == 0 and "-1.000000" in out


def test_cli_exit_codes(capsys, tmp_path):
    code, _ = run(capsys, "field", "--p", "4")
    assert code == 2                                    # usage error
    code, _ = run(capsys, "sum", "--p", "3", "--n", "3", "--b", "1", "--k", "8")
    assert code == 3                                    # over the point cap
    code, _ = run(capsys, "toric", "--poly", "x1+x1", "--p", "2")
    assert code == 2                                    # parse error
    code, _ = run(capsys, "gauss", "--p", "65537", "--j", "1")
    assert code == 3                                    # over the table cap
    for argv in (["sum", "--p", "5", "--n", "1", "--b", "1", "--k", "30", "--chi", "1,0"],
                 ["toric", "--poly", "x1+x2", "--p", "5", "--k", "30", "--chi", "1,0"]):
        assert main(argv) == 3, argv                    # refused before any lift
        captured = capsys.readouterr()
        assert captured.out == "" and "budget refusal" in captured.err, argv
    huge = tmp_path / "huge.json"                       # D = 226759569
    huge.write_text(json.dumps({"vertices": [
        [-2, -3, -1, 0], [-1, 2, -1, 3], [0, 0, 0, 0], [1, -3, 3, 0],
        [2, 3, 2, 2], [3, -2, 0, 1], [3, -2, 2, -3]]}))
    assert main(["polytope", "--vertices", str(huge)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "weight counts" in captured.err
    assert main(["nope"]) == 2                          # unknown command
    for argv, msg in ((["polytope", "--n", "0"], "n must be in 1..8"),
                      (["polytope"], "one of --n, --poly or --vertices")):
        assert main(argv) == 2, argv                    # no usable source
        captured = capsys.readouterr()
        assert captured.out == "" and msg in captured.err, argv
    for argv in (["sum", "--p", "5", "--n", "1", "--b", "1", "--k", "0"],
                 ["toric", "--p", "5", "--poly", "x1+x1^-1", "--k", "0"],
                 ["sum", "--p", "5", "--n", "0", "--b", "1"],
                 ["lfun", "--p", "5", "--n", "0", "--b", "1"],
                 ["verify", "thm0", "--p", "5", "--n", "0"],
                 ["verify", "thm1", "--p", "7", "--n", "0"],
                 ["verify", "cor1", "--p", "7", "--n", "0"],
                 ["lfun", "--p", "7", "--n", "1", "--b", "1", "--heldout=0"],
                 ["lfun", "--p", "7", "--n", "1", "--b", "1", "--heldout=-1"],
                 ["lfun", "--p", "7", "--n", "2", "--b", "1", "--heldout=0"],
                 ["field", "--p", "5", "--k", "0"],
                 ["field", "--p", "5", "--k", "-1"]):
        assert main(argv) == 2, argv                    # n, k or held-out k < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= 1" in captured.err, argv


def test_cli_tn_flag(capsys):
    code, out = run(capsys, "sum", "--p", "3", "--n", "1", "--b", "2",
                    "--tn")
    assert code == 0 and "T_1" in out
    # the transform is over F_q only; --k is refused, not ignored
    assert main(["sum", "--p", "5", "--n", "1", "--b", "2", "--tn", "--k", "2",
                 "--out", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--k does not apply" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["thm0", "--p", "3", "--n", "1", "--b", "2"], "--b"),
    (["thm2", "--b", "1"], "--b"),
    (["identities", "--p", "3", "--b", "2"], "--b"),
    (["cor1", "--p", "3"], "different lengths"),
    (["cor1", "--p", "3,5", "--n", "1"], "different lengths"),
    (["cor1", "--p", "3", "--n", "1", "--b", "1"], "--b"),
    (["thm1", "--n", "1"], "different lengths"),
    (["prop31", "--n", "1", "--p", "3"], "--p"),
    (["thm33", "--n", "1", "--b", "1"], "--b"),
])
def test_cli_verify_rejects_flags_the_suite_does_not_read(capsys, argv, flag):
    assert main(["verify", *argv, "--out", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"verify {argv[0]} does not read" in captured.err
    assert flag in captured.err


def test_cli_verify_reads_the_flags_it_documents(capsys):
    code, out = run(capsys, "verify", "cor1", "--p", "3", "--n", "1",
                    "--out", "json")
    assert code == 0 and json.loads(out)["grid"]["grid"] == [[1, 3]]
    code, out = run(capsys, "verify", "thm1", "--p", "3", "--n", "1",
                    "--b", "2", "--out", "json")
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == "pass"
    # an explicit grid runs only that grid: no contrast, no ordinariness table
    assert rep["grid"]["nonordinary"] == [] and rep["grid"]["ordinary_table"] is False
    assert [c["name"] for c in rep["cases"]] == [
        "slopes n=1 p=3 (all b)", "weights n=1 p=3 (all b)", "heldout n=1 p=3 k=[3, 4]"]
