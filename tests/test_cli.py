import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwreath
import gwreath.cli
from gwreath.cli import main
from gwreath.groups import group_from_spec
from gwreath.invariant import structure_constant_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_multiply_partitions_worked_example(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "({1}:1|{2}:0)", "({1,2}:1)",
    )
    assert code == 0
    assert out.strip() == "({1}:0|{2}:1)"


def test_multiply_identity_returns_other_operand(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "3",
        "({1,2,3}:0)", "({2}:1|{1,3}:0)",
    )
    assert code == 0
    assert out.strip() == "({2}:1|{1,3}:0)"


def test_multiply_wreath_worked_example(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "[(2:1)(1:0)]", "[(2:0)(1:1)]",
    )
    assert code == 0
    assert out.strip() == "[(1:0)(2:0)]"


def test_multiply_sigma_combination(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:1", "--n", "2",
        "sigma(1:0|1:0)", "sigma(1:0|1:0)",
    )
    assert code == 0
    assert out.strip() == "2*sigma(1:0|1:0)"


def test_multiply_x_combination_closure(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "X(1:0|1:1)", "X(2:0)",
    )
    assert code == 0
    assert out.strip() == "X(1:0|1:1)"


def test_multiply_x_operand_with_leading_minus_after_double_dash(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "--", "-X(1:0|1:1)", "X(2:0)",
    )
    assert code == 0
    assert out.strip() == "-X(1:0|1:1)"


def test_multiply_x_beyond_wreath_size_guard(capsys):
    # |G|^n n! = 3^7 * 7! is over the default limit, but X products go
    # through the sigma basis and never enumerate the wreath product
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:3", "--n", "7",
        "X(7:0)", "X(3:1|4:2)",
    )
    assert code == 0
    assert out.strip() == "X(3:1|4:2)"


FINEST_8 = "sigma(" + "|".join(["1:0"] * 8) + ")"


def test_multiply_sigma_size_guard(capsys):
    # finest composition squared at n=8: up to 8! = 40320 compatible matrices
    code, out, err = run(
        capsys, "multiply", "--group", "cyclic:1", "--n", "8", "--limit", "10",
        FINEST_8, FINEST_8,
    )
    assert (code, out) == (3, "")
    assert "40320" in err and "limit of 10" in err


def test_multiply_sigma_under_default_limit(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:1", "--n", "8", FINEST_8, FINEST_8,
    )
    assert code == 0
    assert out.strip() == "40320*" + FINEST_8


def test_multiply_x_size_guard(capsys):
    # fibers of 5!/(1!2!2!) = 30 and 5!/(2!3!) = 10 partitions
    code, _, err = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "5", "--limit", "9",
        "X(1:0|2:1|2:0)", "X(2:0|3:1)",
    )
    assert code == 3
    assert "estimated 10 items" in err


def test_multiply_json_format(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "--format", "json", "({1}:1|{2}:0)", "({1,2}:1)",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["product"] == "({1}:0|{2}:1)"
    assert payload["kind"] == "partition"


def test_multiply_kind_mismatch(capsys):
    code, _, err = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "({1,2}:1)", "[(1:0)(2:0)]",
    )
    assert code == 2
    assert "kind" in err


def test_multiply_kind_mismatch_names_both_kinds(capsys):
    code, out, err = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "sigma(2:0)", "({1,2}:1)",
    )
    assert code == 2
    assert out == ""
    assert err == "error: operands have different kinds: sigma vs partition\n"


def test_multiply_reads_back_the_empty_combination(capsys):
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:1", "--n", "1",
        "sigma(1:0) - sigma(1:0)", "sigma(1:0)",
    )
    assert (code, out) == (0, "0\n")
    for lhs, rhs in [(out, "X(1:0)"), ("X(1:0)", out), (out, "sigma(1:0)")]:
        assert run(capsys, "multiply", "--group", "cyclic:1", "--n", "1", lhs, rhs)[:2] == (
            0, "0\n")
    code, out, _ = run(
        capsys, "multiply", "--group", "cyclic:1", "--n", "1", "--format", "json", "0", " 0 ")
    assert code == 0
    assert (json.loads(out)["kind"], json.loads(out)["product"]) == ("sigma", "0")
    for lhs, rhs in [("0", "({1}:0)"), ("[(1:0)]", "0")]:
        code, out, err = run(capsys, "multiply", "--group", "cyclic:1", "--n", "1", lhs, rhs)
        assert (code, out) == (2, "")
        assert "operands have different kinds" in err


def test_multiply_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, "multiply", "--group", "cyclic:2", "--n", "2",
        "({1,2}:9)", "({1,2}:1)",
    )
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("operand,message", [
    ("foo(1:0)", "expected 'sigma' or 'x' before '(', found 'foo' (at position 0)"),
    ("sigma(0:0)", "part sizes must be positive (at position 6)"),
    ("sigma(1:)", "expected a name (at position 8)"),
])
def test_multiply_combination_parse_errors(capsys, operand, message):
    code, out, err = run(capsys, "multiply", "--group", "cyclic:1", "--n", "1",
                         operand, "sigma(1:0)")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_multiply_refuses_a_digit_that_is_not_decimal(capsys):
    code, out, err = run(capsys, "multiply", "--group", "cyclic:1", "--n", "1",
                         "sigma(\u00b2:0)", "sigma(1:0)")
    assert (code, out, err) == (2, "", "error: expected an integer (at position 6)\n")


@pytest.mark.parametrize("labels,label", [(["e", "x|y"], "'x|y'"), (["e", [1]], "[1]")])
def test_group_file_labels_must_read_back(tmp_path, capsys, labels, label):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": labels}),
                    encoding="utf-8")
    code, out, err = run(capsys, "multiply", "--group", f"file:{path}", "--n", "2",
                         "({1}:1|{2}:0)", "({1,2}:0)")
    assert (code, out) == (2, "")
    assert err == f"error: label {label} is not a name (letters, digits and underscores)\n"


ONES = "|".join(["1:0"] * 1000)


@pytest.mark.parametrize("lhs,rhs,product", [
    (f"sigma({ONES})", "sigma(1000:0)", f"sigma({ONES})"),
    ("sigma(1000:0)", f"sigma({ONES})", f"sigma({ONES})"),
    (f"X({ONES})", "X(1000:0)", f"X({ONES})"),
], ids=["rows", "columns", "x"])
def test_multiply_a_thousand_parts(capsys, lhs, rhs, product):
    # one table of a thousand rows or columns: the guard's estimate is 1,
    # and the walk over the table's cells takes no stack depth per part
    code, out, err = run(capsys, "multiply", "--group", "cyclic:1", "--n", "1000", lhs, rhs)
    assert (code, out, err) == (0, product + "\n", "")


def test_bad_group_spec(capsys):
    code, _, err = run(capsys, "verify", "counts", "--group", "foo:3", "--n", "2")
    assert code == 2
    assert "group specifier" in err


def test_unknown_target_is_usage_error(capsys):
    code = main(["verify", "nonsense", "--group", "cyclic:2", "--n", "2"])
    capsys.readouterr()
    assert code == 2


def test_verify_counts_z2_n3(capsys):
    code, out, _ = run(
        capsys, "verify", "counts", "--group", "cyclic:2", "--n", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["partition_count"] == 74
    assert report["schema_version"] == 1


@pytest.mark.parametrize("target,group,n", [
    ("identities", "symmetric:3", "2"),
    ("prop1", "cyclic:2", "2"),
    ("mobius", "cyclic:2", "2"),
    ("theorem1", "cyclic:2", "3"),
    ("left-ideal", "cyclic:2", "2"),
])
def test_verify_targets_pass(capsys, target, group, n):
    code, out, _ = run(capsys, "verify", target, "--group", group, "--n", n)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["theorem"] == target


def test_verify_text_format_summary(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem1", "--group", "cyclic:2", "--n", "2",
        "--format", "text",
    )
    assert code == 0
    assert out.startswith("PASS theorem1")


def test_verify_sampled_seed_recorded_and_deterministic(capsys):
    args = ("verify", "theorem1", "--group", "cyclic:2", "--n", "3",
            "--mode", "sampled", "--samples", "25", "--seed", "42")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["seed"] == 42
    assert report["pairs_checked"] == 25


def test_size_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "verify", "identities", "--group", "cyclic:2", "--n", "4",
        "--limit", "10",
    )
    assert code == 3
    assert "limit" in err


@pytest.mark.parametrize("extra", [
    # exhaustive: 4,683**2 X term pairs, though only 32 compositions
    ("--n", "6"),
    # sampled: the one drawn pair would multiply 12,700,800 term pairs
    ("--n", "7", "--mode", "sampled", "--samples", "1", "--seed", "83"),
])
def test_theorem1_guard_counts_x_terms(capsys, extra):
    code, out, err = run(capsys, "verify", "theorem1", "--group", "cyclic:1", *extra)
    assert code == 3
    assert out == ""
    assert "limit of 5000000" in err


def test_cyclic_order_over_table_cap_exits_3(capsys):
    # 2237^2 table entries is over DEFAULT_LIMIT, whatever --limit says
    code, out, err = run(
        capsys, "multiply", "--group", "cyclic:2237", "--n", "1", "--limit", "10",
        "[(1:0)]", "[(1:1)]",
    )
    assert code == 3
    assert out == ""
    assert "at most 2236" in err


def test_file_group_over_table_cap_exits_3(tmp_path, capsys):
    # 2237 rows are refused on their count, before the shape is looked at
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"table": [[0]] * 2237}), encoding="utf-8")
    code, out, err = run(
        capsys, "multiply", "--group", f"file:{path}", "--n", "1", "[(1:0)]", "[(1:0)]",
    )
    assert (code, out) == (3, "")
    assert "group order must be at most 2236" in err


@pytest.mark.parametrize("spec,code", [
    ("symmetric:0", 2), ("symmetric:-1", 2), ("symmetric:100000", 3),
])
def test_symmetric_degree_exit_codes(capsys, spec, code):
    got, out, err = run(
        capsys, "multiply", "--group", spec, "--n", "1", "[(1:0)]", "[(1:0)]",
    )
    assert got == code
    assert out == ""
    assert "between 1 and 5" in err


@pytest.mark.parametrize("argv,code", [
    # one part of size 10^6: the multinomial estimate is 1, built from comb
    (("multiply", "--group", "cyclic:1", "--n", "1000000",
      "sigma(1000000:0)", "sigma(1000000:0)"), 0),
    # a basis of 2 * 3^19999 compositions, counted in closed form
    (("structure-constants", "--group", "cyclic:2", "--n", "20000"), 3),
    # an estimate of more digits than Python turns into text
    (("verify", "prop1", "--group", "cyclic:2", "--n", "9100"), 3),
])
def test_huge_n_is_decided_by_the_estimate_alone(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 3:
        assert "or more items" in err


@pytest.mark.parametrize("target", ["counts", "identities", "left-ideal", "mobius"])
def test_partition_guard_refuses_on_its_cheap_bound(capsys, target):
    # the exact count of ordered partitions of 2000 points takes seconds;
    # its k = n term, 2000!, is already over the limit
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", target, "--group", "cyclic:1", "--n", "2000")
    elapsed = time.perf_counter() - started
    assert code == 3
    assert out == ""
    assert "or more items" in err
    assert elapsed < 0.5


@pytest.mark.parametrize("target", ["identities", "prop1", "theorem1"])
def test_sampled_sweep_counts_its_samples_against_the_limit(capsys, target):
    argv = ("verify", target, "--group", "cyclic:1", "--n", "1", "--mode", "sampled",
            "--limit", "10")
    assert run(capsys, *argv, "--samples", "10")[0] == 0
    started = time.perf_counter()
    code, out, err = run(capsys, *argv, "--samples", "11")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (3, "")
    assert "estimated 11 items, over the limit of 10" in err


def test_negative_limit_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "counts", "--group", "cyclic:2", "--n", "3",
        "--limit", "-5",
    )
    assert code == 2
    assert "--limit" in err


def test_out_writes_report_and_prints_summary(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "mobius", "--group", "cyclic:2", "--n", "2",
        "--out", str(path),
    )
    assert code == 0
    assert out.startswith("PASS mobius")
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["schema_version"] == 1


@pytest.mark.parametrize("argv", [
    ("multiply", "--group", "cyclic:2", "--n", "2", "[(1:0)(2:0)]", "[(2:1)(1:0)]"),
    ("structure-constants", "--group", "cyclic:1", "--n", "2"),
    ("verify", "counts", "--group", "cyclic:1", "--n", "2"),
], ids=["multiply", "structure-constants", "verify"])
@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "dir"])
def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys, argv, target):
    # a missing parent directory, or a directory in place of a file
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "dir"])
def test_out_path_refused_before_any_work(tmp_path, capsys, monkeypatch, target):
    def build(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(gwreath.cli, "structure_constant_table", build)
    code, out, err = run(capsys, "structure-constants", "--group", "cyclic:2", "--n", "5",
                         "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err.startswith("error: --out path ") and err.count("\n") == 1


def test_out_file_untouched_by_a_refused_command(tmp_path, capsys):
    # the early --out check creates and truncates nothing
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_text("kept", encoding="utf-8")
    for path in (kept, absent):
        code, out, _ = run(capsys, "structure-constants", "--group", "cyclic:2", "--n", "5",
                           "--limit", "10", "--out", str(path))
        assert (code, out) == (3, "")
    assert kept.read_text(encoding="utf-8") == "kept"
    assert not absent.exists()


def test_structure_constants_output(capsys):
    code, out, _ = run(
        capsys, "structure-constants", "--group", "cyclic:1", "--n", "2",
    )
    assert code == 0
    table = json.loads(out)
    assert table["basis"] == ["(2:0)", "(1:0|1:0)"]
    assert table["products"]["1,1"] == [[1, 2]]


def test_structure_constants_deterministic(capsys):
    args = ("structure-constants", "--group", "cyclic:2", "--n", "2")
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b


@pytest.mark.parametrize("spec,n", [("cyclic:2", 3), ("symmetric:3", 2)])
def test_structure_constants_bytes_on_stdout_and_out(tmp_path, capsys, spec, n):
    expected = json.dumps(
        structure_constant_table(group_from_spec(spec), n),
        indent=2, sort_keys=True, ensure_ascii=False,
    ) + "\n"
    code, out, _ = run(capsys, "structure-constants", "--group", spec, "--n", str(n))
    assert code == 0
    assert out == expected
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "structure-constants", "--group", spec, "--n", str(n),
                       "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_bytes() == expected.encode("utf-8")


# SHA-256 of the stdout of structure-constants, so that a change in the
# order or the values of any product changes the bytes.
@pytest.mark.parametrize("spec,n,digest", [
    ("cyclic:2", 3, "84ddd06740159e25ec491fb00391f31afa6eee6544d7dfbac7562396c335e558"),
    ("klein4", 2, "286cfc559d919b366f021ec05874ae0e0e2cc27340d7bfcb77c4ce60e568c625"),
    ("symmetric:3", 2, "c31b65f9cbf9fbf1cdbcb4febf69fab713a5846e5acd197da10db0299eba143d"),
    ("cyclic:3", 3, "a7bb02e7e14b01301829e6d99814f046f26ed13898d9868c53d7e4881147b1f6"),
])
def test_structure_constants_stdout_sha256(capsys, spec, n, digest):
    code, out, err = run(capsys, "structure-constants", "--group", spec, "--n", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_usage_error_exit_code(capsys):
    assert main(["multiply", "--group", "cyclic:2"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["multiply", "--group", "cyclic:2", "--n", "0", "x", "y"]) == 2
    capsys.readouterr()


def test_stray_double_dash_after_the_operands_is_usage_error(capsys):
    # argparse hands rhs over as [] when a second "--" follows the operands
    code, out, err = run(capsys, "multiply", "--group", "klein4", "--n", "2",
                         "--", "[(2:1)(1:0)]", "--")
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: rhs\n"


OPERAND_ALPHABET = "sigmaSIGMAxX()[]{}|:,;0123456789+-* \t\n"


@settings(max_examples=200, deadline=None)
@given(group=st.sampled_from(["cyclic:2", "klein4", "symmetric:3"]),
       lhs=st.one_of(st.text(max_size=30), st.text(OPERAND_ALPHABET, max_size=30)),
       rhs=st.one_of(st.text(max_size=30), st.text(OPERAND_ALPHABET, max_size=30)))
@example(group="klein4", lhs="[(2:1)(1:0)]", rhs="--")
def test_any_operand_text_gets_a_documented_exit_code(group, lhs, rhs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["multiply", "--group", group, "--n", "2", "--", lhs, rhs])
    assert code in (0, 2, 3)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("content", [
    {"table": [1, 2]},
    {"table": 5},
    {"order": 2, "table": 5},
    {"table": "ab"},
    {"table": [[0]], "labels": 5},
])
def test_malformed_group_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(
        capsys, "multiply", "--group", f"file:{path}", "--n", "1", "({1}:0)", "({1}:0)",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be a list" in err


def test_deeply_nested_group_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run(
        capsys, "multiply", "--group", f"file:{path}", "--n", "1", "({1}:0)", "({1}:0)",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read group file {path}: ")
    assert err.count("\n") == 1


# The exact stdout of every other JSON document: the four multiply kinds and
# two verify reports, all in the one envelope (schema_version, group, n).
def _multiply_document(kind, lhs, rhs, product):
    return (
        "{\n"
        '  "command": "multiply",\n'
        '  "group": "cyclic:2",\n'
        f'  "kind": "{kind}",\n'
        f'  "lhs": "{lhs}",\n'
        '  "n": 2,\n'
        f'  "product": "{product}",\n'
        f'  "rhs": "{rhs}",\n'
        '  "schema_version": 1\n'
        "}\n"
    )


@pytest.mark.parametrize("kind,lhs,rhs,product", [
    ("partition", "({1}:1|{2}:0)", "({1,2}:1)", "({1}:0|{2}:1)"),
    ("wreath", "[(2:1)(1:0)]", "[(1:1)(2:1)]", "[(2:0)(1:1)]"),
    ("sigma", "sigma(1:0|1:1)", "sigma(2:1)+2*sigma(1:1|1:1)", "5*sigma(1:1|1:0)"),
    ("x", "X(1:1|1:0)", "X(2:0)-X(1:0|1:1)", "-X(1:0|1:0) + X(1:1|1:0) - X(1:1|1:1)"),
])
def test_multiply_json_bytes(capsys, kind, lhs, rhs, product):
    code, out, err = run(capsys, "multiply", "--group", "cyclic:2", "--n", "2",
                         "--format", "json", lhs, rhs)
    assert (code, err) == (0, "")
    assert out == _multiply_document(kind, lhs, rhs, product)


@pytest.mark.parametrize("argv,expected", [
    (("counts",), """{
  "composition_count": 6,
  "failures": [],
  "group": "cyclic:2",
  "mode": "exhaustive",
  "n": 2,
  "pairs_checked": 4,
  "partition_count": 10,
  "passed": true,
  "schema_version": 1,
  "seed": null,
  "theorem": "counts",
  "wreath_count": 8
}
"""),
    (("prop1", "--mode", "sampled", "--samples", "5", "--seed", "3"), """{
  "failures": [],
  "group": "cyclic:2",
  "mode": "sampled",
  "n": 2,
  "pairs_checked": 5,
  "passed": true,
  "schema_version": 1,
  "seed": 3,
  "theorem": "prop1"
}
"""),
])
def test_verify_json_bytes(capsys, argv, expected):
    code, out, err = run(capsys, "verify", argv[0], "--group", "cyclic:2", "--n", "2",
                         *argv[1:])
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("target,extra,err", [
    # the first over-limit pair is drawn late in both samples
    ("prop1", ("--mode", "sampled", "--samples", "60", "--seed", "0"),
     "error: brute-force sigma product would produce an estimated 6350400 items"),
    ("theorem1", ("--mode", "sampled", "--samples", "200", "--seed", "0"),
     "error: group-algebra product of two X vectors at n=7, |G|=1 would produce "
     "an estimated 6350400 items"),
    # exhaustive: 64**2 composition pairs, but (1|1|...|1) times itself
    # is 5040**2 partition products
    ("prop1", (), "error: exhaustive prop1 sweep at n=7, |G|=1 would produce an estimated "
     "25401600 items"),
])
def test_over_limit_pair_refused_before_any_product(capsys, target, extra, err):
    started = time.perf_counter()
    code, out, got = run(capsys, "verify", target, "--group", "cyclic:1", "--n", "7", *extra)
    elapsed = time.perf_counter() - started
    assert (code, out) == (3, "")
    assert got == (err + ", over the limit of 5000000; raise the limit "
                   "(or pass limit=None) to force\n")
    assert elapsed < 2


@pytest.mark.parametrize("target", ["identities", "prop1", "theorem1"])
def test_exhaustive_pair_sweeps_share_one_guard(capsys, target):
    # 9002 colored partitions at cyclic:2, n=5: 3840**2, the square of the
    # cheap first term, is over the default limit already
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", target, "--group", "cyclic:2", "--n", "5")
    elapsed = time.perf_counter() - started
    assert (code, out) == (3, "")
    assert err == (f"error: exhaustive {target} sweep at n=5, |G|=2 would produce an "
                   "estimated 14745600 items, over the limit of 5000000; raise the limit "
                   "(or pass limit=None) to force\n")
    assert elapsed < 0.5


def test_exhaustive_prop1_counts_every_product(capsys):
    # 26**2 composition pairs and at most 6**2 products per pair fit under
    # 1000, but the sweep expands 74**2 products in all; 48**2, the square
    # of the cheap first term, is refused already
    code, out, err = run(capsys, "verify", "prop1", "--group", "cyclic:2", "--n", "3",
                         "--limit", "1000")
    assert (code, out) == (3, "")
    assert err.startswith("error: exhaustive prop1 sweep at n=3, |G|=2 would produce "
                          "an estimated 2304 items")


@pytest.mark.parametrize("target,estimate", [
    # |G wr S_3| = 3! * 2^3 = 48, the cheap first term of every target
    ("identities", 2304), ("prop1", 2304), ("mobius", 48), ("theorem1", 2304),
    ("left-ideal", 2304), ("counts", 48),
])
def test_every_target_shares_one_guard(capsys, target, estimate):
    code, out, err = run(capsys, "verify", target, "--group", "cyclic:2", "--n", "3",
                         "--limit", "10")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: exhaustive {target} sweep at n=3, |G|=2 would produce "
                          f"an estimated {estimate} items, over the limit of 10;")


def test_mobius_is_refused_on_the_x_terms_it_expands(capsys):
    # 10! = 3628800 wreath elements fit under the default limit, but the
    # sweep would expand sum_k k! S(10, k) 2^(10 - k) = 880405504 X terms
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "mobius", "--group", "cyclic:1", "--n", "10")
    elapsed = time.perf_counter() - started
    assert (code, out) == (3, "")
    assert err.startswith("error: exhaustive mobius sweep at n=10, |G|=1 would produce "
                          "an estimated 880405504 items")
    assert elapsed < 0.5


@pytest.mark.parametrize("spec,n,estimate", [
    # the sum over computed rows of min(|F_a|, |F_b|)
    ("cyclic:1", 10, 16339875651), ("cyclic:2", 6, 19093290),
    # n! |G|^(2n-1), the pairs of singleton parts
    ("cyclic:1", 12, 479001600), ("cyclic:2", 7, 41287680),
])
def test_structure_constants_counts_the_skeletons_it_colors(capsys, spec, n, estimate):
    started = time.perf_counter()
    code, out, err = run(capsys, "structure-constants", "--group", spec, "--n", str(n))
    elapsed = time.perf_counter() - started
    assert (code, out) == (3, "")
    assert err.startswith(f"error: structure constant table at n={n}, |G|={spec[-1]} would "
                          f"produce an estimated {estimate} items")
    assert elapsed < 1


def test_sampled_theorem1_builds_only_the_x_vectors_it_uses(capsys):
    # the 74 X terms in all are over the limit, the drawn pair's are not
    code, out, err = run(capsys, "verify", "theorem1", "--group", "cyclic:2", "--n", "3",
                         "--mode", "sampled", "--samples", "1", "--seed", "0",
                         "--limit", "60", "--format", "text")
    assert (code, err) == (0, "")
    assert out.startswith("PASS theorem1 group=cyclic:2 n=3 checked=1 ")


@pytest.mark.parametrize("extra,code,out", [
    ((), 0, "PASS counts group=cyclic:2 n=3 checked=4 failures=0\n"),
    (("--limit", "10"), 3, ""),
])
def test_python_m_gwreath(extra, code, out):
    # the package's __main__, in a fresh interpreter that imports this gwreath
    src = os.path.dirname(os.path.dirname(gwreath.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "gwreath", "verify", "counts", "--group", "cyclic:2",
         "--n", "3", "--format", "text", *extra],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (code, out)
