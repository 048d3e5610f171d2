import hashlib
import json

import pytest

from masseylab import cli


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MASSEYLAB_CACHE_DIR", str(tmp_path / "cache"))


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_group_list(capsys):
    code, out = run(["group", "list", "--format", "records"], capsys)
    assert code == 0
    recs = records(out)
    assert recs[0]["schema-version"] == cli.SCHEMA_VERSION
    names = {r["name"] for r in recs[1:-1]}
    assert {"Z2", "Z4", "V4", "D4", "Q8", "U3_2", "S3", "SD9"} <= names


def test_group_show_and_check(tmp_path, capsys):
    code, out = run(["group", "show", "Z2", "--format", "records"], capsys)
    assert code == 0
    assert records(out)[1]["order"] == 2

    from masseylab import groups as gr
    tbl = tmp_path / "s3.tbl"
    tbl.write_text(gr.format_group_file(gr.build_symmetric3()))
    code, out = run(["group", "check", str(tbl)], capsys)
    assert code == 0

    bad = tmp_path / "bad.tbl"
    bad.write_text("order 3\ngenerators 1\n0 1 2\n1 2 0\n2 0 2\n")
    assert cli.main(["group", "check", str(bad)]) != 0
    capsys.readouterr()


def test_usage_errors(capsys):
    assert cli.main(["group", "show"]) == cli.EXIT_USAGE
    assert cli.main(["bogus"]) == cli.EXIT_USAGE
    assert cli.main(["group", "check", "/does/not/exist"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_cohomology_record(capsys):
    code, out = run(["cohomology", "--group", "Z2", "--p", "2",
                     "--format", "records"], capsys)
    assert code == 0
    rec = records(out)[1]
    assert rec["dim_h1"] == 1 and rec["dim_h2"] == 1
    assert rec["demushkin"] is True


def test_massey_query(tmp_path, capsys):
    q = tmp_path / "q.msq"
    q.write_text("group Z2\np 2\nn 3\na 1\na 0\na 1\n")
    code, out = run(["massey", str(q), "--format", "records"], capsys)
    assert code == 0
    rec = records(out)[1]
    assert rec["defined"] is True and rec["vanishes"] is True
    assert rec["witness_lift"] is not None


@pytest.mark.parametrize("p", ["0", "1", "4", "-3"])
def test_cohomology_rejects_a_modulus_that_is_not_a_supported_prime(p, capsys):
    assert cli.main(["cohomology", "--group", "V4", "--p", p]) == \
        cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BadParameter" in captured.err


def test_massey_query_rejects_a_modulus_that_is_not_prime(tmp_path, capsys):
    q = tmp_path / "q.msq"
    q.write_text("group Z2\np 4\nn 2\na 1\na 1\n")
    assert cli.main(["massey", str(q)]) == cli.EXIT_FAIL
    assert "BadParameter" in capsys.readouterr().err


def test_massey_query_parse_error(tmp_path, capsys):
    q = tmp_path / "q.msq"
    q.write_text("group Z2\np 2\nn 2\na 1\n")
    assert cli.main(["massey", str(q)]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_verify_case_by_case(capsys):
    code, out = run(["verify", "case-by-case", "--format", "records"], capsys)
    assert code == 0
    recs = records(out)
    orders = [r["orders"] for r in recs[1:-1]]
    assert [4, 4] in orders


def test_verify_deterministic_and_cache_transparent(capsys):
    argv = ["verify", "dwyer", "--group", "Z2", "--p", "2", "--n", "3",
            "--format", "records"]
    _, out1 = run(argv, capsys)
    _, out2 = run(argv, capsys)          # cache hit
    _, out3 = run(argv + ["--no-cache"], capsys)
    assert out1 == out2 == out3


def test_verify_twisting_seeded(capsys):
    argv = ["verify", "twisting", "--group", "V4", "--p", "2", "--n", "3",
            "--k", "2", "--sample", "4", "--seed", "9",
            "--format", "records", "--no-cache"]
    code, out1 = run(argv, capsys)
    assert code == 0
    _, out2 = run(argv, capsys)
    assert out1 == out2
    assert records(out1)[-1] == {"summary": {"holds": 4}}


def test_verify_fiber_quotient(capsys):
    code, out = run(["verify", "fiber-quotient", "--n", "4", "--p", "2",
                     "--format", "records"], capsys)
    assert code == 0
    assert records(out)[-1] == {"summary": {"holds": 3}}


def test_verify_cache_follows_the_table_behind_a_path(tmp_path, capsys):
    from masseylab import groups as gr
    tbl = tmp_path / "g.tbl"
    tbl.write_text(gr.format_group_file(gr.build_cyclic(2)))
    argv = ["verify", "dwyer", "--group", str(tbl), "--p", "2", "--n", "2",
            "--format", "records"]
    run(argv, capsys)
    tbl.write_text(gr.format_group_file(gr.build_vector_group(2, 2)))
    _, cached = run(argv, capsys)
    _, fresh = run(argv + ["--no-cache"], capsys)
    assert cached == fresh
    assert records(fresh)[-1] == {"summary": {"holds": 16}}


def test_cohomology_cache_keeps_the_group_name(tmp_path, capsys):
    from masseylab import groups as gr
    text = gr.format_group_file(gr.build_quaternion8())
    a, b = tmp_path / "a.tbl", tmp_path / "b.tbl"
    a.write_text(text)
    b.write_text(text)
    run(["cohomology", "--group", str(a), "--p", "2", "--format", "records"],
        capsys)
    argv = ["cohomology", "--group", str(b), "--p", "2", "--format", "records"]
    _, cached = run(argv, capsys)
    _, fresh = run(argv + ["--no-cache"], capsys)
    assert cached == fresh
    assert records(cached)[1]["group"] == str(b)


def test_memoised_state_does_not_change_output(capsys):
    dwyer = ["verify", "dwyer", "--group", "V4", "--p", "2", "--n", "2",
             "--format", "records"]
    _, first = run(dwyer, capsys)
    code, _ = run(["verify", "twisting", "--group", "V4", "--p", "2",
                   "--n", "3", "--k", "2", "--sample", "3", "--seed", "5",
                   "--format", "records", "--no-cache"], capsys)
    assert code == 0
    _, again = run(dwyer + ["--no-cache"], capsys)
    assert first == again


def test_tuple_budget_exceeded_exits_2(capsys):
    code, out = run(["verify", "strong-vanishing", "--group", "Z2", "--p",
                     "2", "--n", "4", "--tuple-budget", "1", "--no-cache",
                     "--format", "records"], capsys)
    assert code == cli.EXIT_BUDGET == 2
    recs = records(out)
    assert recs[1:-1] and all(r["verdict"] == "budget-exceeded"
                              for r in recs[1:-1])
    assert recs[-1] == {"summary": {"budget-exceeded": len(recs) - 2}}


def test_budget_flag_is_gone(capsys):
    assert cli.main(["verify", "case-by-case", "--budget", "5"]) == \
        cli.EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("p_line, n_line", [("p two", "n 2"),
                                             ("p 2", "n x")])
def test_query_file_with_a_non_integer_p_or_n_is_a_parse_error(
        p_line, n_line, tmp_path, capsys):
    q = tmp_path / "q.msq"
    q.write_text(f"group V4\n{p_line}\n{n_line}\na 1 0\na 0 1\n")
    assert cli.main(["massey", str(q), "--no-cache"]) == cli.EXIT_USAGE == 3
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "dwyer", "--n", "-1"],
    ["verify", "twisting", "--sample", "-1"],
    ["verify", "fiber-quotient", "--n", "0"],
], ids=lambda argv: " ".join(argv[1:]))
def test_bad_sizes_raise_bad_parameter(argv, capsys):
    code = cli.main([*argv, "--format", "records", "--no-cache"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_FAIL and out == ""
    assert err.startswith("error: BadParameter: ")


@pytest.mark.parametrize("argv", [
    ["verify", "dwyer", "--group", "Z1", "--p", "2", "--n", "3"],
    ["verify", "easy-vanishing", "--group", "Z1", "--p", "2", "--n", "3"],
    ["verify", "twisting", "--group", "Z1", "--p", "2", "--n", "3",
     "--k", "2"],
    ["verify", "strong-vanishing", "--group", "Z1", "--p", "2", "--n", "3"],
    ["cohomology", "--group", "Z1", "--p", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_trivial_group_commands_hold(argv, capsys):
    code, out = run([*argv, "--format", "records", "--no-cache"], capsys)
    assert code == 0
    recs = records(out)
    assert len(recs) == 3 and recs[-1] == {"summary": {"holds": 1}}
    assert recs[1].get("verdict", "holds") == "holds"
    if argv[0] == "cohomology":
        assert recs[1] == {"cup_form_nondegenerate": None,
                           "demushkin": False, "dim_h1": 0, "dim_h2": 0,
                           "group": "Z1", "p": 2}
    if argv[1] == "strong-vanishing":
        assert recs[1] == {"counterexample": None, "n": 3,
                           "tuples_checked": 1, "verdict": "holds"}


def test_trivial_group_massey_query(tmp_path, capsys):
    q = tmp_path / "q.msq"
    q.write_text("group Z1\np 2\nn 3\na\na\na\n")
    code, out = run(["massey", str(q), "--format", "records", "--no-cache"],
                    capsys)
    assert code == 0
    rec = records(out)[1]
    assert rec["chars"] == [[], [], []] and rec["verdict"] == "holds"
    assert rec["defined"] is rec["vanishes"] is True
    assert rec["witness_lift"] == []


# sha256 of the `--format records --no-cache` output of cheap commands: any
# change to a record, its order or its formatting shows here, so a change
# that means to alter records has to pin the new hashes.
GOLDEN_RECORDS = {
    "verify case-by-case":
        "c78e87bd97bf4429e88dc8ddb687f8600ce1d2940a9d496c15e2771b8f31f5d4",
    "verify fiber-quotient --n 4 --p 2":
        "a02f4e03928848a5ad26349bcfb4a0e69dc4cf6b5a182a7e2d1b0e19a7bd90be",
    "verify dwyer --group V4 --p 2 --n 3":
        "333c59b0ab3ad2195af124e2d7342e5c1c360b8e19a3b0a88292183cd6ce1c42",
    "verify dwyer --group Z3 --p 3 --n 3":
        "fad8795659cd5c1c2689d3e038763954bb9382eef8afc931f1821d12074f6a41",
    "verify easy-vanishing --group Z3 --p 2 --n 3":
        "2d0308e799c484307e15d5db7608e6aa77775fbe66d9b80de476b24c1ed16cd3",
    "verify twisting --group V4 --p 2 --n 3 --k 2 --sample 20 --seed 1":
        "e6dae6844b8fa888b2f47cee1788c6f405e7d11603fca7093f3716d21779dd60",
    "verify strong-vanishing --group Z2 --p 2 --n 6":
        "f67f53fef3caec42ea54b8241296e4daaecdd2ab961fa9ba31323883821a2920",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RECORDS))
def test_records_match_the_pinned_hash(command, capsys):
    code, out = run([*command.split(), "--format", "records", "--no-cache"],
                    capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RECORDS[command]
