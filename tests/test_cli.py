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
