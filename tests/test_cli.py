import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from masseylab import cli
from masseylab import cochains as cc
from masseylab import gfp
from masseylab import groups as gr
from masseylab.errors import MasseyLabError, ParseError


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


@pytest.mark.parametrize("gen", ["5", "-1"])
@pytest.mark.parametrize("argv", [["group", "check"],
                                  ["cohomology", "--p", "2", "--group"]])
def test_a_generator_outside_the_table_is_a_parse_error(gen, argv, tmp_path,
                                                        capsys):
    """Index 5 once ran off the table rows and -1 read the last row, so
    both files ended in a traceback."""
    tbl = tmp_path / "g.tbl"
    tbl.write_text(f"order 2\ngenerators {gen}\n0 1\n1 0\n")
    assert cli.main([*argv, str(tbl), "--no-cache"]) == cli.EXIT_USAGE == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("order", ["0", "-1"])
def test_an_order_below_1_is_a_parse_error_on_line_1(order, tmp_path, capsys):
    """order 0 once ended in `error: NoIdentity` with exit 1, and order -1
    in `expected -1 table rows, got 0`."""
    tbl = tmp_path / "g.tbl"
    tbl.write_text(f"order {order}\ngenerators\n")
    assert cli.main(["group", "check", str(tbl)]) == cli.EXIT_USAGE == 3
    assert capsys.readouterr().err.startswith("parse error: line 1: ")


def test_an_entry_outside_the_table_is_a_parse_error_on_its_line(tmp_path,
                                                                 capsys):
    """The 5 on line 4 was once reported as `row 1 is not a valid index row
    of length 2`, by its 0-based table row and with no file line."""
    tbl = tmp_path / "g.tbl"
    tbl.write_text("order 2\ngenerators 1\n0 1\n1 5\n")
    assert cli.main(["group", "check", str(tbl)]) == cli.EXIT_USAGE == 3
    assert capsys.readouterr().err == \
        "parse error: line 4: entry 5 outside 0..1\n"


@pytest.mark.parametrize("argv,text,error", [
    (["group", "check"], "\n\norder 2\ngenerators 1\n0 1\n1 x\n",
     "line 6: bad table row"),
    (["massey"], "# a comment\n\ngroup Z2\np 2\nn 2\na 1\na x\n",
     "line 7: bad character row"),
    (["group", "check"], "order 2\ngenerators 5\n0 1\n1 0\n",
     "line 2: generators [5] not all in 0..1"),
    (["group", "check"], "order 2\ngenerators 1\n0 1\n1 0\n1 0\n",
     "line 5: expected 2 table rows, got 3"),
    (["group", "check"], "order 2\ngenerators 1\n0 1\n# end\n",
     "line 4: expected 2 table rows, got 1"),
    (["group", "check"], "order 2\n",
     "line 1: expected `generators i j ...`"),
    (["group", "check"], "orders 2\ngenerators 1\n0 1\n1 0\n",
     "line 1: expected `order N`"),
    (["group", "check"], "order 2 7\ngenerators 1\n0 1\n1 0\n",
     "line 1: expected `order N`"),
    (["massey"], "group V4\np 2\nn 2\na 1 0\na 0 1\na 1 1\n",
     "line 6: expected 2 character rows, got 3"),
    (["massey"], "group V4\np 2\nn 2\na 1 0\n\n",
     "line 5: expected 2 character rows, got 1"),
    (["massey"], "group V4\np 2\nn 2\na 1 0 1\na 0 1\n",
     "line 4: character row has 3 values for 2 generators"),
    (["massey"], "group S3\np 3\nn 2\na 0 0\na 1 0\n",
     "line 5: generator values do not extend to a character"),
    (["massey"], "group V4\np two\nn 2\na 1 0\na 0 1\n",
     "line 2: `p` and `n` must be integers, got 'two' and '2'"),
    (["massey"], "group V4\np 2\nn x\na 1 0\na 0 1\n",
     "line 3: `p` and `n` must be integers, got '2' and 'x'"),
    (["massey"], "group NoSuchGroup\np 2\nn 2\na 1 0\na 0 1\n",
     "line 1: unknown group 'NoSuchGroup' (not a fixture, not a file)"),
    (["massey"], "p 2\nn 2\na 1 0\na 0 1\n",
     "line 4: missing `group` line"),
    (["massey"], "", "line 1: missing `group` line"),
], ids=["group file", "query file", "generator out of range",
        "extra table row", "missing table row", "missing generators line",
        "keyword prefix", "extra order token", "extra character row",
        "missing character row", "character row too long",
        "values with no character", "p not integer", "n not integer",
        "unknown group", "missing group line", "empty query"])
def test_a_parse_error_names_the_line_as_numbered_in_the_file(
        argv, text, error, tmp_path, capsys):
    """Both files were once numbered after dropping lines: the group file
    its leading blank lines (line 4), the query file its blank and `#`
    lines (line 5). Errors found after the reading loop once named no line;
    one about a missing line names the file's last line, and a missing
    `generators` line was once put on line 2 of a one-line file. A keyword
    is a whole token: `orders 2` was once read as `order 2`, and a keyword
    line has exactly its tokens: `order 2 7` was once read as `order 2`."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main([*argv, str(path)]) == cli.EXIT_USAGE == 3
    assert capsys.readouterr().err == f"parse error: {error}\n"


def test_a_group_file_named_by_a_query_file_is_named_in_its_errors(
        tmp_path, monkeypatch, capsys):
    """A bad row of a query's group file was once reported by its line
    alone, with nothing to say that the line is not the query file's. The
    group file's own commands keep the line-only message."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.tbl").write_text("order 2\ngenerators 1\n0 1\n1 x\n")
    (tmp_path / "q.msq").write_text("group bad.tbl\np 2\nn 2\na 1\na 1\n")
    assert cli.main(["massey", "q.msq"]) == cli.EXIT_USAGE == 3
    assert capsys.readouterr().err == \
        "parse error: bad.tbl: line 4: bad table row\n"
    with pytest.raises(ParseError) as e:
        cli.parse_query_file((tmp_path / "q.msq").read_text())
    assert e.value.line == 4
    for argv in (["group", "check", "bad.tbl"],
                 ["cohomology", "--group", "bad.tbl", "--p", "2"]):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            "parse error: line 4: bad table row\n"


def test_blank_and_comment_lines_among_table_rows_are_skipped(tmp_path,
                                                              capsys):
    """A blank line among the rows was once counted as a third table row,
    and a `#` line read as a bad one."""
    tbl = tmp_path / "g.tbl"
    tbl.write_text("# Z2\norder 2\ngenerators 1\n0 1\n\n# row 1\n1 0\n")
    assert cli.main(["group", "check", str(tbl)]) == cli.EXIT_OK
    capsys.readouterr()


# the files the mutations start from: fixture group files (V4 with its
# identity at index 2 as well) and valid query files
PARSE_CASES = [(gr.parse_group_file, gr.format_group_file(cli.FIXTURES[name]()))
               for name in ("Z2", "Z3", "V4", "S3", "Q8")] + [
    (gr.parse_group_file,
     "order 4\ngenerators 0 1\n2 3 0 1\n3 2 1 0\n0 1 2 3\n1 0 3 2\n"),
    (cli.parse_query_file, "group V4\np 2\nn 3\na 1 0\na 0 1\na 1 1\n"),
    (cli.parse_query_file, "# Z3 at p = 3\ngroup Z3\np 3\nn 2\na 1\na 2\n"),
    (cli.parse_query_file, "group S3\np 2\nn 2\na 1 1\na 1 1\n"),
]
# no token names a file, so a query's group is a fixture or unknown
TOKENS = ["0", "1", "2", "3", "5", "-1", "x", "#", "a", "p", "n", "group",
          "order", "orders", "generators", "V4", "Z2", "NoSuchGroup"]
LINES = ["order 2", "generators 1", "0 1", "1 0", "a 1 0", "a 1",
         "group Z2", "p 2", "n 3", "x y"]
QUIET = ["", "   ", "# a comment", "  #x 1 2"]


@st.composite
def edited_files(draw, edits):
    """A file of PARSE_CASES with up to four edits drawn from `edits`, and
    its parser."""
    parse, text = draw(st.sampled_from(PARSE_CASES))
    lines = text.splitlines()
    for edit in draw(st.lists(st.sampled_from(edits), max_size=4)):
        at = draw(st.integers(0, len(lines)))
        if edit in ("insert", "quiet"):
            lines.insert(at, draw(st.sampled_from(
                LINES if edit == "insert" else QUIET)))
        elif at == len(lines):
            continue
        elif edit == "delete":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif toks := lines[at].split():
            j = draw(st.integers(0, len(toks) - 1))
            toks[j] = draw(st.sampled_from(TOKENS) if edit == "token"
                           else st.integers(-1, 9).map(str))
            lines[at] = " ".join(toks)
    return parse, text, "".join(ln + "\n" for ln in lines)


def _parsed(parse, text):
    """What a parse gives, compared as its group or query and name."""
    out = parse(text)
    if isinstance(out, gr.FiniteGroup):
        return hash(out), out.generators, [list(row) for row in out.mul]
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edited_files(["token", "cell", "insert", "delete", "duplicate",
                     "quiet"]))
def test_every_parse_error_names_a_line_of_the_file(case):
    """Mutated group and query files parse or raise a typed error, and a
    ParseError names a line of the file. A blank line among a table's rows
    was once counted as a row, and the row-count error named no line."""
    parse, _, text = case
    try:
        parse(text)
    except ParseError as e:
        assert 1 <= e.line <= max(1, len(text.splitlines()))
    except MasseyLabError:
        pass


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edited_files(["quiet"]))
def test_blank_and_comment_lines_do_not_change_a_parse(case):
    """Blank and `#` lines anywhere give the same group, generators and
    rows, or the same query; a group file once refused them."""
    parse, text, edited = case
    assert _parsed(parse, edited) == _parsed(parse, text)


@pytest.mark.parametrize("text,line,key", [
    ("group V4\ngroup Z2\np 2\nn 2\na 1\na 1\n", 2, "group"),
    ("group Z2\np 2\n# again\np 2\nn 2\na 1\na 1\n", 4, "p"),
    ("group Z2\np 2\nn 2\nn 2\na 1\na 1\n", 4, "n"),
], ids=["group", "p", "n"])
def test_a_repeated_key_line_in_a_query_file_is_a_parse_error(
        text, line, key, tmp_path, capsys):
    """A repeated `group`, `p` or `n` line once kept its last value and
    ran: `group V4` then `group Z2` ran on Z2 and exited 0."""
    q = tmp_path / "q.msq"
    q.write_text(text)
    assert cli.main(["massey", str(q)]) == cli.EXIT_USAGE == 3
    assert capsys.readouterr().err == \
        f"parse error: line {line}: repeated `{key}` line\n"


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


def test_exhaustive_massey_query_past_its_size_cap_fails(tmp_path, capsys):
    """An undefined query at n = 5 is refused by size, like a defined one,
    rather than answered `defined: false`."""
    q = tmp_path / "q.msq"
    q.write_text("group V4\np 2\nn 5\na 1 0\na 1 0\na 0 0\na 0 0\n"
                 "a 0 0\n")
    assert cli.main(["massey", str(q), "--strategy", "exhaustive",
                     "--format", "records"]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"^error: SizeLimit: .*takes n <= 4, got n = 5$",
                     captured.err, re.M)


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


def test_verify_dwyer_reports_a_cups_route_disagreement_as_a_record(
        monkeypatch, capsys):
    """When the U/P lift and the cochain route disagree on one tuple's
    consecutive cups, that tuple fails and every record prints. The
    disagreement was once raised, so the run printed no record and named
    no tuple."""
    from masseylab import massey as ms
    lifts = ms.MasseyQuery.lifts

    def no_u_p_lift_for_the_zero_tuple(q, target="U"):
        if target == "U/P" and not any(any(a.values) for a in q.chars):
            return iter(())
        return lifts(q, target)
    monkeypatch.setattr(ms.MasseyQuery, "lifts",
                        no_u_p_lift_for_the_zero_tuple)
    code, out = run(["verify", "dwyer", "--group", "V4", "--p", "2",
                     "--n", "3", "--format", "records", "--no-cache"], capsys)
    assert code == cli.EXIT_FAIL == 1
    recs = records(out)
    body = recs[1:-1]
    assert len(body) == 64
    assert body[0]["tuple"] == [[0, 0, 0]] * 3 and body[0]["cups_zero"]
    assert [r["verdict"] for r in body] == ["fails"] + ["holds"] * 63
    assert recs[-1] == {"summary": {"fails": 1, "holds": 63}}


def _text_without_timing(out):
    """Text output with the run time of its closing line blanked."""
    return re.sub(r"records, [0-9.]+s\)", "records, _s)", out)


@pytest.mark.parametrize("argv, exit_code, shown", [
    (["cohomology", "--group", "Q8", "--p", "2"], 0,
     "group=Q8 p=2 dim_h1=2 dim_h2=2"),
    (["verify", "strong-vanishing", "--group", "Z4", "--p", "2", "--n", "4"],
     1, "counterexample=[[1, 0, 1], [1, 0, 1], [1, 0, 1], [1, 0, 1]]"),
])
def test_a_cache_hit_prints_the_text_of_a_miss(argv, exit_code, shown,
                                               capsys):
    """A miss, a hit and a `--no-cache` run print the same text: the
    fields in emission order, and JSON lists where a record held tuples."""
    outs = []
    for extra in ([], [], ["--no-cache"]):
        code, out = run(argv + ["--format", "text"] + extra, capsys)
        assert code == exit_code
        outs.append(_text_without_timing(out))
    assert outs[0] == outs[1] == outs[2]
    assert shown in outs[0]


@pytest.mark.parametrize("argv", [
    ["cohomology", "--group", "Q8", "--p", "2"],
    ["verify", "dwyer", "--group", "Z2", "--p", "2", "--n", "3",
     "--format", "records"],
])
def test_a_closed_stdout_exits_4_quietly(argv):
    """A reader that has gone (say `| head -1`) ends the run with exit 4
    and nothing on stderr: no traceback, and no exit 1, which means that
    some record fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "masseylab.cli", *argv, "--no-cache"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")


def _char_by_solve(G, p, row):
    """The character with the given generator values by a linear solve in
    H^1 coordinates, or None where the values do not extend."""
    basis = cc.h1(G, p)
    S = gfp.space(len(basis), p)
    B = [S.pack([b.value(g) for b in basis]) for g in G.generators]
    x = gfp.solve(B, gfp.space(len(B), p).pack(row), len(basis), p)
    return None if x is None else cc.h1_combination(G, p, S.unpack(x))


@pytest.mark.parametrize("name, p", [("V4", 2), ("Q8", 2), ("D4", 2),
                                     ("S3", 2), ("S3", 3), ("Z3xZ3", 3)])
def test_query_rows_are_looked_up_among_the_characters(name, p):
    """Every row of generator values in F_p^d (and its shift by p) gives the
    character the linear solve gives, or a ParseError where it has none."""
    G = cli.FIXTURES[name]()
    extend = 0
    for row in itertools.product(range(p), repeat=len(G.generators)):
        want = _char_by_solve(G, p, row)
        for values in (row, [v + p for v in row]):
            if want is None:
                with pytest.raises(ParseError, match="do not extend"):
                    cli._char_from_gen_values(G, p, values)
            else:
                assert cli._char_from_gen_values(G, p, values) == want
        extend += want is not None
    assert extend == p ** len(cc.h1(G, p))


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


@pytest.mark.parametrize("argv", [
    ["cohomology", "--group", "Q8", "--p", "2"],
    ["verify", "dwyer", "--group", "Z2", "--p", "2", "--n", "3"],
], ids=lambda argv: argv[0])
def test_an_unwritable_cache_is_a_miss(argv, tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file")
    monkeypatch.setenv("MASSEYLAB_CACHE_DIR", str(not_a_dir))
    argv = [*argv, "--format", "records"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    assert (code, out) == run(argv + ["--no-cache"], capsys)
    assert code == 0 and records(out)[-1]["summary"]


def test_a_cache_entry_that_cannot_be_replaced_leaves_no_temp_file(
        tmp_path, capsys):
    argv = ["cohomology", "--group", "Q8", "--p", "2", "--format", "records"]
    _, fresh = run(argv + ["--no-cache"], capsys)
    run(argv, capsys)
    (entry,) = (tmp_path / "cache").iterdir()
    entry.unlink()
    entry.mkdir()     # the entry can be neither read nor replaced
    assert run(argv, capsys) == (0, fresh)
    assert list((tmp_path / "cache").iterdir()) == [entry]


@pytest.mark.parametrize("entry", ['[1, "x"]', '{"a": 1}', '[]', '[{}, 2]'])
def test_a_cache_entry_that_is_not_records_is_a_miss(entry, tmp_path, capsys):
    """An entry that is not a non-empty list of JSON objects is never
    printed: the run prints what --no-cache prints and stores its own
    records over the entry."""
    argv = ["cohomology", "--group", "Z2", "--p", "2", "--format", "records"]
    fresh = run(argv + ["--no-cache"], capsys)
    run(argv, capsys)
    (path,) = (tmp_path / "cache").iterdir()
    stored = path.read_text()
    path.write_text(entry)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (*fresh, "")
    assert path.read_text() == stored


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


@pytest.mark.parametrize("budget", [0, 1])
def test_tuple_budget_counts_only_the_tuples_it_checked(budget, capsys):
    code, out = run(["verify", "strong-vanishing", "--group", "Z2", "--p",
                     "2", "--n", "4", "--tuple-budget", str(budget),
                     "--no-cache", "--format", "records"], capsys)
    assert code == cli.EXIT_BUDGET
    body = records(out)[1:-1]
    assert [r["n"] for r in body] == [3, 4]
    assert all(r["tuples_checked"] == budget for r in body)


@pytest.mark.parametrize("command", [
    "verify twisting --group V4 --p 2 --n 3 --k 2",
    "verify case-by-case",
])
def test_a_warm_process_prints_a_fresh_processs_records(command, capsys):
    argv = [*command.split(), "--format", "records", "--no-cache"]
    run(argv, capsys)
    code, warm = run(argv, capsys)
    assert code == 0
    fresh = _fresh_python(
        "import sys\n"
        "from masseylab import cli\n"
        f"sys.exit(cli.main({argv!r}))")
    assert warm == fresh


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
    ["verify", "easy-vanishing", "--group", "Z3", "--p", "2", "--n", "-1"],
    ["verify", "twisting", "--sample", "-1"],
    ["verify", "twisting", "--sample", "0"],
    ["verify", "fiber-quotient", "--n", "0"],
    ["verify", "fiber-quotient", "--n", "1"],
    ["verify", "strong-vanishing", "--n", "2"],
    ["verify", "strong-vanishing", "--n", "-1"],
    ["verify", "strong-vanishing", "--tuple-budget", "-1"],
], ids=lambda argv: " ".join(argv[1:]))
def test_bad_sizes_raise_bad_parameter(argv, capsys):
    code = cli.main([*argv, "--format", "records", "--no-cache"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_FAIL and out == ""
    assert err.startswith("error: BadParameter: ")


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_massey_lengths_below_two_raise_bad_parameter(n, tmp_path, capsys):
    """A Massey product of fewer than two classes is not defined: every
    command refuses it instead of reporting a verdict."""
    q = tmp_path / "q.msq"
    q.write_text("group V4\np 2\n" + f"n {n}\n" + "a 1 0\n" * n)
    for argv in (["verify", "dwyer", "--n", str(n)], ["massey", str(q)],
                 ["verify", "easy-vanishing", "--group", "Z3", "--p", "2",
                  "--n", str(n)]):
        code = cli.main([*argv, "--format", "records", "--no-cache"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_FAIL and out == ""
        assert err == f"error: BadParameter: a Massey product needs " \
            f"n >= 2, got {n}\n"


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
    "group list":
        "f0ca9ebab55a155a50767bf128496ae1a5e07e357f7c6fcaa56ecda405ce17f2",
    "cohomology --group Q8 --p 2":
        "4bb171bfaa2481886b3c4ce2c320844f057a664ed57213e3af0221e234d9679b",
    "cohomology --group D4 --p 2":
        "4a020d3129117f231f3c4465d116eadd7c832392394d3135fa9d561bacd708cd",
    "cohomology --group Z3xZ3 --p 3":
        "a2d7c8db68aeac8322f424009b962b5e5e6c1cb46feb0179991dda79fe5dff80",
    # the cup-form path: nondegenerate on Z2, degenerate on Z3
    "cohomology --group Z2 --p 2":
        "2c6d6bd3273b5e779f0e818a0219fad2bdd82cd5bd5844238cdf25acb6b59d58",
    "cohomology --group Z3 --p 3":
        "5c92bf05d381fc159f5372f64979af80a1308b0977346445d19ae754fb160823",
    "verify case-by-case":
        "c78e87bd97bf4429e88dc8ddb687f8600ce1d2940a9d496c15e2771b8f31f5d4",
    "verify fiber-quotient --n 4 --p 2":
        "a02f4e03928848a5ad26349bcfb4a0e69dc4cf6b5a182a7e2d1b0e19a7bd90be",
    "verify dwyer --group D4 --p 2 --n 3":
        "181a5db9d75dca0ae5ec12553d60576ac9f16cbacbeeb54a0b8699b22f1c1a51",
    "verify dwyer --group Q8 --p 2 --n 3":
        "c1fc7ac4af151ada6d7bdf53756c21d14d4600de203cf903c997baa577c534ff",
    "verify dwyer --group V4 --p 2 --n 3":
        "333c59b0ab3ad2195af124e2d7342e5c1c360b8e19a3b0a88292183cd6ce1c42",
    "verify dwyer --group Z3 --p 3 --n 3":
        "fad8795659cd5c1c2689d3e038763954bb9382eef8afc931f1821d12074f6a41",
    # order 9: above the exhaustive strategy's former cap of 8
    "verify dwyer --group Z9 --p 3 --n 3":
        "9de34f7e7f4f37781c92f619913fdcb88624a768f80d6aaeac64230020bc8e71",
    "verify dwyer --group Z3xZ3 --p 3 --n 3":
        "d1e1bd6368a4707311d3eae47a62f6918ca57ece8d5c83a24e6c69bf1cd907bc",
    "verify easy-vanishing --group Z3 --p 2 --n 3":
        "2d0308e799c484307e15d5db7608e6aa77775fbe66d9b80de476b24c1ed16cd3",
    "verify easy-vanishing --group Z3 --p 2 --n 4":
        "67fde42a00066b675b0d83b0c43c885dec1f8a54da08e48f35664cbcb2a27cc8",
    "verify twisting --group V4 --p 2 --n 3 --k 2 --sample 20 --seed 1":
        "e6dae6844b8fa888b2f47cee1788c6f405e7d11603fca7093f3716d21779dd60",
    "verify twisting --group Z3xZ3 --p 3 --n 3 --k 2 --sample 25 --seed 4":
        "08d85d82d72c0b21158ca9461cf37b5a0a58aa6e5107c6ef1a43304238805682",
    "verify twisting --group V4 --p 2 --n 3 --k 2":
        "2074c539aed3be55e989e06f070c3f822f73bfad5e35247101f647c826bae86a",
    "verify strong-vanishing --group Z2 --p 2 --n 6":
        "f67f53fef3caec42ea54b8241296e4daaecdd2ab961fa9ba31323883821a2920",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RECORDS))
def test_records_match_the_pinned_hash(command, capsys):
    code, out = run([*command.split(), "--format", "records", "--no-cache"],
                    capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RECORDS[command]


def relabelled_group_file(G, seed) -> str:
    """G's table under a random permutation of its elements that fixes the
    identity, in the group file format."""
    new = [0] + random.Random(seed).sample(range(1, G.order), G.order - 1)
    old = sorted(range(G.order), key=new.__getitem__)  # new index -> old
    rows = [" ".join(str(new[G.mul[old[x]][old[y]]]) for y in G.elements())
            for x in G.elements()]
    gens = " ".join(str(new[g]) for g in G.generators)
    return "\n".join([f"order {G.order}", f"generators {gens}", *rows]) + "\n"


def run_quietly(argv):
    """Exit code and records of one `--no-cache` run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--format", "records", "--no-cache"])
    return code, records(out.getvalue())


def label_free_answers(ref, p):
    """What the commands answer on the group `ref`, less what names its
    elements or the group: the exit codes, the cohomology records without
    `group`, the multiset of dwyer's (vanishes, defined, cups_zero) and
    strong vanishing's (n, verdict, tuples_checked) per n."""
    common = ["--group", ref, "--p", str(p)]
    codes, answers = [], []
    for argv, answer in (
            (["cohomology", *common],
             lambda recs: [{k: v for k, v in r.items() if k != "group"}
                           for r in recs[1:]]),
            (["verify", "dwyer", *common, "--n", "3"],
             lambda recs: sorted((r["vanishes"], r["defined"], r["cups_zero"])
                                 for r in recs[1:-1])),
            (["verify", "strong-vanishing", *common, "--n", "3"],
             lambda recs: [(r["n"], r["verdict"], r["tuples_checked"])
                           for r in recs[1:-1]])):
        code, recs = run_quietly(argv)
        codes.append(code)
        answers.append(answer(recs))
    return codes, answers


# Z3xZ3 at p = 3 is left out: its dwyer run takes about 1.5 s per labelling
LABEL_CASES = [(name, p) for name in sorted(cli.FIXTURES) for p in (2, 3)
               if (name, p) != ("Z3xZ3", 3)]


# every run is `--no-cache`, so the cache directory that the autouse
# fixture sets once for all examples is never read
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(LABEL_CASES), st.integers(0, 2 ** 32 - 1))
def test_answers_do_not_depend_on_the_labelling(case, seed):
    """A fixture and a relabelled copy of its table, read from a group
    file, get the same answers from cohomology, dwyer and strong
    vanishing."""
    name, p = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "relabelled.tbl")
        with open(path, "w") as fh:
            fh.write(relabelled_group_file(cli.FIXTURES[name](), seed))
        assert label_free_answers(path, p) == label_free_answers(name, p)


def _fresh_python(code, env=None):
    """stdout of `python -c code` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_an_edited_program_misses_the_cache(tmp_path):
    """The cache key names the program's sources: a copy of the package
    with one comment added to one module stores a second entry rather than
    serving the first, and prints the same records."""
    pkg = tmp_path / "src" / "masseylab"
    shutil.copytree(os.path.dirname(cli.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(pkg.parent),
               MASSEYLAB_CACHE_DIR=str(tmp_path / "cache"))
    argv = [sys.executable, "-m", "masseylab.cli", "cohomology", "--group",
            "Q8", "--p", "2", "--format", "records"]
    outs = []
    for edit in ("", "\n# an edit\n"):
        with open(pkg / "gfp.py", "a") as fh:
            fh.write(edit)
        outs.append(subprocess.run(argv, env=env, check=True,
                                   capture_output=True, text=True).stdout)
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == len(outs)
    assert outs[0] == outs[1]
    assert records(outs[0])[1]["dim_h2"] == 2


def test_cohomology_loads_only_the_modules_it_runs():
    loaded = _fresh_python(
        "import sys\n"
        "from masseylab import cli\n"
        "code = cli.main(['cohomology', '--group', 'Q8', '--p', '2',\n"
        "                 '--no-cache', '--format', 'records'])\n"
        "assert code == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('masseylab')))"
    ).splitlines()[-1].split()
    assert "masseylab.cochains" in loaded
    for name in ("massey", "unitri", "embedding", "verify"):
        assert f"masseylab.{name}" not in loaded


NUMPY_FREE_COMMANDS = {
    "cohomology": ["cohomology", "--group", "Q8", "--p", "2"],
    "group show": ["group", "show", "D4"],
    "massey": ["massey", "{query}"],
    "verify dwyer": ["verify", "dwyer", "--group", "Z3", "--p", "3",
                     "--n", "3"],
    "verify twisting": ["verify", "twisting", "--group", "V4", "--p", "2",
                        "--n", "3", "--k", "2", "--sample", "3",
                        "--seed", "1"],
    "verify easy-vanishing": ["verify", "easy-vanishing", "--group", "Z3",
                              "--p", "2", "--n", "3"],
    "verify strong-vanishing": ["verify", "strong-vanishing", "--group",
                                "Z2", "--p", "2", "--n", "4"],
}


@pytest.mark.parametrize("command", sorted(NUMPY_FREE_COMMANDS))
def test_commands_run_without_numpy(command, tmp_path):
    """The runtime needs no numpy: a fresh interpreter runs each command
    to exit 0 and never imports it."""
    query = tmp_path / "q.msq"
    query.write_text("group Z2\np 2\nn 3\na 1\na 0\na 1\n")
    argv = [a.format(query=query) for a in NUMPY_FREE_COMMANDS[command]]
    out = _fresh_python(
        "import sys\n"
        "from masseylab import cli\n"
        f"code = cli.main({argv!r} + ['--no-cache', '--format', 'records'])\n"
        "print(code, 'numpy' in sys.modules)"
    ).splitlines()[-1]
    assert out == "0 False"


COLD_START_SKIPS = ("dataclasses", "inspect", "hashlib")


@pytest.mark.parametrize("command", sorted(NUMPY_FREE_COMMANDS))
def test_cold_commands_skip_dataclasses_and_hashlib(command, tmp_path):
    """A fresh `--no-cache` run loads none of COLD_START_SKIPS beyond what
    a bare interpreter starts with, except hashlib where the record holds
    a table fingerprint; a cache miss and then a hit print the same bytes
    as `--no-cache`."""
    query = tmp_path / "q.msq"
    query.write_text("group Z2\np 2\nn 3\na 1\na 0\na 1\n")
    argv = [a.format(query=query) for a in NUMPY_FREE_COMMANDS[command]]
    bare = set(_fresh_python("import sys; print(*sys.modules)").split())
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "from masseylab import cli\n"
        "def run(extra):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        f"        assert cli.main({argv!r} + extra) == 0\n"
        "    return buf.getvalue()\n"
        "plain = run(['--no-cache', '--format', 'records'])\n"
        f"print(*[m for m in {COLD_START_SKIPS!r} if m in sys.modules])\n"
        "miss = run(['--format', 'records'])\n"
        "hit = run(['--format', 'records'])\n"
        "print(plain == miss == hit)"
    ).splitlines()
    loaded = set(out[-2].split()) - bare
    assert loaded == ({"hashlib"} if command == "group show" else set())
    assert out[-1] == "True"
    cached = command.split()[0] in ("cohomology", "verify")
    assert len(list(tmp_path.glob("cache/*.json"))) == cached
