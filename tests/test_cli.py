import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pregeom.cli import main


def run(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    empty = write("empty.txt", "kind nary\nparams n=3 r=1\nuniverse\nend\n")
    five = write("five.txt",
                 "kind nary\nparams n=3 r=1\nuniverse 0 1 2 3 4\n"
                 "rel 3 4 0\nrel 3 4 1\nrel 3 4 2\nend\n")
    bad = write("bad.txt",
                "kind nary\nparams n=3 r=1\nuniverse 0 1 2\n"
                "rel 0 1 2\nrel 0 2 1\nrel 1 0 2\nrel 1 2 0\nend\n")
    clique = write("clq.txt",
                   "kind clique\nparams n=2 r=1\nuniverse 0 1 2\n"
                   "clique (0)(1)(2)\nend\n")
    return tmp_path, empty, five, bad, clique


def test_validate_ok(files):
    _, empty, *_ = files
    code, out = run(["validate", empty])
    assert code == 0 and out.strip() == "ok"


def test_validate_bad_structure(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("kind nary\nparams n=3 r=1\nuniverse 0 1\nrel 0 1 9\nend\n")
    code, out = run(["validate", str(p)])
    assert code == 1 and "violation" in out


def test_predim_empty_prints_zero(files):
    _, empty, *_ = files
    code, out = run(["predim", empty])
    assert code == 0 and out.strip() == "0"


def test_predim_set_and_over(files):
    _, _, five, *_ = files
    assert run(["predim", five]) == (0, "2\n")
    assert run(["predim", five, "--set", "0,1,2"]) == (0, "3\n")
    assert run(["predim", five, "--set", "2", "--over", "3,4"]) == (0, "0\n")


@pytest.mark.parametrize("cmd", [["predim"], ["predim", "--over", "0"], ["rank", "--set", "0"],
                                 ["class"], ["strong", "--sub", "0"]])
def test_invalid_structure_exit_1(tmp_path, capsys, cmd):
    # a tuple with an entry outside the universe: every command must refuse it
    p = tmp_path / "x.txt"
    p.write_text("kind nary\nparams n=3 r=1\nuniverse 0 1\nrel 0 1 9\nend\n")
    code, out = run([cmd[0], str(p)] + cmd[1:])
    assert (code, out) == (1, "")
    assert "invalid structure" in capsys.readouterr().err


def test_strong_exit_codes(files):
    _, _, five, *_ = files
    code, out = run(["strong", five, "--sub", "3,4"])
    assert code == 0 and out.strip() == "strong"
    code, out = run(["strong", five, "--sub", "0,1,2"])
    assert code == 1 and "witness=0,1,2,3,4" in out


def test_class_exit_codes(files):
    _, _, five, bad, _ = files
    assert run(["class", five]) == (0, "in class\n")
    assert run(["class", bad]) == (1, "not in class: witness=0,1,2 predim=-1\n")


def test_class_on_1500_element_path(tmp_path):
    p = tmp_path / "path.txt"
    lines = ["kind nary", "params n=3 r=1", "universe " + " ".join(map(str, range(1500)))]
    lines += [f"rel {i} {i + 1} {i + 2}" for i in range(1498)]
    p.write_text("\n".join(lines + ["end", ""]))
    assert run(["class", str(p)]) == (0, "in class\n")


def test_closure_and_rank(files):
    _, _, _, _, clique = files
    code, out = run(["closure", clique, "--set", "0"])
    assert code == 0 and out.strip() == "0 1 2"
    code, out = run(["rank", clique, "--set", "0,1,2"])
    assert code == 0 and out.strip() == "1"


def test_pg_table(files):
    _, _, _, _, clique = files
    code, out = run(["pg", clique])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "rank - 0"
    assert "rank 0,1,2 1" in lines
    assert len(lines) == 8


def test_amalgam_roundtrip(files, tmp_path):
    root, *_ = files
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("kind clique\nparams n=2 r=1\nuniverse 0 1 2\nclique (0)(1)(2)\nend\n")
    b.write_text("kind clique\nparams n=2 r=1\nuniverse 1 2 3\nclique (1)(2)(3)\nend\n")
    out_file = tmp_path / "d.txt"
    code, out = run(["amalgam", "--kind", "standard", str(a), str(b),
                     "--over", "1,2", "-o", str(out_file)])
    assert code == 0
    assert "clique (0)(1)(2)(3)" in out_file.read_text()


def test_reduct_five_point(files):
    _, _, five, *_ = files
    code, out = run(["reduct", five])
    assert code == 0
    assert out.count("clique") == 2  # 'kind clique' and one clique line
    assert "clique (0)(1)(2)" in out


def test_reduct_within(files):
    _, _, five, *_ = files
    code, out = run(["reduct-within", five, "--sub", "3,4"])
    assert code == 0 and "kind clique" in out


def test_nondef(files):
    _, empty, *_ = files
    code, out = run(["nondef", empty])
    assert code == 0
    assert out.count("kind nary") == 2


def test_lift(files, tmp_path):
    _, _, five, *_ = files
    bc = tmp_path / "bc.txt"
    bc.write_text("kind clique\nparams n=3 r=1\nuniverse 0 1 2 3 4 5\n"
                  "clique (0)(1)(2)(5)\nend\n")
    out_file = tmp_path / "c.txt"
    code, out = run(["lift", five, str(bc), "-o", str(out_file)])
    assert code == 0
    assert "rel 3 4 5" in out_file.read_text()


def test_gadget_remove_pathologies(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("kind nary\nparams n=4 r=2\nuniverse\nend\n")
    b.write_text("kind nary\nparams n=4 r=2\nuniverse 0 1 2 3\nrel 0 1 2 3\nend\n")
    code, out = run(["gadget", "remove-pathologies", str(a), str(b)])
    assert code == 0
    assert "gadget source=(0,1,2,3)" in out
    assert out.count("kind nary") == 2


def test_gadget_to_clique_and_to_nary(tmp_path):
    empty_n = tmp_path / "en.txt"
    empty_c = tmp_path / "ec.txt"
    b = tmp_path / "b.txt"
    empty_n.write_text("kind nary\nparams n=4 r=2\nuniverse\nend\n")
    empty_c.write_text("kind clique\nparams n=3 r=2\nuniverse\nend\n")
    b.write_text("kind nary\nparams n=4 r=2\nuniverse 0 1 2 3\nrel 0 1 2 3\nend\n")
    code, out = run(["gadget", "to-clique", str(empty_n), str(empty_c), str(b),
                     "-o", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "c-clique.txt").exists()

    bc = tmp_path / "bc.txt"
    bc.write_text("kind clique\nparams n=3 r=2\nuniverse 0 1 2 3\nclique (0,1)(2,3)\nend\n")
    en2 = tmp_path / "en2.txt"
    en2.write_text("kind nary\nparams n=4 r=2\nuniverse\nend\n")
    code, out = run(["gadget", "to-nary", str(empty_c), str(en2), str(bc)])
    assert code == 0
    assert "rel 0 1 2 3" in out


def test_compare_pg(files, tmp_path):
    _, _, _, _, clique = files
    other = tmp_path / "other.txt"
    other.write_text("kind nary\nparams n=2 r=1\nuniverse 0 1 2\nrel 0 1\nrel 0 2\nend\n")
    code, out = run(["compare-pg", clique, str(other)])
    assert code == 0 and out.startswith("isomorphic")

    free = tmp_path / "free.txt"
    free.write_text("kind nary\nparams n=2 r=1\nuniverse 0 1 2\nend\n")
    code, out = run(["compare-pg", clique, str(free)])
    assert code == 1 and "not isomorphic" in out


def test_grow_and_bnf(tmp_path):
    code, out = run(["grow", "--class", "nary", "--n", "4", "--r", "2",
                     "--max-size", "12", "--ext-bound", "4", "--seed", "0",
                     "-o", str(tmp_path / "n")])
    assert code == 0 and "stage size=1" in out  # 10 or so; bound may truncate mid-step
    code, out = run(["grow", "--class", "clique", "--n", "3", "--r", "2",
                     "--max-size", "10", "--ext-bound", "3", "--seed", "0",
                     "-o", str(tmp_path / "c")])
    assert code == 0
    code, out = run(["bnf", str(tmp_path / "n" / "stage.txt"),
                     str(tmp_path / "c" / "stage.txt"),
                     "--rounds", "2", "--ext-bound", "4"])
    assert code == 0
    assert "rank tables verified" in out
    assert "domain size" in out


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "garbled.txt"
    p.write_text("kind nary\nparams n=3 r=1\nuniverse 1 0\nend\n")
    assert main(["validate", str(p)]) == 2


@pytest.mark.parametrize("cmd", [["rank", "--set"], ["strong", "--sub"],
                                 ["predim", "--set", "0", "--over"]], ids=["set", "sub", "over"])
@pytest.mark.parametrize("ids", ["\u0663", "1_0", "+3", "-1"],
                         ids=["arabic-indic-3", "underscore", "plus", "minus"])
def test_id_list_follows_file_grammar(files, capsys, cmd, ids):
    # int() reads all of these; the structure-file grammar takes ASCII digits only
    _, _, five, *_ = files
    assert run([cmd[0], five] + cmd[1:] + [ids]) == (2, "")
    assert capsys.readouterr().err.startswith("error: bad element id")


def test_id_list_forms_kept(files):
    _, _, five, *_ = files
    assert run(["rank", five, "--set", "0,,1"]) == (2, "")
    assert run(["rank", five, "--set", ""]) == (0, "0\n")
    assert run(["rank", five, "--set", " 0 , 1 "]) == (0, "2\n")


def test_missing_file_exit_2(tmp_path):
    assert main(["validate", str(tmp_path / "nope.txt")]) == 2


@pytest.mark.parametrize("content", [
    b"kind nary\nparams n=3 r=1\nuniverse 0 \xff\nend\n",  # not UTF-8
    None,  # a directory in place of the file
    "kind nary\nparams n=3 r=1\nuniverse 0 \u00b2\nend\n".encode(),  # '²' passes isdigit
    b"kind nary\nparams n=3 r=1\nuniverse " + b"1" * 5000 + b"\nend\n",  # past int()'s limit
], ids=["not-utf8", "directory", "superscript-id", "5000-digit-id"])
def test_malformed_input_exit_2(tmp_path, content):
    p = tmp_path / "in.txt"
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    assert main(["validate", str(p)]) == 2


# near-valid structure text: a header, then mostly well-formed lines of its
# kind and arity, so that much of it gets past the parser to the commands
_HEADS = [("", "nary", 3, 1), ("kind nary\nparams n=3 r=1\n", "nary", 3, 1),
          ("kind nary\nparams n=3 r=1\nuniverse 0 1 2\n", "nary", 3, 1),
          ("kind nary\nparams n=3 r=1\nuniverse 0 1 2 10 11\n", "nary", 3, 1),
          ("kind clique\nparams n=2 r=1\nuniverse 0 1 2\n", "clique", 2, 1),
          # parameters the two-class commands (gadget, bnf) accept
          ("kind nary\nparams n=2 r=1\nuniverse 0 1 2 10\n", "nary", 2, 1),
          ("kind nary\nparams n=4 r=2\nuniverse 0 1 2 10 11\n", "nary", 4, 2),
          ("kind clique\nparams n=3 r=2\nuniverse 0 1 2 10 11\n", "clique", 3, 2)]
_ID = st.sampled_from(["0", "1", "2", "10", "11"] * 4 + ["\u00b2", "\u0663", ""])
_NOISE = st.tuples(st.sampled_from(["universe", "rel", "clique", "end", "#"]),
                   st.text("01 (),\u00b2\u0663", max_size=8)).map(" ".join)


@st.composite
def _structure_text(draw):
    head, kind, n, r = draw(st.sampled_from(_HEADS))
    if kind == "nary":
        line = st.lists(_ID, min_size=n, max_size=n).map(lambda ids: "rel " + " ".join(ids))
    else:
        group = st.lists(_ID, min_size=r, max_size=r).map(lambda ids: "(" + ",".join(ids) + ")")
        line = st.lists(group, min_size=1, max_size=4).map(lambda gs: "clique " + "".join(gs))
    body = draw(st.lists(st.one_of(line, line, line, _NOISE), max_size=6))
    end = draw(st.sampled_from(["\nend\n", "\nend\n", ""]))
    return (head + "\n".join(body) + end).encode()


_TEXTS = _structure_text()


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), _TEXTS))
def test_fuzz_validate_never_raises(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "in.txt"
    p.write_bytes(data)
    assert run(["validate", str(p)])[0] in (0, 1, 2)


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=30))
def test_fuzz_rank_set_never_raises(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("fuzz") / "five.txt"
    p.write_text("kind nary\nparams n=3 r=1\nuniverse 0 1 2 3 4\nrel 3 4 0\nend\n")
    assert run(["rank", str(p), f"--set={text}"])[0] in (0, 1, 2)


_FILE, _OUT = object(), object()
# every other command that reads structure files; lift is left out while
# tests/test_reduct.py pins its postcondition failure on valid inputs
_FILE_COMMANDS = [
    ["predim", _FILE], ["predim", _FILE, "--set", "0,1", "--over", "10"],
    ["strong", _FILE, "--sub", "0"],
    ["amalgam", "--kind", "free", _FILE, _FILE, "--over", "0", "-o", _OUT],
    ["amalgam", "--kind", "standard", _FILE, _FILE, "--over", "0", "-o", _OUT],
    ["gadget", "remove-pathologies", _FILE, _FILE],
    ["gadget", "to-clique", _FILE, _FILE, _FILE],
    ["gadget", "to-nary", _FILE, _FILE, _FILE],
    ["bnf", _FILE, _FILE, "--rounds", "2"],
]


@settings(max_examples=400, deadline=None)
@given(cmd=st.sampled_from(_FILE_COMMANDS), texts=st.lists(_TEXTS, min_size=3, max_size=3))
def test_fuzz_file_commands_never_raise(tmp_path_factory, cmd, texts):
    root = tmp_path_factory.mktemp("fuzz")
    argv = []
    for word in cmd:
        if word is _FILE:
            word = root / f"in{len(argv)}.txt"
            word.write_bytes(texts.pop())
        elif word is _OUT:
            word = root / "out.txt"
        argv.append(str(word))
    assert run(argv)[0] in (0, 1, 2)


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["strong"])  # missing required arguments
    assert exc.value.code == 2


def test_selftest_quick_smoke():
    # the quick level is exercised end to end in the acceptance test module;
    # here only check the wiring of a single fast criterion via the runner
    from pregeom.acceptance import criterion_07_undefinability
    ok, _ = criterion_07_undefinability("quick")
    assert ok
