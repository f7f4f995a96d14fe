"""Command line behavior: exit codes, JSON output, file round trips."""

import json
import os
import random
import subprocess
import sys

import pytest

import semicover
from semicover.build import build_F, build_W, cycle
from semicover.cli import main
from semicover.cover import DartMapping, find_cover, verify_cover
from semicover.dichotomy import decide_colored
from semicover.graph import is_simple, parse_graph, serialize_graph
from util import random_lift


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(serialize_graph(g), encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.lstrip().startswith("{") else out)


def gen_to_file(capsys, tmp_path, name, *spec):
    path = str(tmp_path / name)
    code, _ = run(capsys, "gen", *spec, "-o", path)
    assert code == 0
    return path


def test_check_cover_yes(capsys, tmp_path):
    g = gen_to_file(capsys, tmp_path, "c4.g", "cycle", "4")
    h = gen_to_file(capsys, tmp_path, "f01.g", "f", "0", "1")
    code, out = run(capsys, "check", g, h, "--witness")
    assert code == 0
    assert out["answer"] is True
    assert out["method"] != "brute-force-fallback"
    assert "witness" in out and out["witness"]["vertex_map"]


def test_check_cover_no(capsys, tmp_path):
    g = gen_to_file(capsys, tmp_path, "c3.g", "cycle", "3")
    h = gen_to_file(capsys, tmp_path, "f20.g", "f", "2", "0")
    code, out = run(capsys, "check", g, h)
    assert code == 1
    assert out["answer"] is False


def test_check_cover_prints_the_reason_of_a_no(capsys, tmp_path):
    c3 = gen_to_file(capsys, tmp_path, "c3.g", "cycle", "3")
    c4 = gen_to_file(capsys, tmp_path, "c4.g", "cycle", "4")
    w = gen_to_file(capsys, tmp_path, "w.g", "w", "0", "0", "2", "0", "0")
    code, out = run(capsys, "check", c3, w)
    assert code == 1
    assert out == {"semantics": "cover", "answer": False, "method": "2-SAT",
                   "reason": "2-SAT unsatisfiable"}
    code, out = run(capsys, "check", c4, w)
    assert code == 0 and out["answer"] is True and "reason" not in out
    # exact search gives no reason
    pet = gen_to_file(capsys, tmp_path, "pet.g", "petersen")
    f30 = gen_to_file(capsys, tmp_path, "f30.g", "f", "3", "0")
    code, out = run(capsys, "check", pet, f30)
    assert code == 1
    assert out == {"semantics": "cover", "answer": False, "method": "brute-force-fallback"}


def test_check_relaxed_semantics(capsys, tmp_path):
    from semicover.build import cycle
    from semicover.graph import disjoint_union
    g = write_graph(tmp_path, "g.g",
                    disjoint_union([cycle(3), cycle(4)]))
    h = write_graph(tmp_path, "h.g",
                    disjoint_union([build_F(0, 1), build_F(2, 0)]))
    assert run(capsys, "check", g, h, "--semantics", "lbhom")[0] == 0
    assert run(capsys, "check", g, h, "--semantics", "surjective")[0] == 0
    code, out = run(capsys, "check", g, h, "--semantics", "equitable")
    assert code == 1
    assert out["answer"] is False
    code, out = run(capsys, "check", g, h)
    assert code == 2


def test_pattern_json(capsys, tmp_path):
    from semicover.build import cycle
    from semicover.graph import disjoint_union
    g = write_graph(tmp_path, "g.g", disjoint_union([cycle(3), cycle(4)]))
    h = write_graph(tmp_path, "h.g",
                    disjoint_union([build_F(0, 1), build_F(2, 0)]))
    code, out = run(capsys, "pattern", g, h)
    assert code == 0
    assert out["nodes"] == {"g": [3, 4], "h": [1, 1]}
    assert [1, 1] in out["edges"]
    assert out["weights"]["0,0"] == 3


def test_classify_exit_codes(capsys, tmp_path):
    easy = gen_to_file(capsys, tmp_path, "f01.g", "f", "0", "1")
    code, out = run(capsys, "classify", easy)
    assert code == 0 and out["verdict"] == "P"
    hard = gen_to_file(capsys, tmp_path, "f30.g", "f", "3", "0")
    code, out = run(capsys, "classify", hard)
    assert code == 3 and out["verdict"] == "NP-complete"
    assert any(">= 3" in r for r in out["rules"])


def test_double_cover_output(capsys, tmp_path):
    g = gen_to_file(capsys, tmp_path, "pet.g", "petersen")
    code, text = run(capsys, "double-cover", g)
    assert code == 0
    g2 = parse_graph(text)
    assert g2.n == 20
    assert is_simple(g2)


def test_stronger_verified_and_counterexample(capsys, tmp_path):
    a = gen_to_file(capsys, tmp_path, "f20.g", "f", "2", "0")
    b = gen_to_file(capsys, tmp_path, "f01.g", "f", "0", "1")
    code, out = run(capsys, "stronger", a, b, "--max-n", "8")
    assert code == 0
    assert out["stronger"] is True and out["covers_found"] == 3
    ce_path = str(tmp_path / "ce.g")
    code, out = run(capsys, "stronger", b, a, "--max-n", "8",
                    "--emit", ce_path)
    assert code == 1
    assert out["counterexample_order"] == 3
    ce = parse_graph((tmp_path / "ce.g").read_text(encoding="utf-8"))
    assert ce.n == 3
    assert parse_graph(out["counterexample"]).n == 3


def test_gen_round_trips(capsys, tmp_path):
    specs = [("f", "1", "1"), ("w", "0", "0", "2", "0", "0"),
             ("wd", "1", "1", "1"), ("cycle", "5"), ("path", "4"),
             ("complete", "4"), ("petersen",)]
    for spec in specs:
        code, text = run(capsys, "gen", *spec)
        assert code == 0
        g = parse_graph(text)
        assert g.n >= 1
    code, text = run(capsys, "gen", "path", "3", "--semi-ends")
    g = parse_graph(text)
    assert sum(1 for l in range(g.n_links) if len(g.links[l]) == 1) == 2


def test_gen_binpacking_manifest(capsys, tmp_path):
    out_g = str(tmp_path / "inst_g.g")
    out_h = str(tmp_path / "inst_h.g")
    code, out = run(capsys, "gen", "binpacking", "2,3,2", "2",
                    "--out-g", out_g, "--out-h", out_h)
    assert code == 0
    assert out["items"] == [2, 3, 2] and out["bins"] == 2
    g = parse_graph((tmp_path / "inst_g.g").read_text(encoding="utf-8"))
    h = parse_graph((tmp_path / "inst_h.g").read_text(encoding="utf-8"))
    assert g.n == 7 and h.n == 2
    code, _ = run(capsys, "check", out_g, out_h, "--semantics", "equitable")
    assert code == 1


def test_gen_refuses_output_flags_of_the_other_kind(capsys, tmp_path):
    # a flag that gen ignores would leave the named file unwritten while
    # exiting 0, so each output flag is refused off its own kind
    out_g, out_h, out = (str(tmp_path / n) for n in ("x.g", "y.g", "c.g"))
    assert run(capsys, "gen", "cycle", "3", "--out-g", out_g, "--out-h", out_h) == \
        (2, {"error": "--out-g and --out-h apply to gen binpacking only"})
    assert run(capsys, "gen", "binpacking", "2,3,2", "2", "-o", out) == \
        (2, {"error": "binpacking emits two graphs; pass --out-g and --out-h, not -o"})
    assert run(capsys, "gen", "binpacking", "2,3,2", "2", "-o", out,
               "--out-g", out_g, "--out-h", out_h)[0] == 2
    assert not list(tmp_path.iterdir())


def test_budget_exhaustion(capsys, tmp_path):
    rng = random.Random(3)
    g = write_graph(tmp_path, "big.g", random_lift(build_F(3, 0), 6, rng))
    h = gen_to_file(capsys, tmp_path, "f30.g", "f", "3", "0")
    code, out = run(capsys, "check", g, h, "--budget", "10")
    assert code == 4
    assert "error" in out


def test_budget_bounds_the_side_search(capsys, tmp_path):
    lift = random_lift(build_W(1, 1, 1, 1, 1), 6, random.Random(3))
    g = write_graph(tmp_path, "lift.g", lift)
    h = gen_to_file(capsys, tmp_path, "w11111.g", "w", "1", "1", "1", "1", "1")
    code, out = run(capsys, "check", g, h, "--budget", str(lift.n_darts - 1))
    assert code == 4 and "exceeds the search budget" in out["error"]
    code, out = run(capsys, "check", g, h, "--budget", str(lift.n_darts))
    assert (code, out["method"]) == (0, "side-search")


def test_long_cycle_check_answers_with_witness(capsys, tmp_path):
    # Exact search keeps its choice points on the heap: a long cycle onto
    # a triangle answers instead of running out of stack.
    from semicover.build import cycle
    g = write_graph(tmp_path, "c3000.g", cycle(3000))
    h = write_graph(tmp_path, "c3.g", cycle(3))
    code, out = run(capsys, "check", g, h, "--witness")
    assert code == 0
    assert out["method"] == "brute-force-fallback"
    w = out["witness"]
    f = DartMapping(tuple(w["dart_map"]), tuple(w["vertex_map"]))
    with open(g, encoding="utf-8") as fg, open(h, encoding="utf-8") as fh:
        assert verify_cover(parse_graph(fg.read()), parse_graph(fh.read()), f,
                            check_fibers=True) == []


def test_recursion_depth_exhaustion(capsys, tmp_path, monkeypatch):
    # canon and generate still recurse; running out of stack must exit 4
    # and not 1 ("no").
    import semicover.cli

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(semicover.cli, "decide_colored", too_deep)
    g = gen_to_file(capsys, tmp_path, "c4.g", "cycle", "4")
    h = gen_to_file(capsys, tmp_path, "c3.g", "cycle", "3")
    code, out = run(capsys, "check", g, h)
    assert code == 4
    assert "recursion" in out["error"]


def test_failed_self_check_exits_5(capsys, tmp_path, monkeypatch):
    import semicover.dichotomy
    monkeypatch.setattr(semicover.dichotomy, "verify_cover", lambda *a, **k: ["forced"])
    g = gen_to_file(capsys, tmp_path, "c4.g", "cycle", "4")
    h = gen_to_file(capsys, tmp_path, "f01.g", "f", "0", "1")
    code, out = run(capsys, "check", g, h)
    assert code == 5
    assert "internal check failed" in out["error"]


def test_bad_exact_search_witness_exits_5(capsys, tmp_path, monkeypatch):
    # exact search's yes is re-checked like every decider's: a real cover
    # with the images of two darts swapped must not come out as a witness
    import semicover.dichotomy
    g, h = cycle(6), cycle(3)
    f = find_cover(g, h)
    images = list(f.dart_map)
    images[0], images[1] = images[1], images[0]
    bad = DartMapping(tuple(images), f.vertex_map)
    assert verify_cover(g, h, f) == [] and verify_cover(g, h, bad)
    monkeypatch.setattr(semicover.dichotomy, "find_cover", lambda *a, **k: bad)
    with pytest.raises(RuntimeError, match="bad witness"):
        decide_colored(g, h)
    code, out = run(capsys, "check", write_graph(tmp_path, "c6.g", g),
                    write_graph(tmp_path, "c3.g", h), "--witness")
    assert code == 5
    assert "internal check failed: exact search produced a bad witness" in out["error"]


def test_usage_errors(capsys, tmp_path):
    missing = str(tmp_path / "nope.g")
    h = gen_to_file(capsys, tmp_path, "f01.g", "f", "0", "1")
    assert run(capsys, "check", missing, h)[0] == 2
    bad = tmp_path / "bad.g"
    bad.write_text("vertex a\nedge a b\n", encoding="utf-8")
    code, out = run(capsys, "check", str(bad), h)
    assert code == 2
    assert "error" in out
    assert run(capsys, "gen", "cycle", "0")[0] == 2
    assert run(capsys, "gen", "complete", "-2")[0] == 2
    assert run(capsys, "gen", "binpacking", "2,2", "1")[0] == 2
    out_g, out_h = str(tmp_path / "items.g"), str(tmp_path / "bins.g")
    for spec, msg in ((("cycle", "x"), "gen cycle: N must be an integer, got 'x'"),
                      (("w", "0", "0", "2.5", "0", "0"),
                       "gen w: L must be an integer, got '2.5'"),
                      (("binpacking", "1,2", "x", "--out-g", out_g, "--out-h", out_h),
                       "gen binpacking: BINS must be an integer, got 'x'")):
        assert run(capsys, "gen", *spec) == (2, {"error": msg})
    for spec, msg in ((("f", "1"), "gen f needs: SEMIS LOOPS"),
                      (("w", "1", "1", "1", "1"), "gen w needs: K M L P Q"),
                      (("wd", "1", "1"), "gen wd needs: M L M2"),
                      (("cycle",), "gen cycle needs: N"),
                      (("path", "3", "4"), "gen path needs: N"),
                      (("complete", "3", "3"), "gen complete needs: N"),
                      (("petersen", "1"), "gen petersen takes no parameters")):
        assert run(capsys, "gen", *spec) == (2, {"error": msg})
    neg = tmp_path / "neg.g"
    neg.write_text("vertex a\nvertex b\nedge a b colors=0,-1\n", encoding="utf-8")
    code, out = run(capsys, "check", str(neg), h)
    assert code == 2 and "line 3: negative color" in out["error"]
    one_end = tmp_path / "one_end.g"
    one_end.write_text("vertex a\n# an edge needs two vertices\nedge a a\n", encoding="utf-8")
    code, out = run(capsys, "check", str(one_end), h)
    assert code == 2 and "line 3: edge endpoints coincide" in out["error"]
    # stronger refuses a disconnected B before it generates any candidate
    loops = tmp_path / "loops.g"
    loops.write_text("vertex a\nvertex b\nloop a\nloop b\n", encoding="utf-8")
    f30 = gen_to_file(capsys, tmp_path, "f30.g", "f", "3", "0")
    assert run(capsys, "stronger", f30, str(loops), "--max-n", "3") == \
        (2, {"error": "target graph must be connected and nonempty"})
    # numeric options below their least value, and a flag of another family
    for argv, msg in ((("check", h, h, "--budget", "-5"), "--budget must be at least 0"),
                      (("pattern", h, h, "--budget", "-5"), "--budget must be at least 0"),
                      (("stronger", f30, h, "--max-n", "-1"), "--max-n must be at least 1"),
                      (("stronger", f30, h, "--max-n", "0"), "--max-n must be at least 1"),
                      (("gen", "cycle", "3", "--semi-ends"),
                       "--semi-ends applies to gen path only")):
        assert run(capsys, *argv) == (2, {"error": msg}), argv
    assert run(capsys, "check", h, h, "--budget", "0")[0] == 0
    # stronger decides every candidate in one process: it has no --jobs
    with pytest.raises(SystemExit) as usage:
        main(["stronger", f30, h, "--max-n", "4", "--jobs", "2"])
    assert usage.value.code == 2 and "--jobs" in capsys.readouterr().err


def test_equitable_witness_sums_fibres_of_repeated_target_names(capsys, monkeypatch):
    # Two of the three target vertices share the name "x"; a graph file
    # cannot say that, so the CLI gets the graphs without reading files.
    from semicover import cli
    from semicover.build import cycle
    from semicover.graph import GraphBuilder, disjoint_union
    b = GraphBuilder()
    for name in "xxz":
        b.add_loop(b.add_vertex(name=name))
    graphs = {"g": disjoint_union([cycle(2)] * 3), "h": b.build()}
    monkeypatch.setattr(cli, "_load", graphs.__getitem__)
    code, out = run(capsys, "check", "g", "h", "--semantics", "equitable", "--witness")
    assert code == 0
    assert out["fiber_profile"] == {"x": 4, "z": 2}
    assert out["witness"]["fiber_sizes"] == {"x": 4, "z": 2}


def test_equitable_state_cap_exits_4(capsys, tmp_path, monkeypatch):
    import semicover.disconnected
    monkeypatch.setattr(semicover.disconnected, "EQUITABLE_STATE_CAP", 20)
    g, h = str(tmp_path / "items.g"), str(tmp_path / "bins.g")
    assert run(capsys, "gen", "binpacking", "5,3,4,2,2,6,3,1,4,2,3,1", "4",
               "--out-g", g, "--out-h", h)[0] == 0
    code, out = run(capsys, "check", g, h, "--semantics", "equitable")
    assert code == 4
    assert out["error"].startswith("resource limit: equitable DP keeps ")
    assert out["error"].endswith("over the cap of 20")


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # an 81 KB witness is more than a pipe holds: the reader takes a few
    # bytes and closes the pipe while check is still writing
    from semicover.build import cycle
    g = write_graph(tmp_path, "c3000.g", cycle(3000))
    h = write_graph(tmp_path, "f01.g", build_F(0, 1))
    src = os.path.dirname(os.path.dirname(semicover.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        argv = [sys.executable, "-m", "semicover.cli", "check", g, h, "--witness"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.read(16)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        err.seek(0)
        note = err.read()
    assert "Traceback" not in note and "closed" in note, note
