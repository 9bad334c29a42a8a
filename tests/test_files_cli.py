import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperchrome import _kernels, cli, coloring
from hyperchrome import constructions as cons
from hyperchrome.core import Coloring, is_proper, new_hypergraph
from hyperchrome.fileio import parse_hypergraph, serialize_hypergraph


class TestHypergraphFile:
    def test_roundtrip_fixed_point(self):
        G = cons.loose_cycle(3)
        text = serialize_hypergraph(G)
        assert serialize_hypergraph(parse_hypergraph(text)) == text

    def test_one_based(self):
        text = "p h 3 6 3\ne 1 2 3\ne 3 4 5\ne 5 6 1\n"
        G = parse_hypergraph(text)
        assert G.edge_set() == cons.loose_cycle(3).edge_set()

    def test_comments_ignored(self):
        text = "c a remark\np h 3 3 1\nc another\ne 1 2 3\n"
        assert parse_hypergraph(text).edges == ((0, 1, 2),)

    def test_normalization(self):
        messy = "p h 3 4 2\ne 3 2 1\ne 1 2 3\n"
        G = parse_hypergraph(messy)
        assert serialize_hypergraph(G) == "p h 3 4 1\ne 1 2 3\n"

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_hypergraph("e 1 2 3\n")

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_hypergraph("p h 3 4 2\ne 1 2 3\n")

    def test_zero_based_rejected(self):
        with pytest.raises(ValueError):
            parse_hypergraph("p h 3 4 1\ne 0 1 2\n")

    def test_unknown_line(self):
        with pytest.raises(ValueError):
            parse_hypergraph("p h 3 3 1\nx 1 2 3\n")


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_gen_fano_chi(self, monkeypatch, capsys):
        code, out = run_cli(["gen", "fano"], monkeypatch=monkeypatch,
                            capsys=capsys)
        assert code == 0
        code, out = run_cli(["chi"], stdin_text=out, monkeypatch=monkeypatch,
                            capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["chi"] == 3
        assert report["certificate"]["type"] == "coloring"

    def test_gen_complete_greedy(self, monkeypatch, capsys):
        code, graph = run_cli(["gen", "complete", "--n", "7"],
                              monkeypatch=monkeypatch, capsys=capsys)
        code, out = run_cli(["color", "--algo", "greedy", "--order",
                             "identity"], stdin_text=graph,
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["colors_used"] == 4

    def test_balance_loose_cycle(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "loose-cycle", "--l", "3"],
                           monkeypatch=monkeypatch, capsys=capsys)
        code, out = run_cli(["balance", "--quiet"], stdin_text=graph,
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and out.strip() == "2/3"

    def test_alpha(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "fano"], monkeypatch=monkeypatch,
                           capsys=capsys)
        code, out = run_cli(["alpha"], stdin_text=graph,
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert json.loads(out)["result"]["alpha"] == 4

    def test_kcolor_negative_exit(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "fano"], monkeypatch=monkeypatch,
                           capsys=capsys)
        code, out = run_cli(["kcolor", "--k", "2"], stdin_text=graph,
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1
        assert json.loads(out)["result"] == {"colorable": False}

    def test_contains_and_free(self, tmp_path, monkeypatch, capsys):
        _, pattern = run_cli(["gen", "linear-pair"], monkeypatch=monkeypatch,
                             capsys=capsys)
        hpath = tmp_path / "h.hg"
        hpath.write_text(pattern)
        _, graph = run_cli(["gen", "fano"], monkeypatch=monkeypatch,
                           capsys=capsys)
        code, out = run_cli(["free", "--h", str(hpath)], stdin_text=graph,
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and json.loads(out)["result"]["free"] is True
        code, out = run_cli(["contains", "--h", str(hpath)], stdin_text=graph,
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1

    def test_chain(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "complete", "--n", "5"],
                           monkeypatch=monkeypatch, capsys=capsys)
        code, out = run_cli(["chain", "--order", "identity"],
                            stdin_text=graph, monkeypatch=monkeypatch,
                            capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["greedy_colors"] == 3
        assert report["result"]["chain_length"] == 2

    def test_ex_with_cache(self, tmp_path, monkeypatch, capsys):
        _, pattern = run_cli(["gen", "linear-pair"], monkeypatch=monkeypatch,
                             capsys=capsys)
        hpath = tmp_path / "h.hg"
        hpath.write_text(pattern)
        cpath = tmp_path / "cache.txt"
        code, out = run_cli(["ex", "--h", str(hpath), "--n", "6",
                             "--cache", str(cpath)],
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert json.loads(out)["result"]["ex"] == 4
        assert cpath.exists()
        # second run hits the cache
        code, out = run_cli(["ex", "--h", str(hpath), "--n", "6",
                             "--cache", str(cpath)],
                            monkeypatch=monkeypatch, capsys=capsys)
        assert json.loads(out)["result"]["ex"] == 4

    def test_cache_env_var(self, tmp_path, monkeypatch, capsys):
        _, pattern = run_cli(["gen", "linear-pair"], monkeypatch=monkeypatch,
                             capsys=capsys)
        hpath = tmp_path / "h.hg"
        hpath.write_text(pattern)
        cpath = tmp_path / "env-cache.txt"
        monkeypatch.setenv("HYPERCHROME_CACHE", str(cpath))
        code, _ = run_cli(["ex", "--h", str(hpath), "--n", "4"],
                          monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and cpath.exists()

    def test_ramsey(self, tmp_path, monkeypatch, capsys):
        _, pattern = run_cli(["gen", "linear-pair"], monkeypatch=monkeypatch,
                             capsys=capsys)
        hpath = tmp_path / "h.hg"
        hpath.write_text(pattern)
        code, out = run_cli(["ramsey", "--h", str(hpath), "--t", "3"],
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert json.loads(out)["result"]["ramsey"] == 4

    def test_witness(self, tmp_path, monkeypatch, capsys):
        _, pattern = run_cli(["gen", "linear-pair"], monkeypatch=monkeypatch,
                             capsys=capsys)
        hpath = tmp_path / "h.hg"
        hpath.write_text(pattern)
        _, graph = run_cli(["gen", "fano"], monkeypatch=monkeypatch,
                           capsys=capsys)
        code, out = run_cli(["witness", "--h", str(hpath), "--r", "2"],
                            stdin_text=graph, monkeypatch=monkeypatch,
                            capsys=capsys)
        assert code == 0
        assert json.loads(out)["result"]["implied_bound"] == 7

    def test_embed_order(self, tmp_path, monkeypatch, capsys):
        _, pattern = run_cli(["gen", "linear-pair"], monkeypatch=monkeypatch,
                             capsys=capsys)
        hpath = tmp_path / "h.hg"
        hpath.write_text(pattern)
        _, graph = run_cli(["gen", "complete", "--n", "6"],
                           monkeypatch=monkeypatch, capsys=capsys)
        code, out = run_cli(["embed-order", "--h", str(hpath)],
                            stdin_text=graph, monkeypatch=monkeypatch,
                            capsys=capsys)
        assert code == 0
        assert json.loads(out)["result"]["embedding"] is True

    def test_hyperforest_exit_codes(self, monkeypatch, capsys):
        _, path_graph = run_cli(["gen", "loose-path", "--l", "2"],
                                monkeypatch=monkeypatch, capsys=capsys)
        code, _ = run_cli(["hyperforest"], stdin_text=path_graph,
                          monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        _, cyc = run_cli(["gen", "loose-cycle", "--l", "3"],
                         monkeypatch=monkeypatch, capsys=capsys)
        code, _ = run_cli(["hyperforest"], stdin_text=cyc,
                          monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1

    def test_color_lll_seeded_deterministic(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "random", "--n", "12", "--m", "4",
                            "--seed", "3"], monkeypatch=monkeypatch,
                           capsys=capsys)
        reports = []
        for _ in range(2):
            code, out = run_cli(["color", "--algo", "lll", "--r", "5",
                                 "--seed", "7"], stdin_text=graph,
                                monkeypatch=monkeypatch, capsys=capsys)
            assert code == 0
            rep = json.loads(out)
            rep.pop("wall_ms")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_seed_env_fallback_and_flag_wins(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "random", "--n", "12", "--m", "4",
                            "--seed", "3"], monkeypatch=monkeypatch,
                           capsys=capsys)
        monkeypatch.setenv("HYPERCHROME_SEED", "7")
        _, out_env = run_cli(["color", "--algo", "lll", "--r", "5"],
                             stdin_text=graph, monkeypatch=monkeypatch,
                             capsys=capsys)
        _, out_flag = run_cli(["color", "--algo", "lll", "--r", "5",
                               "--seed", "7"], stdin_text=graph,
                              monkeypatch=monkeypatch, capsys=capsys)
        a, b = json.loads(out_env), json.loads(out_flag)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_dyadic_failure_exit(self, monkeypatch, capsys):
        _, graph = run_cli(["gen", "complete", "--n", "5"],
                           monkeypatch=monkeypatch, capsys=capsys)
        code, out = run_cli(["color", "--algo", "dyadic", "--r", "2"],
                            stdin_text=graph, monkeypatch=monkeypatch,
                            capsys=capsys)
        assert code == 1
        assert json.loads(out)["result"]["failure"] == "palette-exhausted"

    def test_malformed_file_exit2(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("not a graph"))
        assert cli.main(["chi"]) == 2

    def test_non_utf8_file_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_bytes(b"\xff\xfe\n")
        assert cli.main(["chi", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad hypergraph file: 'utf-8' codec")

    def test_gen_bad_params_exit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert cli.main(["gen", "complete", "--n", "1"]) == 1

    @pytest.mark.parametrize("cmd", ["chi", "hyperforest"])
    def test_huge_vertex_count_fails_in_band(self, cmd, monkeypatch, capsys):
        # 10^20 vertices overflow an index before anything is allocated
        code, out = run_cli([cmd], stdin_text="p h 3 100000000000000000000 0\n",
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "failure"
        assert report["error"].startswith("OverflowError: ")

    def test_out_of_memory_fails_in_band(self, monkeypatch, capsys):
        def exhausting(*args, **kw):
            raise MemoryError

        monkeypatch.setattr(_kernels, "kcolor_search", exhausting)
        code, out = run_cli(["chi"], stdin_text=serialize_hypergraph(
            cons.named("fano")), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1
        assert json.loads(out) == {"error": "MemoryError", "status": "failure"}

    def test_chi_solves_each_k_once(self, monkeypatch, capsys):
        calls = []
        kcolor_search = _kernels.kcolor_search

        def counted(n, edges, k, *rest, **kw):
            calls.append((k, kw))
            return kcolor_search(n, edges, k, *rest, **kw)

        # one kernel call climbs k = 1, 2, 3 on one table
        monkeypatch.setattr(_kernels, "kcolor_search", counted)
        code, out = run_cli(["chi"], stdin_text=serialize_hypergraph(
            cons.named("fano")), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and json.loads(out)["result"] == {"chi": 3}
        assert calls == [(1, {"least": True})]

    def test_color_lll_checks_the_lemma_once(self, monkeypatch, capsys):
        calls = []
        lll_check = coloring.lll_check

        def counted(G, r):
            calls.append(r)
            return lll_check(G, r)

        monkeypatch.setattr(coloring, "lll_check", counted)
        code, _ = run_cli(["color", "--algo", "lll", "--r", "9"],
                          stdin_text=serialize_hypergraph(cons.named("fano")),
                          monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and calls == [9]

    @pytest.mark.parametrize("argv", [
        ["gen", "fano"],
        ["gen", "random", "--n", "8", "--m", "4"],
        ["color", "--algo", "greedy"],
        ["color", "--algo", "lll", "--r", "9"],
        ["chain"],
    ])
    def test_bad_seed_env_is_usage_error(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("HYPERCHROME_SEED", "abc")
        monkeypatch.setattr("sys.stdin", io.StringIO(
            serialize_hypergraph(cons.named("fano"))))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: HYPERCHROME_SEED")


def child_env():
    """The environment for a child Python that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestCertificateChecks:
    """A certificate that fails its check is never printed: exit 1 and an
    error on stderr, also under python -O."""

    def test_failed_check_survives_optimize(self, tmp_path):
        path = tmp_path / "fano.hg"
        path.write_text(serialize_hypergraph(cons.named("fano")))
        script = ("import sys; from hyperchrome import cli; "
                  "cli.is_proper = lambda *a: (False, None); "
                  f"sys.exit(cli.main(['chi', '--in', {str(path)!r}, "
                  "'--quiet']))")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: certificate check failed (chi)\n"

    def test_alpha_independent_set_checked(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "is_independent", lambda *a: False)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            serialize_hypergraph(cons.named("fano"))))
        assert cli.main(["alpha"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: certificate check failed (alpha)\n"


class TestLargeInput:
    """The exact commands search on explicit stacks: a valid input with
    thousands of vertices gets a certified answer, not a RecursionError."""

    @pytest.mark.parametrize("argv, result", [
        (["chi"], {"chi": 2}),
        (["alpha"], {"alpha": 4999}),
        (["kcolor", "--k", "2"], {"colorable": True}),
    ], ids=["chi", "alpha", "kcolor"])
    def test_5000_vertices_one_edge(self, argv, result, tmp_path):
        G = new_hypergraph(5000, 3, [(0, 1, 2)])
        path = tmp_path / "big.hg"
        path.write_text(serialize_hypergraph(G))
        proc = subprocess.run(
            [sys.executable, "-m", "hyperchrome.cli", *argv, "--in", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["status"], report["result"]) == ("exact", result)
        cert = report["certificate"]
        if cert["type"] == "coloring":
            coloring = Coloring(tuple(cert["colors"]), cert["palette"])
            assert is_proper(G, coloring)[0]
        else:
            chosen = {v - 1 for v in cert["vertices"]}
            assert len(chosen) == 4999 and not {0, 1, 2} <= chosen


    @pytest.mark.parametrize("m, budget", [(60, ["--budget-ms", "100"]),
                                           (600, [])], ids=["M60", "M600"])
    def test_ex_of_a_large_matching(self, m, budget, tmp_path):
        # H's canonical form and edge orbits come before the search and
        # inside its budget: each of the m components is labelled apart
        H = new_hypergraph(3 * m, 3, [(3 * i, 3 * i + 1, 3 * i + 2)
                                      for i in range(m)])
        path = tmp_path / "matching.hg"
        path.write_text(serialize_hypergraph(H))
        proc = subprocess.run(
            [sys.executable, "-m", "hyperchrome.cli", "ex", "--h", str(path),
             "--n", "4", *budget, "--quiet"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "ex(4, H) = 4 [exact]\n", "")


class TestStartUp:
    """A subcommand loads only the modules it runs, and no module loads
    dataclasses: each question to the command line is a fresh process."""

    OPTIONAL = ["dataclasses", "hyperchrome._kernels", "hyperchrome.coloring",
                "hyperchrome.exact", "hyperchrome.extremal"]

    def loaded(self, argv, modules=OPTIONAL):
        """The modules of a list, OPTIONAL by default, that a child running
        argv has loaded, compiled from source as when no bytecode is
        written."""
        script = ("import json, sys; from hyperchrome import cli; "
                  f"code = cli.main({argv!r}); "
                  f"print(json.dumps([m for m in {modules!r} "
                  "if m in sys.modules]), file=sys.stderr); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(child_env(), PYTHONDONTWRITEBYTECODE="1"),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stderr)

    def test_gen_loads_no_solver(self):
        assert self.loaded(["gen", "fano"]) == []

    def test_only_gen_loads_constructions(self, tmp_path):
        # gen's families are built on its first use
        path = tmp_path / "fano.hg"
        path.write_text(serialize_hypergraph(cons.named("fano")))
        constructions = ["hyperchrome.constructions"]
        assert self.loaded(["gen", "fano"], constructions) == constructions
        for argv in (["chi", "--in", str(path), "--quiet"],
                     ["ex", "--h", str(path), "--n", "4", "--quiet"],
                     ["contains", "--in", str(path), "--h", str(path),
                      "--quiet"]):
            assert self.loaded(argv, constructions) == [], argv

    def test_chi_loads_exact_only(self, tmp_path):
        path = tmp_path / "fano.hg"
        path.write_text(serialize_hypergraph(cons.named("fano")))
        assert self.loaded(["chi", "--in", str(path), "--quiet"]) == [
            "hyperchrome._kernels", "hyperchrome.exact"]
