import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treewalk
from treewalk.cli import main

PATH3 = "3\n0 1 1\n1 2 1\n"
W21 = "3\n0 1 2\n1 2 1\n"
DISCONNECTED = "4\n0 1 1\n2 3 1\n"
CYCLE4 = "4\n0 1 1\n1 2 2\n2 3 1.5\n0 3 0.5\n"
TREE5 = "5\n0 1 2\n1 2 0.5\n1 3 3\n3 4 1.25\n"


@pytest.fixture
def twg(tmp_path):
    def write(text, name="g.twg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestCompute:
    def test_all_methods_agree(self, twg, capsys):
        rc = main(["compute", "--input", twg(PATH3), "--method", "all", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"]["exact"]["alpha"] == pytest.approx(16 / 9, rel=1e-10)
        assert payload["methods"]["forest"]["kappa"] == pytest.approx(3 / 2, rel=1e-10)
        assert payload["methods"]["spectral"]["alpha"] == pytest.approx(16 / 9, rel=1e-7)
        assert payload["max_rel_delta"] < 1e-8

    def test_weighted_path(self, twg, capsys):
        rc = main(["compute", "--input", twg(W21), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"]["exact"]["alpha"] == pytest.approx(2.0, rel=1e-10)
        assert payload["methods"]["exact"]["kappa"] == pytest.approx(3 / 2, rel=1e-10)

    def test_single_method_text(self, twg, capsys):
        rc = main(["compute", "--input", twg(PATH3), "--method", "forest"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "forest" in out and "alpha" in out

    def test_hitting_matrix_flag(self, twg, capsys):
        rc = main(["compute", "--input", twg(PATH3), "--json", "--hitting"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hitting"][0][2] == pytest.approx(4.0)

    def test_parse_error_exit_2(self, twg, capsys):
        assert main(["compute", "--input", twg("2\n0 0 1\n")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["compute", "--input", str(tmp_path / "nope.twg")]) == 2

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight_exit_2(self, twg, capsys, weight):
        assert main(["compute", "--input", twg(f"2\n0 1 {weight}\n")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_disconnected_exit_3(self, twg):
        assert main(["compute", "--input", twg(DISCONNECTED)]) == 3

    def test_tol_option_removed(self, twg):
        # compute gates at METHOD_AGREEMENT_RTOL; no option loosens the gate
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--input", twg(PATH3), "--tol", "1"])
        assert exc.value.code == 2

    def test_digest_is_sha256_of_parsed_text(self, tmp_path, capsys, monkeypatch):
        from treewalk import cli

        parsed = []
        parse = cli.parse_twg
        monkeypatch.setattr(cli, "parse_twg", lambda text: parsed.append(text) or parse(text))
        path = tmp_path / "crlf.twg"
        path.write_bytes("# path\r\n3\r\n0 1 1\r\n1 2 1\r\n".encode())
        assert main(["compute", "--input", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(parsed) == 1
        assert payload["input_digest"] == hashlib.sha256(parsed[0].encode()).hexdigest()
        assert payload["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.twg", tmp_path / "bom.twg"
        plain.write_bytes(CYCLE4.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + CYCLE4.encode())
        payloads = []
        for path in (plain, bom):
            assert main(["compute", "--input", str(path), "--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        for key in ("n", "edge_count", "methods"):
            assert payloads[1][key] == payloads[0][key]
        assert payloads[1]["input_digest"] == hashlib.sha256(bom.read_bytes()).hexdigest()

    def test_delta_from_unrounded_values(self, twg, capsys, monkeypatch):
        from treewalk import cli

        # the routes differ in the 14th digit: invisible at 12 significant digits
        monkeypatch.setitem(cli.METHODS, "forest", lambda g: (16 / 9 * (1 + 3e-14), 1.5))
        assert main(["compute", "--input", twg(PATH3), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"]["forest"]["alpha"] == payload["methods"]["exact"]["alpha"]
        assert payload["max_rel_delta"] == pytest.approx(3e-14, rel=0.05, abs=0.0)

    def test_hitting_reuses_the_exact_routes_inverse(self, twg, capsys, monkeypatch):
        from treewalk import cli, walks

        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        argv = ["compute", "--method", "exact", "--hitting", "--input", twg(CYCLE4)]
        outputs = []
        for json_flag in ([], ["--json"]):
            assert main(argv + json_flag) == 0
            outputs.append(capsys.readouterr())
        assert shapes == [(4, 4), (4, 4)]  # one inverse per call
        # the route computing its own matrix, as before it took the one printed
        monkeypatch.setattr(cli, "walk_stats", lambda g, h=None: walks.walk_stats(g))

        def untimed(text):
            return [line for line in text.splitlines() if '"wall_time_s"' not in line]

        for json_flag, (out, err) in zip(([], ["--json"]), outputs):
            assert main(argv + json_flag) == 0
            again = capsys.readouterr()
            assert untimed(again.out) == untimed(out) and again.err == err == ""
        assert len(shapes) == 6

    def test_tree_is_rooted_once(self, twg, capsys, monkeypatch):
        """The exact, forest and spectral routes read one rooting of a tree."""
        from functools import cached_property

        from treewalk.graphs import WeightedGraph

        rooted = []
        rooting = WeightedGraph._rooting.func
        counted = cached_property(lambda g: rooted.append(g.n) or rooting(g))
        counted.__set_name__(WeightedGraph, "_rooting")
        monkeypatch.setattr(WeightedGraph, "_rooting", counted)
        assert main(["compute", "--method", "all", "--input", twg(TREE5)]) == 0
        assert rooted == [5]
        assert "max relative delta" in capsys.readouterr().out

    def test_memory_error_exit_4_in_one_line(self, twg, capsys, monkeypatch):
        from treewalk import cli

        msg = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"

        def unaffordable(g):
            raise MemoryError(msg)

        monkeypatch.setitem(cli.METHODS, "exact", unaffordable)
        assert main(["compute", "--input", twg(PATH3)]) == 4
        assert capsys.readouterr() == ("", f"cannot allocate: {msg}\n")


@pytest.mark.parametrize("subcommand", [["compute"], ["simulate", "--from", "0", "--to", "2"]])
class TestUnreadableInput:
    def test_directory_exit_2(self, subcommand, tmp_path, capsys):
        assert main([*subcommand, "--input", str(tmp_path)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_non_utf8_exit_2(self, subcommand, tmp_path, capsys):
        path = tmp_path / "bad.twg"
        path.write_bytes(b"3\n0 1 1\n1 2 \xff\n")
        assert main([*subcommand, "--input", str(path)]) == 2
        assert "cannot read input" in capsys.readouterr().err


def _console(*argv, stdout):
    """The console script in a child process, as installed: entrypoint() under argv."""
    env = {**os.environ, "PYTHONPATH": str(Path(treewalk.__file__).parents[1])}
    code = "from treewalk.cli import entrypoint; entrypoint()"
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


class TestUnwritableOutput:
    def test_hasse_output_in_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.dot"
        assert main(["hasse", "--n", "4", "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"cannot write output: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_closed_pipe_exit_2_without_traceback(self):
        # the report is about 1 MB, far more than a pipe holds, so the
        # reader closes its end while the writer is still writing
        child = _console("search-path", "--weights", "9.5,7.25,5,4.125,3,2.5,1", "--json",
                         stdout=subprocess.PIPE)
        assert child.stdout.read(10) == b'{\n  "assig'
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
        assert err == "cannot write output: [Errno 32] Broken pipe\n"

    def test_closed_pipe_conjecture_exit_2_without_traceback(self):
        # the report is about 120 KB, written as one string: more than a pipe holds
        child = _console("conjecture", "--n", "8", "--corpus-max", "5", "--json", stdout=subprocess.PIPE)
        assert child.stdout.read(10) == b'{\n  "alpha'
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
        assert err == "cannot write output: [Errno 32] Broken pipe\n"

    def test_closed_pipe_hitting_exit_2_without_traceback(self, tmp_path):
        # a seeded 300-vertex tree: the matrix alone is about 1.7 MB, written a row at a time
        rng = np.random.default_rng(5)
        path = tmp_path / "tree300.twg"
        path.write_text("300\n" + "".join(f"{rng.integers(v)} {v} {rng.uniform(0.1, 10)!r}\n" for v in range(1, 300)))
        child = _console("compute", "--method", "exact", "--hitting", "--json", "--input", str(path),
                         stdout=subprocess.PIPE)
        assert child.stdout.read(10) == b'{\n  "comma'
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
        assert err == "cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exit_2_without_traceback(self):
        with open("/dev/full", "wb") as full:
            child = _console("search-path", "--weights", "3,2,1", stdout=full)
            err = child.communicate(timeout=120)[1].decode()
        assert child.returncode == 2
        assert err == "cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_conjecture_exit_2_without_traceback(self):
        with open("/dev/full", "wb") as full:
            child = _console("conjecture", "--n", "8", "--corpus-max", "5", "--json", stdout=full)
            err = child.communicate(timeout=120)[1].decode()
        assert child.returncode == 2
        assert err == "cannot write output: [Errno 28] No space left on device\n"


class TestVerifyExtremal:
    def test_unit_weights_alpha(self, twg, capsys):
        rc = main(["verify-extremal", "--weights", "1,1,1,1,1", "--stat", "alpha", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family_size"] == 6
        assert len(payload["argmax_codes"]) == 1

    def test_kappa_small(self, capsys):
        rc = main(["verify-extremal", "--weights", "3,2,1,0.5", "--stat", "kappa"])
        assert rc == 0
        assert "argmax layout" in capsys.readouterr().out

    def test_bad_weights_exit_2(self):
        assert main(["verify-extremal", "--weights", "1,-2", "--stat", "alpha"]) == 2
        assert main(["verify-extremal", "--weights", "1,zebra", "--stat", "alpha"]) == 2

    def test_verification_failure_exit_4(self, monkeypatch):
        from treewalk import cli
        from treewalk.errors import ConsistencyError

        def broken(weights, stat):
            raise ConsistencyError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "extremal_scan", broken)
        assert main(["verify-extremal", "--weights", "1,1,1", "--stat", "alpha"]) == 4


class TestHasse:
    def test_n7_counts(self, tmp_path, capsys):
        out = tmp_path / "h.dot"
        rc = main(["hasse", "--n", "7", "--mode", "size", "--output", str(out)])
        assert rc == 0
        assert "nodes=11" in capsys.readouterr().err
        dot = out.read_text()
        assert dot.startswith("digraph hasse {")
        assert dot.count("label=") == 11

    def test_n4_stdout(self, capsys):
        rc = main(["hasse", "--n", "4"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.count("->") == 1
        assert "covers=1" in captured.err

    def test_n2_trivial(self, capsys):
        rc = main(["hasse", "--n", "2"])
        assert rc == 0
        assert "covers=0" in capsys.readouterr().err

    def test_json_option_removed(self):
        # hasse prints DOT only; an accepted --json would be a flag that does nothing
        with pytest.raises(SystemExit) as exc:
            main(["hasse", "--n", "4", "--json"])
        assert exc.value.code == 2

    def test_guard_exit_2(self, capsys):
        # the free-tree enumeration sets the range
        for n in ("0", "11"):
            assert main(["hasse", "--n", n]) == 2
            assert "free-tree enumeration supports 1 <= n <= 10" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["size", "volume"])
    @pytest.mark.parametrize(
        "n,counts", [(1, "nodes=1 covers=0"), (9, "nodes=47 covers=98"), (10, "nodes=106 covers=291")]
    )
    def test_enumeration_range_ends(self, n, counts, mode, capsys):
        assert main(["hasse", "--n", str(n), "--mode", mode]) == 0
        assert counts in capsys.readouterr().err


class TestSearchPath:
    def test_remark_instance(self, capsys):
        rc = main(["search-path", "--weights", "10,8,1,1,0.1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assignment"] in ([10, 0.1, 1, 1, 8], [8, 1, 1, 0.1, 10])

    def test_trivial_tie(self, capsys):
        rc = main(["search-path", "--weights", "1,1,1"])
        assert rc == 0
        assert "best kappa" in capsys.readouterr().out

    def test_two_weights_rounding_residue_is_a_tie(self, capsys):
        # J is 0.0 for one order and 2.5e-13 for the other: both are zero up to rounding
        assert main(["search-path", "--weights", "311.2426324104925,30.51802137911969"]) == 0

    def test_three_weights(self, capsys):
        rc = main(["search-path", "--weights", "3,2,1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["evaluations"]) == 6

    def test_seven_weights_report_frozen(self, capsys):
        # all 5,040 orders; the same sha256 as CI's freeze of this report
        assert main(["search-path", "--weights", "9.5,7.25,5,4.125,3,2.5,1", "--json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == "f3bb7aa1316942e6a20aa8b11226b015f3c8b6804dd8e2994c5e427a35061dca"


class TestConjecture:
    def test_n3_empty(self, capsys):
        rc = main(["conjecture", "--n", "3", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [] and payload["violations"] == []

    def test_n5_reports(self, capsys):
        rc = main(["conjecture", "--n", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corpus-dominant" in out

    @pytest.mark.parametrize("n", [0, 9])
    def test_tree_size_out_of_range(self, n, capsys):
        assert main(["conjecture", "--n", str(n), "--corpus-max", "3"]) == 2
        assert f"conjecture scan needs 1 <= n <= 8, got n={n}" in capsys.readouterr().err

    # (0, 7): the tree size is reported, not the corpus range
    @pytest.mark.parametrize("n,corpus_max", [(0, 5), (9, 3), (0, 7)])
    def test_no_corpus_built_for_bad_tree_size(self, n, corpus_max, capsys, monkeypatch):
        from treewalk import cli

        def unexpected(*args):
            raise AssertionError("corpus built for an out-of-range scan")

        monkeypatch.setattr(cli, "connected_graph_corpus", unexpected)
        assert main(["conjecture", "--n", str(n), "--corpus-max", str(corpus_max)]) == 2
        assert f"conjecture scan needs 1 <= n <= 8, got n={n}" in capsys.readouterr().err

    @pytest.mark.parametrize("corpus_max", [1, 7])
    def test_corpus_max_out_of_range(self, corpus_max, capsys):
        assert main(["conjecture", "--n", "5", "--corpus-max", str(corpus_max)]) == 2
        err = capsys.readouterr().err
        assert f"corpus needs 1 <= min_n <= max_n <= 6, got min_n=2, max_n={corpus_max}" in err


class TestSimulate:
    def test_path3(self, twg, capsys):
        rc = main(
            ["simulate", "--input", twg(PATH3), "--from", "0", "--to", "2",
             "--trials", "20000", "--seed", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimated hitting time" in out

    def test_deterministic_json(self, twg, capsys):
        args = ["simulate", "--input", twg(W21), "--from", "0", "--to", "2",
                "--trials", "5000", "--seed", "123", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_disconnected_exit_3(self, twg):
        assert main(
            ["simulate", "--input", twg(DISCONNECTED), "--from", "0", "--to", "3",
             "--trials", "10", "--seed", "1"]
        ) == 3


class TestParserReuse:
    def test_first_call_finds_a_rebound_command_by_subcommand_name(self, twg):
        """A tracer may rebind cmd_compute to a closure named ``wrapper`` before the
        first main call of a process builds the one parser."""
        code = (
            "import sys\n"
            "from treewalk import cli\n"
            "def traced(fn):\n"
            "    def wrapper(args):\n"
            "        print('traced', fn.__name__, file=sys.stderr)\n"
            "        return fn(args)\n"
            "    return wrapper\n"
            "cli.cmd_compute = traced(cli.cmd_compute)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(treewalk.__file__).parents[1])}
        argv = ["compute", "--method", "forest", "--input", twg(W21)]
        child = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=120)
        assert (child.returncode, child.stderr) == (0, b"traced cmd_compute\n")
        assert child.stdout.decode().startswith("n=3 edges=2")

    def test_one_process_matches_fresh_interpreters(self, twg, monkeypatch, capsys):
        """Every subcommand, a usage error and --help through main, one after
        another on the one parser: each call writes what a fresh interpreter writes."""
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
        graph = twg(W21)
        calls = [
            ["compute", "--method", "all", "--hitting", "--input", graph],
            ["verify-extremal", "--weights", "3,2,1,1", "--stat", "kappa", "--json"],
            ["compute", "--input"],  # usage error, exit 2
            ["hasse", "--n", "5", "--mode", "volume"],
            ["search-path", "--weights", "4,2,1"],
            ["--help"],
            ["conjecture", "--n", "5", "--corpus-max", "3"],
            ["simulate", "--input", graph, "--from", "0", "--to", "2", "--trials", "500", "--seed", "3", "--json"],
            ["compute", "--help"],
            ["search-path", "--weights", "1e308,1e308,1e308"],  # refused, exit 4
            ["compute", "--method", "all", "--input", graph],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = _console(*argv, stdout=subprocess.PIPE)
            out, err = fresh.communicate(timeout=120)
            assert (code, captured.out, captured.err) == (fresh.returncode, out.decode(), err.decode()), argv
