"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fsm.am2910 import am2910
from repro.fsm.benchmarks import counter, serial_multiplier, token_ring
from repro.fsm.blif import write_blif

from .helpers import store_digest


@pytest.fixture
def counter_blif(tmp_path):
    path = tmp_path / "counter.blif"
    path.write_text(write_blif(counter(3)))
    return str(path)


@pytest.fixture
def ring_blif(tmp_path):
    path = tmp_path / "ring.blif"
    path.write_text(write_blif(token_ring(3)))
    return str(path)


class TestInfo:
    def test_info(self, counter_blif, capsys):
        assert main(["info", counter_blif]) == 0
        out = capsys.readouterr().out
        assert "latches: 3" in out
        assert "next-state functions" in out


class TestReach:
    def test_bfs(self, counter_blif, capsys):
        assert main(["reach", counter_blif]) == 0
        out = capsys.readouterr().out
        assert "states:     8" in out
        assert "complete:   True" in out

    @pytest.mark.parametrize("method", ["rua", "sp", "hb"])
    def test_high_density_methods(self, ring_blif, method, capsys):
        assert main(["reach", ring_blif, "--method", method,
                     "--threshold", "16"]) == 0
        out = capsys.readouterr().out
        assert "complete:   True" in out

    def test_bounded(self, counter_blif, capsys):
        assert main(["reach", counter_blif, "--max-iterations",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "complete:   False" in out


class TestApprox:
    def test_table_printed(self, ring_blif, capsys):
        assert main(["approx", ring_blif, "--min-nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "RUA" in out
        assert "C2" in out

    def test_min_nodes_filter(self, counter_blif, capsys):
        assert main(["approx", counter_blif, "--min-nodes",
                     "10000"]) == 1

    def test_methods_subset(self, ring_blif, capsys):
        assert main(["approx", ring_blif, "--min-nodes", "1",
                     "--methods", "hb,rua"]) == 0
        out = capsys.readouterr().out
        assert "HB" in out
        assert "RUA" in out
        assert "SP" not in out

    def test_unknown_method_rejected(self, ring_blif):
        with pytest.raises(SystemExit):
            main(["approx", ring_blif, "--methods", "nope"])

    def test_jobs_is_a_usage_error(self, ring_blif):
        with pytest.raises(SystemExit) as exc:
            main(["approx", ring_blif, "--jobs", "2"])
        assert exc.value.code == 2


class TestRuntimeOptions:
    def test_reach_stats(self, counter_blif, capsys):
        assert main(["reach", counter_blif, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "states:     8" in out
        assert "computed table" in out
        assert "live nodes:" in out

    def test_stats_on_every_command(self, ring_blif, capsys):
        for cmd in (["info"], ["approx", "--min-nodes", "1"],
                    ["decomp"]):
            assert main([cmd[0], ring_blif, *cmd[1:], "--stats"]) == 0
            assert "computed table" in capsys.readouterr().out

    def test_runtime_knobs_preserve_results(self, counter_blif, capsys):
        assert main(["reach", counter_blif]) == 0
        baseline = capsys.readouterr().out
        assert main(["reach", counter_blif, "--cache-limit", "64",
                     "--gc-threshold", "32"]) == 0
        bounded = capsys.readouterr().out
        assert "states:     8" in baseline
        assert "states:     8" in bounded
        for line in baseline.splitlines():
            if line.startswith(("states:", "complete:", "|reached|:")):
                assert line in bounded


class TestDecomp:
    def test_outputs_decomposed(self, ring_blif, capsys):
        assert main(["decomp", ring_blif]) == 0
        out = capsys.readouterr().out
        assert "Cofactor" in out

    def test_bad_command(self):
        with pytest.raises(SystemExit):
            main(["nope"])


class TestBudgetExit:
    """A budget abort in ``approx``/``decomp`` exits 3 with one line on
    stderr.  The circuits are big enough for the methods to cross a
    governor checkpoint (every 64 kernel steps); the counter and ring
    fixtures are not."""

    @pytest.mark.parametrize("command, circuit", [
        pytest.param("approx", lambda: serial_multiplier(7), id="approx"),
        pytest.param("decomp", lambda: am2910(4, 3), id="decomp")])
    @pytest.mark.parametrize("budget", [["--deadline", "0"],
                                        ["--step-budget", "1"]],
                             ids=["deadline", "steps"])
    def test_budget_abort_exits_3(self, command, circuit, budget,
                                  tmp_path, capsys):
        path = tmp_path / "circuit.blif"
        path.write_text(write_blif(circuit()))
        assert main([command, str(path), *budget]) == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: resource budget exhausted: ")
        assert err.count("\n") == 1

    def test_budget_governs_the_encode(self, tmp_path, capsys):
        # serial_multiplier(7) encodes to about 2,000 live nodes.  The
        # budget holds while the BDDs are built, except in the setup
        # of a reach that degrades instead of failing.
        path = tmp_path / "mult7.blif"
        path.write_text(write_blif(serial_multiplier(7)))
        budget = ["--node-budget", "50"]
        assert main(["info", str(path), *budget, "--stats"]) == 3
        assert capsys.readouterr().err.startswith(
            "repro: resource budget exhausted: ")
        assert main(["reach", str(path), *budget, "--on-blowup", "subset",
                     "--max-iterations", "1"]) == 0


class TestBadCircuit:
    """A malformed or unreadable BLIF file is one line on stderr and
    exit status 1, from every command that reads one."""

    @pytest.fixture
    def bad_blif(self, tmp_path):
        path = tmp_path / "bad.blif"
        path.write_text(".model x\n.inputs a a\n.end\n")
        return str(path)

    @pytest.mark.parametrize("command", [
        ["info"], ["reach"], ["approx"], ["decomp"], ["check"],
        ["save", "--store", "st"]])
    def test_every_reader_reports_the_file(self, command, bad_blif,
                                           tmp_path, capsys):
        assert main(command[:1] + [bad_blif] + command[1:]) == 1
        assert capsys.readouterr().err == \
            f"repro: {bad_blif}: signal 'a' already exists\n"
        missing = str(tmp_path / "missing.blif")
        assert main(command[:1] + [missing] + command[1:]) == 1
        assert capsys.readouterr().err == \
            f"repro: {missing}: No such file or directory\n"

    def test_latch_init_dont_care(self, tmp_path, capsys):
        # Read as 0, init 2 used to answer 1 state where 2 are
        # reachable.
        path = tmp_path / "latch.blif"
        path.write_text(".model m\n.latch b b 2\n.end\n")
        assert main(["reach", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"repro: {path}: latch 'b' has init value 2 (don't care or " \
            f"unknown); only 0 and 1 are supported\n"

    def test_latch_init_missing(self, tmp_path, capsys):
        # BLIF reads a missing init value as 3 (unknown); read as 0, it
        # answered 1 state where 2 are reachable.
        path = tmp_path / "latch.blif"
        path.write_text(".model m\n.latch b b\n.end\n")
        assert main(["reach", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"repro: {path}: latch 'b' has no init value (BLIF reads " \
            f"it as 3, unknown); only 0 and 1 are supported\n"

    @pytest.mark.parametrize("which", ["bad", "missing"])
    def test_no_traceback(self, which, bad_blif, tmp_path):
        import os
        import subprocess
        import sys

        path = bad_blif if which == "bad" \
            else str(tmp_path / "missing.blif")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "reach", path],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"repro: {path}: ")
        assert proc.stderr.count("\n") == 1


class TestServeCall:
    """`repro call` against an in-process daemon."""

    @pytest.fixture
    def served(self):
        from repro.serve import ServerThread

        with ServerThread() as handle:
            yield handle

    def test_call_health(self, served, capsys):
        assert main(["call", "health", "--port",
                     str(served.port)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"
        assert out["backend"] == "array"

    def test_call_verb_with_params(self, served, capsys):
        assert main(["call", "var", '{"name": "a"}', "--port",
                     str(served.port)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["handle"] == "h1"
        assert out["fresh"] is True

    def test_call_budget_error_exits_3(self, served, capsys):
        # One-shot sessions: the handle from a previous `repro call`
        # is gone, so drive a self-contained starved request.
        # counter(8) is big enough that reach crosses a governor
        # checkpoint (stride 64); tiny circuits never would.
        blif = write_blif(counter(8))
        assert main(["call", "reach", json.dumps({"blif": blif}),
                     "--port", str(served.port),
                     "--step-budget", "1"]) == 3
        err = capsys.readouterr().err
        assert "budget" in err

    def test_call_server_error_exits_1(self, served, capsys):
        assert main(["call", "frobnicate", "--port",
                     str(served.port)]) == 1
        assert "unknown-verb" in capsys.readouterr().err

    def test_call_bad_params_rejected(self, served):
        with pytest.raises(SystemExit):
            main(["call", "health", "[1,2]", "--port",
                  str(served.port)])

    def test_call_unreachable_server(self):
        with pytest.raises(SystemExit):
            main(["call", "health", "--port", "1",
                  "--connect-timeout", "0.2"])


def stable_reach_lines(out: str) -> list[str]:
    """Reach output minus the wall-clock and checkpoint-count lines."""
    return [line for line in out.splitlines()
            if not line.startswith(("time:", "checkpoint:"))]


class TestSaveLoad:
    def test_save_then_list_and_load(self, counter_blif, tmp_path,
                                     capsys):
        store = str(tmp_path / "store")
        assert main(["save", counter_blif, "--store", store,
                     "--functions", "all", "--tag", "run1"]) == 0
        out = capsys.readouterr().out
        assert "saved to" in out

        assert main(["load", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert "/next/" in listing
        assert "run1" in listing
        name = next(line.split()[0] for line in listing.splitlines()
                    if "/next/" in line)

        assert main(["load", name, "--store", store]) == 0
        out = capsys.readouterr().out
        assert f"name:     {name}" in out
        assert "minterms:" in out

    @pytest.mark.parametrize("tag", ["x,y", ""])
    def test_unstorable_tag_exits_1(self, counter_blif, tmp_path, tag,
                                    capsys):
        assert main(["save", counter_blif, "--store",
                     str(tmp_path / "store"), "--tag", tag]) == 1
        assert "tag" in capsys.readouterr().err

    def test_dump_is_a_usage_error(self, counter_blif, tmp_path):
        # The store's object format is the one BDD format; `load` has
        # no text dump to print.
        from repro.store import BDDStore

        store = str(tmp_path / "store")
        assert main(["save", counter_blif, "--store", store]) == 0
        name = BDDStore(store).entries()[0]["name"]
        with pytest.raises(SystemExit) as excinfo:
            main(["load", name, "--store", store, "--dump"])
        assert excinfo.value.code == 2

    def test_list_prefix_filters(self, counter_blif, tmp_path,
                                 capsys):
        store = str(tmp_path / "store")
        assert main(["save", counter_blif, "--store", store,
                     "--functions", "all"]) == 0
        capsys.readouterr()
        assert main(["load", "no/such/prefix", "--store", store,
                     "--list"]) == 1
        assert "no entries" in capsys.readouterr().out

    def test_unknown_name_exits_1(self, counter_blif, tmp_path,
                                  capsys):
        store = str(tmp_path / "store")
        assert main(["save", counter_blif, "--store", store]) == 0
        capsys.readouterr()
        assert main(["load", "ghost", "--store", store]) == 1
        assert "store:" in capsys.readouterr().err

    def test_missing_store_exits_1(self, tmp_path, capsys):
        assert main(["load", "--store",
                     str(tmp_path / "missing")]) == 1
        assert "no store" in capsys.readouterr().err

    def test_corrupt_object_exits_4(self, counter_blif, tmp_path,
                                    capsys):
        from repro.store import BDDStore

        store_dir = tmp_path / "store"
        assert main(["save", counter_blif, "--store",
                     str(store_dir)]) == 0
        capsys.readouterr()
        store = BDDStore(store_dir)
        name = store.entries()[0]["name"]
        path = store._object_path(store.entries()[0]["hash"])
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["load", name, "--store", str(store_dir)]) == 4
        assert "store:" in capsys.readouterr().err


class TestReachCheckpoint:
    def test_checkpointed_run_reports_saves(self, counter_blif,
                                            capsys, tmp_path):
        ck = str(tmp_path / "ck")
        assert main(["reach", counter_blif, "--checkpoint", ck]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: reach/" in out
        assert "save(s) this run" in out

    def test_interrupt_then_resume_matches_plain_run(self,
                                                     counter_blif,
                                                     capsys,
                                                     tmp_path):
        assert main(["reach", counter_blif]) == 0
        oracle = stable_reach_lines(capsys.readouterr().out)

        ck = str(tmp_path / "ck")
        assert main(["reach", counter_blif, "--checkpoint", ck,
                     "--max-iterations", "2"]) == 0
        capsys.readouterr()
        assert main(["reach", counter_blif, "--checkpoint", ck,
                     "--resume"]) == 0
        assert stable_reach_lines(capsys.readouterr().out) == oracle

    def test_resume_requires_checkpoint_dir(self, counter_blif):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["reach", counter_blif, "--resume"])

    def test_resume_different_problem_refused(self, counter_blif,
                                              capsys, tmp_path):
        ck = str(tmp_path / "ck")
        assert main(["reach", counter_blif, "--checkpoint", ck,
                     "--max-iterations", "1"]) == 0
        capsys.readouterr()
        # Same circuit and method — so the same checkpoint name — but
        # a different traversal configuration: the spec digest (which
        # also covers knobs the name can't, like the cluster limit)
        # must refuse the resume instead of blending two traversals.
        assert main(["reach", counter_blif, "--checkpoint", ck,
                     "--resume", "--cluster-limit", "7"]) == 1
        assert "different problem" in capsys.readouterr().err

    def test_checkpoint_every_cadence(self, counter_blif, capsys,
                                      tmp_path):
        ck = str(tmp_path / "ck")
        assert main(["reach", counter_blif, "--checkpoint", ck,
                     "--checkpoint-every", "100"]) == 0
        out = capsys.readouterr().out
        # Cadence 100 > diameter: only the final fixpoint save runs.
        assert "(1 save(s) this run)" in out


#: ``repro`` CLI entry that SIGKILLs itself right after the traversal's
#: first checkpoint save: a kill at a known iteration, not a race
#: against the process finishing on its own.
KILL_AFTER_FIRST_SAVE = """
import os, signal, sys
from repro.cli import main
from repro.store.checkpoint import ReachCheckpointer

step = ReachCheckpointer.step

def step_then_die(self, roots, meta):
    step(self, roots, meta)
    if self.saves:
        os.kill(os.getpid(), signal.SIGKILL)

ReachCheckpointer.step = step_then_die
sys.exit(main(sys.argv[1:]))
"""


class TestKillResume:
    # BFS and high-density traversal save different layouts: the
    # latter adds the ``new`` frontier, ``densities`` and
    # ``recoveries``.
    @pytest.mark.parametrize("method", ["bfs", "rua"])
    def test_kill9_mid_run_then_resume_byte_identical(self, tmp_path,
                                                      method):
        """kill -9 a checkpointing reach mid-flight, resume it, and the
        resumed output (reached set included) matches an uninterrupted
        sequential run exactly."""
        import os
        import signal
        import subprocess
        import sys

        from repro.fsm.benchmarks import counter
        from repro.fsm.blif import write_blif
        from repro.store import BDDStore

        blif = tmp_path / "counter.blif"
        blif.write_text(write_blif(counter(6)))
        ck = tmp_path / "ck"
        name = f"reach/{counter(6).name}/{method}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(
                __file__))), "src") + os.pathsep + env.get(
                    "PYTHONPATH", "")

        oracle = subprocess.run(
            [sys.executable, "-m", "repro", "reach", str(blif),
             "--method", method, "--checkpoint", str(tmp_path / "oracle")],
            capture_output=True, text=True, env=env, timeout=120)
        assert oracle.returncode == 0, oracle.stderr

        killed = subprocess.run(
            [sys.executable, "-c", KILL_AFTER_FIRST_SAVE, "reach",
             str(blif), "--method", method, "--checkpoint", str(ck)],
            capture_output=True, text=True, env=env, timeout=120)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        # The kill landed mid-traversal (counter(6) runs over 60
        # iterations): the checkpoint holds iteration 1, incomplete.
        from repro.bdd import Manager
        roots, extra = BDDStore(ck, create=False).load_roots(Manager(),
                                                             name)
        assert extra["meta"]["iterations"] == 1
        assert "complete" not in extra["meta"]
        if method == "rua":
            assert sorted(roots) == ["new", "reached"]
            assert {"densities", "recoveries"} <= set(extra["meta"])

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "reach", str(blif),
             "--method", method, "--checkpoint", str(ck), "--resume"],
            capture_output=True, text=True, env=env, timeout=120)
        assert resumed.returncode == 0, resumed.stderr
        assert stable_reach_lines(resumed.stdout) \
            == stable_reach_lines(oracle.stdout)

        # Byte-level check on the reached set itself, not just the
        # summary: the final checkpoint's reached set has the content
        # address of a fresh in-process oracle's.
        from repro.fsm import encode
        from repro.reach import TransitionRelation, bfs_reachability

        encoded = encode(counter(6))
        result = bfs_reachability(TransitionRelation(encoded),
                                  encoded.initial_states())
        roots, extra = BDDStore(ck).load_roots(Manager(), name)
        assert extra["meta"]["complete"] is True
        assert store_digest(roots["reached"]) \
            == store_digest(result.reached)
        # The whole saved state, traces and densities included, is the
        # uninterrupted run's.
        _, oracle_extra = BDDStore(tmp_path / "oracle").load_roots(
            Manager(), name)
        assert extra["meta"] == oracle_extra["meta"]
