"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.ppc.lang import programs


class TestMcpCommand:
    def test_generate_gnp(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "minimum cost paths to vertex 2 on ppa" in out
        assert "counters:" in out

    def test_paths_flag(self, capsys):
        main(["mcp", "--generate", "complete", "--n", "5", "-d", "0",
              "--paths"])
        out = capsys.readouterr().out
        assert "->" in out

    @pytest.mark.parametrize("arch", ["gcn", "mesh", "hypercube"])
    def test_other_architectures(self, arch, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "8", "--arch", arch]) == 0
        assert f"on {arch}" in capsys.readouterr().out

    def test_word_parallel_variant(self, capsys):
        assert main(["mcp", "--generate", "ring", "--n", "5",
                     "--word-parallel"]) == 0

    def test_word_parallel_rejected_for_mesh(self, capsys):
        assert main(["mcp", "--generate", "ring", "--n", "5", "--arch",
                     "mesh", "--word-parallel"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_graph_from_npy(self, tmp_path, capsys):
        W = np.array([[0, 3], [7, 0]], dtype=np.int64)
        path = tmp_path / "w.npy"
        np.save(path, W)
        assert main(["mcp", "--graph", str(path), "-d", "1"]) == 0
        out = capsys.readouterr().out
        assert "cost      3" in out

    def test_graph_from_txt_with_inf(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0 2 inf\ninf 0 4\ninf inf 0\n")
        assert main(["mcp", "--graph", str(path), "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "cost      6" in out

    def test_missing_graph_file(self, capsys):
        assert main(["mcp", "--graph", "/nonexistent.npy"]) == 2

    def test_npz_needs_W(self, tmp_path, capsys):
        path = tmp_path / "w.npz"
        np.savez(path, other=np.zeros((2, 2)))
        assert main(["mcp", "--graph", str(path)]) == 2


class TestMcpObservability:
    def test_profile_flag_writes_native_json(self, tmp_path, capsys):
        from repro.telemetry import load_profile

        path = tmp_path / "out.json"
        assert main(["mcp", "--generate", "gnp", "--n", "8", "--seed", "1",
                     "-d", "2", "--profile", str(path)]) == 0
        assert f"profile written to {path}" in capsys.readouterr().out
        profile = load_profile(path)
        assert profile.meta["command"] == "mcp"
        assert profile.find("mcp.iteration")
        # Profile totals equal the run's printed counters.
        assert profile.counters["bus_cycles"] > 0

    def test_profile_chrome_format(self, tmp_path, capsys):
        import json

        path = tmp_path / "out.chrome.json"
        assert main(["mcp", "--generate", "gnp", "--n", "8",
                     "--profile", str(path),
                     "--trace-format", "chrome"]) == 0
        data = json.loads(path.read_text())
        assert {e["ph"] for e in data["traceEvents"]} <= {"M", "X"}

    def test_profile_does_not_change_counters(self, tmp_path, capsys):
        argv = ["mcp", "--generate", "gnp", "--n", "8", "--seed", "3"]
        assert main(argv) == 0
        plain = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("counters:")]
        assert main(argv + ["--profile", str(tmp_path / "p.json")]) == 0
        traced = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("counters:")]
        assert plain == traced

    def test_trace_flag_summarises_bus(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "8", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "bus transactions:" in out
        assert "broadcast" in out and "reduce" in out

    def test_trace_rejected_off_ppa(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "8",
                     "--arch", "mesh", "--trace"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_works_on_baselines(self, tmp_path, capsys):
        from repro.telemetry import load_profile

        path = tmp_path / "mesh.json"
        assert main(["mcp", "--generate", "gnp", "--n", "8",
                     "--arch", "mesh", "--profile", str(path)]) == 0
        assert load_profile(path).meta["arch"] == "mesh"


class TestApspCommand:
    def test_generate_gnp_batched_default(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "6", "--seed",
                     "1"]) == 0
        out = capsys.readouterr().out
        assert "all-pairs minimum cost on ppa" in out
        assert "batched lanes=6" in out
        assert "counters (serial-equivalent):" in out
        # batched mode also reports the amortised machine-stream cost
        assert "counters (batched machine):" in out

    def test_serial_flag(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "--serial"]) == 0
        out = capsys.readouterr().out
        assert "serial sweep" in out
        # serial sweep: machine counters == serial-equivalent, not reprinted
        assert "counters (batched machine):" not in out

    def test_batched_and_serial_report_same_totals(self, capsys):
        main(["apsp", "--generate", "gnp", "--n", "6", "--seed", "3"])
        batched = capsys.readouterr().out
        main(["apsp", "--generate", "gnp", "--n", "6", "--seed", "3",
              "--serial"])
        serial = capsys.readouterr().out
        pick = lambda s: next(  # noqa: E731
            ln for ln in s.splitlines() if "serial-equivalent" in ln
        )
        assert pick(batched) == pick(serial)

    def test_lanes_knob(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "6", "--lanes",
                     "2"]) == 0
        assert "batched lanes=2" in capsys.readouterr().out

    def test_matrix_flag(self, capsys):
        assert main(["apsp", "--generate", "complete", "--n", "5",
                     "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "distance matrix" in out
        assert "reachable ordered pairs: 20/20" in out

    def test_word_parallel(self, capsys):
        assert main(["apsp", "--generate", "ring", "--n", "5",
                     "--word-parallel"]) == 0

    def test_graph_from_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0 2 inf\ninf 0 4\n1 inf 0\n")
        assert main(["apsp", "--graph", str(path)]) == 0
        assert "reachable ordered pairs: 6/6" in capsys.readouterr().out

    def test_profile_export(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "apsp.json"
        assert main(["apsp", "--generate", "gnp", "--n", "6", "--profile",
                     str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-profile-v1"
        assert payload["meta"]["command"] == "apsp"
        assert payload["meta"]["serial"] is False
        top = payload["spans"][0]
        assert top["name"] == "apsp"
        assert top["attrs"]["lanes"] == 6
        assert {c["name"] for c in top["children"]} == {"apsp.batch"}

    def test_trace_summary(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "5",
                     "--trace"]) == 0
        assert "bus transactions:" in capsys.readouterr().out


class TestProfileCommand:
    def test_prints_phase_table(self, capsys):
        assert main(["profile", "--generate", "gnp", "--n", "8",
                     "--seed", "1", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "Per-phase cost breakdown" in out
        assert "(total)" in out
        assert "mcp.min" in out
        assert "iterations:" in out

    def test_out_and_compare_round_trip(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        argv = ["profile", "--generate", "gnp", "--n", "8", "--seed", "1"]
        assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert main(argv + ["--compare", str(path)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_compare_detects_drift(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        assert main(["profile", "--generate", "gnp", "--n", "8",
                     "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        # A different workload must profile differently.
        assert main(["profile", "--generate", "complete", "--n", "8",
                     "--compare", str(path)]) == 1
        assert "drift against" in capsys.readouterr().out

    def test_other_architecture(self, capsys):
        assert main(["profile", "--generate", "gnp", "--n", "8",
                     "--arch", "hypercube"]) == 0
        assert "hypercube" in capsys.readouterr().out


class TestReportCommand:
    def test_quick_single_experiment(self, capsys):
        assert main(["report", "--quick", "F4"]) == 0
        assert "F4 - iterations" in capsys.readouterr().out


class TestPpcCommand:
    def test_run_program(self, tmp_path, capsys):
        src = tmp_path / "prog.ppc"
        src.write_text("int ans; void main() { ans = N * N; }")
        assert main(["ppc", str(src), "--n", "5"]) == 0
        assert "ans = 25" in capsys.readouterr().out

    def test_entry_and_set(self, tmp_path, capsys):
        src = tmp_path / "prog.ppc"
        src.write_text("int d; int f() { return d + 1; }")
        assert main(["ppc", str(src), "--entry", "f", "--set", "d=41"]) == 0
        assert "return value: 42" in capsys.readouterr().out

    def test_run_paper_listing_with_graph(self, tmp_path, capsys):
        src = tmp_path / "mcp.ppc"
        src.write_text(programs.MCP_CODE)
        W = np.array(
            [[0, 4, np.inf, np.inf],
             [np.inf, 0, 1, np.inf],
             [np.inf, np.inf, 0, 7],
             [2, np.inf, np.inf, 0]]
        )
        graph = tmp_path / "w.npy"
        np.save(graph, W)
        assert main(["ppc", str(src), "--entry", "minimum_cost_path",
                     "--n", "4", "--graph", str(graph), "--set", "d=3"]) == 0
        out = capsys.readouterr().out
        assert "SOW =" in out

    def test_format_mode(self, tmp_path, capsys):
        src = tmp_path / "prog.ppc"
        src.write_text("int f(  )   { return   1+2 ; }")
        assert main(["ppc", str(src), "--format"]) == 0
        assert "return 1 + 2;" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["ppc", "/nope.ppc"]) == 2

    def test_bad_set_syntax(self, tmp_path, capsys):
        src = tmp_path / "prog.ppc"
        src.write_text("void main() { }")
        assert main(["ppc", str(src), "--set", "oops"]) == 2


class TestSelftestCommand:
    def test_healthy(self, capsys):
        assert main(["selftest", "--n", "5"]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_injected_fault_reported(self, capsys):
        assert main(["selftest", "--n", "5", "--fault", "1,2,open,1"]) == 1
        out = capsys.readouterr().out
        assert "stuck-open switch at (1, 2) on row bus" in out

    def test_fault_on_both_axes(self, capsys):
        assert main(["selftest", "--n", "5", "--fault", "2,2,short,both"]) == 1
        out = capsys.readouterr().out
        assert out.count("stuck-short switch at (2, 2)") == 2

    def test_bad_fault_spec(self, capsys):
        assert main(["selftest", "--fault", "1,2,banana"]) == 2

    def test_trace_flag(self, capsys):
        assert main(["selftest", "--n", "5", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "bus transactions: 6" in out  # the 6-probe diagnostic

    def test_profile_flag(self, tmp_path, capsys):
        from repro.telemetry import load_profile

        path = tmp_path / "selftest.json"
        assert main(["selftest", "--n", "5", "--profile", str(path)]) == 0
        profile = load_profile(path)
        assert profile.meta["command"] == "selftest"
        assert [s.attrs["axis"] for s in profile.find("selftest.axis")] == [0, 1]


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestRmeshArch:
    def test_mcp_on_rmesh(self, capsys):
        from repro.cli import main as _main

        assert _main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "2",
                      "--arch", "rmesh", "-d", "1"]) == 0
        assert "on rmesh" in capsys.readouterr().out

    def test_word_parallel_rejected_for_rmesh(self, capsys):
        from repro.cli import main as _main

        assert _main(["mcp", "--generate", "ring", "--n", "5",
                      "--arch", "rmesh", "--word-parallel"]) == 2


class TestPpcCompileModes:
    def test_compile_only_emits_asm(self, tmp_path, capsys):
        src = tmp_path / "prog.ppc"
        src.write_text("parallel int X; void main() { X = COL + 1; }")
        assert main(["ppc", str(src), "--compile", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "compiled from PPC for n=4" in out
        assert "halt" in out

    def test_run_compiled(self, tmp_path, capsys):
        src = tmp_path / "prog.ppc"
        src.write_text("int out; parallel int X;"
                       "void main() { X = 1; where (ROW == 0) X = 5; }")
        assert main(["ppc", str(src), "--run-compiled", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "X =" in out and "counters:" in out

    def test_run_compiled_paper_listing(self, tmp_path, capsys):
        src = tmp_path / "mcp.ppc"
        src.write_text(programs.MCP_CODE)
        W = np.array(
            [[0, 4, np.inf, np.inf],
             [np.inf, 0, 1, np.inf],
             [np.inf, np.inf, 0, 7],
             [2, np.inf, np.inf, 0]]
        )
        graph = tmp_path / "w.npy"
        np.save(graph, W)
        assert main(["ppc", str(src), "--entry", "minimum_cost_path",
                     "--n", "4", "--graph", str(graph), "--set", "d=3",
                     "--run-compiled"]) == 0
        out = capsys.readouterr().out
        assert "SOW =" in out

    def test_compile_error_surfaces(self, tmp_path, capsys):
        src = tmp_path / "bad.ppc"
        src.write_text("parallel int X; int d;"
                       "void main() { X = shift(X, d); }")
        assert main(["ppc", str(src), "--compile"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFaultFlags:
    def test_intermittent_fault_flag_on_selftest(self, capsys):
        # p = 1.0 fires on every transaction: diagnosed like a permanent.
        assert main(["selftest", "--n", "5",
                     "--fault-intermittent", "1,2,open,1.0,0"]) == 1
        assert "stuck-open" in capsys.readouterr().out

    def test_bad_intermittent_probability(self, capsys):
        assert main(["selftest", "--n", "5",
                     "--fault-intermittent", "1,2,open,2.0,0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_transient_spec(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "5",
                     "--fault-transient", "1,2,banana,0.5"]) == 2

    def test_fault_flags_rejected_off_ppa(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "5", "--arch",
                     "mesh", "--fault", "1,2,open,0"]) == 2
        assert "--arch ppa" in capsys.readouterr().err


class TestScreenFlag:
    def test_healthy_screen_passes(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--screen"]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_screen_refuses_faulty_array(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--screen", "--fault", "2,4,short,0"]) == 2
        assert "pre-flight screen" in capsys.readouterr().err

    def test_screen_on_apsp(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "5", "--screen",
                     "--fault", "1,2,open,1"]) == 2
        assert "--resilient" in capsys.readouterr().err


class TestResilientFlag:
    def test_clean_resilient_run_matches_plain(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2"]) == 0
        plain = capsys.readouterr().out
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--resilient"]) == 0
        out = capsys.readouterr().out
        assert "resilience: status clean" in out
        # Same per-vertex cost lines, resilience banner aside.
        for line in plain.splitlines():
            if "next" in line:
                assert line in out

    def test_resilient_quarantines_pre_existing_fault(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--resilient", "--array-n", "8",
                     "--fault", "2,4,short,0"]) == 0
        out = capsys.readouterr().out
        assert "status degraded" in out
        assert "quarantined [4]" in out

    def test_resilient_apsp(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "5", "--seed", "1",
                     "--resilient", "--array-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "resilience: status clean" in out
        assert "reachable ordered pairs" in out

    def test_resilient_apsp_rejects_serial(self, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "5", "--serial",
                     "--resilient"]) == 2
        assert "drop --serial" in capsys.readouterr().err

    def test_array_smaller_than_problem_rejected(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--resilient",
                     "--array-n", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_resilient_rejected_off_ppa(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "5", "--arch",
                     "gcn", "--resilient"]) == 2

    def test_resilient_with_transient_sweep(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--resilient", "--array-n", "8",
                     "--fault-transient", "2,4,3,0.05,0",
                     "--fault-seed", "1"]) == 0
        assert "resilience: status" in capsys.readouterr().out

    def test_policy_knobs_accepted(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--resilient", "--checkpoint-every", "2",
                     "--max-retries", "1", "--detect-every", "2"]) == 0


class TestEngineFlag:
    """``--engine {auto,cycle,compiled}`` on mcp/apsp/profile.

    Tests named ``fused`` predate the fold of the fused engine into
    ``compiled``; they pin the same behaviour on ``compiled``.
    """

    def _counters_line(self, out):
        return [ln for ln in out.splitlines() if ln.startswith("counters:")]

    @pytest.mark.parametrize("engine", ["auto", "cycle", "compiled"])
    def test_mcp_accepts_every_engine(self, engine, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "-d", "2", "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "minimum cost paths to vertex 2 on ppa" in out

    def test_mcp_engines_report_identical_counters(self, capsys):
        argv = ["mcp", "--generate", "gnp", "--n", "7", "--seed", "5", "-d", "1"]
        main(argv + ["--engine", "cycle"])
        cycle = self._counters_line(capsys.readouterr().out)
        main(argv + ["--engine", "compiled"])
        compiled = self._counters_line(capsys.readouterr().out)
        assert cycle == compiled

    def test_mcp_unknown_engine_rejected(self, capsys):
        for engine in ("warp", "fused"):
            with pytest.raises(SystemExit):
                main(["mcp", "--generate", "gnp", "--n", "6",
                      "--engine", engine])
            assert "invalid choice" in capsys.readouterr().err

    def test_fused_with_trace_downgrades_with_note(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "-d", "0", "--engine", "compiled", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "note: engine 'compiled' unavailable" in out
        assert "results are identical" in out
        assert "bus transactions:" in out  # the cycle run really traced

    def test_fused_with_faults_downgrades_with_note(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "--engine", "compiled", "--fault", "1,1,open"]) == 0
        assert "note: engine 'compiled' unavailable" in capsys.readouterr().out

    def test_fused_with_resilient_downgrades_with_note(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "3",
                     "-d", "2", "--resilient", "--engine", "compiled"]) == 0
        assert "note: engine 'compiled' unavailable" in capsys.readouterr().out

    def test_fused_with_profile_downgrades_with_note(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "--engine", "compiled", "--profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "note: engine 'compiled' unavailable" in out
        assert path.exists()

    def test_fused_off_ppa_downgrades_with_note(self, capsys):
        assert main(["mcp", "--generate", "gnp", "--n", "6", "--arch", "mesh",
                     "--engine", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "note: engine 'compiled' unavailable" in out
        assert "PPA only" in out

    def test_fused_with_word_parallel_downgrades_with_note(self, capsys):
        assert main(["mcp", "--generate", "ring", "--n", "5",
                     "--word-parallel", "--engine", "compiled"]) == 0
        assert "note: engine 'compiled' unavailable" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["cycle", "compiled"])
    def test_apsp_accepts_engine(self, engine, capsys):
        assert main(["apsp", "--generate", "gnp", "--n", "6", "--seed", "2",
                     "--engine", engine]) == 0
        assert "all-pairs minimum cost" in capsys.readouterr().out

    def test_apsp_engines_report_identical_counters(self, capsys):
        argv = ["apsp", "--generate", "gnp", "--n", "6", "--seed", "2"]
        main(argv + ["--engine", "cycle"])
        cycle = self._counters_line(capsys.readouterr().out)
        main(argv + ["--engine", "compiled"])
        compiled = self._counters_line(capsys.readouterr().out)
        assert cycle == compiled

    def test_profile_command_downgrades_fused_with_note(self, capsys):
        assert main(["profile", "--generate", "gnp", "--n", "6", "--seed", "1",
                     "--engine", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "note: engine 'compiled' unavailable" in out
        assert "span tracer" in out
