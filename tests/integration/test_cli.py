"""CLI tests (python -m repro ...)."""

import pytest

from repro.__main__ import main


def test_bench_lists_suite(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "3_17" in out and "hwb4" in out and "provenance" in out


def test_synth_benchmark(capsys):
    assert main(["synth", "-b", "3_17"]) == 0
    out = capsys.readouterr().out
    assert "D=6" in out
    assert "cheapest network" in out


def test_synth_explicit_permutation(capsys):
    assert main(["synth", "-p", "0,2,1,3"]) == 0
    out = capsys.readouterr().out
    assert "D=3" in out  # a swap needs three CNOTs with MCT only


def test_synth_extended_kinds(capsys):
    assert main(["synth", "-p", "0,2,1,3", "--kinds", "mct+mcf"]) == 0
    assert "D=1" in capsys.readouterr().out


def test_synth_all_solutions(capsys):
    assert main(["synth", "-b", "3_17", "--all"]) == 0
    out = capsys.readouterr().out
    assert "all 7 minimal networks" in out


def test_synth_writes_real_file(tmp_path, capsys):
    target = tmp_path / "out.real"
    assert main(["synth", "-b", "graycode4", "-o", str(target)]) == 0
    content = target.read_text()
    assert ".begin" in content and ".end" in content
    from repro.core.realfmt import parse_real
    circuit, _ = parse_real(content)
    from repro.functions import get_spec
    assert get_spec("graycode4").matches_circuit(circuit)


def test_show_truth_table(capsys):
    assert main(["show", "-b", "rd32-v0"]) == 0
    out = capsys.readouterr().out
    assert "incompletely specified" in out
    assert "->" in out


def test_qdimacs_export(capsys):
    assert main(["qdimacs", "-b", "3_17", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c ")
    assert "\ne " in out and "\na " in out


def test_check_equivalent_and_not(tmp_path, capsys):
    from repro.core.circuit import Circuit
    from repro.core.gates import Toffoli
    from repro.core.realfmt import write_real
    a = tmp_path / "a.real"
    b = tmp_path / "b.real"
    c = tmp_path / "c.real"
    a.write_text(write_real(Circuit(2, [Toffoli((0,), 1)])))
    b.write_text(write_real(Circuit(2, [Toffoli((0,), 1)])))
    c.write_text(write_real(Circuit(2, [Toffoli((1,), 0)])))
    assert main(["check", str(a), str(b)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out
    assert main(["check", str(a), str(c)]) == 1
    assert "NOT EQUIVALENT" in capsys.readouterr().out


def test_heuristic_command(capsys):
    assert main(["heuristic", "-b", "3_17"]) == 0
    out = capsys.readouterr().out
    assert "MMD heuristic" in out


def test_heuristic_simplify_flag(capsys):
    assert main(["heuristic", "-b", "3_17", "--simplify"]) == 0
    out = capsys.readouterr().out
    assert "after peephole optimization" in out


def test_opsynth_command(capsys):
    assert main(["opsynth", "-p", "0,2,1,3"]) == 0
    out = capsys.readouterr().out
    assert "D=0 with output permutation" in out
    assert "best permutation (1, 0)" in out


def test_decompose_command(tmp_path, capsys):
    from repro.core.circuit import Circuit
    from repro.core.gates import Toffoli
    from repro.core.realfmt import write_real
    target = tmp_path / "t.real"
    target.write_text(write_real(Circuit(3, [Toffoli((0, 1), 2)])))
    assert main(["decompose", str(target)]) == 0
    out = capsys.readouterr().out
    assert "5 elementary quantum gates" in out
    assert "CV" in out


def test_stats_command(tmp_path, capsys):
    from repro.core.circuit import Circuit
    from repro.core.gates import Toffoli
    from repro.core.realfmt import write_real
    target = tmp_path / "c.real"
    target.write_text(write_real(Circuit(3, [Toffoli((0, 1), 2),
                                             Toffoli((0,), 1)])))
    assert main(["stats", str(target), "--latex", "--json"]) == 0
    out = capsys.readouterr().out
    assert "gates          : 2" in out
    assert "\\Qcircuit" in out
    assert '"repro-circuit-v1"' in out


def test_spec_source_required():
    with pytest.raises(SystemExit):
        main(["synth"])


def test_synth_progress_plain_renders_live_events(capsys):
    import repro.obs as obs
    obs.reset_event_bus()
    try:
        assert main(["synth", "-b", "3_17", "--engine", "sat",
                     "--progress"]) == 0
    finally:
        obs.reset_event_bus()
    out = capsys.readouterr().out
    assert "depth 3 refuted (proven bound 3)" in out
    assert "SOLVED at depth 6" in out
    assert "\r" not in out  # captured stream is not a TTY -> plain mode


def test_synth_events_file_is_schema_valid_jsonl(tmp_path, capsys):
    import repro.obs as obs
    events_path = tmp_path / "events.jsonl"
    obs.reset_event_bus()
    try:
        assert main(["synth", "-b", "3_17", "--engine", "bdd",
                     "--events", str(events_path)]) == 0
    finally:
        obs.reset_event_bus()
    events = obs.read_records(str(events_path))
    assert events
    assert all(obs.validate_event(e) == [] for e in events)
    kinds = [e["event"] for e in events]
    assert "depth_refuted" in kinds and kinds[-1] == "run_finished"


def test_suite_progress_suppresses_duplicate_report_lines(capsys):
    import repro.obs as obs
    obs.reset_event_bus()
    try:
        assert main(["suite", "-b", "3_17", "--engines", "bdd",
                     "--workers", "1", "--progress"]) == 0
    finally:
        obs.reset_event_bus()
    out = capsys.readouterr().out
    assert "3_17/bdd/mct: realized" in out       # rendered by events
    assert "  w0 3_17/bdd/mct:" not in out       # old per-report line off


def test_watch_renders_records_and_events(tmp_path, capsys):
    import repro.obs as obs
    path = tmp_path / "mixed.jsonl"
    obs.append_jsonl_line(str(path), {
        "format": obs.RUN_RECORD_FORMAT, "spec": "3_17", "engine": "bdd",
        "status": "realized", "depth": 6, "runtime": 0.25})
    obs.append_jsonl_line(str(path), {
        "event": "depth_refuted", "v": 1, "seq": 1, "ts": 0.0,
        "spec": "3_17", "engine": "sat", "depth": 2, "proven_bound": 2})
    assert main(["watch", str(path), "--no-follow"]) == 0
    out = capsys.readouterr().out
    assert "record 3_17/bdd: realized D=6" in out
    assert "depth 2 refuted" in out


def test_watch_missing_file_fails(capsys):
    assert main(["watch", "/no/such/file.jsonl"]) == 1
    assert "no such file" in capsys.readouterr().err


def test_bench_diff_gates_on_wall_regressions(tmp_path, capsys):
    import json as json_module
    baseline = tmp_path / "BENCH_x.json"
    current = tmp_path / "current.json"
    baseline.write_text(json_module.dumps({"runtime_s": 1.0,
                                           "conflicts": 10}))
    current.write_text(json_module.dumps({"runtime_s": 2.0,
                                          "conflicts": 10}))
    assert main(["bench", "diff", str(current), str(baseline)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    # Within threshold: clean exit.
    current.write_text(json_module.dumps({"runtime_s": 1.1,
                                          "conflicts": 12}))
    assert main(["bench", "diff", str(current), str(baseline)]) == 0
    # Raised threshold forgives the 2x slowdown.
    current.write_text(json_module.dumps({"runtime_s": 2.0}))
    assert main(["bench", "diff", str(current), str(baseline),
                 "--threshold", "1.5"]) == 0


def test_bench_diff_default_baseline_dir_and_errors(tmp_path, capsys):
    import json as json_module
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    (baselines / "BENCH_y.json").write_text(
        json_module.dumps({"runtime_s": 1.0}))
    current = tmp_path / "BENCH_y.json"
    current.write_text(json_module.dumps({"runtime_s": 1.05}))
    assert main(["bench", "diff", str(current),
                 "--baseline-dir", str(baselines)]) == 0
    assert main(["bench", "diff", str(tmp_path / "missing.json"),
                 "--baseline-dir", str(baselines)]) == 2
    assert "error" in capsys.readouterr().err


def test_bench_diff_json_report(tmp_path, capsys):
    import json as json_module
    baseline = tmp_path / "b.json"
    current = tmp_path / "c.json"
    baseline.write_text(json_module.dumps({"runtime_s": 1.0}))
    current.write_text(json_module.dumps({"runtime_s": 5.0}))
    assert main(["bench", "diff", str(current), str(baseline),
                 "--json"]) == 1
    report = json_module.loads(capsys.readouterr().out)
    assert report["regressions"] == ["runtime_s"]
    assert report["rows"][0]["ratio"] == pytest.approx(5.0)


def test_trace_summary_empty_trace_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace-summary", str(empty)]) == 1
    assert "no records" in capsys.readouterr().err


def test_trace_summary_reports_torn_lines(tmp_path, capsys):
    import json as json_module
    import repro.obs as obs
    from repro.functions import get_spec
    from repro.synth import synthesize
    trace = tmp_path / "t.jsonl"
    result = synthesize(get_spec("3_17"), engine="bdd")
    obs.append_record(str(trace), obs.build_run_record(result))
    with open(trace, "a") as handle:
        handle.write('{"torn": ')  # crash mid-append
    assert main(["trace-summary", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "skipped 1 torn line" in captured.err
    assert "3_17" in captured.out


def test_synth_profile_json_export(tmp_path, capsys):
    import json as json_module
    target = tmp_path / "profile.json"
    assert main(["synth", "-b", "3_17", "--engine", "bdd",
                 "--profile-json", str(target)]) == 0
    profile = json_module.loads(target.read_text())
    assert profile["tree"][0]["name"] == "synthesize"
    names = [t["name"] for t in profile["totals"]]
    assert "depth" in names
    for total in profile["totals"]:
        assert total["self"] <= total["total"] + 1e-9
    assert "wrote span profile" in capsys.readouterr().out


def test_synth_profile_prints_self_time_ranking(capsys):
    assert main(["synth", "-b", "3_17", "--engine", "bdd",
                 "--profile"]) == 0
    assert "top spans by self time:" in capsys.readouterr().out


def test_cache_stats_json_payload(tmp_path, capsys):
    import json as json_module
    store = str(tmp_path / "store")
    assert main(["synth", "-b", "3_17", "--store", store]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--store", store, "--json"]) == 0
    payload = json_module.loads(capsys.readouterr().out)
    assert payload["format"] == "repro-cache-stats-v1"
    assert payload["results"] == 1
    # without --json the raw stats dict has no format marker
    assert main(["cache", "stats", "--store", store]) == 0
    raw = json_module.loads(capsys.readouterr().out)
    assert "format" not in raw


def test_synth_json_on_a_store_hit_carries_store_hit(tmp_path, capsys):
    import json as json_module
    store = str(tmp_path / "store")
    argv = ["synth", "-b", "3_17", "--engine", "bdd", "--store", store,
            "--json"]
    assert main(argv) == 0
    cold = json_module.loads(capsys.readouterr().out)
    assert "store_hit" not in cold
    assert main(argv) == 0
    warm = json_module.loads(capsys.readouterr().out)
    assert warm["store_hit"] is True
    from repro.obs import validate_run_record
    assert validate_run_record(warm) == []


def test_request_cli_against_embedded_daemon(tmp_path, capsys):
    import json as json_module

    import repro.obs as obs
    from repro.serve import ServeConfig, ServerThread

    obs.reset_event_bus()
    obs.default_registry().reset()
    thread = ServerThread(ServeConfig(
        port=0, store=str(tmp_path / "store"), drain_grace=0.2))
    server = thread.start()
    try:
        address = server.addresses[0]
        assert main(["request", "--connect", address, "-b", "3_17",
                     "--engine", "bdd"]) == 0
        out = capsys.readouterr().out
        assert "3_17: realized (depth 6, served: synthesis)" in out
        assert ".begin" in out

        assert main(["request", "--connect", address, "-b", "3_17",
                     "--engine", "bdd", "--json"]) == 0
        record = json_module.loads(capsys.readouterr().out)
        assert record["spec"] == "3_17" and record["store_hit"] is True

        assert main(["request", "--connect", address, "--stats"]) == 0
        stats = json_module.loads(capsys.readouterr().out)
        assert stats["format"] == "repro-serve-stats-v1"
        assert stats["serve"]["serve.store_hits"] == 1
    finally:
        thread.shutdown()
        obs.reset_event_bus()
        obs.default_registry().reset()


def test_request_cli_connection_refused(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.sock")
    assert main(["request", "--connect", missing, "-b", "3_17"]) == 2
    assert "error" in capsys.readouterr().err
