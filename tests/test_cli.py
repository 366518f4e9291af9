"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Chr^1 s" in out
    assert "R_A(1-OF)" in out
    assert "73" in out


def test_classify_command(capsys):
    assert main(["classify"]) == 0
    out = capsys.readouterr().out
    assert "wait-free" in out
    assert "NO" in out  # the unfair example


def test_landscape_command(capsys):
    assert main(["landscape"]) == 0
    out = capsys.readouterr().out
    assert "127" in out
    assert "43" in out


def test_fact_command(capsys):
    assert main(["fact"]) == 0
    out = capsys.readouterr().out
    assert "min k-set consensus" in out


def test_algorithm1_command(capsys):
    assert main(["algorithm1", "--runs", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "safety violations: 0" in out


def test_crossover_command(capsys):
    assert main(["crossover"]) == 0
    out = capsys.readouterr().out
    assert "eps=3^-2" in out


def test_inspect_fair_adversary(capsys):
    assert main(["inspect", "[[0,1],[1,2],[0,2],[0,1,2]]"]) == 0
    out = capsys.readouterr().out
    assert "fair: True" in out
    assert "affine task R_A" in out
    assert "f_vector: [96, 237, 142]" in out


def test_inspect_unfair_adversary(capsys):
    assert main(["inspect", "[[0,1],[2]]"]) == 0
    out = capsys.readouterr().out
    assert "fair: False" in out
    assert "counterexample" in out


def test_inspect_json_emits_the_service_schema(capsys):
    import json

    from repro.adversaries import Adversary
    from repro.engine import JobSpec, serialize

    live_sets = "[[0,1],[1,2],[0,2],[0,1,2]]"
    assert main(["inspect", "--json", live_sets]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["v"] == 1
    assert response["ok"] is True
    assert response["kind"] == "classify"
    adversary = Adversary(3, [set(live) for live in json.loads(live_sets)])
    direct = JobSpec("classify", (adversary,)).run()
    assert response["value"] == serialize(direct)


def test_inspect_json_census_rides_along(capsys):
    import json

    live_sets = "[[0,1],[1,2],[0,2],[0,1,2]]"
    assert main(["inspect", "--json", live_sets]) == 0
    response = json.loads(capsys.readouterr().out)
    census = response["census"]
    assert census["facets"] > 0 and census["vertices"] > 0
    assert sum(census["f_vector"]) == census["simplices"]
    assert census["dimension"] == 2
    # Unfair adversaries have no R_A; the key is present but null.
    assert main(["inspect", "--json", "[[0,1],[2]]"]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["ok"] is True and response["census"] is None


def test_sweep_cli_runs_resumes_and_writes_artifact(capsys, tmp_path):
    checkpoint = str(tmp_path / "ckpt")
    artifact = str(tmp_path / "landscape.json")
    base = ["sweep", "--grid", "n3-smoke", "--checkpoint-dir", checkpoint]
    assert main(base + ["--limit", "3"]) == 2
    assert "pending" in capsys.readouterr().out
    # the same command again continues from the cached cells
    assert main(base + ["--output", artifact]) == 0
    out = capsys.readouterr().out
    assert "resumed from checkpoint: 3" in out
    assert "wrote" in out
    import json

    doc = json.loads(open(artifact).read())
    assert doc["format"] == "repro.sweep/landscape"
    assert len(doc["cells"]) == 12


def test_sweep_cli_rejects_unknown_grid(tmp_path):
    import pytest

    with pytest.raises(SystemExit, match="unknown grid"):
        main(
            [
                "sweep",
                "--grid",
                "no-such-grid",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )


def test_serve_and_query_round_trip(capsys):
    """`repro query` renders values fetched from a live `repro serve`."""
    import json

    from repro.engine import Engine
    from repro.service import BackgroundServer

    with BackgroundServer(Engine()) as server:
        port = str(server.port)
        assert main(["query", "ping", "--port", port]) == 0
        assert "pong" in capsys.readouterr().out
        assert main(["query", "chr", "--port", port, "--depth", "1"]) == 0
        assert "f_vector" in capsys.readouterr().out
        live_sets = "[[0,1],[1,2],[0,2],[0,1,2]]"
        assert main(["query", "classify", live_sets, "--port", port]) == 0
        assert "fair: True" in capsys.readouterr().out
        assert main(
            ["query", "solve", live_sets, "--port", port, "--k", "2", "--json"]
        ) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] and response["kind"] == "solve"
        assert main(["query", "stats", "--port", port]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["engine"]["jobs"] == 1


#: SHA-256 of the default stdout of the table commands: any change to
#: a printed table, however it is computed, fails here.
DEFAULT_STDOUT_SHA256 = {
    "classify": "de50af68a7f7bcab95a2821d5c781b76fe345c9cba43fd29dd0be065d3ba332c",
    "landscape": "cf811f9819ea3763ed8bf4133b1069f85674427dddbdf11241425d155caee906",
    "fact": "919b95dcfef8f3c76e2bf8e7b448c2b1b8863b605ea764fb0a8fa38bd044b9c1",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_STDOUT_SHA256))
def test_default_stdout_is_pinned(capsys, command):
    assert main([command]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DEFAULT_STDOUT_SHA256[command]


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["landscape"], ["fact"], ["algorithm1", "--runs", "6"]],
    ids=lambda argv: argv[0],
)
def test_default_output_matches_two_workers(capsys, argv):
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    assert capsys.readouterr().out == default


def test_fact_engine_output_matches_legacy(capsys, tmp_path):
    assert main(["fact"]) == 0
    legacy = capsys.readouterr().out
    assert main(["fact", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == legacy
    # warm cache, same table
    assert main(["fact", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == legacy


def _span_names(path) -> set:
    from repro import obs

    return {span["name"] for span in obs.load_spans(str(path))}


def test_default_fact_trace_has_engine_and_solver_spans(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["fact", "--trace", str(trace)]) == 0
    names = _span_names(trace)
    assert {"engine.batch", "solver.search"} <= names


def test_warm_fact_trace_computes_nothing(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    assert main(["fact", "--cache-dir", cache, "--trace", str(cold)]) == 0
    assert "engine.compute" in _span_names(cold)
    assert main(["fact", "--cache-dir", cache, "--trace", str(warm)]) == 0
    names = _span_names(warm)
    assert "engine.batch" in names
    assert "engine.compute" not in names


ONE_RESILIENT = "[[0,1],[0,2],[1,2],[0,1,2]]"
WAIT_FREE = "[[0],[1],[2],[0,1],[0,2],[1,2],[0,1,2]]"


def test_sim_command_pass_and_violation(capsys):
    # 1-resilient 2-set consensus is solvable; wait-free consensus is
    # not, and hitting-set consensus deadlocks under some live set.
    assert (
        main(
            [
                "sim",
                ONE_RESILIENT,
                "--k", "2",
                "--schedules", "2",
                "--no-cache",
            ]
        )
        == 0
    )
    assert "verdict: pass" in capsys.readouterr().out

    assert (
        main(
            [
                "sim",
                WAIT_FREE,
                "--k", "1",
                "--schedules", "2",
                "--no-cache",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "verdict: VIOLATION" in out
    assert "violation: liveness" in out


def test_sim_command_json_report(capsys):
    import json

    assert (
        main(
            [
                "sim",
                "[[0],[0,1],[0,2],[0,1,2]]",
                "--k", "1",
                "--schedules", "2",
                "--no-cache",
                "--json",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["k"] == 1


def test_oracle_command_list_and_named_cases(capsys):
    assert main(["oracle", "--list", "--no-cache"]) == 0
    listing = capsys.readouterr().out
    assert "ksc-wait-free-k1" in listing and "ksc-duo-leaders-k2" in listing

    assert (
        main(
            ["oracle", "ksc-figure-5b-k2", "ksc-wait-free-k1", "--no-cache"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "agree" in out and "DISAGREE" not in out


def test_oracle_command_unknown_case(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["oracle", "no-such-case", "--no-cache"])
    assert "known cases" in str(excinfo.value)


def test_sim_artifact_then_oracle_replay(capsys, tmp_path):
    artifact = tmp_path / "violation.json"
    assert (
        main(
            [
                "sim",
                WAIT_FREE,
                "--k", "1",
                "--schedules", "2",
                "--no-cache",
                "--artifact", str(artifact),
            ]
        )
        == 1
    )
    capsys.readouterr()
    assert artifact.exists()
    assert main(["oracle", "--replay", str(artifact), "--no-cache"]) == 0
    assert "reproduced: yes" in capsys.readouterr().out


def test_query_simulate_against_a_live_service(capsys):
    from repro.engine import Engine
    from repro.service import BackgroundServer

    with BackgroundServer(Engine()) as server:
        port = str(server.port)
        assert (
            main(
                [
                    "query", "simulate",
                    ONE_RESILIENT,
                    "--k", "2",
                    "--schedules", "2",
                    "--port", port,
                ]
            )
            == 0
        )
        assert "verdict: pass" in capsys.readouterr().out
        assert (
            main(
                [
                    "query", "oracle",
                    "[[0],[0,1],[0,2],[0,1,2]]",
                    "--k", "1",
                    "--schedules", "2",
                    "--port", port,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "agree: True" in out and "reference: fact" in out
