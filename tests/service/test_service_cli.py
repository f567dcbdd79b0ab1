"""Tests of the ``repro-cli serve`` / ``repro-cli client`` subcommands.

The end-to-end tests drive the real argparse surface through
:func:`repro.experiments.cli.main` — the serve side in a background thread,
the client side in the test thread — so flag wiring, JSON printing and exit
codes are all exercised as a user would hit them.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.experiments.cli import build_parser, main
from repro.service import ServiceClient
from repro.service.cli import _configs_from


# -- parser wiring ------------------------------------------------------------


def test_serve_and_client_parsers_are_wired():
    parser = build_parser()
    serve = parser.parse_args(
        ["serve", "--socket", "/tmp/x.sock", "--workers", "3", "--store-budget", "1M"]
    )
    assert (serve.command, serve.workers, serve.store_budget) == ("serve", 3, "1M")
    client = parser.parse_args(
        ["client", "--socket", "/tmp/x.sock", "--format", "detailed", "list"]
    )
    assert (client.command, client.client_op, client.format) == (
        "client",
        "list",
        "detailed",
    )
    wait = parser.parse_args(
        ["client", "run-and-wait", "--workload", "Wm", "--job-count", "5",
         "--policy", "none", "--timeout", "9"]
    )
    assert (wait.client_op, wait.job_count, wait.timeout) == ("run-and-wait", 5, 9.0)


def test_configs_from_expands_seeds_and_normalises_policy():
    parser = build_parser()
    args = parser.parse_args(
        ["client", "submit", "--workload", "Wmr", "--policy", "none",
         "--job-count", "7", "--seeds", "0", "1", "2"]
    )
    configs = _configs_from(args)
    assert [config["seed"] for config in configs] == [0, 1, 2]
    assert all(config["malleability_policy"] is None for config in configs)
    assert all(config["workload"] == "Wmr" for config in configs)
    assert all(config["job_count"] == 7 for config in configs)


# -- end-to-end through main() ------------------------------------------------


@pytest.fixture
def served(tmp_path, capsys):
    """A daemon run via ``main(["serve", ...])`` in a background thread."""
    sock = tmp_path / "cli.sock"
    exit_codes = []

    def serve() -> None:
        exit_codes.append(
            main(
                [
                    "serve",
                    "--socket",
                    str(sock),
                    "--workers",
                    "1",
                    "--store-dir",
                    str(tmp_path / "store"),
                ]
            )
        )

    thread = threading.Thread(target=serve, daemon=True, name="repro-cli-serve")
    thread.start()
    probe = ServiceClient(socket_path=sock)
    probe.wait_until_ready(timeout=30)
    probe.close()
    capsys.readouterr()  # flush the "listening on ..." banner
    yield sock
    if thread.is_alive():
        try:
            with ServiceClient(socket_path=sock, timeout=5.0) as client:
                client.shutdown()
        except (OSError, ConnectionError):
            pass
    thread.join(30)
    assert exit_codes == [0]


def _client_json(capsys, argv):
    """Run one client command, asserting success and parsing its JSON."""
    assert main(argv) == 0
    output = capsys.readouterr().out
    return json.loads(output[output.index("{"):])


def test_cli_round_trip_status_run_list(served, capsys, tmp_path):
    sock = str(served)
    status = _client_json(capsys, ["client", "--socket", sock, "status"])
    assert status["ok"] is True
    assert status["workers"] == 1
    assert status["store"]["entries"] == 0

    response = _client_json(
        capsys,
        ["client", "--socket", sock, "run-and-wait", "--workload", "Wm",
         "--policy", "none", "--job-count", "2", "--seeds", "0",
         "--name", "cli-tiny"],
    )
    assert response["state"] == "done"
    assert response["metrics"]["jobs"] == 2.0
    assert response["digest"]

    # list prints a JSON array; the run shows up done.
    assert main(["client", "--socket", sock, "list"]) == 0
    output = capsys.readouterr().out
    listing = json.loads(output[output.index("["):])
    assert [entry["name"] for entry in listing] == ["cli-tiny"]
    assert listing[0]["state"] == "done"

    # get by the printed key round-trips the digest.
    got = _client_json(
        capsys, ["client", "--socket", sock, "get", response["key"]]
    )
    assert got["digest"] == response["digest"]


def test_cli_submit_multiple_seeds_becomes_a_batch(served, capsys):
    sock = str(served)
    response = _client_json(
        capsys,
        ["client", "--socket", sock, "submit", "--workload", "Wm",
         "--policy", "none", "--job-count", "2", "--seeds", "0", "1"],
    )
    assert response["op"] == "batch"
    assert response["count"] == 2
    assert {job["via"] for job in response["jobs"]} == {"spawned"}


def test_cli_run_and_wait_rejects_seed_sweeps(served, capsys):
    assert (
        main(
            ["client", "--socket", str(served), "run-and-wait",
             "--workload", "Wm", "--policy", "none", "--job-count", "2",
             "--seeds", "0", "1"]
        )
        == 2
    )
    assert "exactly one seed" in capsys.readouterr().err


def test_cli_client_host_without_port_is_rejected(capsys):
    # Port 0 only means something for serve ("pick one"); a client would
    # otherwise slip past ServiceClient's host-requires-port guard and fail
    # with a confusing connect-to-port-0 error.
    assert main(["client", "--host", "127.0.0.1", "status"]) == 2
    assert "--port" in capsys.readouterr().err


def test_cli_client_reports_unreachable_daemon(tmp_path, capsys):
    missing = tmp_path / "nobody-home.sock"
    assert main(["client", "--socket", str(missing), "status"]) == 1
    assert "cannot reach the daemon" in capsys.readouterr().err


def test_cli_serve_rejects_garbage_budget(tmp_path, capsys):
    assert (
        main(
            ["serve", "--socket", str(tmp_path / "x.sock"),
             "--store-dir", str(tmp_path / "store"),
             "--store-budget", "lots"]
        )
        == 2
    )
    assert "cannot parse size" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["inf", "1e400"])
def test_cli_serve_rejects_a_non_finite_budget(tmp_path, capsys, budget):
    assert (
        main(
            ["serve", "--socket", str(tmp_path / "x.sock"),
             "--store-dir", str(tmp_path / "store"),
             "--store-budget", budget]
        )
        == 2
    )
    assert "error: size must be finite" in capsys.readouterr().err


def test_cli_serve_rejects_a_non_finite_budget_from_the_environment(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_STORE_BUDGET", "inf")
    assert (
        main(
            ["serve", "--socket", str(tmp_path / "x.sock"),
             "--store-dir", str(tmp_path / "store")]
        )
        == 2
    )
    assert "error: size must be finite" in capsys.readouterr().err
