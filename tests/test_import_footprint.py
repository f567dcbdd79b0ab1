"""Commands that simulate nothing import no simulator.

Each case runs in a fresh interpreter and reports the modules it loaded.
The daemon client, ``repro-cli --help`` and ``repro-cli client status``
must not load numpy, the simulation kernel or the experiment set-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Runs ``repro-cli`` (``main`` is its entry point) with the given arguments,
#: then prints the loaded module names as the last stdout line.
CLI_PROBE = """
import json, sys
from repro.experiments.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

IMPORT_PROBE = """
import json, sys
import repro.service.client
print(json.dumps({"code": 0, "modules": sorted(sys.modules)}))
"""


def _probe(source: str, *args: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    return report["code"], report["modules"], result.stderr


def _simulator_modules(modules) -> list:
    return [
        name
        for name in modules
        if name == "numpy"
        or name.startswith("numpy.")
        or name == "repro.sim"
        or name.startswith("repro.sim.")
        or name == "repro.experiments.setup"
    ]


def test_service_client_import_loads_no_simulator():
    code, modules, _ = _probe(IMPORT_PROBE)
    assert code == 0
    assert "repro.service.client" in modules
    assert _simulator_modules(modules) == []


def test_cli_help_loads_no_simulator():
    code, modules, _ = _probe(CLI_PROBE, "--help")
    assert code == 0
    assert "repro.experiments.cli" in modules
    assert _simulator_modules(modules) == []


def test_client_status_without_a_daemon_loads_no_simulator(tmp_path):
    missing = tmp_path / "no-daemon.sock"
    code, modules, stderr = _probe(CLI_PROBE, "client", "--socket", str(missing), "status")
    assert code == 1
    assert "cannot reach the daemon" in stderr
    assert _simulator_modules(modules) == []


@pytest.mark.parametrize("kind", ["policies", "traces", "faults"])
def test_list_commands_load_no_scenario_registry(kind):
    code, modules, _ = _probe(CLI_PROBE, "list", kind)
    assert code == 0
    assert "repro.experiments.scenarios" not in modules
