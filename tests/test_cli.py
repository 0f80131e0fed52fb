"""The python -m repro command-line interface."""

import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.__main__ import main


def test_platforms_listing(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    for name in ("tmote", "n80", "meraki", "server"):
        assert name in out


def test_speech_auto_rate(capsys):
    assert main(["speech", "--platform", "tmote", "--rate", "auto"]) == 0
    out = capsys.readouterr().out
    assert "filtbank" in out
    assert "node partition" in out
    assert "goodput" in out


def test_speech_fixed_rate_infeasible(capsys):
    assert main(["speech", "--platform", "tmote", "--rate", "1.0"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_eeg_small(capsys):
    assert main([
        "eeg", "--platform", "tmote", "--channels", "2", "--rate", "1.0",
    ]) == 0
    out = capsys.readouterr().out
    assert "node partition" in out


def test_leak_with_fanin_and_dot(tmp_path, capsys):
    dot_path = tmp_path / "leak.dot"
    # The 32-tap FIR at 1 kHz nearly saturates the mote; run at half rate.
    assert main([
        "leak", "--platform", "tmote", "--rate", "0.5",
        "--fanin", "20", "--nodes", "20", "--dot", str(dot_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "netAverage" in out
    assert dot_path.exists()
    assert "digraph" in dot_path.read_text()


def test_server_platform_no_radio(capsys):
    assert main(["speech", "--platform", "server", "--rate", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "deployment" not in out  # no radio -> no testbed prediction


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("eeg", "speech", "leak"):
        assert name in out
    assert "n_channels" in out


def _strip_timings(text: str) -> str:
    import re

    return re.sub(r"in \d+ ms", "in X ms", text)


def test_store_backed_smoke_is_deterministic(tmp_path, capsys):
    """A durable --store must not change results: the cold run (profiles
    and persists) and the warm run (loads from disk) print identical
    reports, timing aside."""
    store = tmp_path / "store"
    argv = [
        "eeg", "--platform", "tmote", "--channels", "2",
        "--rate", "1.0", "--store", str(store),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert list(store.glob("*.json"))  # the measurement was persisted
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert _strip_timings(cold) == _strip_timings(warm)
    assert "node partition" in cold


def test_partition_server_refuses_multi_backend_spec(capsys):
    """Several backends behind ``--server`` are refused with a pointer
    to the gateway: exit 2, one error line, no traceback."""
    argv = [
        "partition", "eeg", "--rates", "1",
        "--server", "127.0.0.1:1,127.0.0.1:2",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "gateway" in err


@pytest.mark.parametrize(
    "spec", ["@ring.json", "./b1,./b2"], ids=["manifest", "comma-list"]
)
@pytest.mark.parametrize(
    "command",
    [
        ["partition", "eeg"],
        ["profile", "eeg"],
        ["speech", "--rate", "1.0"],
        ["store", "stats"],
        ["store", "gc"],
        ["serve", "--port", "0", "--workers", "0"],
    ],
    ids=["partition", "profile", "speech", "store-stats", "store-gc", "serve"],
)
def test_store_refuses_ring_spelling(
    spec, command, tmp_path, monkeypatch, capsys
):
    """A replicated-ring spelling of ``--store`` exits 2 with a pointer
    to one directory instead of creating a directory of that literal
    name, which would leave every cache lookup a miss."""
    from repro.workbench import PartitionServer

    monkeypatch.chdir(tmp_path)
    # Should the refusal regress, serve must still return, not block.
    monkeypatch.setattr(PartitionServer, "start", lambda self: ("", 0))
    monkeypatch.setattr(PartitionServer, "serve_forever", lambda self: None)
    (tmp_path / "ring.json").write_text('{"backends": ["b1", "b2"]}')
    assert main(command + ["--store", spec]) == 2
    err = capsys.readouterr().err
    assert "replicated store was removed" in err
    assert "one directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.json"]


def test_serve_worker_sigterm_is_a_plain_death(tmp_path):
    """``repro serve`` installs a SIGTERM handler before it forks its
    pool; a worker must not run it.  SIGTERM to the worker kills just
    that worker, with no traceback, the ``death`` event carries its exit
    code, and a replacement joins."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
    )
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(
        target=lambda: [lines.put(line) for line in server.stdout],
        daemon=True,
    )
    reader.start()

    def next_event(kind: str) -> str:
        # The detail of the next ``kind`` event; the CLI's own lines come
        # from another thread, so an event may share a line with one.
        marker = f"[serve] {kind}: "
        while True:
            line = lines.get(timeout=60)
            if marker in line:
                return line.split(marker, 1)[1].strip()

    try:
        first = int(next_event("join").removeprefix("pid "))
        os.kill(first, signal.SIGTERM)
        death = next_event("death")
        second = int(next_event("join").removeprefix("pid "))
    finally:
        server.terminate()
        _, err = server.communicate(timeout=60)
        reader.join(timeout=10)
    assert death == "exit code -15"
    assert second != first
    assert "Traceback" not in err
    assert server.returncode == 0
