"""The ``serve`` / ``auth`` CLI round trip against a real subprocess server."""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.cli import main


def _close_pipes(process):
    for pipe in (process.stdout, process.stderr):
        if pipe is not None:
            pipe.close()


def _serve_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def device_path(tmp_path, capsys):
    path = str(tmp_path / "device.json")
    assert main(["create", "--nodes", "8", "--grid", "2", "--output", path]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def server_port(tmp_path):
    env = _serve_env()
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "0",
            "--rounds",
            "2",
            "--seed",
            "9",
            "--pack",
            str(tmp_path / "registry.pack"),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stderr.readline()
        match = re.search(r"serving on [\d.]+:(\d+)", line)
        assert match, f"no listen line from serve: {line!r}"
        yield int(match.group(1))
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        _close_pipes(process)


class TestServeAuthRoundtrip:
    def test_enroll_and_authenticate(self, device_path, server_port, capsys):
        code = main(
            [
                "auth",
                "--host",
                "127.0.0.1",
                "--port",
                str(server_port),
                "--ppuf",
                device_path,
                "--enroll",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ACCEPTED" in out
        assert '"sessions_accepted": 1' in out

    def test_unenrolled_device_fails(self, device_path, server_port, capsys):
        code = main(
            [
                "auth",
                "--host",
                "127.0.0.1",
                "--port",
                str(server_port),
                "--ppuf",
                device_path,
            ]
        )
        assert code == 2  # ServiceError surfaced through the CLI error path
        assert "unknown device" in capsys.readouterr().err


class TestServeLifecycle:
    """Machine-readable port discovery + graceful SIGTERM shutdown."""

    def _spawn(self, tmp_path):
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--workers",
                "0",
                "--rounds",
                "2",
                "--pack",
                str(tmp_path / "registry.pack"),
            ],
            env=_serve_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_listening_event_on_stdout_and_sigterm_exits_zero(self, tmp_path):
        process = self._spawn(tmp_path)
        try:
            line = process.stdout.readline()
            event = json.loads(line)  # first stdout line is the event, alone
            assert event["event"] == "listening"
            assert isinstance(event["port"], int) and event["port"] > 0
            assert event["host"] == "127.0.0.1"

            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            assert code == 0  # graceful stop, not a KeyboardInterrupt trace
            stderr = process.stderr.read()
            assert "server stopped" in stderr
            assert "Traceback" not in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            _close_pipes(process)

    def test_sigint_also_exits_zero(self, tmp_path):
        process = self._spawn(tmp_path)
        try:
            event = json.loads(process.stdout.readline())
            assert event["event"] == "listening"
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            _close_pipes(process)
