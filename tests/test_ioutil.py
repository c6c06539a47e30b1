"""Crash-safe artifact writes: all-or-nothing at the destination path."""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.ioutil import (
    TMP_PREFIX,
    atomic_open,
    atomic_write_text,
)

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


class TestAtomicWrite:
    def test_text_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello\n")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "hello\n"

    def test_bytes_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with atomic_open(path, "wb") as handle:
            handle.write(b"\x00\x01\xff")
        with open(path, "rb") as fh:
            assert fh.read() == b"\x00\x01\xff"

    def test_overwrites_existing(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "new"

    def test_no_temp_debris_after_success(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_exact_newlines_preserved(self, tmp_path):
        # newline="" in text mode: what you write is what lands.
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "a\r\nb\n")
        with open(path, "rb") as fh:
            assert fh.read() == b"a\r\nb\n"


class TestAtomicOpen:
    def test_read_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="write mode"):
            with atomic_open(str(tmp_path / "x"), "r"):
                pass

    def test_exception_leaves_destination_and_no_debris(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "original")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("half-finished")
                raise RuntimeError("abort")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_destination_absent_until_exit(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with atomic_open(path) as fh:
            fh.write("data")
            fh.flush()
            assert not os.path.exists(path)
        assert os.path.exists(path)


VICTIM = """\
import os, signal, sys

from repro.ioutil import atomic_open

path, ready = sys.argv[1], sys.argv[2]
with atomic_open(path) as fh:
    fh.write("NEW CONTENT " * 4096)
    fh.flush()
    # Signal the parent that bytes are in flight, then wait to be killed.
    with open(ready, "w") as marker:
        marker.write("ready")
    signal.pause()
"""


def test_sigkill_mid_write_leaves_destination_untouched(tmp_path):
    """The regression this module exists for: a process killed between
    opening the temp file and the final rename must leave the previous
    artifact intact — never a truncated hybrid at the destination."""
    path = tmp_path / "artifact.json"
    path.write_text("OLD CONTENT", encoding="utf-8")
    ready = tmp_path / "ready"

    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", VICTIM, str(path), str(ready)], env=env
    )
    try:
        deadline = time.monotonic() + 60
        while not ready.exists():
            assert proc.poll() is None, "victim died before writing"
            assert time.monotonic() < deadline, "victim never became ready"
            time.sleep(0.01)
        proc.kill()
    finally:
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL

    # Destination: exactly the old bytes.  In-flight temp file: orphaned
    # next to it under the greppable prefix, never *at* the destination.
    assert path.read_text(encoding="utf-8") == "OLD CONTENT"
    debris = [name for name in os.listdir(tmp_path)
              if name not in ("artifact.json", "ready")]
    assert all(name.startswith(TMP_PREFIX) for name in debris)


@pytest.mark.parametrize(
    "umask, expected", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
)
def test_new_file_mode_follows_umask(tmp_path, umask, expected):
    """An artifact gets the mode open() would give it, not mkstemp's 0600."""
    path = tmp_path / "artifact.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(str(path), "x")
    finally:
        os.umask(previous)
    assert path.stat().st_mode & 0o777 == expected
