"""Output that stdout cannot take exits 2 with one error line.

A bsfan process whose stdout is a full device (/dev/full) or a pipe whose
reader has gone fails to write its answer.  Whether the failure comes in
main's one write (an answer past the 8 KiB buffer, or any answer when
stdout is unbuffered) or in the flush of cli.run (an answer or help text
left in the buffer), the process exits 2 and its stderr is exactly one
`error: cannot write output:` line, never a traceback.  Under
PYTHONUNBUFFERED, argparse drops a help text it cannot write and help
exits 0; that case is not tested here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bsfan.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

SMALL = ["pure", "--degrees", "0,1"]
# about 30 KB of JSON, well past the buffer
LARGE = ["supernatural", "--roots", "0", "--n", "1", "--jmin", "0",
         "--jmax", "1000"]
HELP = ["--help"]


def spawn(argv, sink, unbuffered):
    """Exit code and stderr of python -m bsfan.cli argv whose stdout is
    /dev/full ("full") or a pipe with no reader ("closed")."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bsfan.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    finally:
        os.close(stdout)
    return proc.returncode, proc.stderr


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["full", "closed"])
@pytest.mark.parametrize("argv", [SMALL, LARGE], ids=["small", "large"])
def test_answer_that_cannot_be_written_exits_2(argv, sink, unbuffered):
    assert_one_error_line(*spawn(argv, sink, unbuffered))


@pytest.mark.parametrize("sink", ["full", "closed"])
def test_help_that_cannot_be_written_exits_2(sink):
    assert_one_error_line(*spawn(HELP, sink, unbuffered=False))


class Refusing:
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_main_returns_2_when_its_write_fails(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", Refusing())
    assert main(SMALL) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")
