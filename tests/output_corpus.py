"""The committed output corpus: one SHA-256 of (exit code, stdout, stderr)
per run of a benchmark job through bsfan.cli.main, in process.

The jobs are round 0 of seeds 1-5 of every benchmark workload, drawn by
bench/workloads.round_jobs, each with its table passed inline.  A job runs
as generated, then with --format pretty and with --format pretty
--mark-origin where its subcommand takes those options.
tests/test_output_corpus.py compares the digests with output_corpus.txt,
one line per run: workload, seed, round, job index, way, stratum label and
digest.  A change that moves an output on purpose regenerates the file:

    PYTHONPATH=src python tests/output_corpus.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "output_corpus.txt"
sys.path[:0] = [str(HERE.parent / "bench"), str(HERE.parent / "src")]

import workloads  # noqa: E402
from bsfan import cli  # noqa: E402

SEEDS = range(1, 6)
ROUNDS = (0,)
# each way: its name, its options and the row flags that they need
WAYS = [("plain", [], ()),
        ("pretty", ["--format", "pretty"], ("format",)),
        ("origin", ["--format", "pretty", "--mark-origin"],
         ("format", "mark-origin"))]


def runs(workload):
    """(key, label, argv) of every run of the workload's corpus jobs; a key
    is (workload, seed, round, job index, way)."""
    for seed in SEEDS:
        for r in ROUNDS:
            jobs = workloads.round_jobs(workload, seed, r)
            for k, job in enumerate(jobs):
                flags = cli.COMMANDS[job.kind].flags
                argv = job.argv(json.dumps(job.table, separators=(",", ":")))
                for way, extra, needs in WAYS:
                    if all(flag in flags for flag in needs):
                        yield (workload, seed, r, k, way), job.label, \
                            argv + extra


def digest(argv):
    """SHA-256 of the exit code, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def read_corpus():
    """{key: (label, digest)} from the committed file."""
    corpus = {}
    for text in CORPUS.read_text(encoding="utf-8").splitlines():
        workload, seed, r, k, way, label, value = text.split()
        corpus[workload, int(seed), int(r), int(k), way] = label, value
    return corpus


if __name__ == "__main__":
    CORPUS.write_text("".join(
        " ".join(map(str, (*key, label, digest(argv)))) + "\n"
        for workload in workloads.WORKLOADS
        for key, label, argv in runs(workload)), encoding="utf-8")
