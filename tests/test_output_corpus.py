"""stdout, stderr and exit codes of the benchmark's round-0 jobs, pinned
by the committed digests of tests/output_corpus.txt (see
tests/output_corpus.py, which regenerates the file and, with --check,
makes the same comparison outside pytest)."""

import pytest

from output_corpus import changed_runs, read_corpus, workloads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_the_corpus(workload):
    changed = changed_runs(workload, read_corpus())
    assert not changed, f"{len(changed)} outputs changed: " + "; ".join(
        changed[:10])
