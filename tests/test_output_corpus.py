"""stdout, stderr and exit codes of the benchmark's round-0 jobs, pinned
by the committed digests of tests/output_corpus.txt (see
tests/output_corpus.py, which regenerates the file)."""

import pytest

from output_corpus import digest, read_corpus, runs, workloads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_the_corpus(workload):
    want = {key: value for key, value in read_corpus().items()
            if key[0] == workload}
    got = {key: (label, digest(argv)) for key, label, argv in runs(workload)}
    assert got.keys() == want.keys()
    changed = ["{} (seed {}, round {}, job {}, {})".format(label, *key[1:])
               for key, (label, value) in got.items() if value != want[key][1]]
    assert not changed, f"{len(changed)} outputs changed: " + "; ".join(
        changed[:10])
