"""Self-tests of the benchmark: every oracle accepts the goldens and real
bsfan output, and rejects a deliberately corrupted output.

Run with `PYTHONPATH=src python -m pytest -q bench/tests` from the checkout.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import oracles as O  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from bsfan import cli  # noqa: E402
from helpers import (MONAD_TABLE, TRUNCATION_TABLE,  # noqa: E402
                     TWO_STRAND_TABLE)

SEVENTH = Fraction(1, 7)


def as_dict(table):
    return dict(table.items())


def execute(job, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(job.table))
    return run.run_in_process(cli, job.argv(str(path)))


def problems(job, code, out, err=""):
    return O.check_job(job, code, out, err)


def corrupt(out, edit):
    obj = json.loads(out)
    edit(obj)
    return json.dumps(obj) + "\n"


def bump(obj, key="coeff"):
    obj[key] = str(Fraction(obj[key]) + SEVENTH)


def golden_job(kind, table, args, expect):
    table = as_dict(table)
    return W.Job(kind, O.table_obj(table), args, len(table),
                 {"code": 0, "table": table, **expect}, kind)


# ----------------------------------------------------------- oracle math

def test_pure_vector_goldens():
    assert O.pure_vector(0, (0, 2, 3, 5)) == {(0, 0): 1, (1, 2): 5,
                                              (2, 3): 5, (3, 5): 1}
    assert O.pure_vector(0, (0, 2, 3)) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert O.pure_vector(0, (2, 3, 5)) == {(0, 2): 2, (1, 3): 3, (2, 5): 1}


def test_pairing_golden():
    paired = O.pair(as_dict(TWO_STRAND_TABLE), (0, -8), 8, 2)
    assert paired == {(0, 3): 240, (0, 4): 256, (1, 4): 256, (1, 5): 240}


def test_kunneth_koszul_golden():
    koszul = {(0, (0, 0)): 1, (1, (1, 0)): 2, (1, (0, 1)): 2,
              (2, (2, 0)): 1, (2, (1, 1)): 4, (2, (0, 2)): 1,
              (3, (2, 1)): 2, (3, (1, 2)): 2, (4, (2, 2)): 1}
    assert O.multi_pair(koszul, [1, 1], [((0, 0), 1)], 2) == {
        (0, (0, 0)): 1, (1, (2, 0)): 1, (1, (0, 2)): 1, (2, (2, 2)): 1}


def test_goldens_match_helpers():
    assert W.MONAD_TABLE == as_dict(MONAD_TABLE)
    assert W.TRUNCATION_TABLE == as_dict(TRUNCATION_TABLE)


def test_chi_minima_and_membership():
    block = {(0, 0): Fraction(1), (1, 3): Fraction(1)}
    assert O.in_cone_a(block, O.ONE)
    assert not O.in_cone_a({(0, 0): Fraction(1)}, O.ONE)   # Euler 1
    raised = dict(block)
    raised[(1, 3)] += 2
    assert (0, 2, -2) in O.chi_minima(raised, O.ONE)


def test_rational_strings():
    assert O.rational("-3/4") == Fraction(-3, 4)
    assert O.rational("7") == 7
    for bad in ("0.0", "3.2e-12", "1/0", "", None, "1/-2"):
        assert O.rational(bad) is None


# ------------------------------------------------- goldens through the CLI

def test_monad_golden(tmp_path):
    job = golden_job("monad", MONAD_TABLE, ["--n", "4"], {})
    code, out, err = execute(job, tmp_path)
    assert problems(job, code, out, err) == []
    assert problems(job, code, corrupt(out, lambda o: bump(
        o["front_pieces"][0]))) != []
    assert problems(job, code, corrupt(out, lambda o: o[
        "back_pieces"].pop())) != []
    assert problems(job, code, corrupt(out, lambda o: o[
        "e_column"]["entries"][0].update(value="1.0"))) != []


def test_truncation_golden(tmp_path):
    job = golden_job("infinite", TRUNCATION_TABLE, ["--e", "4", "--n", "1"],
                     {"n": 1})
    code, out, err = execute(job, tmp_path)
    assert problems(job, code, out, err) == []
    assert len(json.loads(out)["pieces"]) == 3
    assert problems(job, code, corrupt(out, lambda o: bump(
        o["pieces"][1]))) != []
    assert problems(job, code, corrupt(out, lambda o: o["pieces"].pop())) \
        != []


@pytest.mark.parametrize("kind", ["decompose", "check"])
def test_chain_jobs(tmp_path, kind):
    rng = random.Random(5)
    job = W.decompose_job(rng, kind, 30, True, 3, 2)
    code, out, err = execute(job, tmp_path)
    assert problems(job, code, out, err) == []
    pieces = (lambda o: o["decomposition"]) if kind == "check" \
        else (lambda o: o)
    assert problems(job, code, corrupt(out, lambda o: bump(
        pieces(o)["pieces"][0]))) != []
    assert problems(job, code, corrupt(out, lambda o: pieces(o)[
        "pieces"].pop())) != []
    assert [r for r, _ in problems(job, code, corrupt(out, lambda o: pieces(
        o)["pieces"][0].update(coeff="0.5")))] == ["not_rational"]

    out_job = W.decompose_job(rng, kind, 30, False, 3, 2)
    code, out, err = execute(out_job, tmp_path)
    assert code == 1 and problems(out_job, code, out, err) == []
    assert problems(out_job, 0, out, err) != []


def test_pair_check_verdicts():
    rng = random.Random(6)
    job = W.paired_job(rng, "pair-check", 20, True, 3, 2)
    assert problems(job, 0, '{"verdicts":[{"status":"pass"}]}\n') == []
    fake = '{"verdicts":[{"status":"fail","violations":[' \
           '{"kind":"euler_nonzero","value":"3.2e-12"}]}]}\n'
    assert O.reason(problems(job, 1, fake)) == O.EULER_FLOAT

    out_job = W.paired_job(rng, "pair-check", 20, False, 3, 2)
    paired = out_job.expect["paired"][0]
    i, j, value = next(m for m in O.chi_minima(paired, O.ONE) if m[2] < 0)
    good = {"status": "fail", "violations": [
        {"kind": "chi_negative", "i": i, "j": j, "value": str(value)}]}
    assert problems(out_job, 1, json.dumps({"verdicts": [good]})) == []
    good["violations"][0]["value"] = str(value + SEVENTH)
    assert problems(out_job, 1, json.dumps({"verdicts": [good]})) != []
    assert problems(out_job, 0, '{"verdicts":[{"status":"pass"}]}') != []


def block_job(kind, in_cone, seed):
    """A block-sum job whose constraint admits free homology, so the Euler
    characteristic is not checked."""
    rng = random.Random(seed)
    while True:
        table, codim = W.blocks_table(rng, 12)
        if codim is not O.ONE:
            return W.table_a_job(rng, kind, table, codim, in_cone, kind)


@pytest.mark.parametrize("in_cone", [True, False])
def test_decompose_a(tmp_path, in_cone):
    job = block_job("decompose-a", in_cone, 7)
    code, out, err = execute(job, tmp_path)
    assert problems(job, code, out, err) == []
    key = "pieces" if in_cone else "partial_pieces"
    if in_cone:
        assert problems(job, code, corrupt(out, lambda o: bump(
            o[key][0]))) != []
        assert problems(job, code, corrupt(out, lambda o: o[key].pop())) != []
    else:
        assert problems(job, 0, out, err) != []


@pytest.mark.parametrize("in_cone", [True, False])
def test_check_a(tmp_path, in_cone):
    job = block_job("check-a", in_cone, 8)
    code, out, err = execute(job, tmp_path)
    assert problems(job, code, out, err) == []
    assert problems(job, 1 - code, out, err) != []
    if not in_cone:
        assert problems(job, code, corrupt(out, lambda o: bump(
            o["violations"][0], "value"))) != []


@pytest.mark.parametrize("kind", ["chi", "euler", "es"])
def test_value_jobs(tmp_path, kind):
    job = W.paired_job(random.Random(9), kind, 20, True, 3, 2)
    job.expect["value"] = Fraction(3, 2)
    assert problems(job, 0, '{"value":"3/2"}') == []
    assert problems(job, 0, '{"value":"23/14"}') != []
    float_reason = O.reason(problems(job, 0, '{"value":"1.5"}'))
    assert float_reason == (O.EULER_FLOAT if kind == "euler"
                            else "not_rational")


def test_euler_without_negative_columns(tmp_path):
    table = as_dict(TWO_STRAND_TABLE)
    job = W.Job("euler", O.table_obj(table), [], len(table),
                {"code": 0, "value": O.euler(table)}, "euler")
    assert problems(job, *execute(job, tmp_path)) == []


@pytest.mark.parametrize("inside", [True, False])
def test_multigraded_jobs(tmp_path, inside):
    rng = random.Random(10)
    job = W.multi_pair_job(rng, 30, (1, 2), 2)
    code, out, err = execute(job, tmp_path)
    assert problems(job, code, out, err) == []
    assert problems(job, code, corrupt(out, lambda o: bump(
        o["entries"][0], "value"))) != []
    assert problems(job, code, corrupt(out, lambda o: o["entries"].pop())) \
        != []
    chi_job = W.multi_chi_job(rng, 3, 30, inside)
    code, out, err = execute(chi_job, tmp_path)
    assert problems(chi_job, code, out, err) == []
    assert problems(chi_job, code, corrupt(out, lambda o: bump(
        o, "value"))) != []


def test_crash_and_exit_codes():
    job = W.monad_job(random.Random(11))
    assert O.reason(problems(job, 1, "", "Traceback (most recent call)")) \
        == "crash"
    assert O.reason(problems(job, 2, "", "error: bad input")) == "exit_code"
    assert O.reason(problems(job, 0, "not json")) == "output"


# ------------------------------------------------------ harness pieces

def test_rounds_repeat_for_a_seed():
    for name in W.WORKLOADS:
        a = W.round_jobs(name, 3, 0)
        b = W.round_jobs(name, 3, 0)
        assert [(j.label, j.table, j.args) for j in a] == \
            [(j.label, j.table, j.args) for j in b]


def test_tally_counts_distinct_jobs():
    job = W.monad_job(random.Random(1))
    tally = run.Tally()
    for _ in range(3):   # three passes over the same two jobs
        tally.record(0, job, [])
        tally.record(1, job, [(O.EULER_FLOAT, "euler_nonzero 1e-12")])
    assert (tally.executions, tally.attempted, tally.failed) == (6, 2, 1)
    assert tally.correct
    tally.record(2, job, [("output", "wrong piece")])
    assert tally.reasons["output"] == 1 and not tally.correct


def test_reference_job_output():
    proc = subprocess.run([sys.executable, str(run.REFERENCE)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == run.REFERENCE_OUTPUT


def test_scaled_uses_nearby_reference_times():
    refs = [0.2] * 10 + [0.05] * 10
    out = run.scaled([(0.4, 2), (0.4, 17)], refs)
    assert out == pytest.approx([0.4 * run.REFERENCE_S / 0.2,
                                 0.4 * run.REFERENCE_S / 0.05])


def test_tracer_records_and_restores(tmp_path):
    import bsfan.cone_s as cone_s
    original = cone_s.pure_diagram
    job = W.decompose_job(random.Random(12), "decompose", 20, True, 3, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        code, out, err = execute(job, tmp_path)
    finally:
        tracer.remove()
    assert cone_s.pure_diagram is original
    assert problems(job, code, out, err) == []
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and "cone_s.decompose_s" in names
    root = tracer.spans[0]
    total = sum(tracing.self_times(tracer.spans))
    assert total == pytest.approx(root[tracing.END] - root[tracing.START])
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cone_s.decompose_s.steps"][0] == len(
        job.expect["chain"])


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "multigraded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
