"""Exact stdout bytes and exit codes of the certificate- and table-printing
subcommands, and the exact help text and usage errors of the command line.

The other CLI tests parse the output as JSON, which hides key order,
separators and number formatting; these pin the bytes themselves, so a
refactor of the table core, of the certificate serializer or of the parser
construction cannot move them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bsfan import CodimensionSequence, MultiBettiTable, membership_a
from bsfan.cli import _json, _verdict, main
from helpers import (MONAD_TABLE, MONOMIAL_RES_TABLE, TENSOR_TABLE,
                     TRUNCATION_TABLE, TWO_STRAND_TABLE, F, T, bump,
                     long_chain_table, random_roots, rng, serialize_table)


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


CONST2 = compact({"n": 2, "left": 2, "window_start": 0, "window": [],
                  "right": 2})
CONST3 = compact({"n": 2, "left": 3, "window_start": 0, "window": [],
                  "right": 3})
STAIRCASE = compact({"n": 2, "left": "empty", "window_start": 0,
                     "window": [2, 2], "right": "inf"})
ALL_ONE = compact({"n": 0, "left": 1, "window_start": 0, "window": [],
                   "right": 1})
# forbidden below column 0 and no column admits free homology, so the
# Euler characteristic is checked too
EMPTY_LEFT = compact({"n": 0, "left": "empty", "window_start": 0,
                      "window": [], "right": 1})
# free blocks up to column 0, torsion blocks from column 1 on
FREE_LEFT = compact({"n": 0, "left": 0, "window_start": 1, "window": [],
                     "right": 1})
# no block fits anywhere: a torsion block at k needs c(k) <= 1
ALL_INF = compact({"n": 0, "left": "inf", "right": "inf"})
# a torsion block from column -1, which EMPTY_LEFT forbids, to column 0
CLOSED_BLOCK = serialize_table(T({(-1, 0): 1, (0, 1): 1}))
INF_BLOCK = serialize_table(T({(0, 0): 1, (1, 1): 1}))
SQUEEZED = T({(-2, 1): 2, (-1, 2): 11, (0, 3): 18, (1, 4): 10})
KOSZUL = compact({"m": 2, "entries": [
    {"i": i, "alpha": alpha, "value": value} for i, alpha, value in [
        (0, [0, 0], "1"), (1, [0, 1], "2"), (1, [1, 0], "2"),
        (2, [0, 2], "1"), (2, [1, 1], "4"), (2, [2, 0], "1"),
        (3, [1, 2], "2"), (3, [2, 1], "2"), (4, [2, 2], "1")]]})
SPACE = compact({"kind": "product", "dims": [1, 1],
                 "summands": [{"twist": [1, -1], "mult": 2},
                              {"twist": [0, 0]}]})
MULTI3 = compact({"m": 3, "entries": [
    {"i": i, "alpha": alpha, "value": value} for i, alpha, value in [
        (0, [0, 0, 0], "1"), (1, [1, 0, 0], "2"), (1, [0, 1, 1], "3/2"),
        (2, [1, 2, 1], "1")]]})
# the twist -2 on P^2 lies in the band -n..-1 where O(a) has no cohomology
SPACE3 = compact({"kind": "product", "dims": [1, 2, 3], "summands": [
    {"twist": [0, -2, 1], "mult": 3}, {"twist": [-3, 0, -5]},
    {"twist": [1, 1, 0], "mult": 2}]})
PROBE4 = compact({"m": 4, "entries": [
    {"i": 0, "alpha": [0, 0, 0, 0], "value": "1"},
    {"i": 1, "alpha": [1, 1, 1, 1], "value": "1"}]})
SPACE4 = compact({"kind": "product", "dims": [12, 12, 12, 12],
                  "summands": [{"twist": [1, -20, 2, 3], "mult": 2}]})

ARGV = {
    "check_fail": ["check", "--table", serialize_table(TWO_STRAND_TABLE),
                   "--codim", CONST3, "--n", "2"],
    "check_pass": ["check", "--table", serialize_table(TENSOR_TABLE),
                   "--codim", STAIRCASE, "--n", "2"],
    "decompose_fail": ["decompose", "--table",
                       serialize_table(TWO_STRAND_TABLE),
                       "--codim", CONST3, "--n", "2"],
    "infinite_fail": ["infinite", "--table",
                      serialize_table(T({(0, 0): 1, (4, 1): 1})),
                      "--e", "4", "--n", "1"],
    # the run on the dual names a strand of the input, not of the dual
    "infinite_fail_oriented": ["infinite", "--table",
                               serialize_table(T({(-1, 2): 1, (0, 3): 2})),
                               "--e", "3", "--n", "1"],
    # the one-variable pieces are listed under "degree_sequence" too
    "decompose_a_fail": ["decompose-a", "--table",
                         serialize_table(T({(0, 0): 1, (1, 2): 1,
                                            (2, 5): 1})),
                         "--codim", ALL_ONE],
    # the free block has no socle_degree
    "decompose_a_pass": ["decompose-a", "--table",
                         serialize_table(T({(0, 0): 1, (1, 2): 1,
                                            (0, 3): 1})),
                         "--codim", FREE_LEFT],
    "decompose_empty": ["decompose", "--table", '{"entries":[]}',
                        "--codim", CONST3, "--n", "2"],
    # each piece's table, with the origin cell marked where a piece has one
    "decompose_pretty_mark_origin": [
        "decompose", "--table", serialize_table(MONOMIAL_RES_TABLE),
        "--codim", CONST2, "--n", "2", "--format", "pretty", "--mark-origin"],
    "decompose_empty_pretty": ["decompose", "--table", '{"entries":[]}',
                               "--codim", CONST3, "--n", "2",
                               "--format", "pretty"],
    # the stable prefix, then the unresolved tail as a remainder
    "infinite_pretty": ["infinite", "--table",
                        serialize_table(TRUNCATION_TABLE),
                        "--e", "4", "--n", "1", "--format", "pretty"],
    # decompose-a is decompose at n = 0, so these agree with check-a
    "decompose_a_closed_left": ["decompose-a", "--table", CLOSED_BLOCK,
                                "--codim", EMPTY_LEFT],
    "decompose_a_inf": ["decompose-a", "--table", INF_BLOCK,
                        "--codim", ALL_INF],
    "decompose_n0_inf": ["decompose", "--table", INF_BLOCK,
                         "--codim", ALL_INF, "--n", "0"],
    "check_a_inf": ["check-a", "--table", INF_BLOCK, "--codim", ALL_INF],
    "check_a_pass": ["check-a", "--table",
                     serialize_table(T({(0, 0): 1, (1, 2): 1})),
                     "--codim", ALL_ONE],
    # an euler_nonzero violation has no i and j
    "check_a_fail": ["check-a", "--table",
                     serialize_table(T({(-1, 0): 1, (0, 0): 1, (1, 1): 2})),
                     "--codim", EMPTY_LEFT],
    "pair_check_mixed": [
        "pair-check", "--table", serialize_table(T({(0, 0): 1, (1, 2): 1})),
        "--sheaves", compact([
            {"kind": "window", "dim": 1, "jmin": -3, "jmax": 3,
             "entries": [{"q": 1, "j": -1, "value": "1"}]},
            {"kind": "twist", "n": 1, "a": 0}]), "--n", "1"],
    "pure": ["pure", "--start", "-1", "--degrees", "0,2,3"],
    "dual": ["dual", "--table", serialize_table(T({(0, 0): 1, (1, 2): "3/2"}))],
    "chi": ["chi", "--table", serialize_table(TENSOR_TABLE), "--i", "1",
            "--j", "2"],
    "euler": ["euler", "--table",
              serialize_table(T({(0, 0): 1, (1, 2): "3/2"}))],
    "es": ["es", "--table", serialize_table(TENSOR_TABLE), "--roots", "-1,-3",
           "--n", "2", "--tau", "1", "--kappa", "2"],
    "monad_split": ["monad", "--table", serialize_table(MONAD_TABLE),
                    "--n", "4"],
    "monad_violation": ["monad", "--table", serialize_table(SQUEEZED),
                        "--n", "4"],
    # the dual run gets stuck; its certificate names the input's entry
    "monad_fail": ["monad", "--table", serialize_table(T({(-3, 6): 2})),
                   "--n", "1"],
    "pair": ["pair", "--table", serialize_table(TWO_STRAND_TABLE),
             "--sheaf", compact({"kind": "supernatural", "roots": [0, -8],
                                 "rank_scale": "8", "n": 2})],
    # two roots against n = 4: nothing above q = 2
    "pair_short_supernatural": [
        "pair", "--table", serialize_table(TENSOR_TABLE),
        "--sheaf", compact({"kind": "supernatural", "roots": [-1, -3],
                            "rank_scale": "2", "n": 4})],
    "pair_window": [
        "pair", "--table", serialize_table(TENSOR_TABLE),
        "--sheaf", compact({"kind": "window", "dim": 2, "jmin": -6,
                            "jmax": 0, "entries": [
                                {"q": 0, "j": 0, "value": "1"},
                                {"q": 1, "j": -3, "value": "2/3"},
                                {"q": 2, "j": -4, "value": "5"},
                                {"q": 2, "j": -6, "value": "1"}]})],
    "multi_pair": ["multi-pair", "--table", KOSZUL, "--space", SPACE],
    "multi_pair_rank3_band": ["multi-pair", "--table", MULTI3,
                              "--space", SPACE3],
    "multi_pair_p12_4": ["multi-pair", "--table", PROBE4, "--space", SPACE4],
    "supernatural_negative_roots": ["supernatural", "--roots=-1,-2",
                                    "--n", "3", "--jmin", "-4",
                                    "--jmax", "1"],
    # three roots against n = 4: the q = 4 row is all zeros
    "supernatural_pretty": ["supernatural", "--roots=3,0,-2",
                            "--rank-scale", "5/2", "--n", "4", "--jmin",
                            "-6", "--jmax", "6", "--format", "pretty"],
    "multi_pair_qmax": ["multi-pair", "--table", KOSZUL, "--space", SPACE,
                        "--qmax", "1"],
    "multi_chi": ["multi-chi", "--table", KOSZUL, "--i", "1",
                  "--alpha", "1,1", "--weights", "1,2"],
}

EXPECTED = {
    "check_fail": (1, (
        '{"status":"fail","message":"strand (4,8)@2 admits no compatible '
        'trim","partial_pieces":[{"coeff":"1/8","degree_sequence":{"start'
        '":0,"degrees":[0,3,4,8]}}],"blocking_strand":{"start":2,"degrees'
        '":[4,8]}}\n')),
    "check_pass": (0, (
        '{"status":"pass","decomposition":{"pieces":[{"coeff":"1/6","degr'
        'ee_sequence":{"start":1,"degrees":[2,3,4,6]}},{"coeff":"5/6","de'
        'gree_sequence":{"start":1,"degrees":[2,3,5,6]}},{"coeff":"1/3","'
        'degree_sequence":{"start":1,"degrees":[2,3,5]}},{"coeff":"1","de'
        'gree_sequence":{"start":1,"degrees":[2,4,5]}},{"coeff":"1","degr'
        'ee_sequence":{"start":0,"degrees":[0,2,4]}}],"remainder":{"entri'
        'es":[]}}}\n')),
    "decompose_fail": (1, (
        '{"status":"fail","message":"strand (4,8)@2 admits no compatible '
        'trim","partial_pieces":[{"coeff":"1/8","degree_sequence":{"start'
        '":0,"degrees":[0,3,4,8]}}],"blocking_strand":{"start":2,"degrees'
        '":[4,8]}}\n')),
    "infinite_fail": (1, (
        '{"status":"fail","message":"strand (0)@0 admits no compatible tr'
        'im","partial_pieces":[],"blocking_strand":{"start":0,"degrees":['
        '0]}}\n')),
    "infinite_fail_oriented": (1, (
        '{"status":"fail","message":"strand (2,3)@-1 admits no compatible'
        ' trim","partial_pieces":[],"blocking_strand":{"start":-1,"degree'
        's":[2,3]}}\n')),
    "decompose_a_fail": (1, (
        '{"status":"fail","message":"no generator below degree 0 to pair '
        'with (0, 0)","partial_pieces":[{"coeff":"1","degree_sequence":{"'
        'kind":"torsion","position":1,"gen_degree":2,"socle_degree":5}}],'
        '"blocking_entry":[0,0]}\n')),
    "decompose_a_pass": (0, (
        '{"pieces":[{"coeff":"1","piece":{"kind":"torsion","position":0,"gen'
        '_degree":0,"socle_degree":2}},{"coeff":"1","piece":{"kind":"free","'
        'position":0,"gen_degree":3}}]}\n')),
    "decompose_empty": (0, (
        '{"pieces":[],"remainder":{"entries":[]}}\n')),
    "decompose_pretty_mark_origin": (0, (
        "piece 1: coeff 1 along (2,3,4)@1\n"
        "    1  2  3\n"
        "1:  1  2  1\n"
        "piece 2: coeff 1 along (0,2,3)@0\n"
        "     0  1  2\n"
        "0:  1°  -  -\n"
        "1:   -  3  2\n")),
    "decompose_empty_pretty": (0, "(empty decomposition)\n"),
    "infinite_pretty": (0, (
        "piece 1: coeff 1 along (0,2,3)@0\n"
        "    0  1  2\n"
        "0:  1  -  -\n"
        "1:  -  3  2\n"
        "piece 2: coeff 3 along (2,3,4)@1\n"
        "    1  2  3\n"
        "1:  3  6  3\n"
        "piece 3: coeff 8 along (3,4,5)@2\n"
        "    2   3  4\n"
        "1:  8  16  8\n"
        "remainder:\n"
        "     3   4\n"
        "1:  19  84\n")),
    "decompose_a_closed_left": (1, (
        '{"status":"fail","message":"no torsion block ends at (0, 1): colum'
        'n -1 has codimension empty","partial_pieces":[],"blocking_entry":['
        '0,1]}\n')),
    "decompose_a_inf": (1, (
        '{"status":"fail","message":"no torsion block ends at (1, 1): colum'
        'n 0 has codimension inf","partial_pieces":[],"blocking_entry":[1,1'
        ']}\n')),
    "decompose_n0_inf": (1, (
        '{"status":"fail","message":"strand (0,1)@0 admits no compatible tr'
        'im","partial_pieces":[],"blocking_strand":{"start":0,"degrees":[0,'
        '1]}}\n')),
    "check_a_inf": (1, (
        '{"status":"fail","violations":[{"kind":"support_inf","i":0,"j":0,"'
        'value":"1"},{"kind":"support_inf","i":1,"j":1,"value":"1"}]}\n')),
    "check_a_pass": (0, (
        '{"status":"pass"}\n')),
    "check_a_fail": (1, (
        '{"status":"fail","violations":[{"kind":"support_empty","i":-1,"j":0'
        ',"value":"1"},{"kind":"chi_negative","i":0,"j":0,"value":"-1"},{"ki'
        'nd":"chi_negative","i":0,"j":1,"value":"-1"},{"kind":"chi_negative"'
        ',"i":0,"j":2,"value":"-1"},{"kind":"euler_nonzero","value":"-2"}]}'
        '\n')),
    "pair_check_mixed": (1, (
        '{"verdicts":[{"status":"pass"},{"status":"fail","violations":[{"kin'
        'd":"chi_negative","i":-3,"j":-2,"value":"-2"},{"kind":"chi_negative","i":-3,"j":-1,"v'
        'alue":"-2"},{"kind":"chi_negative","i":-3,"j":0,"value":"-2"},{"kin'
        'd":"chi_negative","i":-3,"j":1,"value":"-2"},{"kind":"chi_negative"'
        ',"i":-3,"j":2,"value":"-2"},{"kind":"chi_negative","i":-3,"j":3,"va'
        'lue":"-2"},{"kind":"chi_negative","i":-1,"j":-1,"value":"-1"},{"kin'
        'd":"chi_negative","i":-1,"j":0,"value":"-1"},{"kind":"chi_negative"'
        ',"i":-1,"j":1,"value":"-2"},{"kind":"chi_negative","i":-1,"j":2,"va'
        'lue":"-2"},{"kind":"chi_negative","i":-1,"j":3,"value":"-2"},{"kind'
        '":"euler_nonzero","value":"2"}]}]}\n')),
    "pure": (0, (
        '{"entries":[{"i":-1,"j":0,"value":"1"},{"i":0,"j":2,"value":"3"},{"'
        'i":1,"j":3,"value":"2"}]}\n')),
    "dual": (0, (
        '{"entries":[{"i":-1,"j":-2,"value":"3/2"},{"i":0,"j":0,"value":"1"}'
        ']}\n')),
    "chi": (0, (
        '{"value":"5"}\n')),
    "euler": (0, (
        '{"value":"-1/2"}\n')),
    "es": (0, (
        '{"value":"23/2"}\n')),
    "monad_split": (0, (
        '{"lambda1":"1","table_f1":{"entries":[{"i":0,"j":3,"value":"11"}'
        ',{"i":1,"j":4,"value":"10"}]},"lambda2":"1","table_f2":{"entries'
        '":[{"i":0,"j":-3,"value":"9"},{"i":1,"j":-2,"value":"11"},{"i":2'
        ',"j":-1,"value":"2"}]},"e_column":{"entries":[{"i":0,"j":3,"valu'
        'e":"1"}]},"front_pieces":[{"coeff":"10","degree_sequence":{"star'
        't":0,"degrees":[3,4]}}],"back_pieces":[{"coeff":"2","degree_sequ'
        'ence":{"start":0,"degrees":[-3,-2,-1]}},{"coeff":"7","degree_seq'
        'uence":{"start":0,"degrees":[-3,-2]}}]}\n')),
    "monad_violation": (1, (
        '{"status":"fail","message":"central column would be negative at '
        '(0, 3)","e_column":{"entries":[{"i":0,"j":3,"value":"-1"}]}}\n')),
    "monad_fail": (1, (
        '{"status":"fail","message":"strand (6)@-3 admits no compatible t'
        'rim","partial_pieces":[],"blocking_strand":{"start":-3,"degrees"'
        ':[6]}}\n')),
    "pair": (0, (
        '{"entries":[{"i":0,"j":3,"value":"240"},{"i":0,"j":4,"value":"25'
        '6"},{"i":1,"j":4,"value":"256"},{"i":1,"j":5,"value":"240"}]}\n')),
    "pair_short_supernatural": (0, (
        '{"entries":[{"i":0,"j":0,"value":"3"},{"i":0,"j":2,"value":"5"},'
        '{"i":0,"j":4,"value":"12"},{"i":1,"j":4,"value":"3"},{"i":1,"j":'
        '5,"value":"32"},{"i":2,"j":6,"value":"15"}]}\n')),
    "pair_window": (0, (
        '{"entries":[{"i":0,"j":0,"value":"1"},{"i":0,"j":4,"value":"20"}'
        ',{"i":1,"j":3,"value":"8/3"},{"i":1,"j":4,"value":"5"},{"i":2,"j'
        '":6,"value":"1"}]}\n')),
    "multi_pair_rank3_band": (0, (
        '{"m":3,"entries":[{"i":-4,"alpha":[0,0,0],"value":"8"},{"i":-3,"'
        'alpha":[1,0,0],"value":"24"},{"i":-1,"alpha":[0,1,1],"value":"9/'
        '2"},{"i":0,"alpha":[0,0,0],"value":"12"},{"i":1,"alpha":[1,0,0],'
        '"value":"12"}]}\n')),
    "multi_pair_p12_4": (0, (
        '{"m":4,"entries":[{"i":-12,"alpha":[0,0,0,0],"value":"5424419364'
        '0"},{"i":-11,"alpha":[1,1,1,1],"value":"298045020"}]}\n')),
    "supernatural_negative_roots": (0, (
        '{"entries":[{"q":0,"j":0,"value":"1"},{"q":0,"j":1,"value":"3"},'
        '{"q":2,"j":-4,"value":"3"},{"q":2,"j":-3,"value":"1"}]}\n')),
    "supernatural_pretty": (0, (
        "   j:     -6     -5     -4     -3     -2     -1      0      1      2"
        "      3      4      5      6\n"
        "  q=4      -      -      -      -      -      -      -      -      -"
        "      -      -      -      -\n"
        "  q=3     90     50   70/3   15/2      -      -      -      -      -"
        "      -      -      -      -\n"
        "  q=2      -      -      -      -      -    5/3      -      -      -"
        "      -      -      -      -\n"
        "  q=1      -      -      -      -      -      -      -    5/2   10/3"
        "      -      -      -      -\n"
        "  q=0      -      -      -      -      -      -      -      -      -"
        "      -     10  175/6     60\n")),
    "multi_pair": (0, (
        '{"m":2,"entries":[{"i":0,"alpha":[0,0],"value":"1"},{"i":0,"alph'
        'a":[0,1],"value":"8"},{"i":1,"alpha":[0,2],"value":"9"},{"i":1,"'
        'alpha":[1,1],"value":"8"},{"i":1,"alpha":[2,0],"value":"1"},{"i"'
        ':2,"alpha":[1,2],"value":"8"},{"i":2,"alpha":[2,2],"value":"1"}]'
        '}\n')),
    "multi_pair_qmax": (0, (
        '{"m":2,"entries":[{"i":0,"alpha":[0,0],"value":"1"},{"i":0,"alph'
        'a":[0,1],"value":"8"},{"i":1,"alpha":[0,2],"value":"9"},{"i":1,"'
        'alpha":[1,1],"value":"8"},{"i":1,"alpha":[2,0],"value":"1"},{"i"'
        ':2,"alpha":[1,2],"value":"8"}]}\n')),
    "multi_chi": (0, (
        '{"value":"2"}\n')),
}


@pytest.mark.parametrize("name", sorted(ARGV))
def test_exact_bytes(capsys, name):
    code = main(ARGV[name])
    captured = capsys.readouterr()
    assert (code, captured.out) == EXPECTED[name]
    assert captured.err == ""


# A negative ambient dimension is malformed input: there is no projective
# space to split a monad or decompose a table over, nor to read a window's
# cohomology on.
ONE = serialize_table(T({(0, 0): 1}))
NEGATIVE_N = {
    "monad": ["monad", "--table", serialize_table(T({(0, 0): 1, (1, 2): 1})),
              "--n", "-1"],
    "infinite": ["infinite", "--table", ONE, "--e", "3", "--n", "-1"],
    "decompose": ["decompose", "--table", ONE, "--codim",
                  '{"n":-1,"left":0,"right":0}', "--n", "-1"],
    "pair-window": ["pair", "--table", ONE, "--sheaf",
                    '{"kind":"window","dim":-1,"jmin":-5,"jmax":5,'
                    '"entries":[]}'],
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_N))
def test_negative_ambient_dimension_bytes(capsys, name):
    code = main(NEGATIVE_N[name])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: ambient dimension must be >= 0, got -1\n")


# A negative_entry violation needs a signed table, which no command-line
# input is (tables are read nonnegative), so this verdict goes through the
# writer directly; it carries all four kinds of violation.
SIGNED_VERDICT = (
    '{"status":"fail","violations":[{"kind":"support_empty","i":-1,"j":0,"v'
    'alue":"1"},{"kind":"negative_entry","i":1,"j":3,"value":"-1"},{"kind":'
    '"chi_negative","i":0,"j":0,"value":"-1"},{"kind":"chi_negative","i":0,'
    '"j":1,"value":"-1"},{"kind":"euler_nonzero","value":"-1"}]}')


def test_signed_verdict_bytes():
    table = T({(-1, 0): 1, (0, 0): 1, (1, 1): 2, (1, 3): -1})
    c = CodimensionSequence.from_obj(json.loads(EMPTY_LEFT))
    assert compact(_json(_verdict(membership_a(table, c)))) == SIGNED_VERDICT


# A seeded 425-entry chain of 420 codimension-5 pieces over n = 6, and the
# same table bumped out of the cone: too long to spell out, so the exit
# code, the length and the SHA-256 of stdout are pinned instead.
def large_chain_tables():
    r = rng(801)
    chain, _, table = long_chain_table(r, 5, 420)
    return table, bump(r, chain, table)


CONST5 = compact({"n": 6, "left": 5, "window_start": 0, "window": [],
                  "right": 5})
# name: (subcommand, 0 for the chain or 1 for the bumped table, exit code,
#        stdout length, stdout SHA-256)
LARGE = {
    "decompose_large_chain": (
        "decompose", 0, 0, 35443,
        "c779950199d78e21ab812cd39f3e2ce01326691def4ec211c553f8b959689a57"),
    "check_large_chain_bumped": (
        "check", 1, 1, 18151,
        "058a07920ac17f9689eeaef1926805904126384cdbcae6c61edfb34540a97d35"),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_certificate_bytes(capsys, name):
    command, which, code, length, digest = LARGE[name]
    table = large_chain_tables()[which]
    assert len(table) == 425
    assert main([command, "--table", serialize_table(table),
                 "--codim", CONST5, "--n", "6"]) == code
    captured = capsys.readouterr()
    out = captured.out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, digest)
    assert captured.err == ""


# Seeded pairings too large to spell out: a 300-entry table over Z^3 against
# three twisted line bundles on P^1 x P^2 x P^1, and a 90-entry table paired
# against supernatural classes on P^3.  Pinned like the large chains.
def seeded_pairing_argv():
    r = rng(1205)
    multi = {}
    while len(multi) < 300:
        i = r.randint(0, 4)
        alpha = tuple(r.randint(i - 2, 2 * i + 3) for _ in range(3))
        multi[(i, alpha)] = F(r.randint(1, 9), r.randint(1, 9))
    space = compact({"kind": "product", "dims": [1, 2, 1], "summands": [
        {"twist": [r.randint(-3, 3) for _ in range(3)],
         "mult": r.randint(1, 3)} for _ in range(3)]})
    single = {}
    while len(single) < 90:
        i = r.randint(-1, 5)
        single[(i, r.randint(i - 6, 2 * i + 8))] = F(r.randint(1, 9),
                                                      r.randint(1, 9))
    sheaves = compact([{"kind": "supernatural",
                        "roots": list(random_roots(r, s)),
                        "rank_scale": f"{r.randint(1, 5)}/{r.randint(1, 3)}",
                        "n": 3} for s in (3, 2, 1)])
    multi_arg = serialize_table(MultiBettiTable(3, multi))
    single_arg = serialize_table(T(single))
    return {
        "multi_pair_seeded": ["multi-pair", "--table", multi_arg,
                              "--space", space],
        "multi_pair_seeded_qmax": ["multi-pair", "--table", multi_arg,
                                   "--space", space, "--qmax", "2"],
        "pair_check_seeded": ["pair-check", "--table", single_arg,
                              "--sheaves", sheaves, "--n", "3"],
        "es_seeded": ["es", "--table", single_arg, "--roots=2,-1,-4",
                      "--rank-scale", "3/2", "--n", "3", "--tau", "2",
                      "--kappa", "1"],
    }


# name: (exit code, stdout length, stdout SHA-256)
SEEDED = {
    "multi_pair_seeded": (
        0, 15068,
        "bd48dc30506fdcf78adabbefb2f8cb8627be324c15a67665e0289d13f84e6198"),
    "multi_pair_seeded_qmax": (
        0, 5759,
        "418419a5755d350eaef1080a9ca133d02be06b9cb3f6cf780373d857ab210a68"),
    "pair_check_seeded": (
        1, 17711,
        "5ff8bc965c9dea7988251c78a7d94a3773ee582036d70bbbe192779a1bbcb619"),
    "es_seeded": (
        0, 25,
        "0c49474d261f78981eea7d910db53189f62c96e8e1dfa3e6cc394b5a47840f78"),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_pairing_bytes(capsys, name):
    code = main(seeded_pairing_argv()[name])
    captured = capsys.readouterr()
    out = captured.out.encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == SEEDED[name]
    assert captured.err == ""


# A two-root class on P^1000000: JSON lists the nonzero cells alone, so no
# (n + 1) x width grid is built.  Pinned like the large chains.
def test_supernatural_wide_ambient_bytes(capsys):
    code = main(["supernatural", "--roots=1,-3", "--n", "1000000",
                 "--jmin", "0", "--jmax", "10"])
    captured = capsys.readouterr()
    out = captured.out.encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        0, 295,
        "7c877bfb373e29e7a666f5af812c8fdbb3274a3cb4a1976a34873c075bb8067e")
    assert captured.err == ""


# Outputs too large to write are malformed input: a window of more twists
# than a list can hold is refused before its first twist is read, and so is
# a pretty grid of more cells.
TOO_LARGE = {
    "window": (["supernatural", "--roots", "0", "--n", "1", "--jmin", "0",
                "--jmax", str(10 ** 30)],
               f"error: window of {10 ** 30 + 1} twists is too large to "
               f"write\n"),
    "window-grid": (["supernatural", "--roots", "0", "--n", str(10 ** 30),
                     "--jmin", "0", "--jmax", "3", "--format", "pretty"],
                    f"error: pretty grid of {10 ** 30 + 1} rows by 4 columns "
                    f"is too large to write\n"),
}


@pytest.mark.parametrize("name", sorted(TOO_LARGE))
def test_too_large_output_bytes(capsys, name):
    argv, err = TOO_LARGE[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


def test_out_of_memory_bytes():
    # a pretty grid of 2 x 10^8 cells, below the size check, in a process
    # whose address space cannot hold it: exit 2 and nothing on stdout,
    # not a traceback under exit 1, the "not in cone" code
    resource = pytest.importorskip("resource")
    limit = 400 * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "bsfan.cli", "pure", "--degrees",
         "0,100000000", "--format", "pretty"],
        capture_output=True, text=True, preexec_fn=cap, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory\n")


# The command-line surface itself: help text and usage errors, captured
# with the terminal width pinned to 80 columns (argparse wraps to it).

HELP = {
    "": """\
usage: bsfan [-h]
             {pure,supernatural,pair,chi,euler,check-a,decompose-a,decompose,check,monad,infinite,es,pair-check,dual,shift,render,multi-chi,multi-pair}
             ...

Exact computations with Betti tables: pure diagrams, cohomology pairings, cone
membership and chain decompositions.

positional arguments:
  {pure,supernatural,pair,chi,euler,check-a,decompose-a,decompose,check,monad,infinite,es,pair-check,dual,shift,render,multi-chi,multi-pair}
    pure                pure diagram of a degree sequence
    supernatural        cohomology window of a supernatural class
    pair                pair a table with a cohomology evaluator
    chi                 partial Euler characteristic chi_{i,j}
    euler               total Euler characteristic
    check-a             cone membership over the one-variable ring
    decompose-a         block decomposition over the one-variable ring
    decompose           greedy chain decomposition
    check               cone membership with certificate
    monad               split a free monad table
    infinite            stable prefix decomposition of a truncated resolution
    es                  separating functional value
    pair-check          pair against evaluators and check the target cone
    dual                move (i, j) entries to (-i, -j)
    shift               homological shift by k
    render              pretty-print a table
    multi-chi           multigraded partial Euler characteristic
    multi-pair          pair a multigraded table with line bundles on a
                        product of projective spaces

options:
  -h, --help            show this help message and exit
""",
    "pure": """\
usage: bsfan pure [-h] [--format {json,pretty}] [--mark-origin]
                  [--start START] --degrees DEGREES

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --mark-origin         decorate the origin cell in pretty output
  --start START
  --degrees DEGREES
""",
    "supernatural": """\
usage: bsfan supernatural [-h] [--format {json,pretty}] --roots ROOTS
                          [--rank-scale RANK_SCALE] --n N --jmin JMIN --jmax
                          JMAX

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --roots ROOTS
  --rank-scale RANK_SCALE
  --n N
  --jmin JMIN
  --jmax JMAX
""",
    "pair": """\
usage: bsfan pair [-h] [--format {json,pretty}] [--mark-origin] --table TABLE
                  --sheaf SHEAF [--n N]

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --mark-origin         decorate the origin cell in pretty output
  --table TABLE
  --sheaf SHEAF
  --n N
""",
    "chi": """\
usage: bsfan chi [-h] [--format {json,pretty}] --table TABLE --i I --j J

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --table TABLE
  --i I
  --j J
""",
    "euler": """\
usage: bsfan euler [-h] [--format {json,pretty}] --table TABLE

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --table TABLE
""",
    "check-a": """\
usage: bsfan check-a [-h] --table TABLE --codim CODIM

options:
  -h, --help     show this help message and exit
  --table TABLE
  --codim CODIM
""",
    "decompose-a": """\
usage: bsfan decompose-a [-h] --table TABLE --codim CODIM

options:
  -h, --help     show this help message and exit
  --table TABLE
  --codim CODIM
""",
    "decompose": """\
usage: bsfan decompose [-h] [--format {json,pretty}] [--mark-origin] --table
                       TABLE --codim CODIM --n N

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --mark-origin         decorate the origin cell in pretty output
  --table TABLE
  --codim CODIM
  --n N
""",
    "check": """\
usage: bsfan check [-h] --table TABLE --codim CODIM --n N

options:
  -h, --help     show this help message and exit
  --table TABLE
  --codim CODIM
  --n N
""",
    "monad": """\
usage: bsfan monad [-h] --table TABLE --n N

options:
  -h, --help     show this help message and exit
  --table TABLE
  --n N
""",
    "infinite": """\
usage: bsfan infinite [-h] [--format {json,pretty}] [--mark-origin] --table
                      TABLE --e E --n N

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --mark-origin         decorate the origin cell in pretty output
  --table TABLE
  --e E
  --n N
""",
    "es": """\
usage: bsfan es [-h] [--format {json,pretty}] --table TABLE --roots ROOTS
                [--rank-scale RANK_SCALE] --n N --tau TAU --kappa KAPPA

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --table TABLE
  --roots ROOTS
  --rank-scale RANK_SCALE
  --n N
  --tau TAU
  --kappa KAPPA
""",
    "pair-check": """\
usage: bsfan pair-check [-h] --table TABLE --sheaves SHEAVES --n N

options:
  -h, --help         show this help message and exit
  --table TABLE
  --sheaves SHEAVES
  --n N
""",
    "dual": """\
usage: bsfan dual [-h] [--format {json,pretty}] [--mark-origin] --table TABLE

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --mark-origin         decorate the origin cell in pretty output
  --table TABLE
""",
    "shift": """\
usage: bsfan shift [-h] [--format {json,pretty}] [--mark-origin] --table TABLE
                   --k K

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --mark-origin         decorate the origin cell in pretty output
  --table TABLE
  --k K
""",
    "render": """\
usage: bsfan render [-h] [--mark-origin] --table TABLE

options:
  -h, --help     show this help message and exit
  --mark-origin  decorate the origin cell in pretty output
  --table TABLE
""",
    "multi-chi": """\
usage: bsfan multi-chi [-h] [--format {json,pretty}] --table TABLE --i I
                       --alpha ALPHA --weights WEIGHTS

options:
  -h, --help            show this help message and exit
  --format {json,pretty}
  --table TABLE
  --i I
  --alpha ALPHA
  --weights WEIGHTS
""",
    "multi-pair": """\
usage: bsfan multi-pair [-h] --table TABLE --space SPACE [--qmax QMAX]

options:
  -h, --help     show this help message and exit
  --table TABLE
  --space SPACE
  --qmax QMAX
""",
}

EMPTY = '{"entries":[]}'
ONE_ZERO = '{"n":0,"left":1,"right":1}'
USAGE_ARGV = {
    "no-subcommand": [],
    "unknown-subcommand": ["frobnicate"],
    "missing-option": ["check-a", "--table", EMPTY],
    "bad-format": ["chi", "--table", EMPTY, "--i", "0", "--j", "0",
                   "--format", "xml"],
    "unknown-option": ["check-a", "--table", EMPTY, "--codim", ONE_ZERO,
                       "--bogus"],
    # argparse drops the "--" of --name=--, which leaves no value
    "dashes-table": ["euler", "--table=--"],
    "dashes-int": ["shift", "--table", EMPTY, "--k=--"],
    "dashes-degrees": ["pure", "--degrees=--"],
}

USAGE_ERRORS = {
    "no-subcommand": """\
usage: bsfan [-h]
             {pure,supernatural,pair,chi,euler,check-a,decompose-a,decompose,check,monad,infinite,es,pair-check,dual,shift,render,multi-chi,multi-pair}
             ...
bsfan: error: the following arguments are required: command
""",
    "unknown-subcommand": """\
usage: bsfan [-h]
             {pure,supernatural,pair,chi,euler,check-a,decompose-a,decompose,check,monad,infinite,es,pair-check,dual,shift,render,multi-chi,multi-pair}
             ...
bsfan: error: argument command: invalid choice: 'frobnicate' (choose from 'pure', 'supernatural', 'pair', 'chi', 'euler', 'check-a', 'decompose-a', 'decompose', 'check', 'monad', 'infinite', 'es', 'pair-check', 'dual', 'shift', 'render', 'multi-chi', 'multi-pair')
""",
    "missing-option": """\
usage: bsfan check-a [-h] --table TABLE --codim CODIM
bsfan check-a: error: the following arguments are required: --codim
""",
    "bad-format": """\
usage: bsfan chi [-h] [--format {json,pretty}] --table TABLE --i I --j J
bsfan chi: error: argument --format: invalid choice: 'xml' (choose from 'json', 'pretty')
""",
    "unknown-option": """\
usage: bsfan [-h]
             {pure,supernatural,pair,chi,euler,check-a,decompose-a,decompose,check,monad,infinite,es,pair-check,dual,shift,render,multi-chi,multi-pair}
             ...
bsfan: error: unrecognized arguments: --bogus
""",
    "dashes-table": """\
usage: bsfan euler [-h] [--format {json,pretty}] --table TABLE
bsfan euler: error: argument --table: expected one argument
""",
    "dashes-int": """\
usage: bsfan shift [-h] [--format {json,pretty}] [--mark-origin] --table TABLE
                   --k K
bsfan shift: error: argument --k: expected one argument
""",
    "dashes-degrees": """\
usage: bsfan pure [-h] [--format {json,pretty}] [--mark-origin]
                  [--start START] --degrees DEGREES
bsfan pure: error: argument --degrees: expected one argument
""",
}


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_bytes(capsys, columns, name):
    with pytest.raises(SystemExit) as done:
        main([name, "--help"] if name else ["--help"])
    captured = capsys.readouterr()
    assert (done.value.code, captured.out, captured.err) == (0, HELP[name], "")


@pytest.mark.parametrize("name", sorted(USAGE_ARGV))
def test_usage_error_bytes(capsys, columns, name):
    with pytest.raises(SystemExit) as done:
        main(USAGE_ARGV[name])
    captured = capsys.readouterr()
    assert (done.value.code, captured.out) == (2, "")
    assert captured.err == USAGE_ERRORS[name]
