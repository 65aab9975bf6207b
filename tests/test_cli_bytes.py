"""Exact stdout bytes and exit codes of the certificate- and table-printing
subcommands.

The other CLI tests parse the output as JSON, which hides key order,
separators and number formatting; these pin the bytes themselves, so a
refactor of the table core or of the certificate serializer cannot move
them.
"""

import json

import pytest

from bsfan.cli import main
from bsfan.tables import serialize_table
from helpers import MONAD_TABLE, TENSOR_TABLE, TWO_STRAND_TABLE, T


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


CONST3 = compact({"n": 2, "left": 3, "window_start": 0, "window": [],
                  "right": 3})
STAIRCASE = compact({"n": 2, "left": "empty", "window_start": 0,
                     "window": [2, 2], "right": "inf"})
ALL_ONE = compact({"n": 0, "left": 1, "window_start": 0, "window": [],
                   "right": 1})
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
    # the one-variable pieces are listed under "degree_sequence" too
    "decompose_a_fail": ["decompose-a", "--table",
                         serialize_table(T({(0, 0): 1, (1, 2): 1,
                                            (2, 5): 1})),
                         "--codim", ALL_ONE],
    "monad_split": ["monad", "--table", serialize_table(MONAD_TABLE),
                    "--n", "4"],
    "monad_violation": ["monad", "--table", serialize_table(SQUEEZED),
                        "--n", "4"],
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
    "decompose_a_fail": (1, (
        '{"status":"fail","message":"no generator below degree 0 to pair '
        'with (0, 0)","partial_pieces":[{"coeff":"1","degree_sequence":{"'
        'kind":"torsion","position":1,"gen_degree":2,"socle_degree":5}}],'
        '"blocking_entry":[0,0]}\n')),
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
