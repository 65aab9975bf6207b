import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bsfan.cli import COMMANDS, _options, _parse, build_parser, main
from helpers import (MONAD_TABLE, TENSOR_TABLE, TRUNCATION_TABLE,
                     TWO_STRAND_TABLE, is_failure_certificate, rng,
                     serialize_table)
from test_cli_bytes import HELP, USAGE_ARGV

STAIRCASE_JSON = json.dumps({"n": 2, "left": "empty", "window_start": 0,
                             "window": [2, 2], "right": "inf"})
CONST2_JSON = json.dumps({"n": 2, "left": 2, "window_start": 0,
                          "window": [], "right": 2})
CONST3_JSON = json.dumps({"n": 2, "left": 3, "window_start": 0,
                          "window": [], "right": 3})
ALL_ONE_JSON = json.dumps({"n": 0, "left": 1, "window_start": 0,
                           "window": [], "right": 1})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_pure_pretty(self, capsys):
        code, out, _ = run(capsys, ["pure", "--start", "0",
                                    "--degrees", "0,2,3,5",
                                    "--format", "pretty"])
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[1] == ["0:", "1", "-", "-", "-"]
        assert rows[2] == ["1:", "-", "5", "5", "-"]
        assert rows[3] == ["2:", "-", "-", "-", "1"]

    def test_pure_json(self, capsys):
        code, out, _ = run(capsys, ["pure", "--degrees", "0,2,3"])
        assert code == 0
        assert json.loads(out) == {"entries": [
            {"i": 0, "j": 0, "value": "1"},
            {"i": 1, "j": 2, "value": "3"},
            {"i": 2, "j": 3, "value": "2"}]}

    def test_pair(self, capsys):
        table = serialize_table(TWO_STRAND_TABLE)
        sheaf = json.dumps({"kind": "supernatural", "roots": [0, -8],
                            "rank_scale": "8", "n": 2})
        code, out, _ = run(capsys, ["pair", "--table", table,
                                    "--sheaf", sheaf, "--n", "2"])
        assert code == 0
        assert json.loads(out) == {"entries": [
            {"i": 0, "j": 3, "value": "240"},
            {"i": 0, "j": 4, "value": "256"},
            {"i": 1, "j": 4, "value": "256"},
            {"i": 1, "j": 5, "value": "240"}]}

    def test_chi_euler_values(self, capsys):
        table = '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1,"j":3,"value":"1"}]}'
        code, out, _ = run(capsys, ["chi", "--table", table, "--i", "0", "--j", "0"])
        assert code == 0 and json.loads(out) == {"value": "1"}
        code, out, _ = run(capsys, ["euler", "--table", table,
                                    "--format", "pretty"])
        assert code == 0 and out.strip() == "0"

    def test_dual_shift_render(self, capsys):
        table = '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1,"j":3,"value":"1"}]}'
        code, out, _ = run(capsys, ["dual", "--table", table])
        assert code == 0
        assert json.loads(out)["entries"][0] == {"i": -1, "j": -3, "value": "1"}
        code, out, _ = run(capsys, ["shift", "--table", table, "--k", "2"])
        assert json.loads(out)["entries"][0]["i"] == 2
        code, out, _ = run(capsys, ["render", "--table",
                                    serialize_table(MONAD_TABLE),
                                    "--mark-origin"])
        assert code == 0 and "20°" in out

    def test_supernatural_window(self, capsys):
        code, out, _ = run(capsys, ["supernatural", "--roots", "1,-3",
                                    "--rank-scale", "2", "--n", "2",
                                    "--jmin", "0", "--jmax", "3"])
        assert code == 0
        entries = {(e["q"], e["j"]): e["value"] for e in json.loads(out)["entries"]}
        assert entries[(1, 0)] == "3" and entries[(0, 3)] == "12"

    def test_es_value(self, capsys):
        table = '{"entries":[{"i":2,"j":1,"value":"1"}]}'
        code, out, _ = run(capsys, ["es", "--table", table, "--roots", "1,-3",
                                    "--rank-scale", "2", "--n", "2",
                                    "--tau", "1", "--kappa", "0"])
        assert code == 0 and json.loads(out) == {"value": "-4"}

    def test_multi_commands(self, capsys):
        table = json.dumps({"m": 2, "entries": [
            {"i": 0, "alpha": [0, 0], "value": "1"},
            {"i": 1, "alpha": [1, 1], "value": "1"}]})
        code, out, _ = run(capsys, ["multi-chi", "--table", table, "--i", "0",
                                    "--alpha", "1,0", "--weights", "1,1"])
        assert code == 0 and json.loads(out) == {"value": "1"}
        space = json.dumps({"kind": "product", "dims": [1, 1],
                            "summands": [{"twist": [0, 0], "mult": 1}]})
        code, out, _ = run(capsys, ["multi-pair", "--table", table,
                                    "--space", space])
        assert code == 0
        assert {"i": 0, "alpha": [0, 0], "value": "1"} in json.loads(out)["entries"]


class TestExitCodes:
    def test_membership_contrast(self, capsys, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text(serialize_table(TWO_STRAND_TABLE))
        code, out, _ = run(capsys, ["check", "--table", str(table_path),
                                    "--codim", CONST3_JSON, "--n", "2"])
        assert code == 1
        cert = json.loads(out)
        assert cert["status"] == "fail" and "blocking_strand" in cert
        code, out, _ = run(capsys, ["check", "--table", str(table_path),
                                    "--codim", CONST2_JSON, "--n", "2"])
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_decompose_failure_certificate(self, capsys):
        code, out, _ = run(capsys, ["decompose", "--table",
                                    serialize_table(TWO_STRAND_TABLE),
                                    "--codim", CONST3_JSON, "--n", "2"])
        assert code == 1
        cert = json.loads(out)
        assert cert["blocking_strand"] == {"start": 2, "degrees": [4, 8]}

    def test_check_a_exit_codes(self, capsys):
        good = '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1,"j":2,"value":"1"}]}'
        bad = '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1,"j":2,"value":"2"}]}'
        assert run(capsys, ["check-a", "--table", good,
                            "--codim", ALL_ONE_JSON])[0] == 0
        code, out, _ = run(capsys, ["check-a", "--table", bad,
                                    "--codim", ALL_ONE_JSON])
        assert code == 1
        assert any(v["kind"] == "euler_nonzero"
                   for v in json.loads(out)["violations"])

    def test_pair_check_exit_codes(self, capsys):
        sheaves = json.dumps([{"kind": "supernatural", "roots": [0, -8],
                               "rank_scale": "8", "n": 2}])
        code, out, _ = run(capsys, ["pair-check", "--table",
                                    serialize_table(TWO_STRAND_TABLE),
                                    "--sheaves", sheaves, "--n", "2"])
        assert code == 1
        assert json.loads(out)["verdicts"][0]["status"] == "fail"
        code, out, _ = run(capsys, ["pair-check", "--table",
                                    '{"entries":[]}',
                                    "--sheaves", sheaves, "--n", "2"])
        assert code == 0

    def test_monad_and_infinite(self, capsys):
        code, out, _ = run(capsys, ["monad", "--table",
                                    serialize_table(MONAD_TABLE), "--n", "4"])
        assert code == 0
        split = json.loads(out)
        assert split["e_column"]["entries"] == [{"i": 0, "j": 3, "value": "1"}]
        code, out, _ = run(capsys, ["infinite", "--table",
                                    serialize_table(TRUNCATION_TABLE),
                                    "--e", "4", "--n", "1"])
        assert code == 0
        assert len(json.loads(out)["pieces"]) == 3

    def test_decompose_a_failure_certificate(self, capsys):
        code, out, _ = run(capsys, ["decompose-a", "--table",
                                    '{"entries":[{"i":1,"j":0,"value":"1"}]}',
                                    "--codim", ALL_ONE_JSON])
        assert code == 1
        assert json.loads(out)["blocking_entry"] == [1, 0]

    def test_monad_violation_exits_one(self, capsys):
        squeezed = json.dumps({"entries": [
            {"i": -2, "j": 1, "value": "2"}, {"i": -1, "j": 2, "value": "11"},
            {"i": 0, "j": 3, "value": "18"}, {"i": 1, "j": 4, "value": "10"}]})
        code, out, _ = run(capsys, ["monad", "--table", squeezed, "--n", "4"])
        assert code == 1 and json.loads(out)["status"] == "fail"

    def test_infinite_failure_exits_one(self, capsys):
        # a bare generator in the top column cannot be matched by any strand
        table = json.dumps({"entries": [
            {"i": 0, "j": 0, "value": "1"}, {"i": 4, "j": 1, "value": "1"}]})
        code, out, _ = run(capsys, ["infinite", "--table", table,
                                    "--e", "4", "--n", "1"])
        assert code == 1 and json.loads(out)["status"] == "fail"

    def test_bad_inputs_exit_two(self, capsys, tmp_path):
        assert run(capsys, ["chi", "--table", '{"entries":[',
                            "--i", "0", "--j", "0"])[0] == 2
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 50000 + "]" * 50000)
        code, out, err = run(capsys, ["chi", "--table", str(deep),
                                      "--i", "0", "--j", "0"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed JSON in {deep}: ")
        assert err.count("\n") == 1
        assert run(capsys, ["pure", "--degrees", "3,3"])[0] == 2
        assert run(capsys, ["check", "--table", '{"entries":[]}',
                            "--codim", '{"n":2,"left":1,"window_start":0,'
                                       '"window":[0],"right":2}',
                            "--n", "2"])[0] == 2
        assert run(capsys, ["chi", "--table", "no_such_file.json",
                            "--i", "0", "--j", "0"])[0] == 2
        assert run(capsys, ["es", "--table", '{"entries":[]}',
                            "--roots", "1,-3", "--rank-scale", "2",
                            "--n", "2", "--tau", "5", "--kappa", "0"])[0] == 2
        assert run(capsys, ["supernatural", "--roots", "1,1", "--n", "2",
                            "--jmin", "0", "--jmax", "1"])[0] == 2
        window = json.dumps({"kind": "window", "dim": 1, "jmin": 0, "jmax": 1,
                             "entries": [{"q": 0, "j": 0, "value": "1"}]})
        assert run(capsys, ["pair", "--table",
                            '{"entries":[{"i":0,"j":5,"value":"1"}]}',
                            "--sheaf", window])[0] == 2
        assert run(capsys, ["multi-chi", "--table",
                            '{"m":1,"entries":[]}', "--i", "0",
                            "--alpha", "0", "--weights", "0"])[0] == 2
        assert run(capsys, ["infinite", "--table", '{"entries":[]}',
                            "--e", "1", "--n", "1"])[0] == 2

    @pytest.mark.parametrize("form", ["json", "pretty"])
    def test_supernatural_refuses_an_empty_twist_range(self, capsys, form):
        # the message a window over the same range gives, and no output
        window = ('{"kind":"window","dim":2,"jmin":3,"jmax":1,'
                  '"entries":[]}')
        refused = run(capsys, ["pair", "--table", '{"entries":[]}',
                               "--sheaf", window])
        assert refused == (2, "", "error: empty declared range [3, 1]\n")
        assert run(capsys, ["supernatural", "--roots", "1,0", "--n", "2",
                            "--jmin", "3", "--jmax", "1",
                            "--format", form]) == refused
        # one twist is the smallest range
        code, out, _ = run(capsys, ["supernatural", "--roots", "1,0",
                                    "--n", "2", "--jmin", "1", "--jmax", "1",
                                    "--format", form])
        assert code == 0 and out

    def test_euler_negative_columns_prints_exact_zero(self, capsys):
        table = ('{"entries":[{"i":-1,"j":0,"value":"1"},'
                 '{"i":-2,"j":1,"value":"1"}]}')
        code, out, _ = run(capsys, ["euler", "--table", table])
        assert code == 0 and json.loads(out) == {"value": "0"}
        code, out, _ = run(capsys, ["euler", "--table", table,
                                    "--format", "pretty"])
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize("argv", [
        ["check-a", "--table", '{"entries":[]}',
         "--codim", '{"n":2,"left":0,"window":5,"right":0}'],
        ["dual", "--table", '{"entries":[{"i":true,"j":0,"value":"1"}]}'],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", json.dumps({"kind": "window", "dim": 1, "jmin": -2,
                                "jmax": 2, "entries": [
                                    {"q": 3, "j": 0, "value": "2"}]})],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", '{"kind":"window","dim":true,"jmin":-2,"jmax":2,'
                    '"entries":[{"q":true,"j":0,"value":"2"}]}'],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", '{"kind":"window","dim":1,"jmin":-2,"jmax":2,'
                    '"entries":[{"q":true,"j":0,"value":"2"}]}'],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", '{"kind":"twist","n":true,"a":0}'],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", '{"kind":"twist","n":3,"a":0}', "--n", "2"],
        ["pair-check", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaves", '[{"kind":"supernatural","roots":[true],'
                      '"rank_scale":"1","n":1}]', "--n", "1"],
        ["check", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--codim", '{"n":true,"left":0,"right":2}', "--n", "1"],
        ["check-a", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--codim", '{"n":0,"left":0,"window_start":true,"right":1}'],
        ["multi-pair", "--table",
         '{"m":1,"entries":[{"i":true,"alpha":[0],"value":"1"}]}',
         "--space", '{"kind":"product","dims":[1],"summands":[{"twist":[0]}]}'],
        ["multi-pair", "--table",
         '{"m":1,"entries":[{"i":0,"alpha":[0],"value":"1"}]}',
         "--space", '{"kind":"product","dims":[true],'
                    '"summands":[{"twist":[0]}]}'],
        ["multi-pair", "--table", '{"m":1,"entries":5}', "--space",
         '{"kind":"product","dims":[1],"summands":[{"twist":[0]}]}'],
        ["multi-chi", "--table",
         '{"m":2,"entries":[{"i":5,"alpha":[0,0],"value":"1"}]}',
         "--i", "0", "--alpha", "0,0,0", "--weights", "1,1,1"],
        ["multi-chi", "--table",
         '{"m":2,"entries":[{"i":5,"alpha":[0,0],"value":"1"}]}',
         "--i", "0", "--alpha", "0,0", "--weights", "1,1,1"],
        ["multi-pair", "--table", '{"m":2,"entries":[]}', "--space",
         '{"kind":"product","dims":[1],"summands":[{"twist":[0]}]}'],
        ["multi-pair", "--table",
         '{"m":1,"entries":[{"i":0,"alpha":[0],"value":"1"}]}',
         "--space", '{"kind":"product","dims":[1],"summands":[{"twist":[0]}]}',
         "--qmax", "-1"],
        ["chi", "--table", "[" * 50000 + "]" * 50000, "--i", "0", "--j", "0"],
        ["check-a", "--table", '{"entries":[]}', "--codim",
         '{"n":0,"left":1,"window_start":0,"window":{},"right":1}'],
        ["check-a", "--table", '{"entries":[]}', "--codim",
         '{"n":0,"left":1,"window_start":0,"window":"","right":1}'],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", '{"kind":"supernatural","roots":"","rank_scale":"2",'
                    '"n":2}'],
        ["pair", "--table", '{"entries":[{"i":0,"j":0,"value":"1"}]}',
         "--sheaf", '{"kind":"window","dim":1,"jmin":-2,"jmax":2,'
                    '"entries":{}}'],
        ["multi-pair", "--table",
         '{"m":1,"entries":[{"i":0,"alpha":[0],"value":"1"}]}',
         "--space", '{"kind":"product","dims":[1],"summands":""}'],
        ["euler", "--table",
         '{"entries":[{"i":0,"j":0,"value":"1"}],"entries":[]}'],
        ["euler", "--table",
         '{"entries":[{"i":0,"j":0,"value":"1","value":"5"}]}'],
        ["multi-chi", "--table",
         '{"m":2,"entries":[{"i":0,"alpha":[1,2,3],"value":"0"},'
         '{"i":0,"alpha":[0,0],"value":"1"}]}',
         "--i", "0", "--alpha=1,1", "--weights=1,1"],
        ["multi-chi", "--table",
         '{"m":-1,"entries":[{"i":0,"alpha":[1],"value":"1"}]}',
         "--i", "0", "--alpha=1", "--weights=1"],
        # a pretty grid of more cells than any str can hold
        ["pure", "--degrees", f"0,{10 ** 30}", "--format", "pretty"],
    ], ids=["codim-window-not-a-list", "boolean-index", "window-q-past-dim",
            "window-dim-true", "window-q-true", "twist-n-true",
            "twist-ambient-vs-n",
            "supernatural-root-true", "codim-n-true",
            "codim-window-start-true", "multi-index-true",
            "product-dim-true", "multi-entries-not-a-list",
            "multi-alpha-rank-vs-m", "multi-alpha-rank-vs-weights",
            "multi-table-rank-vs-space", "multi-qmax-negative",
            "json-nested-too-deep", "codim-window-an-object",
            "codim-window-a-string", "supernatural-roots-a-string",
            "window-entries-an-object", "product-summands-a-string",
            "repeated-key-entries", "repeated-key-value",
            "multi-zero-entry-rank-vs-m", "multi-m-negative",
            "pretty-grid-too-large"])
    def test_malformed_input_exits_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_monad_stuck_decomposition_exits_one(self, capsys):
        # a lone generator in column 1 admits no trim under the monad
        # constraint: not a monad table, so exit 1 with the certificate
        code, out, err = run(capsys, [
            "monad", "--table", '{"entries":[{"i":1,"j":0,"value":"1"}]}',
            "--n", "1"])
        assert code == 1 and err == ""
        cert = json.loads(out)
        assert cert["status"] == "fail" and cert["partial_pieces"] == []
        assert cert["blocking_strand"] == {"start": 1, "degrees": [0]}

    def test_huge_codimension_exits_one_with_certificate(self, capsys):
        # ranks of codimension values are exact: n = 10**400 must not
        # overflow a float
        n = str(10 ** 400)
        codim = ('{"n":%s,"left":0,"window_start":0,"window":[],"right":%s}'
                 % (n, n))
        code, out, err = run(capsys, ["check", "--table",
                                      '{"entries":[{"i":0,"j":0,"value":"1"}]}',
                                      "--codim", codim, "--n", n])
        assert code == 1 and err == ""
        cert = json.loads(out)
        assert cert["status"] == "fail"
        assert cert["blocking_strand"] == {"start": 0, "degrees": [0]}

    @pytest.mark.parametrize("argv", [
        ["check", "--table", '{"entries":[]}',
         "--codim", '{"n":1,"left":0,"right":1}', "--n", "1",
         "--format", "pretty"],
        ["multi-pair", "--table", '{"m":1,"entries":[]}', "--space",
         '{"kind":"product","dims":[1],"summands":[{"twist":[0]}]}',
         "--mark-origin"],
        ["render", "--table", '{"entries":[]}', "--format", "json"],
        ["chi", "--table", '{"entries":[]}', "--i", "0", "--j", "0",
         "--mark-origin"],
    ], ids=["check-format", "multi-pair-mark-origin", "render-format",
            "chi-mark-origin"])
    def test_output_flags_exist_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_option_value_is_not_a_negative_list(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["pure", "--degrees", "-x"])
        assert err.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


B = 10 ** 2200  # (B^2 - 1) / 6 has 4400 digits, past the default limit


def unlimited_str(value):
    """str(value) with no limit on the digits of an int, the old limit
    restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongNumbers:
    """Exact answers are written however long they are; inputs are read
    under the interpreter's digit limit; main leaves that limit as it was."""

    def run(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        result = run(capsys, argv)
        assert sys.get_int_max_str_digits() == limit
        return result

    def test_supernatural_value_past_the_digit_limit(self, capsys):
        # at twist 1 one root lies above: h^1 = |(1 - B)(1 - 0)(1 + B)| / 3!
        code, out, err = self.run(capsys, [
            "supernatural", f"--roots={B},0,-{B}", "--n", "3",
            "--jmin", "1", "--jmax", "1"])
        assert code == 0 and err == ""
        assert out == ('{"entries":[{"q":1,"j":1,"value":"%s"}]}\n'
                       % unlimited_str(Fraction(B * B - 1, 6)))

    def test_pair_value_past_the_digit_limit(self, capsys):
        # beta_{0,1} meets h^2 at twist -1 (roots B and 0 lie above), at
        # (0 - 2, 1) with value |(-1 - B)(-1 - 0)(-1 + B)| / 3!
        sheaf = json.dumps({"kind": "supernatural", "roots": [B, 0, -B],
                            "rank_scale": 1, "n": 3})
        code, out, err = self.run(capsys, [
            "pair", "--table", '{"entries":[{"i":0,"j":1,"value":"1"}]}',
            "--sheaf", sheaf])
        assert code == 0 and err == ""
        assert out == ('{"entries":[{"i":-2,"j":1,"value":"%s"}]}\n'
                       % unlimited_str(Fraction(B * B - 1, 6)))

    def test_input_past_the_digit_limit_exits_two(self, capsys):
        value = "1" + "0" * 4300
        code, out, err = self.run(capsys, [
            "euler", "--table",
            '{"entries":[{"i":0,"j":0,"value":"%s"}]}' % value])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, what", [
        (["--n", "1", "--jmin", "0", "--jmax", str(10 ** 4300 - 1)],
         "window of %s twists"),
        (["--n", str(10 ** 4300 - 1), "--jmin", "0", "--jmax", "0",
          "--format", "pretty"], "pretty grid of %s rows by 1 columns"),
    ], ids=["window", "window-grid"])
    def test_too_large_output_past_the_digit_limit(self, capsys, argv, what):
        # a 4300-digit bound, read under the limit, makes a count of 4301
        code, out, err = self.run(capsys, ["supernatural", "--roots", "0",
                                           *argv])
        assert (code, out) == (2, "")
        assert err == ("error: %s is too large to write\n"
                       % what % unlimited_str(10 ** 4300))

    def test_certificate_keeps_the_limit(self, capsys):
        code, out, _ = self.run(capsys, [
            "decompose", "--table", '{"entries":[{"i":1,"j":0,"value":"1"}]}',
            "--codim", '{"n":1,"left":2,"right":2}', "--n", "1"])
        assert code == 1 and json.loads(out)["status"] == "fail"


MULTI3 =('{"m":3,"entries":[{"i":0,"alpha":[0,0,0],"value":"1"},'
          '{"i":1,"alpha":[-2,-3,4],"value":"2"}]}')


class TestNegativeLists:
    """A comma list that starts with a negative number is an option value:
    the spaced spelling prints what the --opt=value spelling prints."""

    @pytest.mark.parametrize("head, option, value, tail", [
        (["supernatural"], "--roots", "-1,-2",
         ["--n", "2", "--jmin", "-3", "--jmax", "1"]),
        (["es", "--table", serialize_table(TWO_STRAND_TABLE)], "--roots",
         "-1,-2", ["--n", "2", "--tau", "1", "--kappa", "0"]),
        (["pure"], "--degrees", "-1,0", []),
        (["multi-chi", "--table", MULTI3, "--i", "0"], "--alpha", "-2,-3,3",
         ["--weights", "1,2,2"]),
    ], ids=["supernatural", "es", "pure", "multi-chi"])
    def test_spaced_equals_joined(self, capsys, head, option, value, tail):
        spaced = run(capsys, head + [option, value] + tail)
        joined = run(capsys, head + [f"{option}={value}"] + tail)
        assert spaced == joined
        assert spaced[0] == 0 and spaced[1] and spaced[2] == ""


class TestDeterminism:
    def test_identical_bytes(self, capsys):
        argv = ["decompose", "--table", serialize_table(TENSOR_TABLE),
                "--codim", STAIRCASE_JSON, "--n", "2"]
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
        assert first[0] == 0

    def test_huge_twist_pairs_under_an_address_space_limit(self):
        # a twist column is Bott's closed form, so no n-root tuple is built
        src = Path(__file__).resolve().parents[1] / "src"
        limit = 800 * 1024 * 1024

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "bsfan.cli", "pair", "--table",
             '{"entries":[{"i":0,"j":0,"value":"1"},'
             '{"i":1,"j":2,"value":"3"}]}',
             "--sheaf", '{"kind":"twist","n":200000000,"a":0}'],
            capture_output=True, text=True, preexec_fn=cap, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == '{"entries":[{"i":0,"j":0,"value":"1"}]}\n'

    def test_console_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "bsfan.cli", "pure", "--degrees", "0,2,3,5"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["entries"][1]["value"] == "5"


# built for no argv, the parser gives every subcommand its options, so one
# serves every argv
PARSER = build_parser()


def parsed(parser, argv):
    """vars of parser's namespace for argv, or where it exits, the exit
    code and what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as done:
            return done.code, out.getvalue(), err.getvalue()


def argparse_vars(argv):
    """vars of argparse's namespace for argv, or None where it exits."""
    result = parsed(PARSER, argv)
    return result if isinstance(result, dict) else None


# values every option takes in both spellings, --name value and
# --name=value: comma lists, negative ones included, and int() spellings
PLAIN = {
    "str": ["x", "0,2,3", "-1,-2", "-1,3", "-.5", "-1", "", "a=b", "a b",
            '{"entries":[]}'],
    "int": ["5", "0", "-3", " 5", "+5", "1_0", "5 "],
    "format": ["json", "pretty"],
}
# values that argparse rejects or reads as an option, and values _parse
# may leave to argparse: a bad int, a value that looks like an option,
# "--", an empty format
ODD = ["5.0", "x", "", "-x", "-", "--", "-h", "--help", "--table", "- 1",
       "-7 ", "-1\n", "-1,x", "--=", "xml", "--format"]


def option_kinds(name):
    """Each option of a subcommand: its flag, kind and whether required."""
    command = COMMANDS[name]
    kinds = []
    if "format" in command.flags:
        kinds.append(("--format", "format", False))
    if "mark-origin" in command.flags:
        kinds.append(("--mark-origin", "flag", False))
    kinds += [(flag, "int" if is_int else "str", required)
              for flag, _, is_int, required, _ in _options(command)]
    return kinds


def spell(r, flag, kind, value):
    if kind == "flag":
        return [flag]
    return [f"{flag}={value}"] if r.random() < 0.5 else [flag, value]


def draw(r, name):
    """A seeded argv of the subcommand and whether it is well formed: each
    option once in either spelling, in canonical or shuffled order, or with
    one fault."""
    kinds = option_kinds(name)
    given = [(flag, kind, spell(r, flag, kind, r.choice(PLAIN.get(kind, [""]))))
             for flag, kind, required in kinds
             if required or r.random() < 0.6]
    if r.random() < 0.5:
        r.shuffle(given)
    parts = [tokens for _, _, tokens in given]
    fault = r.choice([None] * 6 + ["odd", "drop", "repeat", "unknown",
                                   "abbrev", "insert", "flag=", "xml"])
    where = r.randrange(len(parts) + 1)
    if fault == "odd" and given:
        flag, kind, _ = r.choice(given)
        odd = r.choice(ODD)
        parts = [[f"{flag}={odd}"] if r.random() < 0.5 else [flag, odd]]
        parts += [tokens for other, _, tokens in given if other != flag]
    elif fault == "drop" and parts:
        del parts[r.randrange(len(parts))]
    elif fault == "repeat" and parts:
        parts.insert(where, r.choice(parts))
    elif fault == "unknown":
        parts.insert(where, r.choice([["--bogus", "1"], ["--bogus=1"],
                                      ["stray"], ["--command", name]]))
    elif fault == "abbrev":
        flag, kind, _ = r.choice([k for k in kinds if len(k[0]) > 3])
        short = flag[:r.randrange(3, len(flag))]
        parts.insert(where, spell(r, short, kind, r.choice(
            PLAIN.get(kind, [""]))))
    elif fault == "insert":
        parts.insert(where, [r.choice(["--", "-h", "--help", "-", "-x"])])
    elif fault == "flag=":
        parts.insert(where, [r.choice(["--mark-origin=", "--mark-origin=1",
                                       "--mark-origin=yes"])])
    elif fault == "xml":
        parts.insert(where, r.choice([["--format", "xml"], ["--format=xml"],
                                      ["--format="]]))
    argv = [name] + [token for tokens in parts for token in tokens]
    return argv, fault is None


def draws(seed):
    """150 seeded draws of each subcommand's argv."""
    r = rng(seed)
    for name in COMMANDS:
        for _ in range(150):
            yield draw(r, name)


def typed(namespace):
    return {key: (type(value), value) for key, value in namespace.items()}


class TestParse:
    """_parse reads a well-formed argv into argparse's namespace and
    leaves every other argv to argparse, which prints help and errors."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_argparse(self, seed):
        accepted = 0
        for argv, plain in draws(seed):
            expected, got = argparse_vars(argv), _parse(argv)
            if plain:
                assert got is not None, argv
                accepted += 1
            if got is not None:
                assert expected is not None, argv
                assert typed(vars(got)) == typed(expected), argv
        assert accepted > 1000

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["frobnicate"], ["--", "euler"],
        ["euler"], ["euler", "--help"], ["euler", "--table"],
        ["euler", "--table", "x", "--"], ["euler", "--table=--"],
        ["euler", "--table", "--"], ["euler", "--tab", "x"],
        ["euler", "--table", "x", "--table", "y"],
        ["es", "--table", "x", "--r", "1"],
        ["pure", "--degrees", "1", "--start", "5.0"],
        ["pure", "--degrees", "1", "--start="],
        ["render", "--table", "x", "--mark-origin=1"],
        ["render", "--table", "x", "--mark-origin", "--mark-origin"],
        ["chi", "--table", "x", "--i", "0", "--j", "0", "--format", "xml"],
    ])
    def test_leaves_other_argvs_to_argparse(self, argv):
        assert _parse(argv) is None

    @pytest.mark.parametrize("argv, namespace", [
        (["pure", "--degrees", "0,1"],
         {"command": "pure", "format": "json", "mark_origin": False,
          "start": 0, "degrees": "0,1"}),
        (["supernatural", "--roots=-1,3", "--n", "2", "--jmin", "-3",
          "--jmax", " 1"],
         {"command": "supernatural", "format": "json", "roots": "-1,3",
          "rank_scale": "1", "n": 2, "jmin": -3, "jmax": 1}),
        (["pair", "--sheaf", "s", "--table", "t"],
         {"command": "pair", "format": "json", "mark_origin": False,
          "table": "t", "sheaf": "s", "n": None}),
        (["multi-pair", "--table", "t", "--space", "s", "--qmax=+1_0"],
         {"command": "multi-pair", "table": "t", "space": "s", "qmax": 10}),
    ])
    def test_reads_defaults_and_int_spellings(self, argv, namespace):
        assert typed(vars(_parse(argv))) == typed(namespace)
        assert typed(argparse_vars(argv)) == typed(namespace)


def options_of(parser):
    """Each subcommand of parser and the dests of the options it has."""
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: [action.dest for action in subparser._actions]
            for name, subparser in sub.choices.items()}


class TestParserScope:
    """main builds options only for the subcommands its argv names, and
    its parser reads every argv as the parser of every subcommand does."""

    def test_only_named_subcommands_get_options(self):
        bare = dict.fromkeys(COMMANDS, [])
        assert options_of(build_parser(["--help"])) == bare
        decompose = ["help", "format", "mark_origin", "table", "codim", "n"]
        assert options_of(build_parser(["decompose", "--help"])) == {
            **bare, "decompose": decompose}
        assert options_of(PARSER)["decompose"] == decompose
        assert all(options_of(PARSER).values())

    @pytest.mark.parametrize("seed", [1, 2])
    def test_draws_alike(self, seed):
        for argv, _ in draws(seed):
            assert parsed(build_parser(argv), argv) == parsed(PARSER, argv), \
                argv

    @pytest.mark.parametrize("argv", [
        [name, "--help"] if name else ["--help"] for name in sorted(HELP)
    ] + [USAGE_ARGV[name] for name in sorted(USAGE_ARGV)])
    def test_help_and_usage_errors_alike(self, argv):
        assert parsed(build_parser(argv), argv) == parsed(PARSER, argv)


@pytest.fixture(scope="module")
def edge_paths(tmp_path_factory):
    """A missing path, a directory and a file of bytes that are not UTF-8."""
    root = tmp_path_factory.mktemp("argv")
    (root / "latin-1.json").write_bytes(b'{"entries": ["\xe9"]}')
    return [str(root / "missing.json"), str(root), str(root / "latin-1.json")]


def without(argv, flag):
    """argv with flag and the value that follows it left out."""
    at = argv.index(flag) if flag in argv else len(argv)
    return argv[:at] + argv[at + 2:]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_option_survives_edge_values(capsys, edge_paths, name):
    # a valid argv with one option given --name=--, an empty value, a
    # separate "-", -1, or the path of no file, of a directory or of a
    # file that is not UTF-8: exit 0, 1 with a certificate, or 2 with a
    # diagnostic, and no other exception; --name=-- is a missing value
    from test_startup import FOOTPRINT

    base = FOOTPRINT[name][0]
    for flag, _, _ in option_kinds(name):
        rest = without(base, flag)
        for tokens in ([f"{flag}=--"], [f"{flag}="], [flag, "-"],
                       [f"{flag}=-1"], *([flag, path] for path in edge_paths)):
            try:
                code = main(rest + tokens)
            except SystemExit as done:
                code = done.code
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (rest + tokens, code)
            if tokens == [f"{flag}=--"]:
                assert code == 2, rest + tokens
            if code == 1:
                assert is_failure_certificate(out) and err == ""
            if code == 2:
                assert out == "" and err != "", rest + tokens
