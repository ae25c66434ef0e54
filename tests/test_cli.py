"""CLI: subcommand behavior, exit codes, and deterministic reports."""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from neurocode import cli, verify
from neurocode.codes import Code
from neurocode.graphs import GR_COMPLEX_MAX_VISITS
from neurocode.ideal import CF_MAX_WORK, CanonicalForm
from neurocode.verify import (
    DEFAULT_SEED,
    SUITES,
    Check,
    SuiteResult,
    parity_suite,
    union_closure_suite,
)


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCf:
    def test_fixture(self, capsys):
        status, out, _ = run(capsys, "cf", "{};{1,2};{2,3}")
        assert status == 0
        assert "x1*(1-x2)" in out
        assert "(1-x1)*x2*(1-x3)" in out
        assert "canonical form (4 elements)" in out

    def test_family_with_oracle(self, capsys):
        status, out, _ = run(capsys, "cf", "--family", "cr:5", "--oracle")
        assert status == 0
        assert "oracle agreement: PASS" in out

    def test_parse_error_exits_2(self, capsys):
        status, _, err = run(capsys, "cf", "{0}")
        assert status == 2
        assert "error:" in err

    def test_missing_input_exits_2(self, capsys):
        status, _, err = run(capsys, "cf")
        assert status == 2


class TestGraph:
    def test_ccg_summary(self, capsys):
        status, out, _ = run(capsys, "graph", "ccg", "{1};{2};{1,3};{1,2,3}")
        assert status == 0
        assert "connected: true" in out

    def test_grg_family_cycle(self, capsys):
        status, out, _ = run(capsys, "graph", "grg", "--family", "cr:6")
        assert status == 0
        assert "regular: yes (k=2)" in out
        assert "connected: true" in out

    def test_gr_complex_from_cf_json(self, capsys):
        cf = json.dumps({"n": 4, "cf": [{"plus": [1, 2], "minus": []},
                                        {"plus": [2, 4], "minus": []}]})
        status, out, _ = run(capsys, "graph", "gr-complex", "--cf", cf)
        assert status == 0
        assert "facets: {2,3}; {1,3,4}" in out

    def test_dot_output(self, capsys):
        status, out, _ = run(capsys, "graph", "ccg", "{};{1}", "--dot")
        assert status == 0
        assert out == 'graph {\n  "{}";\n  "{1}";\n  "{}" -- "{1}";\n}\n'

    def test_bad_cf_json(self, capsys):
        status, _, err = run(capsys, "graph", "grg", "--cf", "{nope")
        assert status == 2


# Each --cf document must exit 2 with a message, not a traceback or a form
# read from ill-typed or out-of-range values.
REJECTED_CF_JSON = [
    '{"n": 2, "cf": [1]}',
    '{"n": 2, "cf": [{"plus": "1"}]}',
    '{"n": 2, "cf": [{"plus": [1.5]}]}',
    '{"n": 0, "cf": []}',
    '{"n": -1, "cf": []}',
    '{"n": 100, "cf": [{"plus": [1]}]}',
    '{"n": 2, "cf": [{"plus": [true]}]}',
]


@pytest.mark.parametrize("cf_json", REJECTED_CF_JSON)
def test_graph_rejects_bad_cf_json(capsys, cf_json):
    status, out, err = run(capsys, "graph", "grg", "--cf", cf_json)
    assert status == 2
    assert out == ""
    assert "bad canonical form JSON" in err


# sha256 of the `graph ... --json` stdout of each command line, recorded
# while the graph queries still ran a hashed BFS over an adjacency dict. The
# summary fields (connected, regular, diameter) and the edge order must not
# change with the graph representation.
GRAPH_CF4 = '{"n": 4, "cf": [{"plus": [1, 3], "minus": []}, {"plus": [2, 4], "minus": []}]}'
GRAPH_CF5 = ('{"n": 5, "cf": [{"plus": [1, 2], "minus": [3]}, {"plus": [4], "minus": []}, '
             '{"plus": [2, 5], "minus": []}]}')
GRAPH_JSON_SHA256 = [
    (["ccg", "{1};{2};{1,3};{1,2,3}"],
     "af63dedac5e23846458425dca9a7b07874657b213f390a53610032777c43f1b6"),
    (["ccg", "{1};{1,2};{3}"],
     "cf1047cd8056b1a4e0d6a4e53e048fbc1dc0ba11505878f3d2a217251ec138d1"),
    (["ccg", "{1};{2};{1,2,3};{1,2,3,4}"],
     "539ae884bc2c74f6d332f0676b45b9189ef8193af1f6bbced7a594cdce979a22"),
    (["ccg", "--family", "cr:5"],
     "de3b4f5b2bacea4f50eedf5d4971768c954f1f18fa5187e4edc43b1a67e38f05"),
    (["ccg", "--family", "cc:4"],
     "38a9bbc86a541b518354cfad7f868695c8df5c5c9743451202c26382de09417e"),
    (["ccg", "{};{1};{2};{1,2}", "--dot"],
     "24020ec5c8f746f6ea0346fc5516ee9c8659034ef4cb51c3ebd531a098a4f295"),
    (["grg", "--family", "cr:6"],
     "dc0cb4ce3237d4f39eb6583d397f8040147176d2c5cd7c6eb8559fe434b0c5fe"),
    (["grg", "--family", "cc:5"],
     "83c7562a3ecc8471a98c22b30d8550d1c81bbf8e424e86a3a196784a8387ec60"),
    (["grg", "--cf", GRAPH_CF4],
     "024f5b72fe93bf828182a39d6468fa4f8246838b490e49cf229c1c0c425a1f04"),
    (["grg", "--cf", '{"n": 2, "cf": [{"plus": [1]}, {"minus": [2]}]}'],
     "bad91446828e685fe96c2b8bd57e0ff1a23fb1dba9ad57b64e08b1cdd35e1516"),
    (["gr-complex", "--family", "cr:5"],
     "cf88d8ad6920522587de1a8993b31e1f987c3147ecbcf0cc61ffd19b8a3224ec"),
    (["gr-complex", "--cf", GRAPH_CF5],
     "4d623920af9b7bd72f463a21c4abc8d6b6e29065ec57f34124ee1128dc08348f"),
    # Recorded while gr_complex still branched on the minimal supports only.
    (["gr-complex", "--family", "cr:64"],
     "7884154b396972d077b63cbe628bdbf97970a8ed145b6c67c06a2a37980a76d8"),
]


@pytest.mark.parametrize("argv, expected", GRAPH_JSON_SHA256,
                         ids=[" ".join(argv) for argv, _ in GRAPH_JSON_SHA256])
def test_graph_json_byte_identical(capsys, argv, expected):
    status, out, _ = run(capsys, "graph", *argv, "--json")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# sha256 of the text-mode stdout of each command line, recorded while the
# CCG vertices, `Code.to_text` and the gr-complex facets line were still
# printed through a `Codeword` object per word.
TEXT_COVER = '{"kind": "intervals", "ambient": "union", "sets": [["0", "2"], ["1", "3"]]}'
TEXT_SHA256 = [
    (["cf", "{};{1,2};{2,3}"],
     "73aa6028ee05ad3d88d7ceaf2e18b2611d8afe29651bd1aabc499343f11448c8"),
    (["cf", "--family", "cr:5", "--oracle"],
     "7f9740e736b74e70582c0709ef061617ba7b15311edb014bd02ea3e4437acbe2"),
    (["graph", "ccg", "{1};{2};{1,3};{1,2,3}"],
     "107f62ff9e76a12886ea56564927df8b08afa4f368c5441222ec87c296289903"),
    (["graph", "ccg", "{};{1};{2};{1,2}", "--dot"],
     "77872849c6bce416598cdd5dff589e1c9e25aedf8a52142e853800d0ca5facf3"),
    (["graph", "ccg", "--family", "cr:5", "--dot"],
     "02760509dcbb5b0cc4f1962cf4d571b3800d69defaa2eb4001cd37862e23d2c0"),
    (["graph", "grg", "--family", "cr:6"],
     "45b9dcb2cb2349595d0275172d30ed2dee37cda8583076fa62461acd2eeb9f54"),
    (["graph", "grg", "--family", "cc:5", "--dot"],
     "15475b05479d31e6c2fb059accd4e4ee64a2d8b47b9dccc3bb1a20d65871149e"),
    (["graph", "gr-complex", "--family", "cr:5"],
     "20e1ef844c06dcca7676ed88fd289ec13e020708fa3660d6f302b2acfc00782b"),
    (["graph", "gr-complex", "--cf", GRAPH_CF5],
     "36d93561eac581b16bfeaa6523df961b94e3de4dc6efab3c0c2f4e7ff7829d53"),
    (["map", "--permute", "2,1,3", "{1};{2,3};{1,2}"],
     "ce021cea79eef7a1be21c76149a088c579400f8bee6b2f7e9c3416f3506efe3a"),
    (["map", "--add-on", "{};{1};{1,2}"],
     "184231d07777408858ab45ccbc28af4724ccc09c45279839d642256152d82071"),
    (["map", "--add-off", "{};{1};{1,2}"],
     "4ffd2f7240fba2756653746ce9d1c91443fb059762f127fd4e37aa2519a2f0cd"),
    (["map", "--duplicate", "1", "--family", "cc:3"],
     "b862fbc0d4e77d34a7d01e8633d7d09e9cc8de646cc12d28e68084c8989edebc"),
    (["map", "--delete", "3", "{1};{3};{1,2}"],
     "61b285f79d1b511e15d087d0b864b0345676d4b7213a7ef5e76b942942e4444a"),
    (["map", "--include", "{1};{2};{1,2}", "{1};{1,2}"],
     "d57db525a1734fe42efb7fe917a8748a3d297ceab6ec06e2d4bb3aead7fecdd8"),
    (["realize", TEXT_COVER, "--cf"],
     "111aa1142568667c185c9fb2ec275cafbd53eee32db6e137039f49e79145365f"),
    (["realize", "--family", "cc:4", "--cf"],
     "5fa40081451e4acc1262d2f70fa36722930465f0539b4f5f09733dc88b2265b1"),
    (["realize", "--family", "cr:4"],
     "74bcc769367801b50b97c6312aa90a591ef4fdd6bc5df20c770ac807054f406c"),
    (["family", "cc:4"],
     "a9e69cea564dd672ba5ecab11289dc2266779996a2571514646205545b46322c"),
    (["family", "cr:5"],
     "dab1ad3a49414d6a3cd7b46e00734af61fdd2366e2114c5b945dd16cc5fc0bb2"),
    (["verify", "complete-iso", "--n", "3"],
     "91e7e40d94e6668832520645384e74b13f22d85a31b382a1bd646678acc193ac"),
    # Recorded while every handler still built its text lines under --json too.
    (["verify", "parity", "--n", "3"],
     "9960c88e4adbf5e5215bbcd284094b2c6971666a9c33fc5ada12f6ece8d51f3f"),
    (["verify", "union-closure", "--n", "3"],
     "95f43d3ec091c6d5d2934f7dc1332ce13a1a5f92f073811f15f46b513fcd920d"),
    (["verify", "cf-theorems", "--n", "3", "--trials", "5"],
     "dbcfc0478c07f21136c26ef38d39ec4a4efc70a6ed5fbdeb64147a3403676ccf"),
    (["verify", "grg-families", "--max", "5"],
     "e1322a2645901632a88f15799c74002d0907b0febf08bae77e4c0f5ad63e9232"),
    (["verify", "realizations", "--max", "4", "--trials", "3"],
     "d5b1fc1052a5c0273e271b28d59b96d578b178dbc8d9e0fe06a1bf635187cc8a"),
    (["verify", "preserve-connected", "--n", "3", "--trials", "20"],
     "076c1357283cce5093074e58e08c5a78dbb80f5774c7e4ba113126ca42565dfd"),
    (["verify", "preserve-complete", "--n", "3", "--trials", "20"],
     "ae34200272fdca9d9543deaecf3e3200ecb795852842699caf1c837b425ef172"),
    # "4294967295 codes scanned, 0 violations" from the chordless-cycle
    # search, which runs in the calling process whatever --jobs says.
    (["verify", "parity", "--n", "5", "--exhaustive"],
     "9ba506f4fba8ef5ea5da979793f1269654ce61f79ca742614343cada052c6b89"),
    (["verify", "parity", "--n", "5", "--exhaustive", "--jobs", "2"],
     "9ba506f4fba8ef5ea5da979793f1269654ce61f79ca742614343cada052c6b89"),
]


@pytest.mark.parametrize("argv, expected", TEXT_SHA256,
                         ids=[" ".join(argv) for argv, _ in TEXT_SHA256])
def test_text_output_byte_identical(capsys, argv, expected):
    status, out, _ = run(capsys, *argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_text_mode_builds_no_json_outputs(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a JSON output was built for a text report")
    monkeypatch.setattr(Code, "to_json_obj", refuse)
    monkeypatch.setattr(CanonicalForm, "to_json_obj", refuse)
    for name in ("graph_to_json_obj", "complex_to_json_obj", "cover_to_json_obj"):
        monkeypatch.setattr(cli, name, refuse)
    for argv, _ in TEXT_SHA256:
        if argv[0] != "verify":
            assert run(capsys, *argv)[0] == 0, argv


def cf_json(n, *elements):
    return {"n": n, "cf": [{"plus": plus, "minus": minus} for plus, minus in elements]}


# Each canonical-form cross-check of a command, made to fail by patching the
# function that computes one side to return the canonical form of `{}`:
# (patched name, command line, text verdict line, the report's checks[0]).
WRONG_CF = cf_json(1, ([1], []))
FAILING_CROSS_CHECKS = [
    ("canonical_form_oracle", ["cf", "{};{1,2};{2,3}", "--oracle"],
     "oracle agreement: FAIL",
     {"name": "oracle-agreement", "passed": False,
      "detail": "3^n vanishing sweep vs incremental fold",
      "counterexample": {
          "incremental": cf_json(3, ([1], [2]), ([3], [2]), ([1, 3], []), ([2], [1, 3])),
          "oracle": WRONG_CF}}),
    ("predict_cf", ["map", "--permute", "2,1,3", "{1};{2,3};{1,2}"],
     "prediction matches computed: FAIL",
     {"name": "cf-prediction", "passed": False,
      "detail": "transformation rule vs canonical form of the image",
      "counterexample": {
          "code": "{1};{1,2};{2,3}", "map": "permute(2,1,3)", "predicted": WRONG_CF,
          "computed": cf_json(3, ([], [1, 2]), ([], [2, 3]), ([3], [1]), ([2, 3], []))}}),
    ("_cf_of_realized", ["realize", TEXT_COVER, "--cf"],
     "matches canonical form of realized code: FAIL",
     {"name": "cover-cf-theorem", "passed": False,
      "detail": "canonical form from geometry vs from the realized code",
      "counterexample": {"geometric": WRONG_CF, "algebraic": cf_json(2, ([], [1, 2]))}}),
]


@pytest.mark.parametrize("patched, argv, verdict, check", FAILING_CROSS_CHECKS,
                         ids=[argv[0] for _, argv, _, _ in FAILING_CROSS_CHECKS])
def test_failing_cross_check_reports_counterexample(capsys, monkeypatch, patched, argv,
                                                    verdict, check):
    wrong = CanonicalForm.from_json_obj(WRONG_CF)
    monkeypatch.setattr(cli, patched, lambda *_: wrong)
    status, out, _ = run(capsys, *argv)
    assert status == 1
    assert verdict in out.splitlines()
    status, out, _ = run(capsys, *argv, "--json")
    assert status == 1
    assert json.loads(out)["checks"] == [check]


# sha256 of the `--json` stdout of each command line, recorded while every
# handler still built its JSON outputs in text mode too.
JSON_SHA256 = [
    (["cf", "{};{1,2};{2,3}"],
     "da0eadf2815946bd729d23a549ddfd11cff99585026009cd31f45d1d95ad47fc"),
    (["cf", "--family", "cr:5", "--oracle"],
     "7ad46bf96c90c79061721fc220413a416bfe163e43ae20408abf5e6de641871c"),
    (["map", "--permute", "2,1,3", "{1};{2,3};{1,2}"],
     "be0021cf535c15cecf3c861649c99670c393db5ba9e5fc262515b401d11ef3e5"),
    (["map", "--duplicate", "1", "--family", "cc:3"],
     "8edd17b50b4d60dfa603bd511b61231ad098913bb6dda11062cc37df395a9b64"),
    (["map", "--include", "{1};{2};{1,2}", "{1};{1,2}"],
     "a74ad717397d13fedeaa7306fa70629c27fcc8450ec323e4793217065d527c45"),
    (["realize", TEXT_COVER, "--cf"],
     "eb88c06fa7ef95fac2213035eb539365fa0142e275a87736a45fab0e17d5e872"),
    (["realize", "--family", "cr:4"],
     "9a8756746d61ab968dc96af3adc0dba8b2e21a73973ed25524fc5ef842b52708"),
    (["family", "cc:4"],
     "f903e7b4bf7c4d7985f98b4dddc243f350eec3fb1be11c308e91bf4a59c4c3f8"),
]


@pytest.mark.parametrize("argv, expected", JSON_SHA256,
                         ids=[" ".join(argv) for argv, _ in JSON_SHA256])
def test_json_output_byte_identical(capsys, argv, expected):
    status, out, _ = run(capsys, *argv, "--json")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_text_builder_value_error_exits_2(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("text builder failed")

    monkeypatch.setattr(cli, "_cf_lines", broken)
    status, out, err = run(capsys, "cf", "{};{1,2};{2,3}")
    assert (status, out, err) == (2, "", "error: text builder failed\n")


@pytest.mark.parametrize("argv", [["cf", "--family", "cr:64", "--json"],
                                  ["cf", "--family", "cr:64"]], ids=["json", "text"])
def test_closed_stdout_exits_with_check_status(argv):
    # The reader goes away before the first write, as `| head -c 10` does
    # on a report larger than the pipe buffer.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "neurocode.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


# Modules that only some commands need, or that nothing needs at run time:
# `import neurocode.cli` must not load them, so every command starts without
# paying for them. PYTHONPATH points at the checkout's `src`.
LEAN_IMPORT_CHECK = (
    "import sys; before = set(sys.modules); import neurocode.cli; "
    "heavy = {'dataclasses', 'typing', 'inspect', 'concurrent.futures.process', "
    "'multiprocessing', 'subprocess', 'pickle'} & (set(sys.modules) - before); "
    "sys.exit(f'import neurocode.cli loaded {sorted(heavy)}' if heavy else 0)")


def test_cli_import_loads_no_heavy_module():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", LEAN_IMPORT_CHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


# Each command line gives inputs that cannot both apply; it must exit 2 with
# a message naming them, not drop one of them and exit 0.
REJECTED_CONFLICTS = [
    (["graph", "ccg", "{1};{2}", "--cf", "{}"], ["--cf", "ccg"]),
    (["graph", "grg", "{1}", "--cf", '{"n":3,"cf":[]}'], ["code argument", "--cf"]),
    (["graph", "gr-complex", "--family", "cr:4", "--cf", '{"n":3,"cf":[]}'],
     ["--family", "--cf"]),
    (["graph", "gr-complex", "--family", "cr:4", "--dot"], ["--dot", "gr-complex"]),
    (["cf", "{1}", "--family", "cc:3"], ["code argument", "--family"]),
    (["map", "--add-on", "{1}", "--family", "cc:3"], ["code argument", "--family"]),
    (["realize", '{"kind":"intervals","sets":[[0,1]]}', "--family", "cc:3"],
     ["cover JSON", "--family"]),
]


@pytest.mark.parametrize("argv, needles", REJECTED_CONFLICTS,
                         ids=[" ".join(argv) for argv, _ in REJECTED_CONFLICTS])
def test_rejects_conflicting_inputs(capsys, argv, needles):
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    for needle in needles:
        assert needle in err


# Each command line has one malformed or out-of-range input; it must exit 2
# with a message naming it and print nothing to stdout.
REJECTED_INPUT = [
    (["family", "cc:abc"], "bad family 'cc:abc'"),
    (["map", "--permute", "1,x", "{1}"], "bad permutation '1,x'"),
    # int() reads each of these; the grammar takes ASCII digits only
    (["cf", "{1_0}"], "bad codeword token '{1_0}'"),
    (["cf", "{+1}"], "bad codeword token '{+1}'"),
    (["cf", "\u0661\u0662"], "bad codeword token '\u0661\u0662'"),
    (["cf", "\u00b2"], "bad codeword token '\u00b2'"),
    (["family", "cc:1_0"], "bad family 'cc:1_0'"),
    (["family", "cr:\u0664"], "bad family 'cr:\u0664'"),
    (["map", "--permute", "2,+1", "{1};{2}"], "bad permutation '2,+1'"),
    (["cf", "{1,,2}"], "bad codeword token '{1,,2}'"),
    (["cf", "{1 2}"], "bad codeword token '{1 2}'"),
    (["cf", "{,}"], "bad codeword token '{,}'"),
    # int() reads each of these too; every integer flag takes ASCII digits
    # after an optional '-'
    (["verify", "parity", "--n", "\u0663"], "argument --n: not a decimal integer: '\u0663'"),
    (["verify", "cf-theorems", "--trials", "1_0"],
     "argument --trials: not a decimal integer: '1_0'"),
    (["verify", "parity", "--seed", "1_7"], "argument --seed: not a decimal integer: '1_7'"),
    (["verify", "grg-families", "--max", "+5"], "argument --max: not a decimal integer: '+5'"),
    (["verify", "parity", "--sample", "\uff13"],
     "argument --sample: not a decimal integer: '\uff13'"),
    (["verify", "parity", "--jobs", "2.0"], "argument --jobs: not a decimal integer: '2.0'"),
    (["map", "--delete", "1_0", "n=12;{1}"], "argument --delete: not a decimal integer: '1_0'"),
    (["map", "--duplicate", "+1", "{1}"], "argument --duplicate: not a decimal integer: '+1'"),
    # a minus sign reads, and the value meets its own range check
    (["family", "cc:-3"], "chain family needs m >= 1, got -3"),
    (["map", "--permute", "2,-1", "{1};{2}"],
     "permutation must be a bijection on 1..2, got (2, -1)"),
    (["map", "--delete", "-1", "{1}"], "delete index -1 out of range 1..1"),
    (["realize", "{"], "bad cover JSON: Expecting property name"),
    (["realize"], "no input cover: pass cover JSON or --family"),
    (["cf", "{65}"], "neuron index 65 exceeds the cap of 64"),
    (["cf", "n=0;{}"], "neuron count must be in 1..64, got 0"),
    (["cf", "n=65;{1}"], "neuron count must be in 1..64, got 65"),
    (["cf", "--oracle", "n=13;{13}"], "n=13 exceeds the cap of 12"),
    (["realize", json.dumps({"kind": "intervals", "sets": [[i, i + 1] for i in range(13)]}),
      "--cf"], "cover has 13 sets; the subset sweep is capped at 12"),
    (["graph", "grg", "--cf", "[]"], 'bad canonical form JSON: expected {"n": ..., "cf": [...]}'),
    (["realize", "[]"], 'bad cover JSON: expected {"kind": ..., "sets": [...]}'),
    (["realize", '{"kind":"intervals","ambient":"plane","sets":[[0,1]]}'],
     "ambient must be 'line' or 'union'"),
    (["realize", '{"kind":"segments","sets":[]}'], "a cover needs at least one segment"),
    # Fraction would build 10**k for an exponent k before any check
    (["realize", '{"kind":"intervals","sets":[["0","1e3"],["1","2"]]}'],
     "exponents are not allowed in a rational, got '1e3'"),
    (["realize", '{"kind":"intervals","sets":[["1E-2","1"]]}'],
     "exponents are not allowed in a rational, got '1E-2'"),
    (["realize", '{"kind":"segments","sets":[[["0","0"],["1","1e999999999"]]]}'],
     "exponents are not allowed in a rational, got '1e999999999'"),
    # Fraction reads "1_0" from Python 3.11 on, "2 / 3" from 3.12 on and
    # non-ASCII digits on every version; the cover grammar reads none of them
    (["realize", '{"kind":"intervals","sets":[["0","1_0"]]}'],
     "a rational is ASCII digits as p, p/q or a decimal, got '1_0'"),
    (["realize", '{"kind":"intervals","sets":[["0","2 / 3"]]}'],
     "a rational is ASCII digits as p, p/q or a decimal, got '2 / 3'"),
    (["realize", '{"kind":"intervals","sets":[["0","\u0661\u0660"]]}'],
     "a rational is ASCII digits as p, p/q or a decimal, got '\u0661\u0660'"),
    (["realize", '{"kind":"segments","sets":[[["0","0"],["1","\uff13"]]]}'],
     "a rational is ASCII digits as p, p/q or a decimal, got '\uff13'"),
    (["realize", '{"kind":"segments","ambient":"line","sets":[[[0,0],[1,1]]]}'],
     "segment covers only support the union stimulus space"),
]


@pytest.mark.parametrize("argv, needle", REJECTED_INPUT,
                         ids=[" ".join(argv) for argv, _ in REJECTED_INPUT])
def test_rejects_bad_input(capsys, argv, needle):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert needle in err


# Each command line has one bad input of about 60-120 KB; the message echoes
# the start of it, so stderr stays under 1 KB whatever the input's size.
LONG_INPUT = [
    (["realize", json.dumps({"kind": "intervals", "sets": [[0] * 20000]})],
     "bad cover JSON: expected a list of pairs, got [[0, 0, "),
    (["realize", json.dumps({"kind": "intervals", "sets": [["0", "x" * 100000]]})],
     "a rational is ASCII digits as p, p/q or a decimal, got 'xxx"),
    (["realize", json.dumps({"kind": "k" * 100000, "sets": []})], "unknown cover kind 'kkk"),
    (["graph", "grg", "--cf", json.dumps({"n": 3, "cf": [{"plus": [1] * 20000 + [None]}]})],
     "bad canonical form JSON: element {'plus': [1, 1, "),
    (["graph", "grg", "--cf", json.dumps({"n": 3, "cf": [[[[]]] * 20000]})],
     "bad canonical form JSON: element [[[]], [[]], "),
    (["graph", "grg", "--cf", '{"n": 3, "cf": [' + "[" * 900 + "]" * 900 + "]}"],
     "bad canonical form JSON: element [[[["),
    (["graph", "grg", "--cf", json.dumps({"n": [0] * 30000, "cf": []})],
     "n must be an integer in 1..64, got [0, 0, "),
    (["cf", "{" + "1," * 50000 + "x}"], "bad codeword token '{1,1,"),
    (["cf", "x" * 100000], "bad codeword token 'xxx"),
    (["family", "cc:" + "x" * 100000], "bad family 'cc:xxx"),
    (["family", "x" * 100000 + ":3"], "unknown family 'xxx"),
    (["map", "--permute", "1," * 50000 + "x", "{1}"], "bad permutation '1,1,"),
    (["map", "--permute", "1," * 40000 + "1", "{1}"],
     "permutation must be a bijection on 1..1, got (1, 1, "),
    (["verify", "parity", "--n", "x" * 100000], "argument --n: not a decimal integer: 'xxx"),
    (["verify", "p" * 100000], "unknown suite 'ppp"),
]


@pytest.mark.parametrize("argv, needle", LONG_INPUT,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(LONG_INPUT)])
def test_long_bad_input_gives_a_short_message(capsys, argv, needle):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert needle in err
    assert len(err.encode()) < 1024


# A JSON document nested deeper than the decoder's recursion limit is bad
# input like any other: exit 2 with a message, not 1 with a traceback. The
# limit is near depth 1000 up to Python 3.12 and near 20000 on 3.13; 50000
# levels are 100 KB, under Linux's 128 KB limit on one argument.
DEEP_JSON = "[" * 50000 + "]" * 50000


@pytest.mark.parametrize("argv, needle", [(["graph", "grg", "--cf"], "bad --cf JSON"),
                                          (["realize"], "bad cover JSON")],
                         ids=["graph", "realize"])
def test_deeply_nested_json_exits_2(argv, needle):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "neurocode.cli", *argv, DEEP_JSON], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr


def test_int_flag_reads_surrounding_whitespace(capsys):
    spaced = run(capsys, "verify", "parity", "--n", " 3 ")
    assert spaced == run(capsys, "verify", "parity", "--n", "3")


class TestMap:
    def test_delete_prediction(self, capsys):
        status, out, _ = run(capsys, "map", "--delete", "3", "{1};{3};{1,2}")
        assert status == 0
        assert "image: {};{1};{1,2}" in out
        assert "prediction matches computed: PASS" in out

    def test_duplicate_family(self, capsys):
        status, out, _ = run(capsys, "map", "--duplicate", "1", "--family", "cc:3")
        assert status == 0
        assert "PASS" in out

    def test_permute(self, capsys):
        status, out, _ = run(capsys, "map", "--permute", "2,1", "{1};{1,2}")
        assert status == 0
        assert "image: {2};{1,2}" in out

    def test_inclusion_unsupported_prediction(self, capsys):
        status, out, _ = run(capsys, "map", "--include", "{1};{2};{1,2}", "{1};{1,2}")
        assert status == 0
        assert "unsupported for inclusion maps" in out

    def test_requires_exactly_one_map(self, capsys):
        status, _, err = run(capsys, "map", "{1}")
        assert status == 2

    def test_bad_spec_exits_2(self, capsys):
        status, _, err = run(capsys, "map", "--delete", "5", "{1};{1,2}")
        assert status == 2


def test_oversize_family_exits_2_before_building_masks(capsys):
    for argv, n in [(["family", "cc:1000000"], 999999),
                    (["family", "cr:1000000"], 1000000),
                    (["graph", "ccg", "--family", "cc:1000000"], 999999),
                    (["cf", "--family", "cr:1000000"], 1000000)]:
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert f"neuron count must be in 1..64, got {n}" in err


def test_gr_complex_search_exits_2_past_its_limit(capsys):
    # n/2 disjoint supports x_{2i-1}x_{2i}: 2^(n/2) facets
    cf = json.dumps({"n": 32, "cf": [{"plus": [2 * i + 1, 2 * i + 2], "minus": []}
                                     for i in range(16)]})
    start = time.perf_counter()
    status, out, err = run(capsys, "graph", "gr-complex", "--cf", cf)
    assert time.perf_counter() - start < 2
    assert (status, out) == (2, "")
    assert f"facet search passed {GR_COMPLEX_MAX_VISITS} neuron sets" in err


def test_cf_fold_exits_2_past_its_work_limit(capsys):
    # 64 random words on n=14 need 31.8M units of work, about 1.6 times the
    # limit; without the limit the fold takes about 0.2 s (2 vCPUs, Python
    # 3.11) and prints a form of 9328 elements
    rng = random.Random(14)
    words = ";".join("{%s}" % ",".join(str(i + 1) for i in range(14) if w >> i & 1)
                     for w in rng.sample(range(1 << 14), 64))
    start = time.perf_counter()
    status, out, err = run(capsys, "cf", f"n=14\n{words}")
    assert time.perf_counter() - start < 5
    assert (status, out) == (2, "")
    assert f"fold passed {CF_MAX_WORK} units of work" in err


class TestRealize:
    def test_family_intervals(self, capsys):
        status, out, _ = run(capsys, "realize", "--family", "cc:4")
        assert status == 0
        assert out.splitlines()[0] == "{};{1};{1,2};{1,2,3}"

    def test_family_polygon(self, capsys):
        status, out, _ = run(capsys, "realize", "--family", "cr:4")
        assert status == 0
        assert out.splitlines()[0] == "{1};{2};{3};{4};{1,2};{2,3};{1,4};{3,4}"

    def test_cover_json_with_cf(self, capsys):
        cover = json.dumps({"kind": "intervals", "ambient": "union",
                            "sets": [["0", "2"], ["1", "3"]]})
        status, out, _ = run(capsys, "realize", cover, "--cf")
        assert status == 0
        assert out.splitlines()[0] == "{1};{2};{1,2}"
        assert "matches canonical form of realized code: PASS" in out

    def test_cf_on_segments_rejected(self, capsys):
        cover = json.dumps({"kind": "segments", "sets":
                            [[["0", "0"], ["1", "1"]], [["0", "1"], ["1", "0"]]]})
        status, _, err = run(capsys, "realize", cover, "--cf")
        assert status == 2

    def test_oversize_family_exits_2_at_once(self, capsys):
        status, out, err = run(capsys, "realize", "--family", "cc:1000000")
        assert (status, out) == (2, "")
        assert "m <= 65, got 1000000" in err

    def test_oversize_cover_json_exits_2(self, capsys):
        cover = json.dumps({"kind": "segments",
                            "sets": [[[i, 0], [i, 1]] for i in range(65)]})
        status, out, err = run(capsys, "realize", cover)
        assert (status, out) == (2, "")
        assert "bad cover JSON: cover has 65 sets; at most 64" in err


# Each cover document must exit 2 with a message, not a traceback or a
# cover read from ill-typed values.
REJECTED_COVER_JSON = [
    '{"kind": "intervals", "sets": 5}',
    '{"kind": "intervals", "sets": [[true, 2]]}',
    '{"kind": "segments", "sets": [[[true, 0], ["2", "2"]]]}',
    '{"kind": "segments", "sets": [[5, ["1", "1"]]]}',
    '{"kind": "intervals", "sets": [["1/0", "2"]]}',
]


@pytest.mark.parametrize("cover_json", REJECTED_COVER_JSON)
def test_realize_rejects_bad_cover_json(capsys, cover_json):
    status, out, err = run(capsys, "realize", cover_json)
    assert status == 2
    assert out == ""
    assert "bad cover JSON: " in err


class TestVerify:
    def test_parity_small(self, capsys):
        status, out, _ = run(capsys, "verify", "parity", "--n", "3", "--exhaustive")
        assert status == 0
        assert "[PASS] parity-n3: 255 codes scanned, 0 violations" in out

    def test_unknown_suite(self, capsys):
        status, _, err = run(capsys, "verify", "nonsense")
        assert status == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        def broken_suite(**kwargs):
            return SuiteResult("broken", {}, [Check(
                "always-fails", False, "synthetic",
                {"code": "{1}", "rerun": "neurocode cf '{1}'"})])
        monkeypatch.setitem(SUITES, "broken", broken_suite)
        status, out, _ = run(capsys, "verify", "broken")
        assert status == 1
        assert "[FAIL] always-fails" in out
        assert "counterexample" in out

    def test_grg_families(self, capsys):
        status, out, _ = run(capsys, "verify", "grg-families", "--max", "6")
        assert status == 0
        assert "chain-grg-disconnected" in out and "cycle-grg-2regular" in out

    def test_sweep_suite_resolves_exhaustive(self):
        assert parity_suite(n=2).params["exhaustive"] is True
        sampled = parity_suite(n=5, sample=20)
        assert sampled.params["exhaustive"] is False
        assert sampled.checks[0].detail == "20 codes scanned, 0 violations"
        forced = union_closure_suite(n=2, exhaustive=True, sample=5)
        assert forced.checks[0].detail == "15 codes scanned, 0 violations"


# sha256 of the `verify ... --json` stdout of each command line, recorded
# while the CLI still kept its own copy of every suite default. Moving the
# defaults into the suites must not change a byte of any report.
VERIFY_JSON_SHA256 = [
    (["parity"],
     "c2f306c4ed2283ef76e05553489d68109eb4ef035501f6cb005ff8fcde43543e"),
    (["union-closure"],
     "85d1f2edebf8803bcb3ecadf8048ec254bba60f217574ced6a8dcd10b0c06d3a"),
    (["preserve-connected"],
     "1d770909956a377766401533e4c249b5f47b6bb049442f18ba33290ad247ce41"),
    (["preserve-complete"],
     "36d4620dbe2851546bb5fc6a2cd6e736f1f0827fa4d59e8e4cd3231bbc5b140d"),
    (["complete-iso"],
     "c50f230f28479a32bf7529dcbe177206b5b65ccf50be56bec33a5115788451a1"),
    (["cf-theorems"],
     "4a12da0922bec5899f709037ec3ae45d9bcf44aadf40de28af95f6a9c583af9d"),
    (["grg-families"],
     "cf4cd66dc46c926c6ce24ac15ef5cc283abb7b71f6e4568afe38a95e708e1416"),
    (["realizations"],
     "af6b97e3e8675d0b529b01941f8ac51738f54d834838deb3adfb6eac072d140a"),
    (["parity", "--n", "2"],
     "093bd69f7e668593b23d02dd6f739ca6798282c3ce4962eb4813031144fd1694"),
    (["parity", "--n", "3", "--exhaustive"],
     "db3e24692589405b825efeefa833d062fa8d5d577d520b558f7b49b74b0d138e"),
    (["parity", "--sample", "40", "--seed", "5"],
     "79dfa511d5ee89488498dfc6a07fcc196e66544eb6fd0aacc370581d49064f97"),
    (["parity", "--exhaustive", "--sample", "40"],
     "a2e1a1d061d94c2e89ac14ba21f374b861b32f12bf2dd3e53108525e35d5486c"),
    (["parity", "--n", "5", "--sample", "20"],
     "1539faa9acecbf3ca4d402c75bc2daba383adbd9e60267353db727ec08d06e80"),
    (["parity", "--n", "2", "--jobs", "2"],
     "9ce3b19abd5ce9a0212e85996d881ca791573304651bbc18b3ff76426a8ce2be"),
    (["union-closure", "--n", "4", "--sample", "30", "--seed", "3"],
     "41b69c46b8b6c425afe22cf2dfa88663b6169ead3af18872a5806c37f104a2b3"),
    (["union-closure", "--n", "2", "--exhaustive", "--jobs", "1"],
     "119ef48b05fbd3316813e1fa19d8470cafd2cf08cde5c024c6904727e3a555b1"),
    (["preserve-connected", "--trials", "30", "--seed", "3", "--n", "4"],
     "ccb089ab6a6ded212949e1e1b69284dc1cab823646acf7e30231e7143577fcdc"),
    (["preserve-complete", "--trials", "30", "--seed", "4", "--n", "3"],
     "eae801d35a513f83eab42b92d2aab105af923691bc4b8fa57e8bfd2a4948b118"),
    (["complete-iso", "--n", "3"],
     "500aa9e566b18c6be1a1a594370a11f2c6bece3be5626260db2256e4ebb9a14d"),
    (["cf-theorems", "--trials", "5", "--seed", "11", "--n", "4"],
     "a6025e209395185dcd06795a624505bbf82cfb28c0ed307c0123742b2358241f"),
    (["cf-theorems", "--n", "2"],
     "4281ba8d7925ec51205a9283e823da7822b5349929c2965b95ade88199ae340d"),
    (["grg-families", "--max", "5"],
     "6c61d22fa3732f47794223747b58e9d41312fe09f9e8af0da7723543d3911343"),
    (["realizations", "--max", "4"],
     "10e521bbb490caa52a4bb1600c6f8c23842b98471a751d0460b81d5545210555"),
    (["realizations", "--max", "5", "--trials", "7", "--seed", "2"],
     "592b67caa1a3f17f2828b371c5d4d3be4acc931f0f98e3efe0a81e6039d23931"),
    # Recorded while exhaustive sweeps still tested every code and split
    # index ranges between workers.
    (["parity", "--n", "4", "--exhaustive", "--jobs", "2"],
     "0303877825ed36fb74884620273378350445067ba800587f0ff95492e137c2cb"),
    (["union-closure", "--n", "4", "--jobs", "2"],
     "00a5cfb571972894599286befae9f6d137a5be62829cff6016880a705b799d07"),
    (["union-closure", "--n", "3", "--jobs", "2"],
     "7707d524a347a8b9565929278e8f55f51d20852511f524a85aebd323b63d1c64"),
    # Recorded while sampled sweeps still ran in one process whatever
    # --jobs said.
    (["parity", "--n", "5", "--sample", "2000", "--jobs", "2"],
     "f767da293575c5ffdfc1b20f6f47f9c7e47a81d8d55c5d146d0e4cf5149810d9"),
    (["union-closure", "--n", "5", "--sample", "500", "--seed", "3", "--jobs", "2"],
     "8c278ce1479f59a96c26ab56c9604f8aef6cc786b5d6e5a256df7755cf278f8b"),
    # Recorded while union_closure_condition still tested every codeword
    # pair against every facet and diameter ran a search from every vertex.
    (["union-closure", "--n", "8", "--sample", "200", "--seed", "11"],
     "031b973d814dff26569eb3f2c0eba4dad469db891ff3267dfa8a431a22ea7455"),
    (["union-closure", "--n", "6", "--sample", "1000", "--seed", "2", "--jobs", "2"],
     "ca10de5a4c38f588ccdccdec8beff433db199d335d481b1fdecc6e41ad01caa2"),
    # Recorded while sweeps still built a Code and a CodeGraph for every
    # code they tested.
    (["parity", "--n", "8", "--sample", "2000", "--seed", "11"],
     "760bbe250e685d85d9828827c0dfcfebe519082d53f6a21291ecb4b6f5095d43"),
    (["parity", "--n", "6", "--sample", "5000", "--seed", "4", "--jobs", "2"],
     "5fb1b57e3423d20fb68dd2969d3c74a0d5bad5b164204611dd103261224e504a"),
    # The exhaustive n=5 report.
    (["parity", "--n", "5", "--exhaustive"],
     "d22ea4be426df72a8e341540d96bcfc265441d3450f20711ee93bde82f1b1b3f"),
    # Recorded while grg still minimized the supports and scanned them for
    # every neuron pair.
    (["grg-families", "--max", "64"],
     "fe2f0c10624dd069537579da8672da445a52e9fc19f76b3c9fef1e0d68281f8b"),
]


@pytest.mark.parametrize("argv, expected", VERIFY_JSON_SHA256,
                         ids=[" ".join(argv) for argv, _ in VERIFY_JSON_SHA256])
def test_verify_json_byte_identical(capsys, argv, expected):
    status, out, _ = run(capsys, "verify", *argv, "--json")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# Each command line must exit 2 with a message that names the offending
# flag and, for a bound, the suite parameter it set.
REJECTED_VERIFY = [
    (["parity", "--n", "0"], ["--n 0", "n must be at least 1"]),
    (["parity", "--sample", "0"], ["--sample 0", "sample must be at least 1"]),
    (["parity", "--sample", "1000001"],
     ["--sample 1000001", "sample must be at most 1000000"]),
    (["parity", "--jobs", "0"], ["--jobs 0", "jobs must be at least 1"]),
    (["union-closure", "--jobs", "-3"], ["--jobs -3", "jobs must be at least 1"]),
    (["parity", "--jobs", "65"], ["jobs must be at most 64, got 65 (from --jobs 65)"]),
    (["union-closure", "--n", "9", "--sample", "5"], ["--n 9", "capped at n=8"]),
    (["parity", "--n", "6", "--exhaustive"], ["--n 6", "capped at n=5"]),
    (["union-closure", "--n", "5", "--exhaustive"], ["--n 5", "capped at n=4"]),
    (["preserve-connected", "--trials", "0"], ["--trials 0", "trials must be at least 1"]),
    (["preserve-complete", "--n", "0"], ["--n 0", "max_n must be at least 1"]),
    (["complete-iso", "--n", "0"], ["--n 0", "max_n must be at least 1"]),
    (["cf-theorems", "--trials", "0"], ["--trials 0", "trials must be at least 1"]),
    (["cf-theorems", "--trials", "-5"], ["--trials -5", "trials must be at least 1"]),
    (["cf-theorems", "--n", "1"], ["--n 1", "max_n must be at least 2"]),
    (["grg-families", "--max", "2"], ["--max 2", "max_m must be at least 3"]),
    (["grg-families", "--max", "3"], ["--max 3", "max_k must be at least 4"]),
    (["grg-families", "--max", "65"], ["max_k must be at most 64, got 65 (from --max 65)"]),
    (["realizations", "--max", "2"], ["--max 2", "max_family must be at least 3"]),
    (["realizations", "--max", "65"],
     ["max_family must be at most 64, got 65 (from --max 65)"]),
    (["realizations", "--trials", "0"],
     ["--trials 0", "random_covers must be at least 1"]),
    (["parity", "--max", "4"], ["--max does not apply"]),
    (["grg-families", "--trials", "5"], ["--trials does not apply"]),
    (["complete-iso", "--seed", "3"], ["--seed does not apply"]),
    (["cf-theorems", "--jobs", "2"], ["--jobs does not apply"]),
    (["realizations", "--exhaustive"], ["--exhaustive does not apply"]),
]


@pytest.mark.parametrize("argv, needles", REJECTED_VERIFY,
                         ids=[" ".join(argv) for argv, _ in REJECTED_VERIFY])
def test_verify_rejects_bad_input(capsys, argv, needles):
    status, out, err = run(capsys, "verify", *argv)
    assert status == 2
    assert out == ""
    for needle in needles:
        assert needle in err


class CodeDrawn(Exception):
    pass


# suite, its largest --n, and the generator whose cost explodes above it
VERIFY_N_CAPS = [
    ("complete-iso", 6, "_all_chain_codes"),
    ("preserve-connected", 11, "_random_code"),
    ("preserve-complete", 63, "_random_chain_code"),
    ("cf-theorems", 9, "_random_code"),
]


@pytest.mark.parametrize("suite, cap, generator", VERIFY_N_CAPS,
                         ids=[suite for suite, _, _ in VERIFY_N_CAPS])
def test_verify_n_above_cap_exits_2_before_drawing(capsys, monkeypatch, suite, cap, generator):
    def drawn(*args):
        raise CodeDrawn(generator)

    monkeypatch.setattr(verify, generator, drawn)
    with pytest.raises(CodeDrawn):
        cli.main(["verify", suite, "--n", str(cap)])

    def forbidden(*args):
        pytest.fail(f"verify {suite} --n {cap + 1} called {generator}")

    monkeypatch.setattr(verify, generator, forbidden)
    status, out, err = run(capsys, "verify", suite, "--n", str(cap + 1))
    assert status == 2
    assert out == ""
    assert f"max_n must be at most {cap}, got {cap + 1} (from --n {cap + 1})" in err


def test_verify_reads_parameters_through_a_wrapped_suite(capsys, monkeypatch):
    # A span tracer replaces each suite with a functools.wraps wrapper that
    # takes *args and **kwargs; the flags must still reach the suite's own
    # parameters.
    suite = SUITES["cf-theorems"]

    @functools.wraps(suite)
    def traced(*args, **kwargs):
        return suite(*args, **kwargs)

    monkeypatch.setitem(SUITES, "cf-theorems", traced)
    status, out, err = run(capsys, "verify", "cf-theorems", "--n", "3", "--trials", "2", "--json")
    assert (status, err) == (0, "")
    report = json.loads(out)
    assert report["outputs"] == {"suite": "cf-theorems",
                                 "params": {"trials": 2, "seed": DEFAULT_SEED, "max_n": 3}}
    assert report["checks"]
    assert all(c["detail"].startswith("2 trials, ") for c in report["checks"])


# Both draw an inclusion map on 63 neurons, whose extra words
# rng.sample(range(1 << 63), ...) could not draw: len() of that range
# overflows.
@pytest.mark.parametrize("argv", [["--n", "63"], ["--n", "63", "--trials", "1", "--seed", "52"]],
                         ids=["default trials", "seed 52"])
def test_preserve_complete_runs_at_its_cap(capsys, argv):
    status, out, err = run(capsys, "verify", "preserve-complete", *argv, "--json")
    assert (status, err) == (0, "")
    (check,) = json.loads(out)["checks"]
    assert check["passed"] and check["detail"].endswith(", 0 violations")


# Pairs of command lines where the first sets a flag or input that the
# second leaves out, so a parser that kept state between calls would show.
PARSER_STATE_ARGV = [
    ["graph", "ccg", "{1};{1,2};{2}", "--dot"],
    ["graph", "ccg", "{1};{1,2};{2}"],
    ["cf", "--family", "cr:4", "--oracle"],
    ["cf", "--family", "cr:4"],
    ["cf", "{1};{2}"],
    ["graph", "grg", "--cf", GRAPH_CF4],
    ["graph", "grg", "--family", "cr:5"],
    ["map", "--duplicate", "1", "n=2;{1};{1,2}"],
    ["map", "--permute", "2,1", "n=2;{1};{1,2}"],
    ["map", "n=2;{1}"],
    ["realize", "--family", "cc:4", "--cf"],
    ["realize", "--family", "cc:4"],
    ["verify", "parity", "--n", "3", "--jobs", "2"],
    ["verify", "parity", "--n", "3"],
]


def test_cached_parser_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    forward = {tuple(argv): run(capsys, *argv, "--json")[:2] for argv in PARSER_STATE_ARGV}
    backward = {tuple(argv): run(capsys, *argv, "--json")[:2]
                for argv in reversed(PARSER_STATE_ARGV)}
    assert forward == backward
    assert [forward[tuple(argv)][0] for argv in PARSER_STATE_ARGV] == [0] * 9 + [2] + [0] * 4


class TestJsonReports:
    def test_schema_and_determinism(self, capsys):
        status1, out1, _ = run(capsys, "cf", "--family", "cc:4", "--json")
        status2, out2, _ = run(capsys, "cf", "--family", "cc:4", "--json")
        assert status1 == status2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert set(report) == {"command", "input_digest", "outputs", "checks"}
        assert report["command"] == ["cf", "--family", "cc:4", "--json"]
        assert report["input_digest"].startswith("sha256:")
        assert report["outputs"]["cf"]["n"] == 3

    def test_verify_json_checks(self, capsys):
        status, out, _ = run(capsys, "verify", "parity", "--n", "3", "--json")
        report = json.loads(out)
        assert report["checks"][0]["name"] == "parity-n3"
        assert report["checks"][0]["passed"] is True

    def test_map_json(self, capsys):
        status, out, _ = run(capsys, "map", "--add-on", "{1};{1,2}", "--json")
        report = json.loads(out)
        assert report["outputs"]["map"] == "add-trivial-on"
        assert report["checks"][0]["name"] == "cf-prediction"

    def test_graph_json_edges_sorted(self, capsys):
        status, out, _ = run(capsys, "graph", "grg", "--family", "cr:4", "--json")
        report = json.loads(out)
        assert report["outputs"]["graph"]["vertices"] == [1, 2, 3, 4]
        assert report["outputs"]["graph"]["edges"] == [[1, 2], [1, 4], [2, 3], [3, 4]]


# Hand-built values for `cli._render`, covering what the `json` encoder
# escapes or special-cases and the report builders seldom produce.
RENDER_CASES = {
    "strings": {"plain": "abc", "accent": "café", "astral": "\U0001d11e",
                "controls": "\x00\x01\x1f\x7f\t\n\r\b\f", "quote": 'say "hi"',
                "backslash": "a\\b", "line-separator": "\u2028\u2029", "empty": "",
                "é-key": "sorted after ascii", "B": "upper before lower"},
    "empties": {"dict": {}, "list": [], "tuple": (),
                "nested": {"a": {}, "b": [[]], "c": [{}, (), [[], {}]], "d": {"e": {}}}},
    "scalars": [True, 1, False, 0, None, -1, -(2**70), 2**64, 2**64 + 1, 10**40],
    "nested": {"outputs": {"cf": {"n": 3, "cf": [{"plus": [1], "minus": (2, 3)}]}},
               "rows": [[1, [2, [3, []]]], ({"x": None},)]},
    "top-level list": [{"b": 1, "a": [True]}, "s", ()],
    "top-level string": "é\n",
    "top-level int": -5,
    "top-level none": None,
    "empty top-level dict": {},
}


@pytest.mark.parametrize("obj", list(RENDER_CASES.values()), ids=list(RENDER_CASES))
def test_render_matches_json_dumps(obj):
    out = []
    cli._render(obj, "\n", out)
    assert "".join(out) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj, type_name", [
    ({"a": [1, 1.5]}, "float"),
    ([{"set": {1, 2}}], "set"),
    ({"outer": {1: "one"}}, "int"),
], ids=["float", "set", "int key"])
def test_render_rejects_other_types(obj, type_name):
    with pytest.raises(TypeError, match=rf"\b{type_name}\b"):
        cli._render(obj, "\n", [])


ROUND_TRIP_COVER = json.dumps({"kind": "intervals", "ambient": "line",
                               "sets": [["0", "2"], ["1", "7/2"], ["-1/3", "1/2"]]})
ROUND_TRIP_CODE = "n=3;{};{1};{1,2};{2,3};{3}"

# One command line per subcommand and flag that changes the report's shape,
# and every verify suite at its smallest legal parameters.
ROUND_TRIP_ARGV = [
    ["cf", ROUND_TRIP_CODE],
    ["cf", ROUND_TRIP_CODE, "--oracle"],
    ["cf", "--family", "cr:4"],
    ["graph", "ccg", ROUND_TRIP_CODE],
    ["graph", "ccg", ROUND_TRIP_CODE, "--dot"],
    ["graph", "grg", ROUND_TRIP_CODE],
    ["graph", "grg", "--family", "cr:5", "--dot"],
    ["graph", "grg", "--cf", GRAPH_CF5],
    ["graph", "gr-complex", ROUND_TRIP_CODE],
    ["graph", "gr-complex", "--cf", GRAPH_CF4],
    ["map", "--permute", "3,1,2", ROUND_TRIP_CODE],
    ["map", "--add-on", ROUND_TRIP_CODE],
    ["map", "--add-off", ROUND_TRIP_CODE],
    ["map", "--duplicate", "2", ROUND_TRIP_CODE],
    ["map", "--delete", "1", ROUND_TRIP_CODE],
    ["map", "--include", "n=3;{};{1};{1,2};{2,3};{3};{1,2,3}", ROUND_TRIP_CODE],
    ["realize", ROUND_TRIP_COVER],
    ["realize", ROUND_TRIP_COVER, "--cf"],
    ["realize", "--family", "cc:4", "--cf"],
    ["realize", "--family", "cr:4"],
    ["family", "cr:4"],
]
SMALLEST_SUITE_ARGS = {
    "parity": ["--n", "1"],
    "union-closure": ["--n", "1"],
    "preserve-connected": ["--n", "1", "--trials", "1"],
    "preserve-complete": ["--n", "1", "--trials", "1"],
    "complete-iso": ["--n", "1"],
    "cf-theorems": ["--n", "2", "--trials", "1"],
    "grg-families": ["--max", "4"],
    "realizations": ["--max", "3", "--trials", "1"],
}
ROUND_TRIP_ARGV += [["verify", suite, *args] for suite, args in SMALLEST_SUITE_ARGS.items()]


def test_round_trip_covers_every_suite():
    assert set(SMALLEST_SUITE_ARGS) == set(SUITES)


@pytest.mark.parametrize("argv", ROUND_TRIP_ARGV, ids=[" ".join(a) for a in ROUND_TRIP_ARGV])
def test_json_report_round_trips_through_json(capsys, argv):
    status, out, err = run(capsys, *argv, "--json")
    assert (status, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class ReportBuilt(Exception):
    pass


def test_each_call_builds_only_the_report_it_prints(capsys, monkeypatch):
    # map --include prints its target's text as the map description, in
    # --json too, so only that command line may call Code.to_text there.
    expected = {tuple(argv): run(capsys, *argv, "--json") for argv in ROUND_TRIP_ARGV}

    def built(*args):
        raise ReportBuilt

    real_to_text = Code.to_text
    monkeypatch.setattr(cli, "_cf_lines", built)
    for argv in ROUND_TRIP_ARGV:
        monkeypatch.setattr(Code, "to_text", real_to_text if "--include" in argv else built)
        assert run(capsys, *argv, "--json") == expected[tuple(argv)]
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_digest", built)
    for argv in ROUND_TRIP_ARGV:
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        assert out


ODD_ARGV = [
    [],
    ["frobnicate"],
    ["--json", "cf", "{1}"],
    ["cf", "{1}", "--bogus"],
    ["family", "cc:3", "cc:4"],
    ["map", "{1}"],
    ["map", "--delete", "x", "{1}"],
    ["graph", "nope", "{1}"],
    ["-h"],
    ["cf", "-h"],
    ["cf", "--", "{1}"],
]
PARSE_ARGV = [*ROUND_TRIP_ARGV, *([*argv, "--json"] for argv in ROUND_TRIP_ARGV), *ODD_ARGV]


def parse_outcome(capsys, parse, argv):
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=[" ".join(a) or "(none)" for a in PARSE_ARGV])
def test_dispatch_parses_as_the_top_level_parser(capsys, argv):
    got = parse_outcome(capsys, cli._parse, argv)
    assert got == parse_outcome(capsys, cli._build_parser()[0].parse_args, argv)
    if isinstance(got[0], dict):
        assert got[0]["subcommand"] == argv[0]


class TestFamily:
    def test_text(self, capsys):
        status, out, _ = run(capsys, "family", "cc:3")
        assert status == 0
        assert out.strip() == "{};{1};{1,2}"

    def test_bad_family(self, capsys):
        status, _, err = run(capsys, "family", "zz:3")
        assert status == 2
