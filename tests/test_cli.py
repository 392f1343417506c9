"""Batch interface: exit codes, output determinism, round-trips."""

import json
import os
import subprocess
import sys

from weyldouble.cli import main
from weyldouble.serialize import (bicharacter_from_json, object_label,
                                  scheme_from_json, scheme_to_json)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_a2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--input", "catalog:A2")
    assert code == 0
    data = json.loads(out)
    assert data["cartan"] == [[2, -1], [-1, 2]]
    assert data["simple_root_heights"] == ["infinity", "infinity"]


def test_analyze_rank1_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--input", "catalog:A1",
                           "--format", "text")
    assert code == 0
    assert "cartan matrix" in out and "2" in out


def test_analyze_root_of_unity_heights(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--input", "catalog:A2-zeta3")
    assert code == 0
    assert json.loads(out)["simple_root_heights"] == [3, 3]


def test_analyze_non_p_finite_exits_2(capsys, tmp_path):
    bad = {"rank": 2, "scalar": {"backend": "parameters", "names": ["q"]},
           "q": [["q", "q"], ["1", "q"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "p-finite" in err and "p=1" in err


def test_unknown_catalog_entry(capsys):
    code, _, err = run_cli(capsys, "analyze", "--input", "catalog:E8")
    assert code == 2
    assert "unknown catalog entry" in err


def test_orbit_json_and_round_trip(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--input", "catalog:A2-super")
    assert code == 0
    data = json.loads(out)
    assert len(data["objects"]) == 6
    assert data["finite"] is True and data["morphism_count"] == 6
    assert any(m["word"] == [] for m in data["morphisms"])
    rebuilt = scheme_from_json(data)
    assert scheme_to_json(rebuilt) == {
        k: v for k, v in data.items()
        if k not in ("finite", "morphism_count", "morphisms")}


def test_orbit_dot(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--input", "catalog:A2",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_roots_output(capsys):
    code, out, _ = run_cli(capsys, "roots", "--input", "catalog:B2")
    assert code == 0
    data = json.loads(out)
    entry = next(iter(data.values()))
    assert sorted(map(tuple, entry["positive"])) == \
        [(0, 1), (1, 0), (1, 1), (1, 2)]


def test_hilbert_matches_pbw(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--input", "catalog:A2",
                           "--degree-cap", "4")
    assert code == 0
    dims = json.loads(out)["dimensions"]
    assert dims["(1,1)"] == 2 and dims["(2,1)"] == 2 and dims["(2,2)"] == 3


def test_verify_suites_pass(capsys):
    for suite, name in [("relations", "A2-super"), ("coxeter", "B2"),
                        ("serre", "A2"), ("pairing", "A2-twoparam"),
                        ("lusztig-id", "A2"), ("longest", "B2"),
                        ("nichchar", "A2")]:
        code, out, _ = run_cli(capsys, "verify", suite, "--input",
                               f"catalog:{name}")
        assert code == 0, (suite, name, out)
        assert json.loads(out)["passed"] is True


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "coxeter", "--input",
                           "catalog:G2", "--format", "text")
    assert code == 0
    assert out.startswith("suite coxeter: PASS")
    assert "'M': 6" in out


def test_output_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "orbit", "--input", "catalog:A2-super")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "coxeter", "--input",
                               "catalog:A2", "--seed", "7")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_file_input_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "analyze", "--input", "catalog:A2-twoparam")
    data = json.loads(out)["bicharacter"]
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(data))
    code, out2, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert json.loads(out2)["bicharacter"] == data


def test_block_degree_cap_names_block_and_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "relations", "--input",
                           "catalog:A2", "--degree-cap", "1")
    assert code == 2
    assert "block bidegree" in err and "--degree-cap" in err, err


# runs the CLI as a child of a fresh interpreter and reports the child's
# exit code, stderr and peak RSS, so earlier children of the test process
# do not enter the measurement
MEASURE = "\n".join((
    "import json, resource, subprocess, sys",
    "proc = subprocess.run([sys.executable, '-m', 'weyldouble.cli'] + sys.argv[1:],",
    "                      capture_output=True, text=True)",
    "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss",
    "print(json.dumps([proc.returncode, proc.stderr, rss]))"))


def measure_cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", MEASURE, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, err, rss_kb = json.loads(proc.stdout)
    return code, err, rss_kb / 1024


def test_block_degree_cap_checked_before_word_lists(tmp_path):
    # the (12, 12) block of this input has 2.7 M words per side; the cap
    # must stop it before any word list is built
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(
        {"rank": 2, "scalar": {"backend": "cyclotomic", "order": 12},
         "q": [["z", "z^9"], ["1", "z^6"]]}))
    code, err, rss_mb = measure_cli("verify", "serre", "--input", str(path))
    assert code == 2, err
    assert err == ("precondition failure: block bidegree ((0, 0), (12, 12)) "
                   "exceeds the degree cap 14 (raise it with --degree-cap)\n")
    assert rss_mb < 200, rss_mb


AFFINE_A1 = {"rank": 2, "scalar": {"backend": "parameters", "names": ["q"]},
             "q": [["q^2", "q^-2"], ["q^-2", "q^2"]]}


def test_morphism_cap_is_honoured_by_every_command(tmp_path):
    # affine A1^(1) has one object and infinitely many morphisms; every
    # command that needs them all stops at the cap with one message
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(AFFINE_A1))
    errors = set()
    for argv in (("roots",), ("verify", "longest")):
        code, err, rss_mb = measure_cli(*argv, "--input", str(path),
                                        "--morphism-cap", "500")
        assert code == 2, (argv, err)
        assert rss_mb < 200, (argv, rss_mb)
        errors.add(err)
    label = object_label(bicharacter_from_json(AFFINE_A1))
    assert errors == {f"precondition failure: morphisms out of object {label} "
                      "exceed the morphism cap 500 (raise it with --morphism-cap)\n"}


def test_checks_hold_under_optimize():
    # the mathematical checks are explicit raises, so python -O keeps them
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = "\n".join((
        "import sys",
        "from weyldouble import catalog_entry, freealg",
        "freealg.e_plus_closed = lambda chi, p, i, m: freealg.FreeElement.zero(chi)",
        "try:",
        "    freealg.e_plus(catalog_entry('A2').build(), 0, 1, 1)",
        "except AssertionError as err:",
        "    print('optimize', sys.flags.optimize, 'raised', err)"))
    proc = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize 1 raised e_plus(p=0, i=1, k=1)"), proc.stdout
    outputs = []
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "weyldouble.cli", "verify", "coxeter",
             "--input", "catalog:A2"], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, (flags, proc.stderr)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_verify_serre_fails_at_root_of_unity(capsys):
    # mathematically correct: the family is insufficient there
    code, out, _ = run_cli(capsys, "verify", "serre", "--input",
                           "catalog:A2-zeta3")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_hilbert_at_root_of_unity(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--input", "catalog:A2-zeta3",
                           "--degree-cap", "4")
    assert code == 0
    dims = json.loads(out)["dimensions"]
    # truncated by height 3: the cube of a simple generator dies
    assert dims["(3,0)"] == 0 and dims["(2,0)"] == 1 and dims["(2,2)"] == 3
