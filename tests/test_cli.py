import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from supersdet import cli


# a child interpreter finds the package in src/ without an install
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lpoly(capsys):
    code, out, _ = run_cli(capsys, "lpoly", "--k", "3")
    assert code == 0
    assert "L_1 = (1/3)*p1" in out
    assert "L_3" in out


def test_lgenus_builtin_match(capsys):
    code, out, _ = run_cli(capsys, "lgenus", "--manifold", "builtin:cp2")
    assert code == 0
    assert out.strip() == "L-genus = 1, signature = 1, MATCH"
    code, out, _ = run_cli(capsys, "lgenus", "--manifold", "builtin:k3")
    assert code == 0
    assert "-16" in out and "MATCH" in out


def test_lgenus_file_and_errors(capsys, tmp_path):
    doc = {"name": "point-ish", "dimension": 4, "kind": "pontryagin_numbers",
           "signature": 0, "pontryagin_numbers": {"p1": 0}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "lgenus", "--manifold", str(path))
    assert code == 0 and "MATCH" in out

    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "lgenus", "--manifold", str(missing))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "lgenus", "--manifold", str(bad))
    assert code == 2

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xe9"}')
    code, _, err = run_cli(capsys, "lgenus", "--manifold", str(latin1))
    assert code == 2


def test_lgenus_mismatch_exits_one(capsys, tmp_path):
    doc = {"name": "liar", "dimension": 4, "kind": "pontryagin_numbers",
           "signature": 5, "pontryagin_numbers": {"p1": 3}}
    path = tmp_path / "liar.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "lgenus", "--manifold", str(path))
    assert code == 1
    assert "MISMATCH" in out


def test_sdet_formal_report(capsys):
    code, out, _ = run_cli(capsys, "sdet", "--n", "4", "--k", "2",
                           "--mode", "formal", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["mode"] == "formal"
    assert payload["sector"] == "PA"


def test_sdet_concrete_and_pp(capsys):
    code, out, _ = run_cli(capsys, "sdet", "--n", "4", "--k", "2", "--mode", "concrete")
    assert code == 0 and "equal = True" in out
    code, out, _ = run_cli(capsys, "sdet", "--n", "4", "--k", "3", "--pp")
    assert code == 0 and "equal = True" in out
    code, _, err = run_cli(capsys, "sdet", "--n", "5", "--k", "2", "--mode", "concrete")
    assert code == 2


def _cp2_with(change):
    document = json.loads(resources.files("supersdet.data").joinpath("cp2.json").read_text())
    change(document)
    return document


@pytest.mark.parametrize("document, argv", [
    (_cp2_with(lambda d: d.update(signature={"num": 1, "den": 0})), ["lgenus"]),
    (_cp2_with(lambda d: d.update(signature={"num": "a", "den": 1})), ["lgenus"]),
    (_cp2_with(lambda d: d.update(signature={"num": True, "den": 1})), ["lgenus"]),
    (_cp2_with(lambda d: d.update(pontryagin_classes=[1])), ["lgenus"]),
    (_cp2_with(lambda d: d["basis"][1].update(name=["h"])), ["lgenus"]),
    (_cp2_with(lambda d: d.update(products=5)), ["lgenus"]),
    (_cp2_with(lambda d: d["products"][0].update(left=["h"])), ["lgenus"]),
    (_cp2_with(lambda d: d["products"][0]["result"][0].update(basis=["h2"])), ["lgenus"]),
    (None, ["pushforward", "--manifold", "builtin:cp2", "--class", "1/0*h"]),
    ({"name": "bogus", "dimension": False, "kind": "pontryagin_numbers", "signature": 1,
      "pontryagin_numbers": {}}, ["lgenus"]),
    (_cp2_with(lambda d: d["basis"][0].update(degree=False)), ["lgenus"]),
    ({"name": "bogus", "dimension": 0, "kind": "pontryagin_numbers", "signature": 1,
      "pontryagin_numbers": {"p0": 1}}, ["lgenus"]),
    ({"name": "bogus", "dimension": 8, "kind": "pontryagin_numbers", "signature": 1,
      "pontryagin_numbers": {"p2": 7, "p1^2": 5, "p1*p1": 2}}, ["lgenus"]),
    (_cp2_with(lambda d: d["pontryagin_classes"].update(p0=[{"basis": "1", "coeff": 1}])),
     ["lgenus"]),
    ({"name": "bogus", "dimension": 0, "kind": "pontryagin_numbers", "signature": 1,
      "pontryagin_numbers": {"p1^0": 1}}, ["lgenus"]),
    ({"name": "bogus", "dimension": 8, "kind": "pontryagin_numbers", "signature": 1,
      "pontryagin_numbers": {"p2": 10}}, ["lgenus"]),
    (_cp2_with(lambda d: d.update(name=True)), ["lgenus"]),
    (_cp2_with(lambda d: d["basis"].append({"name": "h", "degree": 2})), ["lgenus"]),
    (_cp2_with(lambda d: d["products"].append(
        {"left": "h", "right": "h", "result": [{"basis": "h2", "coeff": 2}]})),
     ["pushforward", "--class", "h^2"]),
    (_cp2_with(lambda d: d["products"].append(
        {"left": "1", "right": "1", "result": [{"basis": "1", "coeff": 3}]})), ["lgenus"]),
    # shipped numbers contradicting the ring: the pushforward never reads them
    (_cp2_with(lambda d: d.update(pontryagin_numbers={"p1": 4})),
     ["pushforward", "--class", "1"]),
], ids=["den-zero", "num-string", "num-bool", "classes-list", "basis-name-list",
        "products-int", "product-left-list", "result-basis-list", "class-den-zero",
        "dimension-bool", "basis-degree-bool", "numbers-p0", "numbers-repeated-partition",
        "classes-p0", "numbers-zero-exponent", "numbers-missing-partition", "name-bool",
        "basis-name-repeated", "products-pair-repeated", "products-unit-operand",
        "numbers-contradict-ring"])
def test_malformed_manifold_input_is_a_usage_error(capsys, tmp_path, document, argv):
    if document is not None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        argv = argv + ["--manifold", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("supersdet: ")


def _ring_of_dimension_6(**extra):
    return {"name": "six", "dimension": 6, "kind": "cohomology_model", "signature": 0,
            "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2},
                      {"name": "y", "degree": 4}, {"name": "t", "degree": 6}],
            "products": [{"left": "x", "right": "x", "result": [{"basis": "y", "coeff": 1}]},
                         {"left": "x", "right": "y", "result": [{"basis": "t", "coeff": 1}]}],
            "fundamental": "t", "pontryagin_classes": {"p1": [{"basis": "y", "coeff": 4}]},
            **extra}


def _classes_outside_degrees_0_to_4(document):
    document["basis"] += [{"name": "a", "degree": -2}, {"name": "b", "degree": 6}]
    document["products"].append(
        {"left": "a", "right": "b", "result": [{"basis": "h2", "coeff": 1}]})


NOT_4K = "supersdet: six: dimension must be a nonnegative multiple of 4\n"


@pytest.mark.parametrize("document, argv, expected", [
    (_ring_of_dimension_6(), ["lgenus"], (2, "", NOT_4K)),
    # the signature class has no part in degree 6: every pushforward of 1 is 0
    (_ring_of_dimension_6(), ["pushforward", "--class", "1"],
     (0, "pushforward of 1 over six = 0\n", "")),
    # shipped numbers need a 4k-manifold, whichever subcommand loads them
    (_ring_of_dimension_6(pontryagin_numbers={"p1": 1}), ["pushforward", "--class", "1"],
     (2, "", NOT_4K)),
    (_cp2_with(_classes_outside_degrees_0_to_4), ["pushforward", "--class", "a*b + 1"],
     (2, "", "supersdet: cp2: basis class 'a' has degree -2 outside 0..4\n")),
], ids=["lgenus-dimension-6", "pushforward-dimension-6", "pushforward-dimension-6-numbers",
        "pushforward-degree-outside-ring"])
def test_ring_dimension_and_degree_range(capsys, tmp_path, document, argv, expected):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    assert run_cli(capsys, *argv, "--manifold", str(path)) == expected


@pytest.mark.parametrize("document, path", [
    (_cp2_with(lambda d: d["basis"].append({"name": "h", "degree": 2})),
     "document.basis[3].name"),
    (_cp2_with(lambda d: d["products"].append(
        {"left": "h", "right": "h", "result": [{"basis": "h2", "coeff": 2}]})),
     "document.products[1]"),
    (_cp2_with(lambda d: d["products"].insert(
        0, {"left": "h", "right": "1", "result": [{"basis": "h", "coeff": 1}]})),
     "document.products[0]"),
], ids=["basis-name-repeated", "products-pair-repeated", "products-unit-operand"])
def test_ring_model_rejection_names_the_document_path(capsys, tmp_path, document, path):
    target = tmp_path / "m.json"
    target.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "lgenus", "--manifold", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"supersdet: {path}: ")


def test_fraction_numbers_load_like_integers(capsys, tmp_path):
    def fractions(d):
        d["signature"] = {"num": 1, "den": 1}
        d["pontryagin_classes"]["p1"][0]["coeff"] = {"num": 3, "den": 1}

    outputs = []
    for document in (_cp2_with(lambda d: None), _cp2_with(fractions)):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        outputs.append([run_cli(capsys, *argv, "--manifold", str(path), "--format", "json")
                        for argv in (["lgenus"], ["pushforward", "--class", "1"])])
    assert outputs[1] == outputs[0]
    assert [code for code, _out, _err in outputs[0]] == [0, 0]


@pytest.mark.parametrize("argv, message", [
    (["lgenus", "--manifold", "builtin:nosuch"],
     "supersdet: unknown builtin manifold 'nosuch'; "
     "available: cp2, cp4, hp2, k3, cp2xcp2, k3xcp2\n"),
    (["pushforward", "--manifold", "builtin:nosuch", "--class", "1"],
     "supersdet: unknown builtin manifold 'nosuch'; "
     "available: cp2, cp4, hp2, k3, cp2xcp2, k3xcp2\n"),
    (["lgenus", "--manifold", "{document}"], "supersdet: document.dimension: missing\n"),
    (["pushforward", "--manifold", "{document}", "--class", "1"],
     "supersdet: document.dimension: missing\n"),
    (["pushforward", "--manifold", "cp2", "--class", "1/0*h"],
     "supersdet: class expression: '1/0' has a zero denominator\n"),
], ids=["lgenus-unknown-builtin", "pushforward-unknown-builtin", "lgenus-malformed",
        "pushforward-malformed", "pushforward-class"])
def test_manifold_subcommands_report_input_errors(capsys, tmp_path, argv, message):
    # the manifold subcommands turn rejected input into a usage error themselves
    document = tmp_path / "m.json"
    document.write_text(json.dumps({"name": "bogus"}))
    argv = [str(document) if arg == "{document}" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_number_past_the_digit_limit_is_a_usage_error(capsys, tmp_path):
    # json reads an integer literal through int(), which refuses more
    # digits than sys.get_int_max_str_digits() with a plain ValueError
    digits = sys.get_int_max_str_digits() + 1
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "dimension": 4, "kind": "pontryagin_numbers", '
                    f'"signature": {"1" * digits}, "pontryagin_numbers": {{"p1": 3}}}}')
    for argv in (["lgenus", "--manifold", str(path)],
                 ["pushforward", "--manifold", str(path), "--class", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("supersdet: ") and f"{digits} digits" in err


TOO_LONG = (f"supersdet: the result has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for writing an integer\n")


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_result_past_the_digit_limit_is_a_usage_error(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    # the signature of cp2 is 1, so the pushforward of a constant is itself
    code, out, _ = run_cli(capsys, "pushforward", "--manifold", "cp2",
                           "--class", f"1e{limit - 1}", "--format", fmt)
    assert code == 0 and str(10 ** (limit - 1)) in out
    for expr in (f"1e{limit}", "1e5000", f"1e-{limit}"):
        code, out, err = run_cli(capsys, "pushforward", "--manifold", "cp2",
                                 "--class", expr, "--format", fmt)
        assert (code, out, err) == (2, "", TOO_LONG)


def test_genus_past_the_digit_limit_is_a_usage_error(capsys, tmp_path):
    # each number fits the limit, but the genus (7 p2 - p1^2)/45 has the
    # product of their two denominators as its denominator
    limit = sys.get_int_max_str_digits()
    big = 10 ** (limit - 1)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "name": "long", "dimension": 8, "kind": "pontryagin_numbers", "signature": 0,
        "pontryagin_numbers": {"p2": {"num": 1, "den": big},
                               "p1^2": {"num": 1, "den": big + 1}}}))
    code, out, err = run_cli(capsys, "lgenus", "--manifold", str(path))
    assert (code, out, err) == (2, "", TOO_LONG)


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    from supersdet import series as cs
    from supersdet import zeta as zs

    def broken(*args, **kwargs):
        raise ValueError("planted internal fault")

    monkeypatch.setattr(cs, "l_polynomials", broken)
    monkeypatch.setattr(zs, "sdet_report", broken)
    for argv in (["lpoly", "--k", "2"], ["sdet", "--n", "4"]):
        with pytest.raises(ValueError, match="planted internal fault"):
            cli.main(argv)


def test_zeta_subcommand(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--what", "product", "--n", "4")
    assert code == 0 and "r^(2)" in out
    code, out, _ = run_cli(capsys, "zeta", "--what", "trace", "--bc", "periodic", "--k", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == {"num": -1, "den": 12}
    code, out, _ = run_cli(capsys, "zeta", "--what", "trace", "--bc", "antiperiodic", "--k", "1")
    assert code == 0 and "-1/4" in out


@pytest.mark.parametrize("argv, message", [
    (["--what", "product"], "supersdet zeta --what product needs --n"),
    (["--what", "trace"], "supersdet zeta --what trace needs --k"),
], ids=["product-without-n", "trace-without-k"])
def test_zeta_missing_argument_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "zeta", *argv)
    assert code == 2
    assert out == "" and err == message + "\n"


def test_pushforward_subcommand(capsys):
    code, out, _ = run_cli(capsys, "pushforward", "--manifold", "builtin:cp2",
                           "--class", "h^2")
    assert code == 0
    assert "= 1" in out
    code, _, _ = run_cli(capsys, "pushforward", "--manifold", "builtin:k3xcp2",
                         "--class", "1")
    assert code == 2  # numbers-only manifolds carry no ring model
    code, out, _ = run_cli(capsys, "pushforward", "--manifold", "cp2",
                           "--class", "h^1000000000")
    assert code == 0
    assert out.strip().endswith("= 0")


def test_verify_suite_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "series")
    assert code == 0
    assert "6/6 checks passed" in out


SIGN_FLIP_IN_SERIES = """
import sys
from supersdet import cli, series
orig = series.zeta_over_2pii
series.zeta_over_2pii = lambda k: -orig(k)
sys.exit(cli.main(["verify", "--suite", "series"]))
"""


def test_verify_checks_hold_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", SIGN_FLIP_IN_SERIES],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 1
    passed = re.search(r"(\d+)/6 checks passed", proc.stdout)
    assert passed and int(passed.group(1)) < 6


def test_json_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sdet", "--n", "4", "--k", "3", "--format", "json")
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--suite", "zeta", "--format", "json")
        assert code == 0
        outputs.append(out.encode())
    assert outputs[2] == outputs[3]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "supersdet.cli", "lgenus", "--manifold", "builtin:hp2"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert "MATCH" in proc.stdout


LOADED_AFTER = """
import json, sys
from supersdet import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m[len("supersdet."):] for m in sys.modules if m.startswith("supersdet."))
sys.stderr.write(json.dumps({"code": code, "loaded": loaded,
                             "dataclasses": "dataclasses" in sys.modules}) + "\\n")
"""

ZETA_LAYERS = ["cli", "gaussian", "grassmann", "series", "terms", "zeta"]


@pytest.mark.parametrize("argv, layers", [
    # supersdet.data is the package the builtin manifold documents ship in
    (["lgenus", "--manifold", "cp2"], ["cli", "data", "manifolds", "series", "terms"]),
    (["pushforward", "--manifold", "k3", "--class", "3*v"],
     ["cli", "data", "manifolds", "series", "terms"]),
    (["lpoly", "--k", "2"], ["cli", "series", "terms"]),
    (["sdet", "--n", "4", "--k", "2"], ZETA_LAYERS),
    (["sdet", "--n", "4", "--mode", "concrete"], ZETA_LAYERS),
    (["zeta", "--what", "product", "--n", "2"], ZETA_LAYERS),
    (["zeta", "--what", "trace", "--k", "1"], ZETA_LAYERS),
    (["verify", "--suite", "zeta"], sorted(ZETA_LAYERS + [
        "linearization", "sections", "superspace", "verify"])),
], ids=["lgenus", "pushforward", "lpoly", "sdet", "sdet-concrete", "zeta", "zeta-trace",
        "verify"])
def test_subcommand_loads_only_its_layers(argv, layers):
    # a subcommand imports the layers it runs when it starts; verify imports
    # every layer but manifolds, and no layer imports dataclasses
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER] + argv,
                          capture_output=True, text=True, env=CHILD_ENV, check=True)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report == {"code": 0, "loaded": layers, "dataclasses": False}


def test_suite_choices_are_the_verify_suites():
    from supersdet import verify as vf

    assert cli.SUITE_NAMES == tuple(vf.SUITES)


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["lpoly", "--k", "2", "--frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["lpoly", "--k", "0"], "--k"),
    (["sdet", "--n", "0"], "--n"),
    (["sdet", "--n", "4", "--k", "-3"], "--k"),
    (["zeta", "--what", "product", "--n", "-1"], "--n"),
    (["zeta", "--what", "trace", "--k", "0"], "--k"),
    (["lpoly", "--k", "two"], "--k"),
    (["sdet", "--n", "4", "--k", "0"], "--k"),
])
def test_non_positive_sizes_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err and "not a positive integer" in captured.err


@pytest.mark.parametrize("exc_type", [ZeroDivisionError, ValueError])
def test_crashing_check_is_reported_as_failure(capsys, monkeypatch, exc_type):
    from supersdet import verify as vf

    def planted():
        raise exc_type("planted fault")

    monkeypatch.setitem(vf.SUITES, "series", vf.SUITES["series"] + [("planted", planted)])
    code, out, err = run_cli(capsys, "verify", "--suite", "series")
    assert code == 1 and err == ""
    assert f"[FAIL] series: planted -- {exc_type.__name__}: planted fault" in out
    assert "6/7 checks passed" in out


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_sdet_computes_each_side_once(capsys, monkeypatch, fmt):
    from supersdet import series as cs
    from supersdet import zeta as zs

    calls = {"sdet_log": 0, "l_class_in_ph": 0, "exp": 0}

    def counted(module, name, key=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)
        return wrapper

    # with the class warm, equal logs leave nothing to exponentiate
    cs.l_class_in_ph(3)
    for module in (cs, zs):
        monkeypatch.setattr(module, "l_class_in_ph", counted(module, "l_class_in_ph"))
    monkeypatch.setattr(zs, "sdet_log", counted(zs, "sdet_log"))
    monkeypatch.setattr(cs.GradedPolynomial, "exp", counted(cs.GradedPolynomial, "exp"))
    code, out, _ = run_cli(capsys, "sdet", "--n", "4", "--k", "3", "--format", fmt)
    assert code == 0 and out
    assert calls == {"sdet_log": 1, "l_class_in_ph": 1, "exp": 0}


def test_connection_free_expansion_fails_the_linearized_check(capsys, monkeypatch):
    from supersdet import linearization as lin
    from supersdet.gaussian import I
    from supersdet.grassmann import odd

    def connection_free(vec):
        th1 = odd("theta1")
        return [entry.derivative_odd("theta1") - I * th1 * lin.time_derivative(entry)
                for entry in vec]

    monkeypatch.setattr(lin, "covariant_D1", connection_free)
    code, out, err = run_cli(capsys, "verify", "--suite", "grassmann")
    assert code == 1 and err == ""
    assert "[FAIL] grassmann: linearized action expansion" in out
