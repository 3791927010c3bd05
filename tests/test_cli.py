"""Command-line surface: pinned outputs, determinism, exit codes, coverage."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tourlyn import cli
from tourlyn.tournamentons import constant_half, to_json


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage failures
            code = e.code
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run(*argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def half_json(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(to_json(constant_half())))
    return str(path)


def test_express_pinned_output():
    payload = run_json("express", "3:111")
    assert payload == {
        "polynomial": [
            {"monomial": [], "coeff": "1/6"},
            {"monomial": [{"var": "3:101", "exp": 1}], "coeff": "-1/3"},
        ]
    }


def test_dimension_pinned_output():
    code, out, _ = run("dimension", "--k", "4")
    assert code == 0
    assert out == '{"dimension":3}\n'


def test_density_pinned_output(half_json):
    code, out, _ = run("density", "3:101", "--tournamenton", half_json)
    assert code == 0
    assert out == '{"density":"1/8"}\n'


def test_byte_determinism_across_runs(half_json):
    cases = [
        ("enumerate", "--n", "5", "--strong", "--aut"),
        ("certify", "--k", "4", "--trials", "5", "--seed", "3"),
        ("solve", "--k", "3", "1/16"),
        ("sample", "--tournamenton", half_json, "--n", "4", "--seed", "9", "--count", "5"),
        ("probe", "--k", "3", "--eps", "1e-3", "--samples", "5", "--seed", "1"),
        ("shuffle", "ab", "ac"),
        ("jacobian", "--k", "4"),
    ]
    for argv in cases:
        code1, out1, _ = run(*argv)
        code2, out2, _ = run(*argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2, "output of %r is not reproducible" % (argv,)


def test_exit_code_domain_error():
    code, out, err = run("canon", "3:1")
    assert code == 1 and out == "" and "error" in err


def test_exit_code_usage():
    code, _, _ = run()
    assert code == 2
    code, _, _ = run("no-such-command")
    assert code == 2
    code, _, _ = run("dimension")  # missing required --k
    assert code == 2


def test_exit_code_budget():
    code, out, err = run("enumerate", "--n", "8")
    assert code == 3 and out == "" and "budget" in err


def test_verify_budget_seconds_exit_code():
    # a budget of 0 s is spent before the second check starts
    code, out, err = run("verify", "--budget-seconds", "0")
    assert code == 3 and out == "" and "budget exceeded" in err


def test_every_operation_has_exactly_one_home():
    ap = cli._build_parser()
    sub = next(
        a for a in ap._subparsers._group_actions if hasattr(a, "choices")
    )
    assert set(sub.choices) == set(cli.SUBCOMMAND_OPS)
    flat = [op for ops in cli.SUBCOMMAND_OPS.values() for op in ops]
    assert len(flat) == len(set(flat)), "an operation is reachable twice"


def test_pretty_is_the_same_object():
    compact = run_json("scc", "5:1101000101")
    code, out, _ = run("scc", "5:1101000101", "--pretty")
    assert code == 0
    assert json.loads(out) == compact
    assert out.count("\n") > 1


def test_enumerate_counts():
    payload = run_json("enumerate", "--n", "5", "--strong")
    assert payload["count"] == 6
    assert len(payload["tournaments"]) == 6


def test_canon_against():
    payload = run_json("canon", "3:101", "--against", "3:011")
    assert payload["isomorphic"] is False
    assert payload["order"] in ("less", "greater")
    same = run_json("canon", "3:101", "--against", "3:101")
    assert same["isomorphic"] is True and same["order"] == "equal"


def test_word_round_trip_via_cli():
    payload = run_json("word", "4:110110")
    back = run_json("word", "--invert", payload["word"])
    assert back["tournament"] == run_json("canon", "4:110110")["canonical"]
    assert all(set(l) == {"name", "size", "rank"} for l in payload["letters"])


def test_lyndon_modes():
    assert run_json("lyndon", "--word", "aab")["lyndon"] is True
    assert run_json("lyndon", "--tournament", "3:101")["lyndon"] is True
    assert run_json("lyndon", "--list", "--k", "4")["count"] == 3
    assert run_json("lyndon", "--word", "ab", "--compare", "ba") == {"order": "less"}
    code, _, err = run("lyndon")
    assert code == 1 and "need" in err


def test_factorize_golden():
    assert run_json("factorize", "ababaab") == {"factors": ["ab", "ab", "aab"]}


def test_shuffle_golden():
    payload = run_json("shuffle", "ab", "ac")
    assert payload == {
        "terms": [
            {"word": "aabc", "coeff": 2},
            {"word": "aacb", "coeff": 2},
            {"word": "abac", "coeff": 1},
            {"word": "acab", "coeff": 1},
        ]
    }


def test_product_mass():
    payload = run_json("product", "1:", "3:101")
    total = sum(int(t["coeff"].split("/")[0]) for t in payload["terms"])
    assert total == 8


def test_express_lemma_and_evaluation(tmp_path):
    payload = run_json("express", "3:111", "--lemma")
    assert payload["gamma"] == "1/6"
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"3:101": "1/8"}))
    at = run_json("express", "3:111", "--at", str(point))
    assert at["value"] == "1/8"  # 1/6 - (1/3)(1/8) = 1/8
    code, _, err = run("express", "3:101", "--lemma")
    assert code == 1 and "Lyndon" in err


def test_build_wk_payload():
    payload = run_json("build-wk", "--k", "3")
    assert payload["context"]["ell"] == 1
    assert payload["params"]["s"] == ["1/2"]
    assert len(payload["tournamenton"]["blocks"]) == 4


def test_jacobian_symbolic_three_vertex():
    payload = run_json("jacobian", "--k", "3", "--symbolic")
    assert len(payload["symbolic"]) == 1
    entry = payload["symbolic"][0][0]
    assert entry == [
        {
            "monomial": [
                {"var": "s1", "exp": 2},
                {"var": "t1_1", "exp": 1},
                {"var": "t1_2", "exp": 1},
                {"var": "t1_3", "exp": 1},
            ],
            "coeff": "9/1",
        }
    ]


def test_certify_leading():
    payload = run_json("certify", "--k", "3", "--trials", "3", "--seed", "1", "--leading")
    assert payload["leading_coefficient"] == "9/1"
    assert payload["det"] != "0/1"


def test_certify_five_vertex():
    # the first k = 5 certificate: eleven symbolic densities through the
    # chain DP, their partials at one point, an 11 x 11 exact determinant
    payload = run_json("certify", "--k", "5", "--trials", "1", "--seed", "3")
    assert payload["det"] != "0/1"
    assert payload["trials_used"] == 1


def test_solve_accepts_rational_and_float_targets():
    a = run_json("solve", "--k", "3", "1/16")
    b = run_json("solve", "--k", "3", "0.0625")
    assert a["status"] == b["status"] == "converged"
    assert abs(a["s"][0] - b["s"][0]) < 1e-9
    assert set(a) == {
        "status", "attempts", "runs", "iterations", "residual", "s", "s_rational",
        "verification", "detail",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--k", "3", "nan"],
        ["solve", "--k", "3", "inf"],
        ["solve", "--k", "3", "1/16", "--tolerance", "nan"],
        ["probe", "--k", "3", "--eps", "nan", "--samples", "1"],
        ["probe", "--k", "3", "--eps", "inf", "--samples", "1"],
        ["probe", "--k", "3", "--eps", "1e-3", "--samples", "1", "--x0", "nan"],
        ["probe", "--k", "3", "--eps", "1e-3", "--samples", "1", "--x0", "inf"],
        ["probe", "--k", "3", "--eps", "1e-3", "--samples", "1", "--x0", "2"],
        ["solve", "--k", "4", "--tolerance", "inf", "0.01", "0.02", "0.03"],
    ],
)
def test_non_finite_numbers_are_domain_errors(argv):
    code, out, err = run(*argv)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_solve_target_below_the_float_range():
    payload = run_json("solve", "--k", "3", "1/1" + "0" * 400)
    assert payload["status"] == "domain-violation"
    assert payload["attempts"] == payload["runs"] == 0
    assert "below the float range" in payload["detail"]


def test_solve_unreachable_target():
    # 96 (1/1000)^3 < (1/10)^4: outside the image of W_4(s, t)
    payload = run_json("solve", "--k", "4", "1/1000", "1/10", "1/100")
    assert payload["status"] == "unreachable"
    assert payload["attempts"] == payload["runs"] == payload["iterations"] == 0
    assert payload["detail"] == (
        "violates 96 t(4:110111)^3 >= t(3:101)^4: 3/31250000 < 1/10000"
    )
    assert payload["s"] == [] and payload["s_rational"] is None


def test_solve_unreachable_at_t_target():
    # (1/100)^4 / (1/1000)^3 = 10 lies below min_m w_m = 81/4 at the
    # default t, while 96 (1/1000)^3 >= (1/100)^4 holds
    payload = run_json("solve", "--k", "4", "1/1000", "1/100", "1/100")
    assert payload["status"] == "unreachable-at-t"
    assert payload["attempts"] == payload["runs"] == payload["iterations"] == 0
    assert payload["detail"] == (
        "violates t(3:101)^4 / t(4:110111)^3 > min_m w_m at this t: 10/1 <= 81/4"
    )


def test_probe_counts_unreachable_draws():
    # the third draw of seed 0 at eps 1e-4 is certified unreachable for
    # every t, the first two at the default t only
    payload = run_json("probe", "--k", "4", "--eps", "1e-4", "--samples", "3")
    assert payload["per_radius"][0]["statuses"] == {"unreachable": 1, "unreachable-at-t": 2}


def test_solve_trace_flag():
    payload = run_json("solve", "--k", "3", "1/16", "--trace")
    assert payload["status"] == "converged"
    assert payload["trace"], "the winning attempt's Newton steps are missing"
    for step in payload["trace"]:
        assert set(step) == {"iteration", "s", "residual", "merit", "step"}


def test_solve_rejects_malformed_t(tmp_path):
    cases = (
        {"t": [["1/3", "1/3", "1/3"]]},
        {"s": ["1/6", "1/6", "1/6"]},
        {"t": 3},
        {"t": [["1/4", "x", "1/4", "1/4"], ["1/3"] * 3, ["1/4"] * 4]},
        # floats are not exact inputs, as in --params
        {"t": [[0.25] * 4, ["1/3"] * 3, ["1/4"] * 4]},
        # a string row is not read one character at a time
        {"t": ["1111", "111", "1111"]},
    )
    for i, data in enumerate(cases):
        path = tmp_path / ("t%d.json" % i)
        path.write_text(json.dumps(data))
        code, out, err = run("solve", "--k", "4", "0.01", "0.02", "0.03", "--t", str(path))
        assert code == 1 and out == "" and err.startswith("error: ")


def test_solve_refuses_t_outside_the_float_range(tmp_path):
    cases = [("3", [["1/1" + "0" * e] * 3]) for e in (110, 200, 310, 330)]
    cases.append(("4", [["1" + "0" * 400 + "/%d" % n] * n for n in (4, 3, 4)]))
    for i, (k, t) in enumerate(cases):
        path = tmp_path / ("t%d.json" % i)
        path.write_text(json.dumps({"t": t}))
        targets = ["1/16"] if k == "3" else ["0.01", "0.02", "0.03"]
        code, out, err = run("solve", "--k", k, *targets, "--t", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: t is outside the float range of the solver")


BAD_S = [["x"], [0.1], [None]]
HALF_BLOCK = [{"measure": "1/1", "diagonal": "half"}]


@pytest.mark.parametrize(
    "argv, data",
    [
        pytest.param(
            [cmd, "--k", "3", "--params"], {"s": s, "t": [["1/3"] * 3]},
            id="%s-%s" % (cmd, s[0]),
        )
        for cmd in ("build-wk", "jacobian")
        for s in BAD_S
    ]
    + [
        pytest.param(
            ["density", "3:101", "--tournamenton"],
            {"blocks": [{"measure": "x", "diagonal": "half"}], "cross": [["0/1"]]},
            id="density-measure",
        ),
        pytest.param(["express", "3:111", "--at"], {"3:101": "x"}, id="express-at"),
        # JSON true and false are not the exact numbers 1 and 0
        pytest.param(["build-wk", "--k", "3", "--params"],
                     {"s": [True], "t": [["1/30", "1/30", "1/30"]]}, id="build-wk-s-bool"),
        pytest.param(["density", "3:101", "--tournamenton"],
                     {"blocks": [{"measure": True, "diagonal": "half"}], "cross": [[False]]},
                     id="density-bool"),
        pytest.param(["solve", "--k", "3", "1/0"], None, id="solve-zero-denominator"),
        pytest.param(["probe", "--k", "3", "--eps", "1e-3", "--samples", "0"], None,
                     id="probe-no-samples"),
        pytest.param(["probe", "--k", "3", "--eps", "1e-3", "--samples", "-2"], None,
                     id="probe-negative-samples"),
        # JSON of the wrong shape: no traceback, and no string read one
        # character at a time as a list of numbers
        pytest.param(["express", "3:111", "--at"], ["1/2"], id="express-at-array"),
        pytest.param(["density", "3:101", "--tournamenton"],
                     {"blocks": HALF_BLOCK, "cross": 5}, id="density-cross-int"),
        pytest.param(["density", "3:101", "--tournamenton"],
                     {"blocks": HALF_BLOCK, "cross": [5]}, id="density-cross-row"),
    ]
    + [
        pytest.param([cmd, "--k", "3", "--params"], data, id="%s-%s" % (cmd, name))
        for cmd in ("build-wk", "jacobian")
        for name, data in (
            ("s-int", {"s": 5, "t": [["1/3"] * 3]}),
            ("s-string", {"s": "1", "t": [["1/30"] * 3]}),
            ("t-int", {"s": ["1/6"], "t": 5}),
            ("t-row-int", {"s": ["1/6"], "t": [5]}),
            ("t-row-string", {"s": ["1/6"], "t": ["111"]}),
        )
    ]
    + [
        pytest.param(["sample", "--n", "3", "--count", count, "--tournamenton"],
                     {"blocks": HALF_BLOCK, "cross": [["0/1"]]}, id="sample-count%s" % count)
        for count in ("0", "-1")
    ],
)
def test_bad_numbers_are_domain_errors(tmp_path, argv, data):
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = argv + [str(path)]
    code, out, err = run(*argv)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_probe_custom_center():
    payload = run_json(
        "probe", "--k", "3", "--eps", "1e-3", "--samples", "3", "--seed", "2",
        "--x0", "1/72",
    )
    assert payload["x0"] == [float(1) / 72]
    assert payload["success_rate"] == 1.0


def test_probe_at_k5_samples_the_ball():
    payload = run_json("probe", "--k", "5", "--eps", "1e-4", "--samples", "2")
    assert payload["per_radius"][0]["radius"] == 1e-4
    assert sum(payload["per_radius"][0]["statuses"].values()) == 2


def test_verify_fast_is_green_and_deterministic():
    code1, out1, err1 = run("verify", "--level", "fast")
    code2, out2, _ = run("verify", "--level", "fast")
    assert code1 == code2 == 0
    assert out1 == out2  # timing lives on stderr, the payload is stable
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])
    assert "verify fast" in err1


def test_verify_full_is_green_and_deterministic():
    code1, out1, err1 = run("verify", "--level", "full")
    code2, out2, _ = run("verify", "--level", "full")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True and payload["level"] == "full"
    assert all(c["ok"] for c in payload["checks"])
    names = [c["name"] for c in payload["checks"]]
    assert "five-vertex certification" in names and "k=4 reachability bound" in names
    assert "power-sum intervals" in names
    assert "verify full" in err1


def test_missing_file_is_a_domain_error():
    code, _, err = run("density", "3:101", "--tournamenton", "/no/such/file.json")
    assert code == 1 and "cannot read" in err
