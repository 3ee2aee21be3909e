"""Command-line interface: subcommands, exit codes, fixtures, JSON output."""
import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sntmod
from sntmod import cli
from sntmod.analytic import sigma_power
from sntmod.cli import main, verify_sw_main
from sntmod.sntmodule import SntModule


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fixtures"))
    assert main(["gen-fixtures", "--out", out, "--seed", "1"]) == 0
    return out


def _reject_constant(name):
    raise AssertionError("%s is not strict JSON" % name)


def _run_json(argv, capsys):
    """Exit code and report; the report must be one strict JSON object."""
    code = main(argv + ["--json"])
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    return code, data


def _cli_env(**extra):
    """The environment for a CLI subprocess: this checkout's package on the
    path, no SNT_MAX_ENUM."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sntmod.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SNT_MAX_ENUM"}
    env.update(PYTHONPATH=src, **extra)
    return env


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def test_decompose_bundled_sample(fixtures, capsys):
    code, data = _run_json(["decompose", os.path.join(fixtures, "h2h1_module.json")],
                           capsys)
    assert code == 0
    assert data["checks"][0]["details"]["partition"] == [2, 1]


def test_decompose_validates_once(fixtures, capsys, monkeypatch):
    calls = []
    validate = SntModule.validate

    def counted(self):
        calls.append(self)
        return validate(self)
    monkeypatch.setattr(SntModule, "validate", counted)
    code, _ = _run_json(["decompose", os.path.join(fixtures, "h2h1_module.json")],
                        capsys)
    assert code == 0
    assert len(calls) == 1


def test_decompose_corrupted_gram(fixtures, capsys):
    code, data = _run_json(["decompose", os.path.join(fixtures, "corrupted_gram.json")],
                           capsys)
    assert code == 2
    assert "not alternating" in data["checks"][0]["details"]["violations"]


def test_decompose_base_changed_matches_metadata(fixtures, capsys):
    path = os.path.join(fixtures, "basechange_module.json")
    with open(path) as fh:
        planted = json.load(fh)["meta"]["planted_partition"]
    code, data = _run_json(["decompose", path], capsys)
    assert code == 0
    assert data["checks"][0]["details"]["partition"] == planted


@pytest.mark.parametrize("name,key,value", [
    ("basechange_module.json", "partition", [3, 1]),   # false claim
    ("h2h1_module.json", "partition", 5),
    ("h2h1_module.json", "t_action", 5),
    ("h2h1_module.json", "field", "GF(3)"),      # descriptor not an object
    ("h2h1_module.json", "partition", "21"),     # not a list
    ("h2h1_module.json", "partition", [2.9, 1]),
    ("h2h1_module.json", "partition", [2, True]),
    ("h2h1_module.json", "dim", 99),             # not len(t_action)
    ("h2h1_module.json", "dim", 6.0),
])
def test_decompose_rejected_module_entry(name, key, value, fixtures, tmp_path,
                                         capsys):
    with open(os.path.join(fixtures, name)) as fh:
        obj = json.load(fh)
    obj[key] = value
    path = str(tmp_path / "rejected.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, data = _run_json(["decompose", path], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "parse"


def test_decompose_zero_denominator_is_input_error(fixtures, tmp_path, capsys):
    with open(os.path.join(fixtures, "h2h1_module.json")) as fh:
        obj = json.load(fh)
    obj["gram"][0][1] = "1/0"
    path = str(tmp_path / "zero_den.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, data = _run_json(["decompose", path], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "parse"
    assert "zero denominator" in data["checks"][0]["details"]["message"]


def test_decompose_zero_dimension_is_input_error(tmp_path, capsys):
    path = str(tmp_path / "dim0.json")
    with open(path, "w") as fh:
        json.dump({"field": {"type": "Q"}, "dim": 0, "t_action": [],
                   "gram": []}, fh)
    code, data = _run_json(["decompose", path], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "parse"
    assert "positive dimension" in data["checks"][0]["details"]["message"]


def test_decompose_missing_file(capsys):
    assert main(["decompose", "/nonexistent/module.json"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------------
# orbit
# --------------------------------------------------------------------------

def test_orbit_zero_fixture(fixtures, capsys):
    code, data = _run_json(["orbit", os.path.join(fixtures, "orbit_zero.json")],
                           capsys)
    assert code == 0
    inv = data["checks"][0]["details"]
    assert inv["W_type"] == [] and inv["i_coords"] == []


def test_orbit_empty_second_path_is_input_error(fixtures, capsys):
    # an empty path names no file; it is not read as "no y"
    code, data = _run_json(["orbit", os.path.join(fixtures, "orbit_zero.json"), ""],
                           capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "parse"


def test_orbit_pair_same_orbit_with_transport(fixtures, capsys):
    code, data = _run_json(["orbit",
                            os.path.join(fixtures, "orbit_x.json"),
                            os.path.join(fixtures, "orbit_xg.json")], capsys)
    assert code == 0
    cmp_check = data["checks"][1]["details"]
    assert cmp_check["same_orbit"] is True
    assert "transport" in cmp_check


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REPO_FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


@pytest.mark.parametrize("argv,golden", [
    (["census", "--q", "3", "--M", "2", "--V", "hyperbolic2", "--k", "2"],
     "census_q3_M2_hyperbolic2.json"),                    # 13 classes
    (["census", "--q", "3", "--M", "2,1", "--V", "diag:1,2", "--k", "2"],
     "census_q3_M21_diag12.json"),                        # 88 classes
    (["census", "--q", "3", "--M", "2,1", "--V", "diag:1,1,1", "--k", "2"],
     "census_q3_M21_diag111.json"),                       # 128 classes, 3^9 elements
    (["orbit", os.path.join(REPO_FIXTURES, "orbit_x.json"),
      os.path.join(REPO_FIXTURES, "orbit_xg.json")],
     "orbit_x_xg.json"),                                  # W_span, i_coords, transport
    (["orbit", os.path.join(REPO_FIXTURES, "orbit_q_x.json"),
      os.path.join(REPO_FIXTURES, "orbit_q_xg.json")],
     "orbit_q_x_xg.json"),                  # over Q: type (3,2), V = diag(1,1,2)
], ids=["census-h2", "census-21-diag12", "census-21-diag111", "orbit-x-xg",
        "orbit-q-x-xg"])
def test_json_checks_match_golden(argv, golden, capsys):
    """The `checks` of these reports are pinned to files under tests/golden;
    only `config` (file paths) and `wall_time` are left out."""
    code, data = _run_json(argv, capsys)
    assert code == 0
    with open(os.path.join(GOLDEN, golden)) as fh:
        assert data["checks"] == json.load(fh)


def test_orbit_pair_shares_one_quasi_basis(monkeypatch, capsys):
    """y is read into x's tensor space, so Im f_y = Im f_x is found in the
    images memo of that space: one quasi-basis per call, not two."""
    from sntmod import orbits
    calls = []
    real = orbits.quasi_basis
    monkeypatch.setattr(orbits, "quasi_basis", lambda *a: calls.append(1) or real(*a))
    code, data = _run_json(["orbit", os.path.join(REPO_FIXTURES, "orbit_q_x.json"),
                            os.path.join(REPO_FIXTURES, "orbit_q_xg.json")], capsys)
    assert code == 0 and data["checks"][1]["details"]["same_orbit"] is True
    assert len(calls) == 1


def test_orbit_pair_in_distinct_orbits(fixtures, capsys):
    code, data = _run_json(["orbit",
                            os.path.join(fixtures, "orbit_x.json"),
                            os.path.join(fixtures, "orbit_zero.json")], capsys)
    assert code == 0
    assert data["checks"][1]["details"] == {"same_orbit": False}


@pytest.mark.parametrize("partition", [[True], [1, True], [1.0, 1], "11"])
def test_orbit_partition_not_a_list_of_ints(partition, fixtures, tmp_path,
                                            capsys):
    """Claims that would read as type (1,) or (1, 1), with as many rows of
    coordinates, are not a list of ints."""
    with open(os.path.join(fixtures, "orbit_x.json")) as fh:
        obj = json.load(fh)
    obj["partition"] = partition
    obj["coords"] = obj["coords"][:len(partition)]
    path = str(tmp_path / "bad_partition.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, data = _run_json(["orbit", path], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "parse"


def test_orbit_mismatched_ambient(fixtures, tmp_path, capsys):
    other = {
        "field": {"type": "GF", "p": 3},
        "partition": [1],
        "v_gram": [["1", "0"], ["0", "1"]],
        "coords": [["1", "0"]],
    }
    path = str(tmp_path / "other.json")
    with open(path, "w") as fh:
        json.dump(other, fh)
    code = main(["orbit", os.path.join(fixtures, "orbit_x.json"), path])
    capsys.readouterr()
    assert code == 2


def test_orbit_zero_dimensional_v_is_input_error(fixtures, tmp_path, capsys):
    with open(os.path.join(fixtures, "orbit_x.json")) as fh:
        obj = json.load(fh)
    obj["v_gram"] = []
    obj["coords"] = [[] for _ in obj["coords"]]
    path = str(tmp_path / "dim0_v.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, data = _run_json(["orbit", path], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "parse"
    assert "V must have positive dimension" in data["checks"][0]["details"]["message"]


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

def test_census_h1_ternary(capsys):
    code, data = _run_json(["census", "--q", "3", "--M", "1",
                            "--V", "diag:1,1,1", "--k", "1"], capsys)
    assert code == 0
    tables = {c["name"]: c for c in data["checks"]}
    assert tables["invariant-vs-brute-force"]["status"] == "ok"
    assert tables["orbit-table"]["details"]["classes"] == 4


def test_census_h2_hyperbolic(capsys):
    code, data = _run_json(["census", "--q", "3", "--M", "2",
                            "--V", "hyperbolic2", "--k", "2"], capsys)
    assert code == 0
    tables = {c["name"]: c for c in data["checks"]}
    assert tables["orbit-table"]["details"]["classes"] == 13


def test_census_guard_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("SNT_MAX_ENUM", "100")
    code = main(["census", "--q", "3", "--M", "3",
                 "--V", "diag:1,1,1,1,1,1", "--k", "3"])
    capsys.readouterr()
    assert code == 3


def test_census_guard_counts_brute_force_products(capsys, monkeypatch):
    # (2,1) ⊗ diag(1, 2) over F_3: 3^6 = 729 elements, a level-0 search of
    # 27 rows and a group of 12; its 88 orbits each take all 12 group
    # elements, 1056 products, which the guard counts
    argv = ["census", "--q", "3", "--M", "2,1", "--V", "diag:1,2", "--k", "2"]
    monkeypatch.setenv("SNT_MAX_ENUM", "1055")
    code, data = _run_json(argv, capsys)
    assert code == 3
    assert data["checks"][-1]["name"] == "guard"
    assert "1056" in data["checks"][-1]["details"]["message"]
    monkeypatch.setenv("SNT_MAX_ENUM", "1056")
    assert _run_json(argv, capsys)[0] == 0


def test_census_guard_stops_before_the_invariants(capsys, monkeypatch):
    # the brute-force side runs first, so the census above stops at its
    # 1056th product without computing a single invariant
    calls = []
    monkeypatch.setattr(cli, "invariant_partition", calls.append)
    monkeypatch.setenv("SNT_MAX_ENUM", "1055")
    code, data = _run_json(["census", "--q", "3", "--M", "2,1", "--V", "diag:1,2",
                            "--k", "2"], capsys)
    assert code == 3
    assert [c["name"] for c in data["checks"]] == ["guard"]
    assert calls == []


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_guard_limit_is_input_error(value, capsys, monkeypatch):
    monkeypatch.setenv("SNT_MAX_ENUM", value)
    code, data = _run_json(["census", "--q", "3", "--M", "1",
                            "--V", "hyperbolic2", "--k", "1"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "environment"
    assert "SNT_MAX_ENUM" in data["checks"][0]["details"]["message"]


def test_zero_guard_limit_is_valid(capsys, monkeypatch):
    monkeypatch.setenv("SNT_MAX_ENUM", "0")
    code, data = _run_json(["census", "--q", "3", "--M", "1",
                            "--V", "hyperbolic2", "--k", "1"], capsys)
    assert code == 3
    assert data["checks"][-1]["name"] == "guard"


@pytest.mark.parametrize("spec", ["[]"])
def test_census_zero_dimensional_v_is_input_error(spec, capsys):
    code, data = _run_json(["census", "--q", "3", "--M", "2", "--V", spec,
                            "--k", "2"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"
    assert "V must have positive dimension" in data["checks"][0]["details"]["message"]


@pytest.mark.parametrize("spec", ["{}", '"5"', '{"1": 1}', "[1]", '[[1], "1"]'])
def test_census_non_matrix_v_is_input_error(spec, capsys):
    # a JSON object or string is no Gram, however its items would iterate,
    # and neither is a list with a row that is not a list: exit 2 from setup
    code, data = _run_json(["census", "--q", "3", "--M", "1", "--V", spec,
                            "--k", "1"], capsys)
    assert code == 2
    check = data["checks"][0]
    assert check["name"] == "setup"
    assert "a matrix must be a JSON list of lists" in check["details"]["message"]


def test_census_k_mismatch(capsys):
    code = main(["census", "--q", "3", "--M", "2", "--V", "hyperbolic2",
                 "--k", "1"])
    capsys.readouterr()
    assert code == 2


# --------------------------------------------------------------------------
# verify-sw
# --------------------------------------------------------------------------

def test_verify_sw_default_run(capsys):
    code, data = _run_json(["verify-sw", "--tau11", "2i", "--tau12", "0.5i",
                            "--tau22", "2i", "--N", "8", "--tol", "1e-8"],
                           capsys)
    assert code == 0
    assert data["checks"][0]["details"]["passed"] is True


def test_verify_sw_reports_norm_bound(capsys):
    code, data = _run_json(["verify-sw", "--tau11", "2i", "--tau12", "0.5i",
                            "--tau22", "2i"], capsys)
    assert code == 0
    entry = data["checks"][0]["details"]["per_lattice"][0]
    assert {"lattice", "aut", "theta_colinear", "tail"} <= set(entry)
    # E8 is a single orthogonal summand
    assert entry["components"] == [8]
    B = entry["norm_bound"]
    assert B >= 4 and B % 2 == 0
    # 1 + 240 sigma_3(m) vectors of norm 2m, summed up to the bound
    assert entry["vectors"] == 1 + sum(240 * sigma_power(m, 3)
                                       for m in range(1, B // 2 + 1))
    # the guard's largest level is the half walk's leaves, 1 + (vectors - 1)/2
    assert entry["largest_level"] == (entry["vectors"] + 1) // 2
    # E8's largest norm bound, 16: the largest level that passes the guard
    # is 170161, the least SNT_MAX_ENUM at which this run exits 0
    code, data = _run_json(["verify-sw", "--tau11", "0.85i", "--tau12", "0i",
                            "--tau22", "1.1i"], capsys)
    assert code == 0
    entry = data["checks"][0]["details"]["per_lattice"][0]
    assert entry["norm_bound"] == 16 and entry["largest_level"] == 170161


def test_verify_sw_diagonal_specialization_flagged(capsys):
    code, data = _run_json(["verify-sw", "--tau11", "2i", "--tau12", "0",
                            "--tau22", "2i"], capsys)
    assert code == 0
    assert "diagonal" in data["checks"][0]["details"]["note"]


def test_verify_sw_unreachable_tolerance(capsys):
    # double precision cannot certify 1e-15: honest truncation failure
    code = main(["verify-sw", "--tau11", "2i", "--tau12", "0",
                 "--tau22", "2i", "--tol", "1e-15"])
    capsys.readouterr()
    assert code == 4


def test_verify_sw_entry_point(capsys):
    code = verify_sw_main(["--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["command"] == "verify-sw"
    assert data["checks"][0]["details"]["passed"] is True


def test_verify_sw_bad_point(capsys):
    code = main(["verify-sw", "--tau11", "2i", "--tau12", "5i",
                 "--tau22", "2i"])
    capsys.readouterr()
    assert code == 2


def test_verify_sw_rank_mismatch_is_input_error(capsys):
    # the bundled lattice is E8, of rank 8
    code, data = _run_json(["verify-sw", "--N", "16"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"
    assert "rank" in data["checks"][0]["details"]["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
def test_verify_sw_bad_tolerance_is_input_error(tol, capsys):
    code, data = _run_json(["verify-sw", "--tol", tol], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"


@pytest.mark.parametrize("tau", [("1.2i", "0.3", "1.1i"),
                                 ("0.9i", "0.2+0.1i", "1.0i")])
def test_verify_sw_off_diagonal_points_at_tight_tolerance(tau, capsys):
    # theta_2 - 1 summed without its (0,0) term: rel_diff stays near eps
    # (it read 1.7e-12 and 3.0e-12 when the 1 was subtracted afterwards)
    code, data = _run_json(["verify-sw", "--tau11", tau[0], "--tau12", tau[1],
                            "--tau22", tau[2], "--tol", "1e-12"], capsys)
    assert code == 0
    assert data["checks"][0]["details"]["rel_diff"] < 1e-14


@pytest.mark.parametrize("aut", ["0", "-3"])
@pytest.mark.parametrize("gram_file", [False, True])
def test_verify_sw_nonpositive_aut_is_input_error(aut, gram_file, tmp_path,
                                                 capsys):
    argv = ["verify-sw", "--aut", aut]
    if gram_file:
        from sntmod.analytic import _E8_GRAM
        path = str(tmp_path / "e8.json")
        with open(path, "w") as fh:
            json.dump(_E8_GRAM, fh)
        argv += ["--gram-file", path]
    code, data = _run_json(argv, capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"
    assert "--aut" in data["checks"][0]["details"]["message"]


def test_verify_sw_small_im_tau_is_truncation(capsys):
    # |q| = exp(-2 pi 0.02) > 0.5: the q-expansion cannot be certified
    code, data = _run_json(["verify-sw", "--tau11", "0.02i",
                            "--tau22", "0.02i"], capsys)
    assert code == 4
    assert data["checks"][-1]["status"] == "error"


def test_verify_sw_enumeration_guard(capsys, monkeypatch):
    monkeypatch.setenv("SNT_MAX_ENUM", "1000")
    code, data = _run_json(["verify-sw"], capsys)
    assert code == 3
    assert data["checks"][-1]["name"] == "guard"


def test_verify_sw_gram_file_not_even_unimodular(tmp_path, capsys):
    path = str(tmp_path / "a2.json")
    with open(path, "w") as fh:
        json.dump([[2, 1], [1, 2]], fh)      # A2: even, of determinant 3
    code, data = _run_json(["verify-sw", "--gram-file", path, "--N", "2",
                            "--aut", "12"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"
    assert "even unimodular" in data["checks"][0]["details"]["message"]


def test_verify_sw_rank_zero_gram_file_is_input_error(tmp_path, capsys):
    # the rank-0 lattice is even and unimodular vacuously, but N = 0 gives
    # no weight for the left side: an input error, not a traceback
    path = tmp_path / "rank0.json"
    path.write_text("[]")
    code, data = _run_json(["verify-sw", "--gram-file", str(path), "--N", "0",
                            "--aut", "1"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"
    assert "N must be a multiple of 8" in data["checks"][0]["details"]["message"]


def test_verify_sw_gram_file_infinite_entry_is_input_error(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text("[[1e400]]")             # JSON reads 1e400 as inf
    code, data = _run_json(["verify-sw", "--gram-file", str(path), "--N", "1",
                            "--aut", "1"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"


@pytest.mark.parametrize("entry", [2.9, "2", None])
def test_verify_sw_gram_file_non_integer_entry_is_input_error(entry, tmp_path,
                                                             capsys):
    # E8 with a 2 changed to 2.9 or "2" was read as E8 and checked, exit 0
    from sntmod.analytic import _E8_GRAM
    gram = [row[:] for row in _E8_GRAM]
    gram[0][0] = entry
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    code, data = _run_json(["verify-sw", "--gram-file", str(path),
                            "--aut", "696729600"], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"
    assert "gram entry (0, 0)" in data["checks"][0]["details"]["message"]


def test_verify_sw_fractional_gram_fixture_is_input_error(capsys):
    # the fixture CI runs through the installed entry point: E8 with a 2.5
    code, data = _run_json(["verify-sw", "--gram-file",
                            os.path.join(REPO_FIXTURES, "gram_fractional.json"),
                            "--aut", "696729600"], capsys)
    assert code == 2
    assert "must be an integer" in data["checks"][0]["details"]["message"]


@pytest.mark.parametrize("tau12", ["1e400", "nan"])
def test_verify_sw_non_finite_tau_is_input_error(tau12, capsys):
    # 1e400 parses to inf: a setup error, not an infinite q-expansion tail
    code, data = _run_json(["verify-sw", "--tau12", tau12], capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"


def test_verify_sw_empty_gram_file_is_input_error(capsys):
    # an empty path names no file; it is not read as "no --gram-file"
    code, data = _run_json(["verify-sw", "--gram-file", "", "--aut", "696729600"],
                           capsys)
    assert code == 2
    assert data["checks"][0]["name"] == "setup"


def test_verify_sw_infinite_tail_is_null(capsys):
    # at Im tau = 1e308 no tail can be certified: the achieved tail is inf,
    # which strict JSON writes as null
    code, data = _run_json(["verify-sw", "--tau11", "1e308j",
                            "--tau22", "1e308j"], capsys)
    assert code == 4
    assert data["checks"][-1]["details"]["achieved_tail"] is None


def test_verify_sw_gram_file(tmp_path, capsys):
    from sntmod.analytic import _E8_GRAM
    path = str(tmp_path / "e8.json")
    with open(path, "w") as fh:
        json.dump(_E8_GRAM, fh)
    code, data = _run_json(["verify-sw", "--gram-file", path,
                            "--aut", "696729600",
                            "--tau11", "2i", "--tau12", "0", "--tau22", "2i"],
                           capsys)
    assert code == 0


# --------------------------------------------------------------------------
# usage errors
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["verify-sw", "--tau11", "-2i"],       # "-2i" reads as an option
    ["census", "--q", "three", "--M", "1", "--V", "hyperbolic2", "--k", "1"],
    ["census", "--q", "3"],
    ["no-such-command"],
    [],
], ids=["option-like-value", "bad-int", "missing-required", "bad-command",
        "no-command"])
def test_usage_error_is_one_json_report(argv, capsys):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    data = json.loads(captured.out, parse_constant=_reject_constant)
    assert code == 2
    assert captured.err == ""
    assert [c["name"] for c in data["checks"]] == ["usage"]
    details = data["checks"][0]["details"]
    assert details["message"] and details["usage"].startswith("sntmod")


@pytest.mark.parametrize("argv", [["--help"], ["census", "--help"], ["census", "-h"]],
                         ids=["top", "census", "census-short"])
def test_help_with_json_is_one_report(argv, capsys):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    data = json.loads(captured.out, parse_constant=_reject_constant)
    assert code == 0
    assert captured.err == ""
    assert [(c["name"], c["status"]) for c in data["checks"]] == [("help", "ok")]
    text = data["checks"][0]["details"]["text"]
    assert text.startswith("usage: sntmod")
    assert ("--q" in text) == (argv[0] == "census")


def test_main_calls_in_one_process_share_no_state(capsys):
    # the parser is built once per process, so a usage error, a help
    # request or a run must leave nothing behind for the next call: each
    # report is the same in either order of the calls
    assert cli.build_parser() is cli.build_parser()
    calls = [["census", "--q", "3"],
             ["--help"],
             ["verify-sw", "--tau11", "0.85i", "--tau12", "0i", "--tau22", "1.1i"],
             ["verify-sw"],
             ["census", "--q", "3", "--M", "1", "--V", "diag:1,1,1", "--k", "1"]]

    def reports(order):
        out = {}
        for argv in order:
            code, data = _run_json(argv, capsys)
            del data["wall_time"]
            out[tuple(argv)] = code, data
        return out

    forward = reports(calls)
    assert [forward[tuple(a)][0] for a in calls] == [2, 0, 0, 0, 0]
    assert forward[tuple(calls[0])][1]["checks"][0]["name"] == "usage"
    assert forward == reports(calls[::-1])
    # the default point of `verify-sw` after a call that set another one
    details = forward[("verify-sw",)][1]["checks"][0]["details"]
    assert details["per_lattice"][0]["norm_bound"] < 16


def test_plain_help_is_argparse_text():
    proc = subprocess.run([sys.executable, "-m", "sntmod.cli", "census", "--help"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: sntmod census")
    assert "--q Q" in proc.stdout


def test_census_over_a_large_prime_stops_at_the_element_guard():
    """q = 2^61 - 1 is prime, and its census space has q elements: the
    element guard rejects it at once, after a primality test that does not
    divide up to sqrt(q)."""
    proc = subprocess.run([sys.executable, "-m", "sntmod.cli", "census",
                           "--q", str(2 ** 61 - 1), "--M", "1", "--V", "diag:1",
                           "--k", "1", "--json"],
                          capture_output=True, text=True, env=_cli_env(), timeout=30)
    data = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert proc.returncode == 3
    assert [c["name"] for c in data["checks"]] == ["guard"]
    assert data["wall_time"] < 1.0


def test_census_over_a_large_prime_stops_at_the_int64_bound():
    """With a guard of 10^19 the same census passes the element guard; the
    census's int64 arrays cannot hold p², so it stops there, exit 3, before
    the level-0 search of the brute-force side."""
    proc = subprocess.run([sys.executable, "-m", "sntmod.cli", "census",
                           "--q", str(2 ** 61 - 1), "--M", "1", "--V", "diag:1",
                           "--k", "1", "--json"],
                          capture_output=True, text=True, timeout=30,
                          env=_cli_env(SNT_MAX_ENUM=str(10 ** 19)))
    data = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert proc.returncode == 3
    assert [c["name"] for c in data["checks"]] == ["guard"]
    assert "int64 bound 2^63" in data["checks"][0]["details"]["message"]
    assert data["wall_time"] < 1.0


def test_usage_error_through_entry_point(capsys):
    code = verify_sw_main(["--tau11", "-2i", "--json"])
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2
    assert data["command"] == "verify-sw"
    assert "--tau11" in data["checks"][0]["details"]["message"]


# --------------------------------------------------------------------------
# gen-fixtures
# --------------------------------------------------------------------------

def test_gen_fixtures_out_is_a_plain_file(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("not a directory")
    code, data = _run_json(["gen-fixtures", "--out", str(path)], capsys)
    assert code == 2
    assert len(data["checks"]) == 1 and data["checks"][0]["name"] == "setup"
    assert path.read_text() == "not a directory"


def test_gen_fixtures_unwritable_file_is_input_error(tmp_path, capsys):
    (tmp_path / "h2h1_module.json").mkdir()    # the first file cannot be opened
    code, data = _run_json(["gen-fixtures", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert [c["name"] for c in data["checks"]] == ["write"]


# --------------------------------------------------------------------------
# the contract under any input
# --------------------------------------------------------------------------

@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_keeps_the_exit_code(unbuffered):
    """A reader that leaves early gets no traceback, and the exit code is
    still the command's own (2 for an unknown command).  Buffered output
    meets the closed pipe only when it is flushed."""
    env = _cli_env(PYTHONUNBUFFERED=unbuffered)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "sntmod.cli", "bogus", "--json"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.stderr == b""
    assert proc.returncode == 2


# Each argument takes a value that fits it, or one from the shared pool of
# malformed and extreme values and paths, or is left out.  Fitting values
# name files of the `fuzz_paths` directory where they end in ".json".  Every
# valid combination is cheap (census: at most 3^4 elements; verify-sw:
# Im tau >= 1), so a huge SNT_MAX_ENUM cannot make an example run long.  No
# large prime is in the pool for that reason: a census over F_q has at least
# q elements.
_VALUES = ["0", "1", "2", "3", "8", "-1", "2,1", "H1", "1e400", "nan", "-inf",
           "9" * 30, "", " ", "x", "\x00", "-2i", "1+1e-300i", "diag:",
           "diag:1,x", "[[0]]", "{}", "1e-300"]
_ARGS = {
    "decompose": {"module_file": ["h2h1_module.json", "basechange_module.json",
                                  "corrupted_gram.json"],
                  "--seed": ["0", "7"]},
    "orbit": {"x_file": ["orbit_x.json", "orbit_zero.json"],
              "y_file": ["orbit_xg.json", "orbit_zero.json"]},
    "census": {"--q": ["3"], "--M": ["1", "2", "1,1"],
               "--V": ["hyperbolic2", "diag:1,2", "[[1]]"], "--k": ["1", "2"]},
    "verify-sw": {"--lattice": ["e8", "E8"], "--gram-file": ["e8.json"],
                  "--aut": ["696729600"], "--tau11": ["2i", "i", "1e6i"],
                  "--tau12": ["0", "0.3", "1e300"], "--tau22": ["2i", "1.1i"],
                  "--N": ["8"], "--tol": ["1e-8", "1e-12"]},
    "gen-fixtures": {"--out": ["out"], "--seed": ["0", "7"]},
    "bogus": {},
}
_GUARDS = ["", " ", "0", "1", "50", "-1", "1e3", "x", "١٢"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Paths by name: the generated fixtures, an E8 Gram file, files that
    are not valid inputs, a directory and a missing file."""
    from sntmod.analytic import _E8_GRAM
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-fixtures", "--out", str(out)]) == 0
    files = {"e8.json": json.dumps(_E8_GRAM), "garbage.json": "{not json",
             "nan.json": '{"dim": NaN}', "list.json": "[]",
             "inf_gram.json": "[[1e400]]",
             "inf_module.json": json.dumps({
                 "field": {"type": "Q"}, "dim": 2, "gram": [[0, 1], [-1, 0]],
                 "t_action": [[1e400, 0], [0, 0]]}).replace("Infinity", "1e400")}
    for name, text in files.items():
        (out / name).write_text(text)
    paths = {p.name: str(p) for p in out.iterdir()}
    paths.update({"dir": str(out), "missing": str(out / "missing.json")})
    return paths


def _weighted(common, rare):
    """Draws from `common` about four times as often as from `rare`."""
    return st.sampled_from(common * (4 * len(rare) // len(common) + 1) + rare)


@st.composite
def _cli_args(draw, paths):
    """argv for one command: each argument fitting, malformed or left out
    (None); now and then a stray value at the end."""
    pool = _VALUES + sorted(paths.values())
    command = draw(st.sampled_from(sorted(_ARGS)))
    argv = [command]
    for name, good in _ARGS[command].items():
        value = draw(_weighted(good, pool + [None]))
        if value is not None:
            value = paths.get(value, value)
            argv += [name, value] if name.startswith("--") else [value]
    stray = draw(_weighted([None], pool))
    return argv if stray is None else argv + [stray]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_keep_the_contract(fuzz_paths, tmp_path_factory, data):
    """Drawn arguments and SNT_MAX_ENUM values: exit 0-4, no exception and
    no traceback, and one strict-JSON report on stdout."""
    argv = data.draw(_cli_args(fuzz_paths))
    guard = data.draw(_weighted([None, "9" * 40], _GUARDS))
    env = {k: v for k, v in os.environ.items() if k != "SNT_MAX_ENUM"}
    if guard is not None:
        env["SNT_MAX_ENUM"] = guard
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))     # relative --out paths land here
    try:
        with mock.patch.dict(os.environ, env, clear=True), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"])
    finally:
        os.chdir(cwd)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue(), parse_constant=_reject_constant)


# Breaking one argument at a time: each valid argv below with one of its
# arguments (an option name or a value) replaced by each hostile value, or
# by each path of `fuzz_paths` that is not a valid input.
_HOSTILE = ["", "-1", "0", "1e400", "inf", "nan", "18446744073709551617", "9" * 400,
            "abc", "diag:", "diag:1,,1", "[[1]]", "1e-400i"]
_HOSTILE_PATHS = ["garbage.json", "nan.json", "list.json", "inf_gram.json",
                  "inf_module.json", "dir", "missing"]
_VALID = {
    "decompose": ["decompose", "h2h1_module.json", "--seed", "0"],
    "orbit": ["orbit", "orbit_x.json", "orbit_xg.json"],
    "census": ["census", "--q", "3", "--M", "2,1", "--V", "diag:1,2", "--k", "2"],
    "verify-sw": ["verify-sw", "--lattice", "e8", "--aut", "696729600",
                  "--tau11", "2i", "--tau12", "0.3", "--tau22", "2i",
                  "--N", "8", "--tol", "1e-8"],
    "verify-sw-gram-file": ["verify-sw", "--gram-file", "e8.json",
                            "--aut", "696729600"],
    "gen-fixtures": ["gen-fixtures", "--out", "out", "--seed", "0"],
}


def _contract_run(argv):
    """Exit code of `main` on argv; asserts the contract: exit 0-4, one
    strict-JSON report on stdout, no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    assert code in range(5), argv
    assert "Traceback" not in err.getvalue(), argv
    json.loads(out.getvalue(), parse_constant=_reject_constant)
    return code


@pytest.mark.parametrize("name", sorted(_VALID))
def test_breaking_one_argument_keeps_the_contract(name, fuzz_paths, tmp_path,
                                                  monkeypatch):
    """The guard of 5000 lets each valid run finish (the census takes 1056
    products, the identity at tau22 = 2i a level of 2550 lattice
    candidates) and keeps every broken one short."""
    monkeypatch.setenv("SNT_MAX_ENUM", "5000")
    monkeypatch.chdir(tmp_path)         # the relative --out paths land here
    argv = [fuzz_paths.get(a, a) for a in _VALID[name]]
    assert _contract_run(argv) == 0
    for i in range(1, len(argv)):
        for value in _HOSTILE + [fuzz_paths[p] for p in _HOSTILE_PATHS]:
            _contract_run(argv[:i] + [value] + argv[i + 1:])
