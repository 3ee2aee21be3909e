"""Command-line interface: subcommands, exit codes, fixtures, JSON output."""
import json
import os

import pytest

from sntmod.cli import main


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fixtures"))
    assert main(["gen-fixtures", "--out", out, "--seed", "1"]) == 0
    return out


def _run_json(argv, capsys):
    code = main(argv + ["--json"])
    data = json.loads(capsys.readouterr().out)
    return code, data


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def test_decompose_bundled_sample(fixtures, capsys):
    code, data = _run_json(["decompose", os.path.join(fixtures, "h2h1_module.json")],
                           capsys)
    assert code == 0
    assert data["checks"][0]["details"]["partition"] == [2, 1]


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


def test_orbit_pair_same_orbit_with_transport(fixtures, capsys):
    code, data = _run_json(["orbit",
                            os.path.join(fixtures, "orbit_x.json"),
                            os.path.join(fixtures, "orbit_xg.json")], capsys)
    assert code == 0
    cmp_check = data["checks"][1]["details"]
    assert cmp_check["same_orbit"] is True
    assert "transport" in cmp_check


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
