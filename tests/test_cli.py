import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from cyclotile import certificate_from_json, certificate_to_json, oracles, phitree, protasov
from cyclotile.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_tile(capsys):
    code, out, err = run(capsys, "analyze", "--base", "4", "--digits", "0,1,8,9")
    assert code == 0 and err == ""
    assert "verdict  tile" in out
    assert "blocking 2,16" in out
    assert "order    1" in out


def test_analyze_not_tile(capsys):
    code, out, _ = run(capsys, "analyze", "--base", "4", "--digits", "0,1,4,5")
    assert code == 1
    assert "verdict  not-tile" in out
    assert "blocking" not in out


def test_analyze_json(capsys):
    code, out, _ = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,8,9", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "tile"
    assert payload["blocking"] == [2, 16]
    assert payload["pk_order"] == 1
    assert payload["thm42_pass"] is True


def test_analyze_dot(capsys):
    code, out, _ = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,8,9", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")


def test_analyze_cross_check(capsys):
    code, out, err = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,8,9", "--cross-check"
    )
    assert code == 0 and err == ""
    assert "integer-tree blocking" in out
    code, _, err = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,4,5", "--cross-check"
    )
    assert code == 1 and err == ""


def test_analyze_rejects_garbage(capsys):
    code, _, err = run(capsys, "analyze", "--base", "4", "--digits", "0,1,x")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "analyze", "--base", "4", "--digits", "0,1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "analyze", "--base", "4", "--digits", "1,2,3,4")
    assert code == 2 and "error:" in err


def test_analyze_refuses_mask_over_degree_budget(capsys):
    code, out, err = run(
        capsys, "analyze", "--base", "3", "--digits", f"0,1,{2**62}"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the budget" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_analyze_refuses_spectrum_cap_below_one(capsys, cap):
    code, out, err = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,8,9", "--spectrum-cap", cap
    )
    assert code == 2 and out == ""
    assert err == f"error: spectrum cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize(
    "route, fake, complaint",
    [
        (
            "protasov_decide",
            SimpleNamespace(status="absent", is_tile=False, blocking=None),
            "integer-tree search says 'absent'",
        ),
        ("kenyon_check", protasov.KenyonReport(False, {}, 7, 200), "level check fails at m = 7"),
    ],
    ids=["residue-tree", "level-check"],
)
def test_disagreement_exit_code(capsys, monkeypatch, route, fake, complaint):
    monkeypatch.setattr(protasov, route, lambda base, digits: fake)
    code, _, err = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,8,9", "--cross-check"
    )
    assert code == 3
    assert err.startswith("disagreement:") and complaint in err


def test_construct_modulo_fixture(capsys):
    code, out, _ = run(capsys, "construct", "--recipe", "recipes/b12_modulo.json")
    assert code == 0
    assert "kind     modulo-product-form" in out
    assert "digits   0,1,4,8,9,17,25,33,41,72,76,80" in out
    assert "moduli   2,12,48" in out
    assert "verdict  tile" in out


def test_construct_json(capsys):
    code, out, _ = run(
        capsys,
        "construct",
        "--recipe",
        "recipes/b12_first_order_variant.json",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "product-form"
    assert payload["order"] == 1
    assert payload["certificate"]["verdict"] == "tile"
    assert payload["certificate"]["base"] == 12


def test_construct_second_order_fixture(capsys):
    code, out, _ = run(
        capsys, "construct", "--recipe", "recipes/b12_second_order.json"
    )
    assert code == 0
    assert "order    2" in out
    assert "verdict  tile" in out


RECIPES = Path(__file__).resolve().parents[1] / "recipes"

# SHA-256 of `construct --recipe R --format json --cross-check` stdout.  The
# cross-check writes the residue-tree blocking into the certificate, so this
# pins both routes' output; update it only for a deliberate format change.
CROSS_CHECK_DIGESTS = {
    "b12_first_order_variant": "f9e0649dd9355562d35ba078f9a6be3824faecc3552ad92eabfcdaf1369e7559",
    "b12_modulo": "94660fc95029b299d085e2870be8bfc93e44b732be3a695b6c5d2286d549e391",
    "b12_second_order": "5db760388c72c89dac7febe756aa892af7c1360cc15889ae51ac885785be4830",
}


@pytest.mark.parametrize("recipe", sorted(CROSS_CHECK_DIGESTS))
def test_construct_cross_check_bytes_are_pinned(capsys, recipe):
    code, out, err = run(
        capsys,
        "construct",
        "--recipe",
        str(RECIPES / f"{recipe}.json"),
        "--format",
        "json",
        "--cross-check",
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CROSS_CHECK_DIGESTS[recipe]


def test_cross_checked_certificate_round_trips(capsys):
    """The residue-tree labels are recomputed on load, so the certificate
    serializes back to the bytes the command printed."""
    code, out, _ = run(
        capsys, "analyze", "--base", "4", "--digits", "0,1,8,9", "--cross-check", "--format", "json"
    )
    assert code == 0
    cert = certificate_from_json(out)
    assert cert.protasov_blocking
    assert certificate_to_json(cert, indent=2) + "\n" == out
    text = certificate_to_json(cert)
    assert certificate_to_json(certificate_from_json(text)) == text


def test_construct_missing_file(capsys):
    code, _, err = run(capsys, "construct", "--recipe", "recipes/nope.json")
    assert code == 2 and "error:" in err


def test_construct_deeply_nested_recipe(capsys, tmp_path):
    # Too deep for the JSON parser: an error (exit 2), not a not-tile verdict.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "construct", "--recipe", str(path))
    assert code == 2 and out == "" and "error: not valid JSON" in err


def test_kernels_by_degree(capsys):
    code, out, _ = run(capsys, "kernels", "--base", "4", "--max-degree", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "degree    3  indices 2,4",
        "degree    6  indices 4,8",
        "degree    9  indices 2,16",
    ]


def test_kernels_below_the_root_degree(capsys):
    # The root blocking of base 4 has degree 3, so degree 0 admits none.
    assert run(capsys, "kernels", "--base", "4", "--max-degree", "0") == (0, "none\n", "")
    code, out, err = run(
        capsys, "kernels", "--base", "4", "--max-degree", "0", "--format", "json"
    )
    assert (code, json.loads(out), err) == (0, [], "")


def test_kernels_for_digits(capsys):
    code, out, _ = run(
        capsys, "kernels", "--base", "4", "--digits", "0,1,8,9", "--format", "json"
    )
    assert code == 0
    found = json.loads(out)
    assert {"indices": [2, 16], "degree": 9} in found


def test_kernels_needs_a_bound(capsys):
    code, _, err = run(capsys, "kernels", "--base", "4")
    assert code == 2 and "error:" in err


def test_kernels_refuses_both_bounds(capsys):
    # --max-degree and --digits are alternatives; given both, neither wins.
    code, out, err = run(
        capsys, "kernels", "--base", "4", "--max-degree", "5", "--digits", "0,1,8,9"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exactly one of --max-degree and --digits" in err


def test_kernels_refuses_limit_below_one(capsys):
    code, out, err = run(
        capsys, "kernels", "--base", "4", "--digits", "0,1,8,9", "--limit", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "limit must be at least 1" in err


def test_kernels_max_degree_budget(capsys, monkeypatch):
    # Base 6 has 8,051 blockings up to degree 800 and more than
    # MAX_BLOCKINGS beyond; the enumeration stops instead of running on.
    code, out, err = run(capsys, "kernels", "--base", "6", "--max-degree", str(10**9))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget of 10000" in err
    # At the budget the listing is complete; one blocking more is refused.
    monkeypatch.setattr(phitree, "MAX_BLOCKINGS", 3)
    code, out, _ = run(capsys, "kernels", "--base", "4", "--max-degree", "9")
    assert code == 0 and len(out.splitlines()) == 3
    monkeypatch.setattr(phitree, "MAX_BLOCKINGS", 2)
    code, out, err = run(capsys, "kernels", "--base", "4", "--max-degree", "9")
    assert code == 2 and out == "" and "budget of 2" in err


def test_geometry_text(capsys):
    code, out, _ = run(
        capsys, "geometry", "--base", "4", "--digits", "0,1,8,9", "--depth", "1"
    )
    assert code == 0
    assert "[0, 1] ∪ [2, 3]" in out
    assert "measure 2" in out
    code, out, _ = run(capsys, "geometry", "--base", "4", "--digits", "0", "--depth", "0")
    assert (code, out) == (0, "empty\nmeasure 0\n")


def test_geometry_refuses_svg(capsys):
    with pytest.raises(SystemExit) as info:
        main(["geometry", "--base", "4", "--digits", "0,1,8,9", "--format", "svg"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["geometry", "oracle"])
def test_depth_over_radix_budget_exits_2(monkeypatch, capsys, command):
    monkeypatch.setattr(oracles, "MAX_RADIX_VALUES", 10)
    code, out, err = run(
        capsys, command, "--base", "4", "--digits", "0,1,8,9", "--depth", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget of 10" in err


def test_oracle_text(capsys):
    code, out, _ = run(capsys, "oracle", "--digits", "0,1,4,5", "--base", "4")
    assert code == 0
    assert "period 8, complement 0,2" in out
    assert "first collision at level 2" in out
    assert "continuity: rejected" in out
    code, out, _ = run(capsys, "oracle", "--digits", "0,1,8,9", "--base", "4")
    assert code == 0
    assert "direct sums: no collision up to depth 4 (heuristic)" in out
    assert "continuity: accepted, blocking 2,16" in out


def test_oracle_absent(capsys):
    code, out, _ = run(capsys, "oracle", "--digits", "0,1,3")
    assert code == 1
    assert "no period found" in out


def test_oracle_period_cap_over_budget_exits_2(capsys):
    code, out, err = run(capsys, "oracle", "--digits", "0,1,3", "--period-cap", "100001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget of 100000" in err
    code, out, _ = run(capsys, "oracle", "--digits", "0,1,3", "--period-cap", "12")
    assert code == 1 and out == "integer tile: no period found\n"


def test_oracle_json(capsys):
    code, out, _ = run(
        capsys, "oracle", "--digits", "0,1,8,9", "--base", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integer_tile"] == {"period": 16, "complement": [0, 2, 4, 6]}
    assert payload["collision_level"] is None
    assert payload["continuity"] == {"accepted": True, "blocking": [2, 16]}


def test_oracle_default_depth_fits_the_radix_budget(capsys):
    # 18**4 radix values pass the budget, so the default depth drops to 3;
    # an explicit depth over the budget is still refused.
    digits = ",".join(map(str, range(18)))
    code, out, _ = run(capsys, "oracle", "--base", "18", "--digits", digits)
    assert code == 0
    assert "direct sums: no collision up to depth 3 (heuristic)" in out
    code, out, _ = run(capsys, "oracle", "--base", "18", "--digits", digits, "--format", "json")
    assert code == 0 and json.loads(out)["collision_level"] is None
    code, out, err = run(capsys, "oracle", "--base", "18", "--digits", digits, "--depth", "4")
    assert code == 2 and out == ""
    assert "18 digits to depth 4 exceed the budget of 100000 radix values" in err
