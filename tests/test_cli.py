"""Subcommand surface not already pinned by the acceptance gate:
character file loading, fragment and jump locus reports, the verify
selection and failure exit, catalog limits, malformed and unreadable
file diagnostics, the grammar table and the two parse routes that read
it, reuse of one parser across calls, sha256 digests of the default
stdout of every subcommand and of the help and usage text, and answers
that state kept across calls leaves unchanged."""

import argparse
import hashlib
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidhom import cli as cli_module
from braidhom import cohomology as cohomology_module
from braidhom import leray as leray_module
from braidhom import presentations as presentations_module
from braidhom import verify as verify_module
from braidhom.anchors import ANCHORS
from braidhom.cli import build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TRIVIAL_GENUS2 = {"N": 1, "values": {"a1": 0, "b1": 0, "a2": 0, "b2": 0}}
NONTRIVIAL_GENUS2 = {"N": 3, "values": {"a1": 1, "b1": 0, "a2": 2, "b2": 0}}


class TestH1:
    def test_nontrivial_character(self, tmp_path, capsys):
        path = write_json(tmp_path / "chi.json", NONTRIVIAL_GENUS2)
        code, out, _ = run_cli(
            ["h1", "--catalog", "surface:2", "--char", path], capsys
        )
        assert code == 0
        assert json.loads(out) == {"anchors": [], "h1": 2, "mode": "exact"}

    def test_mode_flag_removed(self, tmp_path, capsys):
        path = write_json(tmp_path / "chi.json", NONTRIVIAL_GENUS2)
        with pytest.raises(SystemExit) as exc:
            main(["h1", "--catalog", "surface:2", "--char", path, "--mode", "exact"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--mode" in captured.err

    def test_radial_character_rejected(self, tmp_path, capsys):
        chi = dict(NONTRIVIAL_GENUS2, radial={"a1": "2"})
        path = write_json(tmp_path / "chi.json", chi)
        code, out, err = run_cli(
            ["h1", "--catalog", "surface:2", "--char", path], capsys
        )
        assert code == 2
        assert out == ""
        assert "radial" in err

    @pytest.mark.parametrize("value", ["x", None, [1], 1.5, "7", True])
    def test_non_integer_value_exits_2(self, tmp_path, value, capsys):
        # JSON integers only: a string, null, list, float or bool is
        # refused, never read as a number, and the generator is named
        values = dict(NONTRIVIAL_GENUS2["values"], b2=value)
        path = write_json(tmp_path / "chi.json", {"N": 3, "values": values})
        code, out, err = run_cli(["h1", "--catalog", "surface:2", "--char", path], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: character values.b2 must be an integer, got %r\n" % (value,)

    @pytest.mark.parametrize("order", ["x", None, [1], 1.5, "7", True])
    def test_non_integer_order_exits_2(self, tmp_path, order, capsys):
        chi = dict(NONTRIVIAL_GENUS2, N=order)
        path = write_json(tmp_path / "chi.json", chi)
        code, out, err = run_cli(["h1", "--catalog", "surface:2", "--char", path], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: character N must be an integer, got %r\n" % (order,)

    @pytest.mark.parametrize("item", [5, None, [1], "N"])
    def test_tuple_component_not_an_object_exits_2(self, tmp_path, item, capsys):
        rho = {"components": [NONTRIVIAL_GENUS2, item]}
        path = write_json(tmp_path / "rho.json", rho)
        argv = ["twisted", "--space", "genus:2", "--n", "2", "--char", path]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: character JSON must be an object\n"

    @pytest.mark.parametrize("N", [10**6 + 3, 10**24 + 7])
    def test_order_past_limit_exits_2(self, tmp_path, N, capsys):
        # the residue maps would factor q - 1 by trial division, which
        # did not finish in 20 s at N = 10^24 + 7
        chi = write_json(tmp_path / "chi.json", {"N": N, "values": {"a": 1, "b": 0}})
        code, out, err = run_cli(["h1", "--catalog", "surface:1", "--char", chi], capsys)
        assert code == 2
        assert out == ""
        assert "reduced character order %d is above the limit" % N in err

    @pytest.mark.parametrize("N,a", [(10**6, 1), (7 * (10**24 + 7), 10**24 + 7)])
    def test_order_within_limit(self, tmp_path, N, a, capsys):
        # the limit is on the order after dividing out the exponent gcd
        chi = write_json(tmp_path / "chi.json", {"N": N, "values": {"a": a, "b": 0}})
        code, out, _ = run_cli(["h1", "--catalog", "surface:1", "--char", chi], capsys)
        assert code == 0
        assert json.loads(out) == {"anchors": [], "h1": 0, "mode": "exact"}

    def test_support_rule_reads_h1_at_one_component_only(self, tmp_path, capsys):
        # two nontrivial components and no support pair: the Kunneth sum
        # is 0 whatever the factor h1, so no order is checked; a single
        # nontrivial component past the limit is still refused
        past = {"N": 10**6 + 3, "values": {"a1": 1, "b1": 0, "a2": 0, "b2": 0}}
        other = {"N": 10**6 + 3, "values": {"a1": 0, "b1": 1, "a2": 0, "b2": 0}}
        for components, code, h1 in (([past, other], 0, 0), ([past, TRIVIAL_GENUS2], 2, None)):
            rho = write_json(tmp_path / "rho.json", {"components": components})
            argv = ["twisted", "--space", "genus:2", "--n", "2", "--char", rho]
            got, out, err = run_cli(argv, capsys)
            assert got == code
            if h1 is None:
                assert "reduced character order %d is above the limit" % (10**6 + 3) in err
            else:
                assert json.loads(out)["h1"] == h1

    def test_presentation_file(self, tmp_path, capsys):
        pres = tmp_path / "free2.pres"
        pres.write_text("gens: x y\n", encoding="utf-8")
        chi = write_json(tmp_path / "chi.json", {"N": 2, "values": {"x": 1, "y": 0}})
        code, out, _ = run_cli(["h1", "--file", str(pres), "--char", chi], capsys)
        assert code == 0
        assert json.loads(out)["h1"] == 1

    def test_both_sources_rejected(self, tmp_path, capsys):
        chi = write_json(tmp_path / "chi.json", NONTRIVIAL_GENUS2)
        code, _, err = run_cli(
            ["h1", "--catalog", "surface:2", "--file", "x", "--char", chi], capsys
        )
        assert code == 2
        assert "not both" in err


class TestUnreadableFiles:
    def test_missing_presentation_file(self, capsys):
        code, out, err = run_cli(["abelianize", "--file", "/no/such.pres"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read /no/such.pres")

    def test_non_utf8_presentation_file(self, tmp_path, capsys):
        pres = tmp_path / "latin1.pres"
        pres.write_bytes("gens: a\n# caf\xe9\n".encode("latin-1"))
        code, out, err = run_cli(["abelianize", "--file", str(pres)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s is not UTF-8 text" % pres)

    def test_non_utf8_char_file(self, tmp_path, capsys):
        chi = tmp_path / "chi.json"
        chi.write_bytes(b'{"N": 2, "values": {"x": 1}, "note": "\xff"}')
        code, out, err = run_cli(
            ["h1", "--catalog", "free:2", "--char", str(chi)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s is not UTF-8 text" % chi)


class TestCharacterFiles:
    def test_twisted_genus2(self, tmp_path, capsys):
        rho = {"components": [NONTRIVIAL_GENUS2, TRIVIAL_GENUS2]}
        path = write_json(tmp_path / "rho.json", rho)
        code, out, _ = run_cli(
            ["twisted", "--space", "genus:2", "--n", "2", "--char", path], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h1"] == 2
        assert payload["anchors"][0]["key"] == "twisted-h1-transfer"

    def test_twisted_cstar_uses_rank_anchor(self, tmp_path, capsys):
        rho = {
            "components": [
                {"N": 4, "values": {"a": 1}},
                {"N": 4, "values": {"a": 3}},
            ]
        }
        path = write_json(tmp_path / "rho.json", rho)
        code, out, _ = run_cli(
            ["twisted", "--space", "c-star", "--n", "2", "--char", path], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h1"] == 1
        assert payload["anchors"][0]["key"] == "cstar-h1-rank"

    def test_membership_mutually_inverse_pair(self, tmp_path, capsys):
        rho = {
            "components": [
                {"N": 4, "values": {"a": 1}},
                {"N": 4, "values": {"a": 3}},
            ]
        }
        path = write_json(tmp_path / "rho.json", rho)
        code, out, _ = run_cli(
            ["membership", "--space", "c-star", "--n", "2", "--char", path], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["components"] == ["T_1_2"]
        assert payload["trivial"] is False

    @pytest.mark.parametrize("command", ["twisted", "membership"])
    def test_factor_built_once_per_call(self, command, tmp_path, capsys, monkeypatch):
        import braidhom.leray as leray
        import braidhom.presentations as presentations

        builds = []
        build = presentations.surface_presentation
        monkeypatch.setattr(
            presentations, "surface_presentation", lambda g: builds.append(g) or build(g)
        )
        presentations.catalog.cache_clear()
        rho = {"components": [NONTRIVIAL_GENUS2, TRIVIAL_GENUS2]}
        path = write_json(tmp_path / "rho.json", rho)
        argv = [command, "--space", "genus:2", "--n", "2", "--char", path]
        assert run_cli(argv, capsys)[0] == 0
        assert builds == [2]
        assert run_cli(argv, capsys)[0] == 0
        assert builds == [2]

    def test_malformed_char_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(
            ["twisted", "--space", "genus:2", "--n", "2", "--char", str(bad)],
            capsys,
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_char_file(self, capsys):
        code, _, err = run_cli(
            ["twisted", "--space", "genus:2", "--n", "2", "--char", "/no/such"],
            capsys,
        )
        assert code == 2
        assert "cannot read" in err

    def test_wrong_component_count(self, tmp_path, capsys):
        rho = {"components": [NONTRIVIAL_GENUS2]}
        path = write_json(tmp_path / "rho.json", rho)
        code, _, err = run_cli(
            ["twisted", "--space", "genus:2", "--n", "3", "--char", path], capsys
        )
        assert code == 2
        assert err.startswith("error:")


class TestFragmentReports:
    def test_e2_sphere(self, capsys):
        code, out, _ = run_cli(["e2", "--space", "sphere", "--n", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank01"] == 6
        assert payload["rank10"] == 0
        assert payload["d2_shape"] == [4, 6]
        assert [a["key"] for a in payload["anchors"]] == ["diagonal-class-g0"]

    def test_e2_genus2(self, capsys):
        code, out, _ = run_cli(["e2", "--space", "genus:2", "--n", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank10"] == 8
        assert payload["rank01"] == 1
        assert payload["rank20"] == 2 + 16
        assert [a["key"] for a in payload["anchors"]] == [
            "diagonal-class-pos",
            "d2-injective",
        ]

    def test_e2_rejects_cstar(self, capsys):
        code, _, err = run_cli(["e2", "--space", "c-star", "--n", "3"], capsys)
        assert code == 2
        assert "sphere and genus" in err

    def test_sigma1_genus1(self, capsys):
        code, out, _ = run_cli(["sigma1", "--space", "genus:1", "--n", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ambient_dim"] == 4
        labels = [c["label"] for c in payload["components"]]
        assert "T_1_2" in labels


class TestDepartureFlags:
    """From three strands on, the torus and punctured plane payloads whose
    cited statement the computed support rule contradicts say so."""

    RHO = {
        "genus:1": [{"N": 5, "values": {"a": 1, "b": 2}}, {"N": 5, "values": {"a": 4, "b": 3}}],
        "genus:2": [NONTRIVIAL_GENUS2, TRIVIAL_GENUS2],
        "c-star": [{"N": 4, "values": {"a": 1}}, {"N": 4, "values": {"a": 3}}],
    }
    TRIVIAL = {
        "genus:1": {"N": 1, "values": {}},
        "genus:2": TRIVIAL_GENUS2,
        "c-star": {"N": 1, "values": {}},
    }

    def flags(self, command, space, n, tmp_path, capsys):
        argv = [command, "--space", space, "--n", str(n)]
        if command != "sigma1":
            comps = self.RHO[space] + [self.TRIVIAL[space]] * (n - 2)
            argv += ["--char", write_json(tmp_path / "rho.json", {"components": comps})]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return json.loads(out).get("flags")

    @pytest.mark.parametrize(
        "command,space",
        [("twisted", "genus:1"), ("sigma1", "genus:1"), ("sigma1", "c-star"),
         ("membership", "genus:1"), ("membership", "c-star")],
    )
    def test_flagged_from_three_strands(self, command, space, tmp_path, capsys):
        assert self.flags(command, space, 2, tmp_path, capsys) is None
        for n in (3, 4):
            flags = self.flags(command, space, n, tmp_path, capsys)
            assert flags == [cli_module.E2_SUPPORT_FLAG]

    @pytest.mark.parametrize(
        "command,space",
        [("twisted", "c-star"), ("twisted", "genus:2"), ("sigma1", "genus:2"),
         ("membership", "genus:2")],
    )
    def test_not_flagged(self, command, space, tmp_path, capsys):
        assert self.flags(command, space, 3, tmp_path, capsys) is None


class TestVerifyCommand:
    def test_unknown_criterion_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--criteria", "99"], capsys)
        assert code == 2
        assert "99" in err

    def test_named_selection(self, capsys):
        code, out, _ = run_cli(["verify", "--criteria", "sphere-b1"], capsys)
        assert code == 0
        assert out.startswith("[PASS] criterion 4 (sphere-b1)")

    @pytest.fixture
    def ran(self, monkeypatch):
        """Stub every criterion, keeping numbers and names; collects the
        numbers of the criteria that ran."""
        ran = []

        def stub(number, name):
            def run(seed):
                ran.append(number)
                return verify_module.CriterionResult(number, name, True, "stub")

            return run

        table = [
            (num, name, stub(num, name)) for num, name, _ in verify_module.CRITERIA
        ]
        monkeypatch.setattr(verify_module, "CRITERIA", table)
        return ran

    @pytest.mark.parametrize("criteria", ["1,snf", "snf,1", "2,1,fox-identity"])
    def test_numbers_and_names_mix(self, ran, criteria, capsys):
        code, out, _ = run_cli(["verify", "--criteria", criteria, "--json"], capsys)
        assert code == 0
        assert ran == [1, 2]
        assert [r["number"] for r in json.loads(out)["results"]] == [1, 2]

    @pytest.mark.parametrize(
        "criteria, named",
        [("1,bogus", "bogus"), ("snf,99", "99"), (",", "no criteria")],
    )
    def test_bad_selection_exits_2(self, ran, criteria, named, capsys):
        code, out, err = run_cli(["verify", "--criteria", criteria], capsys)
        assert code == 2
        assert out == ""
        assert named in err
        assert ran == []

    def test_failure_exits_1(self, monkeypatch, capsys):
        from braidhom.verify import CriterionResult

        def fake(numbers=None, names=None, seed=0):
            return [CriterionResult(1, "fox-identity", False, "forced failure")]

        monkeypatch.setattr(cli_module, "run_criteria", fake)
        code, out, _ = run_cli(["verify", "--criteria", "1"], capsys)
        assert code == 1
        assert out.startswith("[FAIL]")


class TestCatalogLimits:
    @pytest.mark.parametrize(
        "spec",
        [
            "artin_pure:13",
            "free:100001",
            "product(free:1,artin_pure:13)",
            "surface:2001",
            "product(free:100,free:101)",
        ],
    )
    def test_oversized_catalog_exits_2(self, spec, capsys):
        code, out, err = run_cli(["abelianize", "--catalog", spec], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limited to" in err

    @pytest.mark.parametrize("depth", [17, 500, 2000])
    def test_deep_product_exits_2_at_once(self, depth, capsys):
        # surface:0 factors have no generators, so the size bound never
        # fires; the nesting bound does, before any recursion
        spec = "surface:0"
        for _ in range(depth):
            spec = "product(%s,surface:0)" % spec
        start = time.perf_counter()
        code, out, err = run_cli(["abelianize", "--catalog", spec], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            "error: a product id nested %d deep: the catalog is limited to "
            "products nested 16 deep\n" % depth
        )

    def test_product_nested_16_deep_builds(self, capsys):
        spec = "free:1"
        for _ in range(16):
            spec = "product(%s,free:1)" % spec
        code, out, _ = run_cli(["abelianize", "--catalog", spec], capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 17


class TestSizeLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            "b1 --space genus:2 --n 1000000000",
            "b1 --space genus:1000000000 --n 2",
            "verdict --space genus:2 --n 1000000000",
            "sigma1 --space genus:2 --n 1000000000",
            "sigma1 --space c-star --n 1000000000",
        ],
    )
    def test_huge_input_exits_2_at_once(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(argv.split(), capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limited to" in err

    @pytest.mark.parametrize("command", ["twisted", "membership"])
    def test_factor_genus_bounded_before_reading(self, command, tmp_path, capsys):
        # the surface group goes through the catalog, whose genus bound
        # fires before the character file is read
        missing = str(tmp_path / "absent.json")
        argv = [command, "--space", "genus:6000", "--n", "2", "--char", missing]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "limited to genus 2000" in err


class TestTangentInputs:
    @pytest.mark.parametrize("spread", ["0", "-1", "-3"])
    def test_nonpositive_spread_exits_2(self, spread, capsys):
        code, out, err = run_cli(["tangent", "--spread", spread], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--spread" in err

    @pytest.mark.parametrize("genus", ["2001", "5000", "1000000000"])
    def test_genus_bounded_before_sampling(self, genus, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["tangent", "--genus", genus], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "limited to genus 2000" in err

    @pytest.mark.parametrize("genus", ["0", "-1"])
    def test_genus_below_one_keeps_its_message(self, genus, capsys):
        code, out, err = run_cli(["tangent", "--genus", genus], capsys)
        assert (code, out, err) == (2, "", "error: need genus at least 1\n")

    @pytest.mark.parametrize("spread", [str(10**30 + 1), "9" * 4000])
    def test_spread_bounded_before_sampling(self, spread, capsys):
        for genus in ("1", "2000"):
            start = time.perf_counter()
            code, out, err = run_cli(["tangent", "--genus", genus, "--spread", spread], capsys)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err.startswith("error: --spread") and "10^30" in err

    def test_large_spread_draws_without_listing(self, capsys):
        # no list of 2 * spread candidates is built per draw
        code, out, _ = run_cli(["tangent", "--genus", "2", "--spread", str(10**30)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["gate_passed"] and report["h1"] == 6


class TestVerdictOutput:
    @pytest.mark.parametrize(
        "space, rank", [("higher-dim:4:finite", 0), ("higher-dim:4:other:3", 3 * 10**9)]
    )
    def test_billion_strands_higher_dim(self, space, rank, capsys):
        # the n-fold homology profile is built in one step, not n sums
        code, out, _ = run_cli(
            ["verdict", "--space", space, "--n", "1000000000"], capsys
        )
        assert code == 0
        assert json.loads(out)["witnesses"]["h1_rank"] == rank

    @pytest.mark.parametrize("space", ["c-star", "hyperbolic:1"])
    def test_billion_strands_punctured_plane_at_once(self, space, capsys):
        # the plane route builds no jump locus, so no size bound is hit
        n = 10**9
        start = time.perf_counter()
        code, out, _ = run_cli(["verdict", "--space", space, "--n", str(n)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "NotKahler"
        assert payload["witnesses"] == {"b1": n + n * (n - 1) // 2}

    def test_full_flavor_trace_extends_pure(self, capsys):
        _, pure_out, _ = run_cli(
            ["verdict", "--space", "genus:2", "--n", "2"], capsys
        )
        _, full_out, _ = run_cli(
            ["verdict", "--space", "genus:2", "--n", "2", "--flavor", "full"],
            capsys,
        )
        pure = json.loads(pure_out)
        full = json.loads(full_out)
        assert full["trace"][: len(pure["trace"])] == pure["trace"]
        assert len(full["trace"]) == len(pure["trace"]) + 1
        keys = [a["key"] for a in full["anchors"]]
        assert keys[-1] == "finite-index-kahler"

    def test_anchor_array_dedupes_in_citation_order(self, capsys):
        _, out, _ = run_cli(["verdict", "--space", "sphere", "--n", "2"], capsys)
        payload = json.loads(out)
        keys = [a["key"] for a in payload["anchors"]]
        assert keys == ["sphere-small-finite", "finite-projective"]
        assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# golden stdout: sha256 of the default output of each argv, recorded from
# the code before the symbolic group ring was removed; the two genus:2
# verdicts were recorded once b1 was computed for every admitted n, since
# n = 33 used to quote the closed form.  The genus:1 and c-star twisted,
# sigma1, membership and verdict argvs at n >= 3 (except the c-star
# twisted one, whose value 1 both routes give) were re-recorded when those
# payloads moved to the Leray second page support rule and gained their
# flags.  The c-star verdict was re-recorded when R6 moved to the plane
# pure braid group on one more strand.  "@name" stands for
# a file written under tmp_path from GOLDEN_FILES ("@p2_torus" is the data
# file in the repository).

GOLDEN_FILES = {
    "chi_g2": NONTRIVIAL_GENUS2,
    "chi_t": {"N": 1, "values": {}},
    "chi_ap4": {"N": 6, "values": {"A1_2": 1, "A3_4": 5, "A2_3": 3}},
    "rho_g2": {"components": [NONTRIVIAL_GENUS2, {"N": 1, "values": {}}, {"N": 1, "values": {}}]},
    "rho_t": {
        "components": [
            {"N": 5, "values": {"a": 1, "b": 2}},
            {"N": 5, "values": {"a": 4, "b": 3}},
            {"N": 5, "values": {"a": 1, "b": 0}},
        ]
    },
    "rho_c": {
        "components": [
            {"N": 4, "values": {"a": 1}},
            {"N": 4, "values": {"a": 3}},
            {"N": 4, "values": {"a": 0}},
        ]
    },
}

GOLDEN = [
    ("abelianize --catalog surface:2",
     "c68f4de762604ce2e8eff62697de24dbdd43cd976b4f02b638e9852d316b7ca9"),
    ("abelianize --catalog artin_pure:4 --json",
     "0ef9909b3745d91a2fdc02c41d09fc001218ab8cfe3cbc1d64f90c7f45f874c4"),
    ("abelianize --catalog product(surface:1,free:2)",
     "c68f4de762604ce2e8eff62697de24dbdd43cd976b4f02b638e9852d316b7ca9"),
    ("abelianize --file @p2_torus",
     "c68f4de762604ce2e8eff62697de24dbdd43cd976b4f02b638e9852d316b7ca9"),
    ("h1 --catalog surface:2 --char @chi_g2",
     "0638e0001088ee673d70f036bbbddc938b6dd881c7f61590d73509fbaa8f54c8"),
    ("h1 --catalog surface:1 --char @chi_t",
     "0638e0001088ee673d70f036bbbddc938b6dd881c7f61590d73509fbaa8f54c8"),
    ("h1 --catalog artin_pure:4 --char @chi_ap4",
     "26c06ef9f76d30d8ae733371f74208418fd6faff41ae1d7837c4bb0433d1b075"),
    ("b1 --space genus:2 --n 5",
     "f5b1a1ecfe61a29c4c6cdc3a47e569e43828e5a92e55a03584302851e96a1f70"),
    ("b1 --space sphere --n 6",
     "9e2458d755ac5f1a257ecf03fd3cab84e2bbfcfa57b9ba97998635577950dedd"),
    ("b1 --space c-star --n 4",
     "b9fa37fed59c619ca1c89fd4b7b414d5a21db7ac521efb1c5d03d43856836ca9"),
    ("twisted --space genus:2 --n 3 --char @rho_g2",
     "55bf777a283cbfabbd5ca94f0dd84c6c8598e0583add3919ddc637f597fe243e"),
    ("twisted --space genus:1 --n 3 --char @rho_t",
     "59ea9009c72b7b925e4dad66a62548c2df5531cb56f72159ae692fa7aae04977"),
    ("twisted --space c-star --n 3 --char @rho_c",
     "6d2c1c1bd1e9c4705b32d36179141709e01d00f324f14aa92ed977553f465aba"),
    ("e2 --space sphere --n 5",
     "693ee61f0b99d3f068e2a1f9885d57be5a874288bd5fd3259ae19b8aef6b6ef2"),
    ("e2 --space genus:1 --n 3",
     "a74e128523b00d97363bfdc5500e42bbd194848981e978a1da122fa9965a9ade"),
    ("sigma1 --space genus:2 --n 3",
     "c4b0c0a2d40bad27ddd5aeebb98466d14d0897229877ea906c237e33b9646d5f"),
    ("sigma1 --space genus:1 --n 3",
     "367317f5858cba665ad20f376a3b8e3920796cd1e552c1157a568b4d164ae2a0"),
    ("sigma1 --space c-star --n 4",
     "0e0fea8720be7b091560722ba93b708ebcdf058570ed89ce8c832ff64223a988"),
    ("membership --space genus:2 --n 3 --char @rho_g2",
     "4754a7167ed6d922ada1d9b24567c7e047498df8934364354a95aaa395a95d68"),
    ("membership --space genus:1 --n 3 --char @rho_t",
     "50a480a206ca1b4b486ed719f49567364a24382addecdf0c35ef6f39a0aeb8c5"),
    ("membership --space c-star --n 3 --char @rho_c",
     "50ef73d2f080dc3e58818360d1a76886b5f184118b54c7ce38041d9a9dddc7cd"),
    ("charvar --genus 2 --ranks 2,3",
     "ac1172116e5002a941df17e1930030339fef4b4ff63c6370798d3a7c0826f034"),
    ("charvar --genus 3 --ranks 2 --flavor GL",
     "c904ffe31a0fb54472f7394f1b3dc76896a5464b4132cb5a25288ed5c5a168d6"),
    ("tangent --genus 2 --seed 5",
     "1ae4333ad43bef2895eefe42ff417eac4dc88447157604c7a9fd98b6c884d2e7"),
    ("tangent --genus 3",
     "aa90a962ed8905af36d970e59e9f37fcc339dd745c5eaf5fe969068643239f30"),
    ("verdict --space genus:2 --n 33",
     "c2410a5dc4af17a38437260efb48818fc289ad13a3fdae25c0f7601557e6c0cb"),
    ("verdict --space genus:2 --n 64",
     "f458f567c1877bad2a61b5c03b82af94a746031af48c904afb5b0a434afa1cbf"),
    ("verdict --space genus:1 --n 3 --flavor full",
     "a367777a50861039a995951c3989a99b0c1cf37694b2924bce2dd4db9395e3be"),
    ("verdict --space c-star --n 3",
     "1af8ef2af39dd13879dabc9da630abd0d21e0a461606eeeaf9d82769b98ce730"),
    ("verdict --space sphere --n 3",
     "376186916952bb104d00ebe2f5e1506eb4bcaeb8ff58592c043196752d66265c"),
    ("verdict --space higher-dim:4:projective:2 --n 3 --flavor full",
     "3d083d13d352fe5d382c8beca8f1ea2e6677ce303a9fcdbac99766d535375549"),
    ("charp --group artin_pure:4 --p 3",
     "3dade29e6a379600ef5f698906137c34914dec4955c0e5a609a1da48c2326ead"),
    ("charp --group sphere_pure:4 --p 5",
     "76c74c936f5565607a8a2a366050113290f7764cd86a2c81f7d0b536e1374ef2"),
    ("verify --criteria 1 --json",
     "109a85dc04194de0401ad1c6e9589f516da746538ff8f251f03d44fe3ba6c0a9"),
    ("verify --criteria 1,3,4",
     "229ee91be22639b214d29cde5dfb9b39ac69bc7df2136b72ae74b1ed7e308d00"),
    ("abelianize --file @tors",
     "c615b82ff97c93e9e445886c679639cceb82ac421dea3d961144447575f0ae07"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_stdout(argv, digest, tmp_path, capsys):
    paths = {"p2_torus": str(Path(__file__).resolve().parents[1] / "data" / "p2_torus.pres")}
    for name, payload in GOLDEN_FILES.items():
        paths[name] = write_json(tmp_path / (name + ".json"), payload)
    tors = tmp_path / "tors.pres"
    tors.write_text("gens: x y z\nrel: x x y^-1 y^-1\nrel: y y y y\n", encoding="utf-8")
    paths["tors"] = str(tors)
    real = [paths[a[1:]] if a.startswith("@") else a for a in argv.split()]
    code, out, _ = run_cli(real, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# help and usage text: one sha256 over (argv, exit code, stdout, stderr) of
# the top-level help, each subcommand's help, a missing required option and
# an unknown command, at 80 columns.  Recorded under Python 3.11 from the
# grammar as it stood before it became a table; argparse's own wording can
# differ on other Python versions.

HELP_ARGVS = ["-h"] + [
    name + " -h"
    for name in ("abelianize", "h1", "b1", "twisted", "e2", "sigma1", "membership",
                 "charvar", "tangent", "verdict", "charp", "verify")
] + ["b1 --space x", "bogus"]

HELP_DIGEST = "9e827e439925e6eff4da1fb92768ebca44ba84ee45fbe6fc6a3e891f90d35370"


def test_help_and_usage_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in HELP_ARGVS:
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode("utf-8"))
        digest.update(b"\n")
    assert digest.hexdigest() == HELP_DIGEST


# every subcommand that reports anchors, over every space kind and both
# flavours of the verdict; together they cite each anchor in the table
ANCHOR_ARGVS = [
    "verdict --space %s --n %d --flavor %s" % (space, n, flavor)
    for space, n in [
        ("sphere", 2), ("sphere", 4), ("plane", 2), ("plane", 3), ("disk", 3),
        ("c-star", 2), ("c-star", 3), ("genus:1", 3), ("genus:2", 2),
        ("hyperbolic:0", 3), ("hyperbolic:1", 3), ("hyperbolic:2", 2),
        ("higher-dim:4:projective:2", 2), ("higher-dim:3", 2), ("higher-dim:3:other:2", 2),
    ]
    for flavor in ("pure", "full")
] + [
    "charp --group artin_pure:4 --p 3",
    "charp --group sphere_pure:2 --p 5",
    "charp --group surface_pure:1:3 --p 3",
    "b1 --space genus:2 --n 3",
    "b1 --space sphere --n 2",
    "b1 --space sphere --n 5",
    "b1 --space c-star --n 3",
    "e2 --space genus:1 --n 3",
    "sigma1 --space genus:2 --n 3",
    "sigma1 --space genus:1 --n 3",
    "sigma1 --space c-star --n 3",
    "twisted --space genus:2 --n 3 --char @rho_g2",
    "twisted --space genus:1 --n 3 --char @rho_t",
    "twisted --space c-star --n 3 --char @rho_c",
    "membership --space genus:2 --n 3 --char @rho_g2",
    "membership --space genus:1 --n 3 --char @rho_t",
    "membership --space c-star --n 3 --char @rho_c",
]


def test_cited_anchors_are_the_table(tmp_path, capsys):
    key_of = {text: key for key, text in ANCHORS.items()}
    paths = {name: write_json(tmp_path / (name + ".json"), payload) for name, payload in GOLDEN_FILES.items()}
    cited = set()
    for argv in ANCHOR_ARGVS:
        real = [paths[a[1:]] if a.startswith("@") else a for a in argv.split()]
        code, out, _ = run_cli(real, capsys)
        assert code == 0, argv
        payload = json.loads(out)
        cited.update(key_of[step["anchor"]] for step in payload.get("trace", []) if step["anchor"])
        cited.update(anchor["key"] for anchor in payload["anchors"])
    assert cited == set(ANCHORS)


# one sha256 over the concatenated stdout of `tangent` at genus 1..5,
# spreads 1, 3, 40 and 10^30 and seeds 0..9 (in that nesting order),
# recorded from the code that built the adjoint images by conjugating a
# basis of trace zero matrices; genus 1 takes the reducible fallback
TANGENT_SWEEP = "60d3c82c1656469c6f4eb83d7fae61255ef1fc2057b30909fbc221e1774f6133"


def test_tangent_sweep_digest(capsys):
    digest = hashlib.sha256()
    for genus in range(1, 6):
        for spread in (1, 3, 40, 10**30):
            for seed in range(10):
                argv = ["tangent", "--genus", str(genus), "--spread", str(spread), "--seed", str(seed)]
                code, out, _ = run_cli(argv, capsys)
                assert code == 0
                digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == TANGENT_SWEEP


def test_tangent_builds_the_surface_presentation_once(monkeypatch, capsys):
    # the catalog builds it for the command and the sampler validates
    # its images against that same presentation
    built = []
    real = presentations_module.surface_presentation

    def counting(g):
        built.append(g)
        return real(g)

    for module in (presentations_module, cohomology_module):
        monkeypatch.setattr(module, "surface_presentation", counting)
    for genus in (1, 2, 3, 7):
        built.clear()
        code, _, _ = run_cli(["tangent", "--genus", str(genus), "--seed", "4"], capsys)
        assert code == 0
        assert built == [genus]


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


@pytest.fixture
def parsers_built(fresh_parser, monkeypatch):
    """The ``prog`` of each ``argparse.ArgumentParser`` built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


class TestParserReuse:
    def test_one_parser_for_many_calls(self, parsers_built, capsys):
        built = parsers_built
        # abbreviations need argparse, which is built on the first of them
        for argv in (
            ["charvar", "--gen", "2", "--ranks", "2"],
            ["sigma1", "--sp", "genus:1", "--n", "2"],
            ["b1", "--space", "sphere", "--n", "4", "--js"],
            ["charvar", "--genus", "2", "--ra", "2"],
        ):
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        # the top-level parser once, then each subparser once
        assert built[0] == "braidhom"
        assert built.count("braidhom") == 1
        assert len(set(built)) == len(built)

    def test_spelled_argv_builds_no_parser(self, parsers_built, capsys):
        for argv in (
            ["charvar", "--genus", "2", "--ranks", "2", "--flavor", "GL"],
            ["sigma1", "--space", "genus:1", "--n", "2", "--json"],
            ["b1", "--space", "sphere", "--n", "4"],
        ):
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        assert parsers_built == []

    def test_usage_error_leaves_parser_intact(self, fresh_parser, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["b1", "--space", "genus:2"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
        argv = "b1 --space genus:2 --n 5"
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == dict(GOLDEN)[argv]

    def test_help_twice(self, fresh_parser, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: braidhom")


# ---------------------------------------------------------------------------
# the grammar table, and the reader and argparse that both read it

DISPATCH_ARGVS = [
    "abelianize --catalog surface:2",
    "abelianize --file x.pres --json",
    "h1 --catalog surface:2 --char chi.json",
    "b1 --space genus:2 --n 5",
    "twisted --space genus:1 --n 3 --char t.json --json",
    "e2 --space sphere --n 4",
    "sigma1 --space genus:1 --n 2",
    "membership --space c-star --n 2 --char t.json",
    "charvar --genus 2 --ranks 2,3 --flavor GL",
    "tangent --genus 3 --seed 7 --spread 40",
    "tangent --genus -3",
    "verdict --space genus:2 --n 3 --flavor full",
    "charp --group artin_pure:4 --p 3",
    "verify --criteria 99",
    "verify",
    "b1 --space genus:2 --n -3",
    # usage errors, help and the edges of the grammar
    "",
    "-h",
    "--help",
    "b1 --space genus:2",
    "h1 --catalog surface:2 --char chi.json --mode exact",
    "b1 --space genus:2 --n 5 extra",
    "bogus --n 5",
    "b1 --space genus:2 --n x",
    "verdict --space genus:2 --n 3 --flavor mixed",
    "twisted --help",
    "b1 --sp genus:2 --n 5",
    "--",
    "b1 -- --space genus:2 --n 5",
    "b1 --space genus:2 --n 5 -h",
    "-x b1 --space genus:2 --n 5",
    # spellings the reader leaves to the full parse, and repeats it reads
    "b1 --space genus:2 --n=5",
    "b1 --space=genus:2 --n 5",
    "b1 --space genus:1 --n 5 --space genus:2",
    "b1 --space genus:2 --n 5 --json --json",
    "b1 --space genus:2 --n ''",
    "b1 --space genus:2 --n ' 5'",
    "b1 --space '' --n 5",
    "verdict --space genus:2 --n 3 --flavor pure --flavor mixed",
    "b1 --space genus:2 --n x --n 5",
    "twisted --space genus:2 --n 2 --char -",
    "b1 --space --n 5",
    "abelianize --catalog surface:2 --file",
]


def _table():
    """Each command's options from the grammar table, option ->
    ``add_argument`` keywords."""
    return {name: dict(options) for name, (_, _, options) in cli_module.COMMANDS.items()}


# the keywords ``_read_spelled`` reads; any other must be taught to it first
READ_KEYWORDS = {"type", "required", "default", "choices", "action", "help"}


def test_table_uses_only_what_the_reader_reads():
    for name, (handler, text, options) in cli_module.COMMANDS.items():
        assert callable(handler) and text, name
        assert len(_table()[name]) == len(options), name  # no flag twice
        for flag, keywords in options:
            where = (name, flag)
            # the attribute the reader sets is the flag without its dashes
            assert flag.startswith("--") and flag[2:].isidentifier(), where
            assert flag[2:] not in ("command", "func"), where
            assert set(keywords) <= READ_KEYWORDS, where
            assert keywords.get("type", int) is int, where
            assert keywords.get("action", "store_true") == "store_true", where
            if "action" in keywords:
                assert set(keywords) <= {"action", "help"}, where
            # argparse would convert a string default through ``type``
            assert "type" not in keywords or not isinstance(keywords.get("default"), str), where


def _seeded_argvs(count=320):
    """Argvs drawn from every command's options in the grammar table and
    from ``-h``/``--help``, mixing full spellings, abbreviations, ``=``
    forms, missing values, repeats, bad ints and bad choices.  Most start
    with the required options spelled in full, so both routes see many of
    them."""
    rng = cohomology_module.seeded_rng(2207)
    commands = _table()

    def value(keywords):
        if "choices" in keywords:
            return rng.choice(list(keywords["choices"]) + ["bogus"])
        if keywords.get("type") is int:
            return rng.choice(["3", "3", "3", "0", "-2", "x", " 5", ""])
        return rng.choice(["genus:2", "genus:2", "c-star", "a.json", "", "-"])

    argvs = []
    for _ in range(count):
        name = rng.choice(sorted(commands))
        table = commands[name]
        argv = [name]
        if rng.random() < 0.7:
            for option, keywords in table.items():
                if keywords.get("required"):
                    argv += [option, value(keywords)]
        options = sorted(list(table) + ["-h", "--help"])
        for _ in range(rng.randint(0, 4)):
            option = rng.choice(options)
            keywords = table.get(option, {"action": "help"})
            form = rng.random()
            if form < 0.06:
                argv.append(option[: rng.randint(3, max(3, len(option) - 1))])
            elif "action" in keywords:
                argv.append(option)
            elif form < 0.12:
                argv.append(option + "=" + value(keywords))
            elif form < 0.18:
                argv.append(option)  # its value goes missing or is the next option
            else:
                argv += [option, value(keywords)]
        argvs.append(argv)
    return argvs


def _outcome(call, argv, capsys):
    """The namespace a parse returns, or its exit code, with the text it
    printed."""
    try:
        result = vars(call(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize(
    "argvs",
    [[shlex.split(argv)] for argv in DISPATCH_ARGVS] + [_seeded_argvs()],
    ids=[argv or "<empty>" for argv in DISPATCH_ARGVS] + ["seeded"],
)
def test_dispatch_matches_top_level_parse(argvs, fresh_parser, capsys):
    for argv in argvs:
        expected = _outcome(build_parser().parse_args, argv, capsys)
        assert _outcome(cli_module._parse, argv, capsys) == expected, argv


def test_spelled_argv_read_without_argparse(fresh_parser, monkeypatch, capsys):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    spelled = run_cli(["b1", "--space", "sphere", "--n", "4"], capsys)
    assert spelled[0] == 0
    assert calls == []
    # an abbreviation goes through the full parse, to the same answer
    assert run_cli(["b1", "--sp", "sphere", "--n", "4"], capsys) == spelled
    assert calls == ["braidhom", "braidhom b1"]


def _spelled_variants(options):
    """Fully spelled argvs for one command's table options: every option
    given, only the required ones, and every flag twice."""

    def spell(option, keywords):
        if "action" in keywords:
            return [option]
        if "choices" in keywords:
            return [option, str(list(keywords["choices"])[-1])]
        return [option, "3" if keywords.get("type") is int else "x"]

    every = [token for o, k in options for token in spell(o, k)]
    required = [token for o, k in options if k.get("required") for token in spell(o, k)]
    flags = [token for o, k in options if "action" in k for token in spell(o, k) * 2]
    return [every, required, required + flags]


@pytest.mark.parametrize("name", sorted(cli_module.COMMANDS))
def test_reader_matches_parse_on_every_subcommand(name, fresh_parser, capsys):
    for args in _spelled_variants(cli_module.COMMANDS[name][2]):
        argv = [name] + args
        assert cli_module._read_spelled(argv) is not None, argv
        assert cli_module._parse(argv) == build_parser().parse_args(argv), argv


def test_reimport_leaves_no_old_copy_alive():
    script = """
import gc, importlib, sys, weakref

sys.path.insert(0, sys.argv[1])

def fresh():
    for name in [m for m in sys.modules if m.split(".")[0] == "braidhom"]:
        del sys.modules[name]
    importlib.import_module("braidhom.cli")

fresh()
first = weakref.ref(sys.modules["braidhom.presentations"].Character)
fresh()
fresh()
gc.collect()
sys.exit(0 if first() is None else 1)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script, src])
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# state kept across calls cannot change an answer


def _jump_locus_argvs(tmp_path):
    """About 40 seeded twisted and membership argvs over genus:1, genus:2
    and c-star.  Orders up to 4 make components recur across argvs, one
    tuple with a single nontrivial component is asked by both commands,
    so the second reads the first one's h1 when warm, and two files past
    the order limit check that a failure is not kept."""
    rng = cohomology_module.seeded_rng(5150)
    argvs = []
    for k in range(38):
        space = ("genus:1", "genus:2", "c-star")[k % 3]
        n = 2 + (k // 3) % 3
        factor = leray_module.factor_presentation(presentations_module.SpaceSpec.parse(space))
        rho = cohomology_module.random_character_tuple(
            factor.alphabet, n, rng, max_order=4, pair_bias=0.35
        )
        path = write_json(tmp_path / ("rho-%d.json" % k), rho.to_json())
        command = ("twisted", "membership")[k % 2]
        argvs.append([command, "--space", space, "--n", str(n), "--char", path])
    single = {"N": 3, "values": {"a1": 1, "b1": 2, "a2": 0, "b2": 1}}
    path = write_json(tmp_path / "single.json", {"components": [TRIVIAL_GENUS2, single]})
    for command in ("twisted", "membership"):
        argvs.append([command, "--space", "genus:2", "--n", "2", "--char", path])
    past = {"N": 10**6 + 3, "values": {"a1": 1, "b1": 0, "a2": 0, "b2": 0}}
    for k in range(2):
        path = write_json(tmp_path / ("past-%d.json" % k), {"components": [past, TRIVIAL_GENUS2]})
        argvs.append(["twisted", "--space", "genus:2", "--n", "2", "--char", path])
    return argvs


def test_warm_answers_match_cold(tmp_path, capsys):
    argvs = _jump_locus_argvs(tmp_path)
    cold = {}
    for argv in argvs:
        leray_module._factor_h1.cache_clear()
        cold[tuple(argv)] = run_cli(argv, capsys)
    assert {code for code, _, _ in cold.values()} == {0, 2}
    for argv in reversed(argvs):
        assert run_cli(argv, capsys) == cold[tuple(argv)], argv
    assert leray_module._factor_h1.cache_info().hits > 0
