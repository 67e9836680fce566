"""Subcommand surface not already pinned by the acceptance gate:
character file loading, fragment and jump locus reports, the verify
selection and failure exit, catalog limits, malformed and unreadable
file diagnostics, reuse of one parser across calls, and sha256 digests
of the default stdout of every subcommand."""

import argparse
import hashlib
import json
import time
from pathlib import Path

import pytest

from braidhom import cli as cli_module
from braidhom import verify as verify_module
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
        leray.factor_presentation.cache_clear()
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
        code, out, _ = run_cli(["verify", "--criteria", "snf"], capsys)
        assert code == 0
        assert out.startswith("[PASS] criterion 2 (snf)")

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


class TestSizeLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            "b1 --space genus:2 --n 1000000000",
            "b1 --space genus:1000000000 --n 2",
            "verdict --space genus:2 --n 1000000000",
            "verdict --space c-star --n 1000000000",
            "sigma1 --space genus:2 --n 1000000000",
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
# flags.  "@name" stands for
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
     "a4ec344463d1f1b1a44b500da46598a91244556eb0208e40e4e9a307973815bb"),
    ("verdict --space sphere --n 3",
     "376186916952bb104d00ebe2f5e1506eb4bcaeb8ff58592c043196752d66265c"),
    ("verdict --space higher-dim:4:projective:2 --n 3 --flavor full",
     "9feed25992f4861b2bfad9f8d1224946e622b67914224c4faeb172c743549c81"),
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
# one parser per process


@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


class TestParserReuse:
    def test_one_parser_for_many_calls(self, fresh_parser, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (
            ["charvar", "--genus", "2", "--ranks", "2"],
            ["sigma1", "--space", "genus:1", "--n", "2"],
            ["b1", "--space", "sphere", "--n", "4"],
        ):
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        # one grammar: the top-level parser once, then each subparser once
        assert built[0] == "braidhom"
        assert built.count("braidhom") == 1
        assert len(set(built)) == len(built)

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
