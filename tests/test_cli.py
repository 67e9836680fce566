"""Subcommand surface not already pinned by the acceptance gate:
character file loading, fragment and jump locus reports, the verify
failure exit, and malformed file diagnostics."""

import json

import pytest

from braidhom.cli import main


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


class TestVerifyCommand:
    def test_unknown_criterion_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--criteria", "99"], capsys)
        assert code == 2
        assert "99" in err

    def test_named_selection(self, capsys):
        code, out, _ = run_cli(["verify", "--criteria", "snf"], capsys)
        assert code == 0
        assert out.startswith("[PASS] criterion 2 (snf)")

    def test_failure_exits_1(self, monkeypatch, capsys):
        from braidhom import cli as cli_module
        from braidhom.verify import CriterionResult

        def fake(numbers=None, names=None, seed=0):
            return [CriterionResult(1, "fox-identity", False, "forced failure")]

        monkeypatch.setattr(cli_module, "run_criteria", fake)
        code, out, _ = run_cli(["verify", "--criteria", "1"], capsys)
        assert code == 1
        assert out.startswith("[FAIL]")


class TestVerdictOutput:
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
