"""Command-line surface: exit codes, canonical JSON output, determinism."""

import hashlib
import json

import pytest
from test_golden_outputs import VERIFY_SHA256

from lielab.algebra import LieAlgebra, canonical_dumps
from lielab.catalog import canonical_instances, su2q
from lielab.cli import main

GOOD = {
    "field": {"kind": "Q"},
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
}

BROKEN = {
    "field": {"kind": "Q"},
    "dim": 3,
    "basis": ["a", "b", "c"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"2": "1"}},
        {"i": 0, "j": 2, "coeffs": {"0": "1"}},
        {"i": 1, "j": 2, "coeffs": {"1": "1"}},
    ],
}


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(GOOD))
    return str(path)


@pytest.fixture
def su2q_file(tmp_path):
    path = tmp_path / "su2q.json"
    path.write_text(su2q().canonical_json())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestValidate:
    def test_valid_table(self, capsys, h3_file):
        code, out = run(capsys, ["validate", h3_file])
        assert code == 0
        assert out["valid"] is True

    def test_jacobi_failure_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(BROKEN))
        code, out = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out["valid"] is False
        assert out["violations"]
        assert out["violations"][0]["triple"] == [0, 1, 2]

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code = main(["validate", str(path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/nowhere.json"]) == 3
        capsys.readouterr()


class TestAnalyze:
    def test_report_keys(self, capsys, su2q_file):
        code, out = run(capsys, ["analyze", su2q_file])
        assert code == 0
        assert out["structure"]["dim"] == 3
        assert out["rank"] == 1
        assert out["regular"]["status"] == "certified"
        assert out["killing_rank"] == 3
        assert out["h2_dim"] == 0
        assert out["identity"]["table_sha256"]

    def test_heisenberg3(self, capsys, h3_file):
        code, out = run(capsys, ["analyze", h3_file])
        assert code == 0
        assert out["structure"]["nilpotent"] is True
        assert out["rank"] == 3
        assert out["derivation_dim"] == 6
        assert out["centroid_dim"] == 5


class TestVerdictCommands:
    def test_rank(self, capsys, su2q_file):
        code, out = run(capsys, ["rank", su2q_file])
        assert code == 0
        assert out == {"dim": 3, "nilpotent": False, "rank": 1}

    def test_regular_certified(self, capsys, su2q_file):
        code, out = run(capsys, ["regular", su2q_file, "--mode", "certificate"])
        assert code == 0
        assert out["regular"]["status"] == "certified"

    def test_regular_refuted_exit_1(self, capsys, tmp_path):
        from lielab.catalog import sl
        from lielab.fields import QQ

        path = tmp_path / "sl2.json"
        path.write_text(sl(QQ, 2).canonical_json())
        code, out = run(capsys, ["regular", str(path)])
        assert code == 1
        assert out["regular"]["witness"] == ["1", "0", "0"]

    def test_anisotropic_reports_both(self, capsys, su2q_file):
        code, out = run(capsys, ["anisotropic", su2q_file, "--mode", "certificate"])
        assert code == 0
        assert out["anisotropic"]["status"] == "certified"
        assert out["nilpotent_free"]["status"] == "certified"

    def test_fitting(self, capsys, h3_file):
        code, out = run(capsys, ["fitting", h3_file, "--element", "1,0,0"])
        assert code == 0
        assert out["nu"] == 3
        assert out["regular_element"] is True

    def test_fitting_bad_element(self, capsys, h3_file):
        assert main(["fitting", h3_file, "--element", "1,0"]) == 3
        capsys.readouterr()

    def test_commutator_killing(self, capsys, su2q_file):
        code, out = run(capsys, ["commutator", su2q_file, "--target", "1,0,0", "--form", "killing"])
        assert code == 0
        assert out["witness"]["z"] and out["witness"]["y"]

    def test_commutator_search_on_heisenberg(self, capsys, h3_file):
        code, out = run(capsys, ["commutator", h3_file, "--target", "0,0,1"])
        assert code == 0

    def test_commutator_outside_commutant(self, capsys, h3_file):
        assert main(["commutator", h3_file, "--target", "1,0,0"]) == 3
        capsys.readouterr()


class TestLinearStructureCommands:
    def test_derivations(self, capsys, h3_file):
        code, out = run(capsys, ["derivations", h3_file])
        assert code == 0
        assert out["dim"] == 6
        assert len(out["basis"]) == 6

    def test_centroid(self, capsys, su2q_file):
        code, out = run(capsys, ["centroid", su2q_file])
        assert code == 0
        assert out["dim"] == 1

    def test_h2(self, capsys, h3_file):
        code, out = run(capsys, ["h2", h3_file])
        assert code == 0
        assert out["dim"] == 2
        assert len(out["representatives"]) == 2


class TestCatalog:
    def test_list(self, capsys):
        code, out = run(capsys, ["catalog", "list"])
        assert code == 0
        assert "su2q" in [row["name"] for row in out["algebras"]]

    def test_emit_parse_round_trip_is_byte_identical(self, capsys):
        code, _ = run(capsys, ["catalog", "emit", "su2q"])
        assert code == 0

    def test_emitted_text_reparses_identically(self, capsys):
        assert main(["catalog", "emit", "sl", "--n", "2", "--field", "F5"]) == 0
        text = capsys.readouterr().out
        L = LieAlgebra.from_json_dict(json.loads(text))
        assert L.canonical_json() == text.strip()

    def test_emit_quaternion(self, capsys):
        code, out = run(capsys, ["catalog", "emit", "quaternion", "--a", "-1", "--b", "-1"])
        assert code == 0
        assert out["dim"] == 4
        assert "products" in out

    def test_emit_unknown_name(self, capsys):
        assert main(["catalog", "emit", "so31"]) == 3
        capsys.readouterr()


class TestEnumerate:
    def test_dim2_f2(self, capsys):
        code, out = run(capsys, ["enumerate", "--dim", "2", "--field", "F2"])
        assert code == 0
        assert out["tables"] == 4
        assert out["jacobi_valid"] == 4
        assert out["regular"] == 1

    def test_requires_prime_field(self, capsys):
        assert main(["enumerate", "--dim", "2", "--field", "Q"]) == 3
        capsys.readouterr()


class TestVerify:
    def test_single_passing_check(self, capsys):
        code, out = run(capsys, ["verify", "--check", "lemma1-heisenberg"])
        assert code == 0
        assert out["checks"][0]["status"] == "PASS"

    def test_unknown_check(self, capsys):
        assert main(["verify", "--check", "lemma9-nothing"]) == 3
        capsys.readouterr()

    def test_full_run_is_deterministic(self, capsys):
        # one run of the CLI against the recorded digest: stronger than two runs agreeing
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256

    def test_seed_is_recorded(self, capsys):
        code, out = run(capsys, ["verify", "--check", "lemma3-r2", "--seed", "99"])
        assert out["seed"] == 99


class TestCanonicalJson:
    def test_catalog_instances_round_trip(self):
        for name, L in canonical_instances():
            text = L.canonical_json()
            again = LieAlgebra.from_json_dict(json.loads(text)).canonical_json()
            assert text == again, name

    def test_sorted_keys(self):
        text = su2q().canonical_json()
        data = json.loads(text)
        assert text == canonical_dumps(data)


class TestParseBoundary:
    """Malformed input exits 3, the bad-input code, never 1 or 2."""

    def _write(self, tmp_path, entry):
        doc = dict(GOOD, brackets=[entry])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_numeric_coefficient(self, capsys, tmp_path):
        path = self._write(tmp_path, {"i": 0, "j": 1, "coeffs": {"2": 1}})
        assert main(["validate", path]) == 3
        assert "must be a string" in capsys.readouterr().err

    def test_non_object_coeffs(self, capsys, tmp_path):
        path = self._write(tmp_path, {"i": 0, "j": 1, "coeffs": ["1"]})
        assert main(["analyze", path]) == 3
        assert "coeffs must be an object" in capsys.readouterr().err

    def test_bool_index(self, capsys, tmp_path):
        path = self._write(tmp_path, {"i": 0, "j": True, "coeffs": {"2": "1"}})
        assert main(["validate", path]) == 3
        assert "must be integers" in capsys.readouterr().err

    def test_usage_error_exits_3_and_help_exits_0(self, capsys, h3_file):
        for argv in (["rank"], ["regular", h3_file, "--mode", "bogus"], ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 3, argv
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
