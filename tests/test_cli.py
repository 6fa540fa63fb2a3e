"""Command-line surface: exit codes, canonical JSON output, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_outputs import VERIFY_SHA256

from lielab.algebra import LieAlgebra, StructureError, canonical_dumps
from lielab.catalog import canonical_instances, heisenberg, sl, su2q
from lielab.cli import main
from lielab.fields import GF, QQ

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

    def test_emit_quaternion_defaults_to_minus_one(self, capsys):
        code, defaults = run(capsys, ["catalog", "emit", "quaternion"])
        assert code == 0
        assert run(capsys, ["catalog", "emit", "quaternion", "--a", "-1", "--b", "-1"]) == (0, defaults)
        code, other = run(capsys, ["catalog", "emit", "quaternion", "--a", "2"])
        assert code == 0 and other != defaults

    def test_emit_unknown_name(self, capsys):
        assert main(["catalog", "emit", "so31"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["su2q", "--n", "7"], "su2q takes no parameters, not n"),
            (["r2", "--n", "7"], "r2 takes no parameters, not n"),
            (["quaternion", "--n", "3"], "quaternion takes a and b, not n"),
            (["sl2_o1_f3", "--field", "Q"], "sl2_o1_f3 is defined over F_3"),
            (["su2q", "--field", "F5"], "su2q is defined over the rationals"),
            (["psl", "--field", "F3"], "psl needs the parameter n"),
            (["sl", "--a", "5", "--b", "7"], "sl takes n, not a"),
            (["sl", "--n", "3", "--b", "7"], "sl takes n, not b"),
            (["su2q", "--a", "-1"], "su2q takes no parameters, not a"),
        ],
    )
    def test_emit_checks_parameters_and_field(self, capsys, argv, message):
        assert main(["catalog", "emit", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["gl", "sl", "strict_upper", "heisenberg", "abelian"])
    def test_emit_family_beyond_the_cap_exits_3(self, capsys, name):
        assert main(["catalog", "emit", name, "--n", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap 32" in captured.err

    def test_emit_abelian_of_negative_size_exits_3(self, capsys):
        assert main(["catalog", "emit", "abelian", "--n", "-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: abelian needs n >= 0\n"

    def test_emit_on_beyond_the_cap_exits_3(self, capsys):
        assert main(["catalog", "emit", "on", "--n", "6", "--field", "F2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap 32" in captured.err


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

    def test_negative_dim_exits_3(self, capsys):
        assert main(["enumerate", "--dim", "-1", "--field", "F3"]) == 3
        assert "dimension >= 0" in capsys.readouterr().err

    def test_over_the_cap_exits_2_with_a_note(self, capsys):
        code, out = run(capsys, ["enumerate", "--dim", "4", "--field", "F2"])
        assert code == 2
        assert out == {"note": "16777216 tables exceed the enumeration cap 1000000"}

    def test_a_huge_dimension_exits_2_with_the_exponent(self, capsys):
        code, out = run(capsys, ["enumerate", "--dim", "40", "--field", "F3"])
        assert code == 2
        assert out == {"note": "3^31200 tables exceed the enumeration cap 1000000"}


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

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"i": 1, "j": 0}, "bracket pair (1, 0) must satisfy 0 <= i < j < dim"),
            ({"i": 1, "j": 1}, "bracket pair (1, 1) must satisfy 0 <= i < j < dim"),
            ({"i": 0, "j": 3}, "bracket pair (0, 3) must satisfy 0 <= i < j < dim"),
            ({"i": -1, "j": 1}, "bracket pair (-1, 1) must satisfy 0 <= i < j < dim"),
            ({"i": 0, "j": 1, "coeffs": {"3": "1"}}, "bracket (0, 1) names component 3 outside the basis"),
            ({"i": 0, "j": 1, "coeffs": {"-1": "1"}}, "bracket (0, 1) names component -1 outside the basis"),
        ],
        ids=["i>j", "i=j", "j-out", "i-negative", "k-out", "k-negative"],
    )
    def test_table_rules_are_checked_by_the_table_cleaner(self, capsys, tmp_path, entry, message):
        with pytest.raises(StructureError) as exc:
            LieAlgebra.from_json_dict(dict(GOOD, brackets=[entry]))
        assert str(exc.value) == message
        assert main(["validate", self._write(tmp_path, entry)]) == 3
        assert message in capsys.readouterr().err

    def test_bool_index(self, capsys, tmp_path):
        path = self._write(tmp_path, {"i": 0, "j": True, "coeffs": {"2": "1"}})
        assert main(["validate", path]) == 3
        assert "must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("dim,basis", [(3.0, ["x", "y", "z"]), (True, ["x"])], ids=["float", "bool"])
    def test_non_integer_dim(self, capsys, tmp_path, dim, basis):
        # 3.0 == 3 and True == 1, so only a type test tells them from a dim
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(dict(GOOD, dim=dim, basis=basis, brackets=[])))
        assert main(["validate", str(path)]) == 3
        assert "dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("coeff", ["1e10000000", "1e1000000", "1E5", "-2.5e-3"])
    def test_exponent_coefficient(self, capsys, tmp_path, coeff):
        # Fraction would expand the exponent into a huge integer first
        path = self._write(tmp_path, {"i": 0, "j": 1, "coeffs": {"2": coeff}})
        assert main(["validate", path]) == 3
        assert "not a rational scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("coeff,value", [("1.5", Fraction(3, 2)), ("-3/4", Fraction(-3, 4)), (" 2 ", Fraction(2))])
    def test_plain_coefficient_still_parses(self, capsys, tmp_path, coeff, value):
        assert QQ.parse(coeff) == value
        path = self._write(tmp_path, {"i": 0, "j": 1, "coeffs": {"2": coeff}})
        assert main(["validate", path]) == 0
        capsys.readouterr()

    def test_huge_modulus_in_table(self, capsys, tmp_path):
        # 2^61 - 1 is prime; the size bound must answer before any primality test
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(GOOD, field={"kind": "Fp", "p": 2**61 - 1})))
        assert main(["validate", str(path)]) == 3
        assert "modulus too large" in capsys.readouterr().err

    def test_huge_modulus_in_field_option(self, capsys):
        assert main(["catalog", "emit", "sl", "--field", f"F{2**61 - 1}"]) == 3
        assert "modulus too large" in capsys.readouterr().err

    def test_usage_error_exits_3_and_help_exits_0(self, capsys, h3_file):
        for argv in (["rank"], ["regular", h3_file, "--mode", "bogus"], ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 3, argv
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()


# -- the exit-code contract on mutated tables ---------------------------------

SMALL_TABLES = [
    json.loads(L.canonical_json()) for L in (sl(QQ, 2), su2q(), heisenberg(GF(3), 1))
]
# the type each slot of a table document must have
SLOT_TYPES = {
    "field": dict, "dim": int, "basis": list, "label": str, "brackets": list,
    "entry": dict, "i": int, "j": int, "coeffs": dict, "coeff": str,
}
WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# no digits, so neither Fraction nor int can read any of them
BAD_COEFFS = st.text(alphabet="xyz!#/.,- ", max_size=4)
BAD_FIELDS = [
    {"kind": "R"}, {"kind": "F3"}, {"kind": "q"}, {"kind": ""}, {"kind": None}, {"kind": 3},
    {"kind": ["Q"]}, {"kind": "Fp", "p": 4}, {"kind": "Fp", "p": 1}, {"kind": "Fp", "p": -3},
    {"kind": "Fp", "p": "3"}, {"kind": "Fp", "p": 3.0}, {"kind": "Fp", "p": 2**31},
]


@st.composite
def malformed_tables(draw):
    """A small valid table with one defect that makes the document malformed:
    a key dropped, a wrong type (also a float or bool equal to the integer
    it replaces), an out-of-range or bool index, a bad coefficient string,
    an unknown field kind or a duplicate entry."""
    doc = copy.deepcopy(draw(st.sampled_from(SMALL_TABLES)))
    dim = doc["dim"]
    entry = draw(st.sampled_from(doc["brackets"]))
    coeffs = entry["coeffs"]
    key = draw(st.sampled_from(sorted(coeffs)))
    holders = {"dim": doc, "i": entry, "j": entry, "p": doc["field"]}
    defect = draw(st.sampled_from(["drop", "type", "retype", "index", "coeff", "field", "duplicate"]))
    if defect == "drop":
        where = draw(st.sampled_from(["field", "dim", "basis", "brackets", "i", "j", "kind"] + ["p"] * ("p" in doc["field"])))
        del (entry if where in ("i", "j") else doc["field"] if where in ("kind", "p") else doc)[where]
    elif defect == "type":
        where = draw(st.sampled_from(sorted(SLOT_TYPES)))
        wrong = draw(WRONG_TYPES.filter(lambda w: not isinstance(w, SLOT_TYPES[where]) or type(w) is bool))
        if where == "label":
            doc["basis"][draw(st.integers(0, dim - 1))] = wrong
        elif where == "entry":
            doc["brackets"][doc["brackets"].index(entry)] = wrong
        elif where == "coeff":
            coeffs[key] = wrong
        else:
            (entry if where in ("i", "j", "coeffs") else doc)[where] = wrong
    elif defect == "retype":
        # the same number as a float or a bool, which compares equal to it
        where = draw(st.sampled_from(["dim", "i", "j"] + ["p"] * ("p" in doc["field"])))
        value = holders[where][where]
        holders[where][where] = draw(st.sampled_from([float(value)] + [bool(value)] * (value in (0, 1))))
    elif defect == "index":
        where = draw(st.sampled_from(["i", "j", "component"]))
        if where == "component":
            coeffs[draw(st.sampled_from([str(dim), str(dim + 1), "-1", "x", "1.0", "", "True"]))] = coeffs.pop(key)
        else:
            entry[where] = draw(st.sampled_from([dim, dim + 1, -1, True, False]))
    elif defect == "coeff":
        coeffs[key] = draw(BAD_COEFFS)
    elif defect == "field":
        doc["field"] = draw(st.sampled_from(BAD_FIELDS))
    else:
        twin = dict(entry, coeffs={})
        if draw(st.booleans()):
            twin["i"], twin["j"] = entry["j"], entry["i"]
        doc["brackets"].append(twin)
    return doc


def _run_on(command, doc):
    """(exit code, stderr) of cli.main on doc written to a table file; an
    exception escaping main fails the test."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    return code, err.getvalue()


class TestExitContract:
    """Every run exits in {0, 1, 2, 3} without a traceback; a malformed
    document exits 3."""

    @given(doc=malformed_tables(), command=st.sampled_from(["validate", "rank"]))
    @settings(max_examples=300, deadline=None)
    def test_malformed_table_exits_3(self, doc, command):
        code, err = _run_on(command, doc)
        assert code == 3, (doc, err)
        assert err.startswith("error: ") and "Traceback" not in err

    @given(
        doc=st.sampled_from(SMALL_TABLES),
        coeff=st.integers(-3, 3).map(str),
        command=st.sampled_from(["validate", "rank"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_changed_coefficient_keeps_the_contract(self, doc, coeff, command):
        # a well-formed table that may break Jacobi: validate reports it
        # (exit 1), rank refuses it as input (exit 3)
        doc = copy.deepcopy(doc)
        entry = doc["brackets"][0]
        entry["coeffs"][min(entry["coeffs"])] = coeff
        code, err = _run_on(command, doc)
        assert code in {0, 1, 2, 3}
        assert "Traceback" not in err


BENCH_INPUTS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "inputs").glob("*.json"))


class TestBenchmarkInputs:
    """Each command keeps the exit-code contract on every benchmark table:
    main maps a bad input to 3 and an exhausted budget to 2."""

    @pytest.mark.parametrize("path", BENCH_INPUTS, ids=lambda p: p.stem)
    def test_exit_contract(self, path):
        dim = json.loads(path.read_text())["dim"]
        e1 = ",".join(["1"] + ["0"] * (dim - 1))
        for argv in (
            ["rank"], ["regular"], ["anisotropic"], ["validate"],
            ["fitting", f"--element={e1}"], ["commutator", "--form", "killing", f"--target={e1}"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            assert code in {0, 1, 2, 3}, (argv, code)
            assert "Traceback" not in err.getvalue(), argv

    def test_budget_bound_commutator_exits_2(self, capsys):
        path = next(p for p in BENCH_INPUTS if p.stem == "sl4q")
        code, out = run(capsys, ["commutator", str(path), "--form", "killing", "--target=" + ",".join(["1"] + ["0"] * 14)])
        assert code == 2
        assert list(out) == ["note"] and "over the cap" in out["note"]


class TestHuman:
    """--human renders the payload as indented text; the exit code is the
    one of the JSON run."""

    def test_verify_lists_every_check_then_the_counts(self, capsys):
        from lielab.cli import verify_check_names

        assert main(["verify", "--human"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 25
        names = verify_check_names()
        assert len(names) == 24
        for line, name in zip(lines, names):
            status, shown, elapsed, unit = line.split()
            assert shown == name and unit == "ms" and float(elapsed) >= 0
            assert status == ("FAIL" if name in ("der-psl3f3", "h2-psl3f3") else "PASS"), line
        assert lines[-1] == "22 passed, 2 failed, 0 skipped"

    def test_rank_is_one_line_per_key(self, capsys):
        path = next(p for p in BENCH_INPUTS if p.stem == "sl3q")
        assert main(["rank", str(path), "--human"]) == 0
        assert capsys.readouterr().out == "dim: 8\nrank: 2\nnilpotent: False\n"

    def test_h2_nests_the_representatives(self, capsys):
        # each representative, a list of terms, sits one level deeper than
        # the list of representatives and is closed by one "-"
        path = next(p for p in BENCH_INPUTS if p.stem == "heisenberg2q")
        assert main(["h2", str(path), "--human"]) == 0
        block = "    i: {}\n    j: {}\n    c: 1\n  -\n"
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert capsys.readouterr().out == "dim: 5\nrepresentatives:\n" + "".join(block.format(*ij) for ij in pairs)

    def test_terms_of_a_nested_list_are_told_apart(self):
        from lielab.cli import _human_lines

        reps = {"representatives": [[{"i": 0, "c": 1}, {"i": 1, "c": 2}], [{"i": 2, "c": 3}]]}
        assert _human_lines(reps) == [
            "representatives:",
            "    i: 0", "    c: 1", "    -", "    i: 1", "    c: 2", "  -",
            "    i: 2", "    c: 3", "  -",
        ]
        # a list of dicts at the top keeps a "-" after every item
        assert _human_lines([{"a": 1}, {"a": 2}]) == ["a: 1", "-", "a: 2", "-"]
