import json

import numpy as np
import pytest

import lu_invar.equivalence
import lu_invar.invariants
from lu_invar.cli import _config_from, _sci, build_parser, main
from lu_invar.equivalence import ScreenConfig, compare_fingerprints, fingerprint
from lu_invar.fixtures import fixture_path
from lu_invar.linalg import haar_unitary
from lu_invar.states import (
    apply_local_unitary_density,
    random_density,
    random_local_unitaries,
    validate_density,
)
from lu_invar.statefile import dumps, load_state, save_state

RHO1 = str(fixture_path("rho1"))
RHO2 = str(fixture_path("rho2"))
SIGMA1 = str(fixture_path("sigma1"))
SIGMA2 = str(fixture_path("sigma2"))


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


class TestCompute:
    def test_text_output_rho1(self, capsys):
        assert main(["compute", RHO1]) == 0
        out = capsys.readouterr().out
        n_line = next(line for line in out.splitlines() if line.startswith("N = "))
        assert float(n_line[len("N = "):]) == pytest.approx(1 / 256, rel=1e-12, abs=0)
        assert "rank: 2" in out
        assert "kyfan = 7.0710678118654" in out

    def test_json_output_parses_and_sorted(self, capsys):
        assert main(["compute", RHO1, "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["rank"] == 2
        assert doc["N"] == [pytest.approx(1 / 256), pytest.approx(0.0)]
        assert list(doc) == sorted(doc)

    def test_json_null_invariants_above_rank_2(self, tmp_path, capsys):
        doc = {
            "dims": [2, 2],
            "matrix": [
                [[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
            ],
        }
        path = write_state(tmp_path, "mixed.json", doc)
        assert main(["compute", path, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["rank"] == 4
        assert parsed["N"] is None and parsed["M"] is None
        assert list(parsed["lambda"]) == ["det"]

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        # not JSON; not UTF-8; nested past the recursion limit; an integer
        # past the interpreter's digit limit for parsing one (Python >= 3.11)
        for k, raw in enumerate([
            b"{not json", b'\xff\xfe{"dims": [2, 2]}', b"[" * 100000,
            b'{"dims": [2, 2], "matrix": ' + b"1" * 5000 + b"}",
        ]):
            path = tmp_path / f"bad{k}.json"
            path.write_bytes(raw)
            assert main(["compute", str(path)]) == 2, raw[:12]
            assert main(["compare", str(path), RHO1]) == 2, raw[:12]
            assert main(["compare", RHO1, str(path)]) == 2, raw[:12]

    def test_missing_file_exit_2(self):
        assert main(["compute", "/nonexistent/state.json"]) == 2

    def test_non_psd_exit_3(self, tmp_path, capsys):
        mat = np.diag([0.6, 0.5, -0.1, 0.0])
        doc = {
            "dims": [2, 2],
            "matrix": [[[float(mat[i, j]), 0.0] for j in range(4)] for i in range(4)],
        }
        path = write_state(tmp_path, "notpsd.json", doc)
        assert main(["compute", path]) == 3
        assert "NotPSD" in capsys.readouterr().err

    def test_validated_at_fixed_tolerance(self, tmp_path, capsys):
        # every StateFile is validated at 1e-10: a trace 5e-11 off 1 passes,
        # one 2e-10 off fails
        for excess, code in ((5e-11, 0), (2e-10, 3)):
            mat = np.diag([0.5 + excess, 0.5, 0.0, 0.0])
            doc = {
                "dims": [2, 2],
                "matrix": [[[float(mat[i, j]), 0.0] for j in range(4)] for i in range(4)],
            }
            path = write_state(tmp_path, f"trace{code}.json", doc)
            assert main(["compute", path]) == code
        assert "NotUnitTrace" in capsys.readouterr().err

    def test_mass_dropped_by_rank_rule_exit_0(self, tmp_path, capsys):
        # 62 eigenvalues of 4e-11, below the default rank_tol of 5e-11, and
        # a rank-3 state at a rank_tol between its two smallest nonzero
        # eigenvalues: compute reads the rank from the spectrum, and mix's
        # Gram trace check counts the mass the rank rule dropped, so both
        # run at rank 2
        w = np.array([0.5, 0.5 - 62 * 4e-11] + [4e-11] * 62)
        u = haar_unitary(64, seed=95)
        tail, path3 = str(tmp_path / "tail.json"), str(tmp_path / "rank3.json")
        save_state(validate_density((u * w) @ u.conj().T, (8, 8)), tail)
        rank3 = random_density((2, 2), 3, seed=96)
        save_state(rank3, path3)
        cut = repr(float(rank3.spectrum[1] + rank3.spectrum[2]) / 2)
        for path, extra in ((tail, []), (path3, ["--rank-tol", cut])):
            assert main(["compute", path, *extra]) == 0
            assert "rank: 2" in capsys.readouterr().out
            assert main(["mix", path, "--count", "2", *extra]) == 0

    def test_wrong_schema_exit_2(self, tmp_path):
        path = write_state(tmp_path, "schema.json", {"dims": [2, 2]})
        assert main(["compute", path]) == 2

    def test_single_subsystem_exit_2(self, tmp_path, capsys):
        # refused when the file is parsed, below full rank and at it
        for k, diag in enumerate(([0.5, 0.5, 0.0, 0.0], [0.25] * 4)):
            doc = {"dims": [4], "matrix": [[[diag[i] if i == j else 0.0, 0.0]
                                            for j in range(4)] for i in range(4)]}
            path = write_state(tmp_path, f"one{k}.json", doc)
            for argv in (["compute", path], ["compare", path, path], ["mix", path]):
                assert main(argv) == 2, (argv, diag)
                assert "'dims' must list at least two" in capsys.readouterr().err

    def test_entry_too_large_for_float_exit_2(self, tmp_path, capsys):
        # a 401-digit integer parses as JSON but has no float value; Python's
        # JSON reader also accepts NaN and Infinity, and reads 1e400 as inf
        rows = [[[0, 0] for _ in range(4)] for _ in range(4)]
        rows[0][1][0] = "ENTRY"
        template = json.dumps({"dims": [2, 2], "matrix": rows})
        for k, literal in enumerate(["1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400"]):
            path = write_state(tmp_path, f"huge{k}.json", template.replace('"ENTRY"', literal))
            assert main(["compute", path]) == 2, literal
            assert "matrix entry (0, 1)" in capsys.readouterr().err
            assert main(["compare", RHO1, path]) == 2, literal
            assert "matrix entry (0, 1)" in capsys.readouterr().err


class TestSci:
    def test_shortest_round_trip_digits(self):
        for x in (1.0000000000000002, 0.25000000000000011, 1 / 256, -7.5e5, 5e-324, 1e300):
            assert float(_sci(x)) == x
        assert _sci(1.0000000000000002) == "1.0000000000000002e0"
        assert _sci(1 / 256) == "3.90625e-3"
        assert _sci(-7.5e5) == "-750000"
        assert _sci(0.0) == "0"


class TestCompare:
    def test_rho_pair_exit_1_witness_n(self, capsys):
        assert main(["compare", RHO1, RHO2]) == 1
        out = capsys.readouterr().out
        assert "verdict: NotEquivalent" in out
        assert "witness: invariant_N" in out

    def test_same_state_exit_0(self, capsys):
        assert main(["compare", RHO1, RHO1]) == 0
        assert "verdict: Inconclusive" in capsys.readouterr().out

    def test_sigma_pair_exit_1(self, capsys):
        assert main(["compare", SIGMA1, SIGMA2]) == 1
        out = capsys.readouterr().out
        assert "verdict: NotEquivalent" in out

    def test_json_report_schema(self, capsys):
        assert main(["compare", RHO1, RHO2, "--json"]) == 1
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert list(doc) == sorted(doc)
        assert doc["verdict"] == "NotEquivalent"
        assert doc["witness"] == "invariant_N"
        assert doc["witness_values"]["value_a"][0] == pytest.approx(1 / 256)
        assert doc["witness_values"]["delta"] == pytest.approx(1 / 256)
        assert doc["tool_version"]
        assert doc["tolerances"] == {"rank_tol": None}
        assert any(c["name"] == "invariant_N" and not c["passed"] for c in doc["checks"])
        # one rule: each check passes exactly when its delta is within its threshold
        for c in doc["checks"]:
            assert "marginal" not in c
            assert c["passed"] == (c["delta"] <= c["threshold"])

    def test_json_deterministic(self, capsys):
        assert main(["compare", SIGMA1, SIGMA2, "--json"]) == 1
        first = capsys.readouterr().out
        assert main(["compare", SIGMA1, SIGMA2, "--json"]) == 1
        second = capsys.readouterr().out
        assert first == second

    def test_dims_mismatch(self, tmp_path, capsys):
        from lu_invar.states import random_density
        from lu_invar.statefile import save_state

        path = str(tmp_path / "qubit_qutrit.json")
        save_state(random_density((2, 3), 2, seed=5), path)
        assert main(["compare", RHO1, path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["fingerprint_a"] is None and doc["fingerprint_b"] is None
        assert doc["witness"] == "dimension signature"
        assert doc["witness_values"] == {"delta": None, "value_a": [2, 2], "value_b": [2, 3]}
        (check,) = doc["checks"]
        assert (check["value_a"], check["value_b"]) == ([2, 0], [3, 0])
        assert main(["compare", RHO1, path]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] dimension signature: 2 vs 3 (delta inf, threshold 0)" in out

    @pytest.mark.parametrize(
        "command", [["compare", RHO1, RHO2], ["mix", RHO1]], ids=["compare", "mix"]
    )
    @pytest.mark.parametrize("option", ["--atol", "--rtol"])
    def test_comparison_tolerances_are_not_options(self, capsys, command, option):
        # each check's threshold follows from the fingerprints' error bounds
        assert main([*command, option, "1"]) == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [["--rank-tol", "nan"], ["--rank-tol", "-1"], ["--rank-tol", "0.6"]],
        ids=["rank-tol-nan", "rank-tol-negative", "rank-tol-above-top"],
    )
    def test_out_of_range_tolerance_is_usage_error(self, capsys, option):
        # a state against itself was NotEquivalent (exit 1), or rank 0 (exit 3);
        # rho1's largest eigenvalue is 1/2, so rank_tol 0.6 keeps none
        assert main(["compare", RHO1, RHO1, *option]) == 2
        assert "usage error: " in capsys.readouterr().err

    def test_zero_rank_tol_stays_inconclusive(self, capsys):
        assert main(["compare", RHO1, RHO1, "--rank-tol", "0"]) == 0
        assert "verdict: Inconclusive" in capsys.readouterr().out


class TestRoundTrip:
    def test_fixture_parse_serialize_byte_identical(self, tmp_path):
        original = fixture_path("rho1").read_text()
        rho = load_state(RHO1)
        from lu_invar.statefile import save_state

        out = tmp_path / "copy.json"
        save_state(rho, out)
        assert out.read_text() == original

    def test_17_significant_digits(self):
        # 1/3 is not representable; serialization must keep all digits
        text = fixture_path("sigma1").read_text()
        assert "0.33333333333333331" in text

    def test_negative_zero_written_as_zero(self):
        # which zeros come out signed depends on the arithmetic path, so a
        # canonical document writes every zero the same way
        from lu_invar.statefile import _pair

        assert dumps(-0.0) == "0\n"
        assert dumps(np.float64(-0.0)) == "0\n"
        text = dumps({"z": _pair(complex(-0.0, -0.0)), "w": [_pair(-1.5 - 0.0j), -0.0]})
        assert "-0" not in text
        assert json.loads(text) == {"w": [[-1.5, 0], 0], "z": [0, 0]}


class TestMix:
    def test_rho1_five_mixings(self, capsys):
        assert main(["mix", RHO1, "--count", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "mix0" in out and "mix4" in out
        assert "spectrum[1]" in out and "invariant_N" in out

    def test_zero_mixings(self, capsys):
        assert main(["mix", RHO1, "--count", "0"]) == 0

    def test_negative_count_is_usage_error(self, capsys):
        assert main(["mix", RHO1, "--count", "-2"]) == 2
        assert "--count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mix", RHO1, "--seed", "-1"],
        ["random-lu", RHO1, "--seed", "-3", "--out", "moved.json"],
        ["selftest", "--seed", "-1"],
        ["selftest", "--seed", "-20000"],
    ], ids=["mix", "random-lu", "selftest-1", "selftest-20000"])
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "moved.json").exists()

    @pytest.mark.parametrize(
        "rho", [load_state(SIGMA1), random_density((2, 2, 2), 3, seed=6)], ids=["rank2", "rank3"]
    )
    def test_rows_are_the_compared_checks(self, tmp_path, capsys, rho):
        path = str(tmp_path / "state.json")
        save_state(rho, path)
        assert main(["mix", path, "--count", "2", "--seed", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        fp = fingerprint(rho)
        # every compared check but kyfan, which is read from rho, so a
        # decomposition fingerprint has none
        checks = [c.name for c in compare_fingerprints(fp, fp).checks if c.name != "kyfan"]
        assert [r.split()[0] for r in rows] == checks

    def test_pure_state(self, tmp_path, capsys):
        doc = {
            "dims": [2, 2],
            "matrix": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ],
        }
        path = write_state(tmp_path, "pure.json", doc)
        assert main(["mix", path, "--count", "3"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert names == ["spectrum[1]"]

    def test_runs_no_svd(self, tmp_path, capsys, monkeypatch):
        # the Ky Fan SVD is the only one on the path, and mix has no Ky Fan
        path = str(tmp_path / "state.json")
        save_state(random_density((8, 8), 64, seed=5), path)
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert main(["mix", path, "--count", "5", "--seed", "1"]) == 0
        assert calls == []

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        # inject a per-call drift into the N that every rank-2 fingerprint
        # reads, so the mixed columns stop agreeing
        real = lu_invar.equivalence.invariant_N
        calls = {"n": 0}

        def drifting(h):
            calls["n"] += 1
            return real(h) + 1e-3 * calls["n"]

        monkeypatch.setattr(lu_invar.equivalence, "invariant_N", drifting)
        assert main(["mix", RHO1, "--count", "3", "--seed", "1"]) == 1
        assert "self-consistency FAILED" in capsys.readouterr().err


class TestRandomLu:
    @pytest.mark.parametrize(
        "rho",
        [load_state(RHO1), random_density((2, 2, 2), 2, seed=4),
         random_density((2, 2, 3), 5, seed=8)],
        ids=["rho1", "222-rank2", "223-rank5"],
    )
    def test_output_is_the_library_composition(self, tmp_path, rho):
        # one unitary per subsystem, so the copy is local across every cut
        src, out, expected = (str(tmp_path / name) for name in ("in.json", "out.json", "lib.json"))
        save_state(rho, src)
        assert main(["random-lu", src, "--seed", "9", "--out", out]) == 0
        save_state(apply_local_unitary_density(rho, random_local_unitaries(rho.dims, 9)), expected)
        assert (tmp_path / "out.json").read_bytes() == (tmp_path / "lib.json").read_bytes()
        for cut in range(1, len(rho.dims)):
            assert main(["compare", src, out, "--cut", str(cut)]) == 0

    def test_output_compares_inconclusive(self, tmp_path, capsys):
        out = str(tmp_path / "moved.json")
        assert main(["random-lu", RHO1, "--seed", "1", "--out", out]) == 0
        assert main(["compare", RHO1, out]) == 0

    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["random-lu", SIGMA1, "--seed", "9", "--out", str(out1)])
        main(["random-lu", SIGMA1, "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSeed:
    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch, capsys):
        # --seed (default 0) is the only seed: LU_INVAR_SEED changes nothing
        out = tmp_path / "moved.json"

        def outputs():
            assert main(["random-lu", RHO1, "--out", str(out)]) == 0
            assert main(["mix", SIGMA1, "--count", "3"]) == 0
            assert main(["selftest"]) == 0
            return out.read_bytes(), capsys.readouterr().out

        monkeypatch.setenv("LU_INVAR_SEED", "31")
        with_env = outputs()
        monkeypatch.delenv("LU_INVAR_SEED")
        assert with_env == outputs()


class TestSelftest:
    def test_quick_option_is_unknown(self):
        # the default runs 10 trials per property; --full is the one mode option
        assert main(["selftest", "--quick"]) == 2

    def test_quick_passes(self, capsys):
        assert main(["selftest", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Example1: N(rho1)=1/256 PASS" in out
        assert "properties passed" in out

    def test_full_includes_padding_and_covariance(self, capsys):
        assert main(["selftest", "--full", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Padding" in out
        assert "Cayley" in out

    def test_corrupted_constant_detected(self, capsys, monkeypatch):
        # swap two rows of the N determinant layout: N flips sign and the
        # example suite must name the failing property
        corrupted = (
            lu_invar.invariants.N_LAYOUT[1],
            lu_invar.invariants.N_LAYOUT[0],
        ) + lu_invar.invariants.N_LAYOUT[2:]
        monkeypatch.setattr(lu_invar.invariants, "N_LAYOUT", corrupted)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "Example1: N(rho1)=1/256 FAIL" in out

    @pytest.mark.parametrize(
        "drift", [lambda n: 1e-3 * n, lambda n: float("nan")], ids=["drift", "nan"]
    )
    def test_randomized_failure_detected(self, capsys, monkeypatch, drift):
        # a per-call drift in the F that every fingerprint reads, or a NaN,
        # breaks the randomized suites, which must be named FAIL with their
        # largest deviation and bound
        real = lu_invar.equivalence.f_invariants
        calls = {"n": 0}

        def drifting(g):
            calls["n"] += 1
            return real(g) + drift(calls["n"])

        monkeypatch.setattr(lu_invar.equivalence, "f_invariants", drifting)
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "Example1: N(rho1)=1/256 PASS" in lines
        for row, bound in (
            ("GramSpectrum: F invariants independent of decomposition mixing", "1e-09"),
            ("GramSpectrum: F invariants match under local unitaries", "1e-09"),
            ("Degeneracy: invariants stable across degenerate eigenbases", "1e-09"),
            ("Example1: F invariants agree on the pair", "1e-10"),
            ("Example2: F invariants agree on the pair", "1e-10"),
        ):
            line = next(x for x in lines if x.startswith(row))
            assert " FAIL  (max " in line and f"bound {bound}" in line

    def test_flagged_rotated_pair_detected(self, capsys, monkeypatch):
        # a per-call drift in the Ky Fan norm that the screen compares makes
        # it flag locally rotated pairs, which the soundness row must name
        real = lu_invar.equivalence.realignment_kyfan
        calls = {"n": 0}

        def drifting(rho):
            calls["n"] += 1
            return real(rho) + 1e-3 * calls["n"]

        monkeypatch.setattr(lu_invar.equivalence, "realignment_kyfan", drifting)
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        row = "Soundness: locally-unitary-equivalent pairs are never flagged"
        line = next(x for x in lines if x.startswith(row))
        assert " FAIL  (max 1.00e+00 " in line and "bound 1e+00" in line


class TestUsage:
    @pytest.mark.parametrize(
        "argv", [["compute", "s"], ["compare", "a", "b"], ["mix", "s"]], ids=lambda a: a[0]
    )
    def test_defaults_are_screen_config_defaults(self, argv):
        args = build_parser().parse_args(argv)
        for name in ("rank_tol", "cut"):
            if hasattr(args, name):
                assert getattr(args, name) == getattr(ScreenConfig, name)
        assert _config_from(args) == ScreenConfig()

    def test_seed_only_on_randomized_commands(self, capsys):
        # fingerprints are deterministic, so compute and compare take no seed
        assert main(["compute", RHO1, "--seed", "5"]) == 2
        assert main(["compare", RHO1, RHO2, "--seed", "5"]) == 2
        assert main(["compare", RHO1, RHO2, "--json"]) == 1
        assert "seed" not in json.loads(capsys.readouterr().out)

    def test_text_option_is_unknown(self):
        # text is the default output; --json is the one format option
        assert main(["compute", RHO1, "--text"]) == 2
        assert main(["compare", RHO1, RHO2, "--text"]) == 2

    def test_no_arguments_exit_2(self):
        assert main([]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["transmogrify"]) == 2
