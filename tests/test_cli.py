"""End-to-end command-line pipeline: files in, files out, exit codes."""

import csv
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from layerwave import data_to_dict, invert, model_from_dict, model_to_dict
from layerwave.cli import gen_random_generic, main

from conftest import stage_three_failure_data, stage_two_failure_data


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def write_json(path, obj):
    path.write_text(json.dumps(obj))


class TestGenRandomGeneric:
    def test_deterministic(self):
        a = gen_random_generic(3, seed=7)
        b = gen_random_generic(3, seed=7)
        assert a == b

    def test_rational_mode(self):
        m = gen_random_generic(2, seed=9, rational=True)
        assert m.rational

    def test_margin_floor_respected(self):
        from layerwave import is_generic
        m = gen_random_generic(2, seed=11, margin_floor=1e-3)
        assert is_generic(m).margin >= 1e-3

    def test_one_layer_always_succeeds(self):
        assert gen_random_generic(1, seed=0).layers == 1


class TestPipeline:
    def test_gen_forward_invert_round_trip(self, tmp_path):
        model_p = tmp_path / "model.json"
        data_p = tmp_path / "data.json"
        out_p = tmp_path / "recovered.json"
        assert run(tmp_path, "gen", "--layers", 3, "--seed", 5,
                   "--rational", "--out", model_p) == 0
        assert run(tmp_path, "forward", model_p, "--rational",
                   "--out", data_p) == 0
        assert run(tmp_path, "invert", data_p, "--rational",
                   "--out", out_p) == 0
        assert model_from_dict(json.loads(out_p.read_text())) == \
            model_from_dict(json.loads(model_p.read_text()))

    def test_forward_emit_psi(self, tmp_path):
        model_p = tmp_path / "m.json"
        psi_p = tmp_path / "psi.csv"
        write_json(model_p, {"tau": [1.0, 0.5], "R": [0.5, 0.7]})
        assert run(tmp_path, "forward", model_p, "--out",
                   tmp_path / "d.json", "--emit-psi", psi_p) == 0
        rows = list(csv.DictReader(psi_p.open()))
        assert len(rows) == 2
        assert {r["psi"] for r in rows} == {"1", "2"}

    def test_oracle_agrees_with_forward(self, tmp_path):
        model_p = tmp_path / "m.json"
        write_json(model_p, {"tau": ["1", "1/2"], "R": ["1/2", "7/10"]})
        assert run(tmp_path, "forward", model_p, "--out",
                   tmp_path / "f.json") == 0
        assert run(tmp_path, "oracle", model_p, "--out",
                   tmp_path / "o.json", "--per-k", tmp_path / "perk.csv") == 0
        assert json.loads((tmp_path / "f.json").read_text()) == \
            json.loads((tmp_path / "o.json").read_text())
        rows = list(csv.DictReader((tmp_path / "perk.csv").open()))
        assert len(rows) == 2

    def test_distort_then_robust_invert(self, tmp_path):
        model_p = tmp_path / "m.json"
        write_json(model_p, {"tau": [0.9, 1.3, 0.7, 1.1],
                             "R": [0.4, -0.5, 0.3, 0.6]})
        assert run(tmp_path, "forward", model_p, "--out",
                   tmp_path / "d.json") == 0
        assert run(tmp_path, "distort", tmp_path / "d.json",
                   "--spurious-count", 2, "--seed", 5,
                   "--out", tmp_path / "noisy.json") == 0
        assert run(tmp_path, "invert", tmp_path / "noisy.json", "--robust",
                   "--report", tmp_path / "report.json",
                   "--out", tmp_path / "rec.json") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["rejected_arrivals"]) == 2
        got = model_from_dict(json.loads((tmp_path / "rec.json").read_text()))
        want = model_from_dict(json.loads(model_p.read_text()))
        assert max(abs(a - b) for a, b in zip(got.tau, want.tau)) < 1e-9

    def test_lattice_csv(self, tmp_path):
        model_p = tmp_path / "m.json"
        write_json(model_p, {"tau": [1.0, 0.5], "R": [0.5, 0.7]})
        out = tmp_path / "lattice.csv"
        assert run(tmp_path, "lattice", model_p, "--bound", "2.0",
                   "--out", out) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "k0,k1,time"
        assert len(rows) == 4

    def test_correct_command(self, tmp_path):
        model_p = tmp_path / "m.json"
        assert run(tmp_path, "gen", "--layers", 6, "--seed", 0,
                   "--rational", "--out", model_p) == 0
        assert run(tmp_path, "forward", model_p, "--out",
                   tmp_path / "d.json") == 0
        assert run(tmp_path, "correct", tmp_path / "d.json", model_p,
                   "--emit-sets", tmp_path / "sets.csv",
                   "--out", tmp_path / "corrected.json") == 0
        got = json.loads((tmp_path / "corrected.json").read_text())
        want = json.loads(model_p.read_text())
        assert got["R"] == want["R"]
        rows = list(csv.DictReader((tmp_path / "sets.csv").open()))
        assert rows and set(r["n"] for r in rows) <= {"1", "2", "3"}

    def test_invert_and_correct_sine_distorted_rational(self, tmp_path):
        # exact Stage II reflectivities of the distorted data have
        # numerators past Python's 4300-digit int <-> str limit
        model = {"tau": ["662/955", "969/899", "619/901", "235/187",
                         "1551/941", "59/38", "651/580", "230/341",
                         "1639/984", "321/733", "1384/853", "186/235"],
                 "R": ["85/296", "-319/419", "-167/992", "-553/765",
                       "229/382", "61/209", "233/856", "157/960",
                       "-101/405", "7/9", "122/837", "-169/713"]}
        write_json(tmp_path / "m.json", model)
        steps = [
            ("forward", "m.json", "--out", "d.json"),
            ("distort", "d.json", "--sine",
             "1/1000000:2.114565225143546:9.545360856377922",
             "--out", "x.json"),
            ("invert", "x.json", "--out", "r.json"),
            ("correct", "x.json", "r.json", "--out", "c.json"),
        ]
        for cmd, *argv in steps:
            paths = [tmp_path / a if a.endswith(".json") else a
                     for a in argv]
            assert run(tmp_path, cmd, *paths, "--rational") == 0
        recovered = json.loads((tmp_path / "r.json").read_text())
        assert max(len(r) for r in recovered["R"]) > 4300
        corrected = json.loads((tmp_path / "c.json").read_text())
        assert corrected["R"] == model["R"]

    def test_csv_cells_past_int_str_digit_limit(self, tmp_path):
        # str() of these Fractions raises past the 4300-digit int -> str
        # limit; the cells must read as str() would without the limit
        big = 3 ** 9500
        tiny = f"1/{Decimal(big)}"
        model_p = tmp_path / "m.json"
        write_json(model_p, {"tau": [tiny, "1"], "R": ["1/2", "7/10"]})
        for cmd, option in (("lattice", "--out"), ("forward", "--emit-psi"),
                            ("oracle", "--per-k")):
            out = tmp_path / f"{cmd}.csv"
            extra = [] if cmd == "lattice" else ["--out", tmp_path / "x.json"]
            assert run(tmp_path, cmd, model_p, "--rational", option, out,
                       *extra) == 0
            times = [row["time"] for row in csv.DictReader(out.open())]
            assert times == [tiny, f"{Decimal(big + 1)}/{Decimal(big)}"]

        refl = ["301/851", f"{Decimal(758 * big + 977)}/{Decimal(977 * big)}",
                "-176/361", "3/7", "-37/239"]
        write_json(model_p, {"tau": ["271/159", "1363/885", "98/109",
                                     "573/968", "15/14"], "R": refl})
        assert run(tmp_path, "forward", model_p, "--rational",
                   "--out", tmp_path / "d.json") == 0
        assert run(tmp_path, "correct", tmp_path / "d.json", model_p,
                   "--rational", "--emit-sets", tmp_path / "sets.csv",
                   "--out", tmp_path / "c.json") == 0
        rows = list(csv.DictReader((tmp_path / "sets.csv").open()))
        product = Fraction(301, 851) * Fraction(758 * big + 977, 977 * big)
        assert rows == [{"n": "1", "ratio": f"{Decimal(product.numerator)}/"
                                            f"{Decimal(product.denominator)}"}]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(tmp_path, "gen", "--layers", 4, "--seed", 21,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run(tmp_path, "forward", tmp_path / "nope.json") == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_invalid_model_is_validation_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        write_json(p, {"tau": [1.0, -1.0], "R": [0.5, 0.5]})
        assert run(tmp_path, "forward", p) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "ValidationError"

    def test_guard_exit(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_json(p, {"tau": [1.0, 0.01], "R": [0.5, 0.5]})
        assert run(tmp_path, "forward", p, "--t-max", "3.0",
                   "--max-terms", "5") == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_max_terms_is_validation_error(self, tmp_path, capsys,
                                                       value):
        p = tmp_path / "m.json"
        write_json(p, {"tau": [1.0, 0.5], "R": [0.5, 0.5]})
        assert run(tmp_path, "forward", p, "--max-terms", value) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "max_terms" in err["message"]

    def test_bad_env_max_terms_is_validation_error(self, tmp_path, capsys,
                                                   monkeypatch):
        p = tmp_path / "m.json"
        write_json(p, {"tau": [1.0, 0.5], "R": [0.5, 0.5]})
        monkeypatch.setenv("LAYERWAVE_MAX_TERMS", "abc")
        assert run(tmp_path, "forward", p) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "LAYERWAVE_MAX_TERMS" in err["message"]

    def test_stage_two_failure_exit(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        write_json(p, data_to_dict(stage_two_failure_data()))
        assert run(tmp_path, "invert", p, "--rational") == 4
        assert "R[2]" in json.loads(capsys.readouterr().err)["message"]

    def test_stage_three_failure_exit(self, tmp_path, capsys):
        data = stage_three_failure_data()
        data_p = tmp_path / "d.json"
        model_p = tmp_path / "m.json"
        write_json(data_p, data_to_dict(data))
        write_json(model_p, model_to_dict(invert(data).model))
        assert run(tmp_path, "correct", data_p, model_p, "--rational") == 4
        assert "no redundancy pairs observable for index 2" in \
            json.loads(capsys.readouterr().err)["message"]

    def test_algorithm_exit(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        write_json(p, {"sigma": [1.0, 2.0], "alpha": [1.5, 0.3]})
        assert run(tmp_path, "invert", p) == 4

    @pytest.mark.parametrize("mode", [[], ["--rational"]])
    def test_nan_in_data_is_validation_error(self, tmp_path, capsys, mode):
        p = tmp_path / "d.json"
        p.write_text('{"sigma": [1.0, 2.0], "alpha": [NaN, 0.3]}')
        assert run(tmp_path, "invert", p, *mode) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "ValidationError"

    @pytest.mark.parametrize("mode", [[], ["--rational"]])
    def test_model_field_not_array(self, tmp_path, capsys, mode):
        p = tmp_path / "m.json"
        write_json(p, {"tau": 5, "R": [0.1]})
        assert run(tmp_path, "forward", p, *mode) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "ValidationError"

    @pytest.mark.parametrize("argv", [
        ["invert", "--tol", "abc"], ["invert", "--tol", "-1"],
        ["invert", "--tol", "nan"], ["distort", "--sine", "0.1:abc:2"],
        ["distort", "--shift", "1/0"], ["distort", "--decimate", "inf"],
    ])
    def test_bad_number_is_validation_error(self, tmp_path, capsys, argv):
        p = tmp_path / "d.json"
        write_json(p, {"sigma": [1.0, 1.5], "alpha": [0.5, 0.525]})
        cmd, *options = argv
        assert run(tmp_path, cmd, p, *options) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "ValidationError"

    def test_bad_json_is_io_error(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("{not json")
        assert run(tmp_path, "invert", p) == 5
