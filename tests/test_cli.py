import json
import math
import os
import re

import numpy as np
import pytest

from stablerd.cli import main


def run_cli(args):
    return main(args)


def read_rows(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


class TestRdCommand:
    def test_csv_schema_and_units(self, tmp_path):
        out = tmp_path / "rd.csv"
        rc = run_cli([
            "rd", "--alpha", "1", "--gamma", "2", "--dmin", "0.1", "--dmax", "5",
            "--steps", "50", "--units", "bits", "--output", str(out),
        ])
        assert rc == 0
        comments, header, rows = read_rows(out)
        assert header == ["D", "R_bits"]
        assert len(rows) == 50
        assert any("config:" in c for c in comments)
        assert any("command=rd" in c for c in comments)
        # spot value: R(D=0.1) for strength 2 in bits
        assert rows[0][1] == pytest.approx(math.log(2.0 / 0.1) / math.log(2.0), rel=1e-12)
        # rows at D >= strength have rate 0
        assert all(r == 0.0 for d, r in rows if d >= 2.0)

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "rd.csv"
        args = ["rd", "--alpha", "1.5", "--gamma", "1", "--dmin", "0.2", "--dmax", "3",
                "--steps", "20", "--output", str(out)]
        assert run_cli(args) == 0
        first = out.read_bytes()
        assert run_cli(args) == 0
        assert out.read_bytes() == first
        assert first.endswith(b"\n") and b"\r" not in first

    def test_json_format(self, tmp_path):
        out = tmp_path / "rd.json"
        rc = run_cli(["rd", "--alpha", "1", "--gamma", "1", "--dmin", "0.5",
                      "--dmax", "1.5", "--steps", "3", "--format", "json",
                      "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["D", "R_nats"]
        assert len(doc["rows"]) == 3
        assert doc["config"]["command"] == "rd"


class TestStrengthCommand:
    def test_uniform_cauchy_value(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["strength", "--uniform", "--alpha", "1",
                        "--output", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header[0] == "alpha"
        assert rows[0][1] == pytest.approx(0.1359, abs=5e-4)

    def test_stable_source(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["strength", "--source", "stable", "--alpha", "1.4",
                        "--gamma", "2", "--output", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert rows[0][1] == pytest.approx(1.4 ** (1 / 1.4) * 2.0, rel=1e-4)

    def test_samples_file(self, tmp_path):
        f = tmp_path / "vals.txt"
        np.savetxt(f, [-2.0, 2.0])
        out = tmp_path / "s.csv"
        assert run_cli(["strength", "--samples-file", str(f), "--alpha", "1",
                        "--output", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert rows[0][1] == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-8)


class TestDesignCommand:
    def test_json_document(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        rc = run_cli(["design", "--source", "cauchy", "--gamma", "1", "--M", "2",
                      "--seed", "7", "--output", str(out)])
        assert rc == 0
        text = out.read_text().strip()
        assert re.match(
            r'^\{"alpha": .*, "points": \[.*\], "boundaries": \[.*\], '
            r'"symmetric": true, "error_strength": .*\}$',
            text,
        )
        doc = json.loads(text)
        assert len(doc["points"]) == 2
        assert doc["alpha"] == 1.0

    def test_deterministic_given_seed(self, tmp_path):
        outs = []
        for name in ("q1.json", "q2.json"):
            out = tmp_path / name
            assert run_cli(["design", "--source", "cauchy", "--M", "2",
                            "--seed", "11", "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestWaterfillCommand:
    def test_allocation(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert run_cli(["waterfill", "--alpha", "1", "--strengths", "1,3",
                        "--D", "2", "--output", str(out)]) == 0
        comments, header, rows = read_rows(out)
        assert header == ["component", "strength", "distortion"]
        assert rows[0][2] == pytest.approx(1.0) and rows[1][2] == pytest.approx(1.0)
        rate_line = next(c for c in comments if "rate_nats" in c)
        assert float(rate_line.split("=")[1]) == pytest.approx(math.log(3.0))


class TestErrorsAndExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["rd", "--alpha", "1", "--no-such-flag", "3"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, capsys):
        rc = main(["rd", "--alpha", "1", "--gamma", "1", "--dmin", "-1",
                   "--dmax", "2", "--steps", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["strength", "--source", "stable", "--alpha", "0.05"],  # the tail span
        ["strength", "--source", "stable", "--alpha", "1.5", "--gamma", "1e300"],  # gamma^alpha
        ["uniform-sweep", "--source", "stable", "--alpha", "1.5", "--deltas", "1e300"],
        ["waterfill", "--alpha", "1", "--strengths", "1,nan", "--D", "1"],
    ], ids=["tiny-alpha", "huge-gamma", "huge-delta", "nan-strength"])
    def test_out_of_range_is_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line[:7] for line in captured.err.splitlines()] == ["error: "]


class TestReproduce:
    def test_fig1(self, tmp_path):
        rc = run_cli(["reproduce", "fig1", "--outdir", str(tmp_path)])
        assert rc == 0
        files = sorted(os.listdir(tmp_path))
        assert set(files) == {
            "fig1_alpha0.5.csv", "fig1_alpha1.csv", "fig1_alpha1.5.csv",
            "fig1_alpha2.csv",
        }
        for name in files:
            comments, header, rows = read_rows(tmp_path / name)
            assert header == ["D", "R_nats"]
            assert len(rows) == 70
            assert any("figure-defaults" in c for c in comments)
        # the alpha=0.5 curve has strength 0.5: all D >= 0.5 rows clamp to zero
        _, _, rows = read_rows(tmp_path / "fig1_alpha0.5.csv")
        assert all(r == 0.0 for d, r in rows if d >= 0.5)
        assert all(r > 0.0 for d, r in rows if d < 0.5)

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STABLERD_OUTPUT_DIR", str(tmp_path))
        assert run_cli(["rd", "--alpha", "1", "--gamma", "1", "--dmin", "0.5",
                        "--dmax", "1", "--steps", "2", "--output", "sub/rd.csv"]) == 0
        assert (tmp_path / "sub" / "rd.csv").exists()


class TestReproduceFig5:
    def test_fig5_gap_columns(self, tmp_path):
        rc = run_cli(["reproduce", "fig5", "--outdir", str(tmp_path)])
        assert rc == 0
        comments, header, rows = read_rows(tmp_path / "fig5.csv")
        assert header == list(
            ("M", "delta", "strength", "entropy_nats", "gap_measured", "gap_analytical")
        )
        assert [int(r[0]) for r in rows] == [2 ** k for k in range(1, 9)]
        gaps = [r[4] for r in rows]
        assert all(g >= -1e-9 for g in gaps)
        assert all(b < a + 1e-9 for a, b in zip(gaps, gaps[1:]))
