"""End-to-end command line behavior and exit codes."""

import pytest

from borescan.cli import main
from borescan.manifest import load_manifest, read_report

CONFIG = "[hole]\nradius_mm = 0.9\ndepth_mm = 2.0\n"
DEFECTS = (
    "kind,z_mm,beta_deg,size_mm,length_mm,contrast\n"
    "disc,1.0,100.0,0.2,,\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


@pytest.fixture
def synth_dir(tmp_path, config_path):
    defects = tmp_path / "defects.csv"
    defects.write_text(DEFECTS)
    out = tmp_path / "tiles"
    code = main(
        ["synth", "--config", str(config_path), "--defects", str(defects),
         "--out", str(out)]
    )
    assert code == 0
    return out


class TestPlan:
    def test_writes_manifest_and_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "plan"
        assert main(["plan", "--config", str(config_path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "4 rotations x 2 depths = 8 tiles" in captured
        manifest = load_manifest(out / "plan.yaml")
        assert manifest.plan.n_rot == 4
        assert manifest.plan.alpha_deg == 90.0
        assert manifest.images == []

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(
            ["plan", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_incomplete_config_exits_2_naming_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[hole]\nradius_mm = 0.9\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "depth_mm" in capsys.readouterr().err

    def test_detect_section_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + "[detect]\nmin_area_px = 9\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "inspect --min-area" in capsys.readouterr().err

    def test_degenerate_geometry_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + "[region]\nwidth_mm = 2.9\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_unwritable_out_exits_4(self, tmp_path, config_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["plan", "--config", str(config_path), "--out", str(blocker)])
        assert code == 4


class TestSynth:
    def test_writes_tiles_and_manifest(self, synth_dir):
        manifest = load_manifest(synth_dir / "manifest.yaml")
        assert len(manifest.images) == 8
        assert len(manifest.truth) == 1
        for entry in manifest.images:
            assert (synth_dir / entry["file"]).exists()

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        defects = tmp_path / "defects.csv"
        defects.write_text(DEFECTS)
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            code = main(
                ["synth", "--config", str(config_path), "--defects", str(defects),
                 "--out", str(out), "--noise-sigma", "5", "--seed", "3"]
            )
            assert code == 0
            outs.append(out)
        first, second = outs
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_defect_outside_hole_exits_3(self, tmp_path, config_path, capsys):
        defects = tmp_path / "defects.csv"
        defects.write_text(
            "kind,z_mm,beta_deg,size_mm,length_mm,contrast\ndisc,1.99,0,0.1,,\n"
        )
        code = main(
            ["synth", "--config", str(config_path), "--defects", str(defects),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_bad_defect_csv_exits_2(self, tmp_path, config_path):
        defects = tmp_path / "defects.csv"
        defects.write_text("kind,z_mm\ndisc,1.0\n")
        code = main(
            ["synth", "--config", str(config_path), "--defects", str(defects),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestInspect:
    def test_finds_planted_disc(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "inspect"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "panorama.pgm").exists()
        assert (out / "corrected" / "tile_d00_r00.pgm").exists()
        report = read_report(out / "report.yaml")
        assert len(report["records"]) == 1
        rec = report["records"][0]
        assert rec["kind"] == "disc"
        assert rec["z_mm"] == pytest.approx(1.0, abs=0.01)
        assert rec["beta_deg"] == pytest.approx(100.0, abs=0.2)
        assert rec["size_mm"] == pytest.approx(0.2, abs=0.005)
        assert "disc" in capsys.readouterr().out

    def test_threading_does_not_change_output(self, tmp_path, synth_dir):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            code = main(
                ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
                 "--out", str(out), "--threads", threads]
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "report.yaml").read_bytes() == (
            outs[1] / "report.yaml"
        ).read_bytes()
        assert (outs[0] / "panorama.pgm").read_bytes() == (
            outs[1] / "panorama.pgm"
        ).read_bytes()

    def test_threads_env_used(self, tmp_path, synth_dir, monkeypatch):
        monkeypatch.setenv("BORESCAN_THREADS", "2")
        out = tmp_path / "env"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out)]
        )
        assert code == 0

    def test_bad_threads_env_exits_2(self, tmp_path, synth_dir, monkeypatch):
        monkeypatch.setenv("BORESCAN_THREADS", "lots")
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_missing_tile_exits_5_naming_file(self, tmp_path, synth_dir, capsys):
        (synth_dir / "tile_d01_r02.pgm").unlink()
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 5
        assert "tile_d01_r02.pgm" in capsys.readouterr().err

    def test_corrupt_tile_exits_5(self, tmp_path, synth_dir, capsys):
        target = synth_dir / "tile_d00_r01.pgm"
        target.write_bytes(target.read_bytes()[:40])
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 5
        assert "tile_d00_r01.pgm" in capsys.readouterr().err

    def test_corrupt_manifest_exits_2(self, tmp_path, synth_dir):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{[")
        assert main(["inspect", "--manifest", str(bad), "--out", str(tmp_path)]) == 2

    def test_otsu_threshold_accepted(self, tmp_path, synth_dir):
        out = tmp_path / "otsu"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out), "--threshold", "otsu"]
        )
        assert code == 0


class TestReportCompare:
    def run_inspections(self, tmp_path, synth_dir, count=2):
        reports = []
        for i in range(count):
            out = tmp_path / f"trial{i}"
            assert main(
                ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
                 "--out", str(out)]
            ) == 0
            reports.append(str(out / "report.yaml"))
        return reports

    def test_identical_trials_have_zero_spread(self, tmp_path, synth_dir, capsys):
        reports = self.run_inspections(tmp_path, synth_dir)
        out = tmp_path / "compare"
        code = main(
            ["report-compare", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out)] + reports
        )
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == (
            "kind,z_mm,beta_deg,true_size_mm,trials,mean_size_mm,"
            "std_size_mm,mean_error_mm"
        )
        kind, z, beta, true, trials, mean, std, err = lines[1].split(",")
        assert kind == "disc"
        assert trials == "2"
        assert std == "0.0"
        assert abs(float(mean) - 0.2) < 0.005

    def test_no_truth_exits_6(self, tmp_path, config_path, capsys):
        out = tmp_path / "clean"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        code = main(
            ["report-compare", "--manifest", str(out / "manifest.yaml"),
             "--out", str(tmp_path / "c"), str(out / "manifest.yaml")]
        )
        assert code == 6

    def test_zero_reports_exits_6(self, tmp_path, synth_dir):
        code = main(
            ["report-compare", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "c")]
        )
        assert code == 6


class TestArgparse:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["polish"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"
