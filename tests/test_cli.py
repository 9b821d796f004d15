"""End-to-end command line behavior and exit codes."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from borescan import cli, scanplan, synth
from borescan.cli import main
from borescan.config import load_config
from borescan.errors import DomainError, PlanIndexError, ThresholdError
from borescan.manifest import load_manifest, manifest_to_dict, read_report
from borescan.pgm import read_pgm, write_pgm
from borescan.scanplan import plan_scan

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


def set_in_manifest(directory, path, value):
    """Set the value at ``path`` in the manifest in ``directory``; returns
    the manifest file."""
    manifest = directory / "manifest.yaml"
    data = yaml.safe_load(manifest.read_text())
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    manifest.write_text(yaml.safe_dump(data, sort_keys=False))
    return manifest


@pytest.fixture
def no_schedule(monkeypatch):
    """Fail at the first schedule entry built, so no test builds a huge plan."""

    def refuse(**fields):
        raise AssertionError("a schedule entry was built")

    monkeypatch.setattr(scanplan, "CaptureEvent", refuse)


class TestPlan:
    def test_writes_manifest_and_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "plan"
        assert main(["plan", "--config", str(config_path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "4 rotations x 2 depths = 8 tiles" in captured
        assert "alpha_deg=90 step_mm=1.5 uncovered_px=0\n" in captured
        manifest = load_manifest(out / "plan.yaml")
        assert manifest.plan.n_rot == 4
        assert manifest.plan.alpha_deg == 90.0
        assert "images" not in yaml.safe_load((out / "plan.yaml").read_text())

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

    @pytest.mark.parametrize(
        "text, name",
        [
            (CONFIG + "[optics]\npixel_pitch_um = 3.0\n", "pixel_pitch_um"),
            (CONFIG + "[synthh]\nseed = 4\n", "synthh"),
        ],
        ids=["misspelt-key", "misspelt-section"],
    )
    def test_unknown_config_name_exits_2(self, tmp_path, capsys, text, name):
        # a misspelt name must not leave the run on a default without a word
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            "[hole]\nradius_mm = nan\ndepth_mm = 2.0\n",
            "[hole]\nradius_mm = inf\ndepth_mm = 2.0\n",
            "[hole]\nradius_mm = 0.9\ndepth_mm = nan\n",
            "[hole]\nradius_mm = 0.9\ndepth_mm = inf\n",
            CONFIG + "[optics]\npixel_pitch_x_um = nan\n",
            CONFIG + "[optics]\npixel_pitch_y_um = inf\n",
            CONFIG + "[optics]\nmirror_diameter_mm = nan\n",
            CONFIG + "[optics]\nlens_length_mm = inf\n",
        ],
        ids=["radius-nan", "radius-inf", "depth-nan", "depth-inf", "pitch-x-nan",
             "pitch-y-inf", "mirror-nan", "lens-inf"],
    )
    def test_non_finite_value_exits_3(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["width_mm = nan", "height_mm = inf"], ids=["width-nan", "height-inf"]
    )
    def test_non_finite_region_exits_3(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + f"[region]\n{line}\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    def test_plan_over_tile_limit_exits_3(self, tmp_path, capsys, no_schedule):
        bad = tmp_path / "bad.ini"
        # 9 x 666,666,666,667 tiles
        bad.write_text("[hole]\nradius_mm = 2.0\ndepth_mm = 1e12\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"more than the {scanplan.MAX_TILES}" in err and "Traceback" not in err

    def test_uncountable_plan_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[hole]\nradius_mm = 1e308\ndepth_mm = 2.0\n")
        assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "more tiles than can be counted" in capsys.readouterr().err

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
    def test_writes_tiles_and_manifest(self, tmp_path, config_path, capsys):
        defects = tmp_path / "defects.csv"
        defects.write_text(DEFECTS)
        out = tmp_path / "tiles"
        code = main(
            ["synth", "--config", str(config_path), "--defects", str(defects),
             "--out", str(out), "--seed", "5", "--noise-sigma", "3"]
        )
        assert code == 0
        assert "synth: 8 tiles, 1 planted defects" in capsys.readouterr().out
        manifest = load_manifest(out / "manifest.yaml")
        assert len(manifest.truth) == 1
        assert manifest.seed == 5
        assert manifest.noise_sigma == 3.0
        assert manifest.hole.depth_mm == 2.0
        assert "images" not in yaml.safe_load((out / "manifest.yaml").read_text())
        schedule = manifest.plan.schedule
        tiles = sorted(cli._tile_name(e.depth_step, e.rotation_step) for e in schedule)
        assert len(tiles) == 8
        assert sorted(path.name for path in out.glob("tile_*.pgm")) == tiles

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

    def test_thread_count_does_not_change_output(
        self, tmp_path, config_path, monkeypatch
    ):
        # two discs, one across the 360-degree seam, and a line: the tiles
        # hold stamps, not the background alone
        defects = tmp_path / "defects.csv"
        defects.write_text(
            DEFECTS + "disc,0.5,359.95,0.1,,\nline,1.3,200.0,0.05,0.6,\n"
        )
        outs = []
        for processes in (1, 2, 3):
            cpus = set(range(processes))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = tmp_path / f"p{processes}"
            code = main(
                ["synth", "--config", str(config_path), "--defects", str(defects),
                 "--out", str(out), "--noise-sigma", "5"]
            )
            assert code == 0
            assert multiprocessing.active_children() == []
            outs.append(out)
        names = sorted(path.name for path in outs[0].iterdir())
        assert len(names) == 9 and "manifest.yaml" in names
        # the background is 180 DN and the noise 5 DN: darker pixels are stamps
        marked = [name for name in names if name.endswith(".pgm")
                  and read_pgm(outs[0] / name).min() < 120]
        assert len(marked) >= 3
        for out in outs[1:]:
            assert names == sorted(path.name for path in out.iterdir())
            for name in names:
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes()

    def test_default_threads_are_the_cpus_it_may_run_on(
        self, tmp_path, config_path, monkeypatch
    ):
        seen = []
        real_write_stack = cli.write_stack

        def spy(*args, processes, **kwargs):
            seen.append(processes)
            return real_write_stack(*args, processes=processes, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli, "write_stack", spy)
        code = main(["synth", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert seen == [1]

    def test_worker_error_exits_3_after_earlier_tiles(
        self, tmp_path, config_path, monkeypatch
    ):
        render_tile = synth.render_tile

        def failing_render_tile(texture, event, cfg, region, buffers):
            if event.order == 3:
                raise DomainError("tile 3 cannot be rendered")
            return render_tile(texture, event, cfg, region, buffers)

        monkeypatch.setattr(synth, "render_tile", failing_render_tile)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        out = tmp_path / "o"
        code = main(["synth", "--config", str(config_path), "--out", str(out)])
        assert code == 3
        cfg = load_config(config_path)
        before = sorted(
            f"tile_d{e.depth_step:02d}_r{e.rotation_step:02d}.pgm"
            for e in plan_scan(cfg.hole, cfg.region).schedule if e.order < 3
        )
        assert sorted(path.name for path in out.iterdir()) == before
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_1_leaving_no_part_file(
        self, tmp_path, config_path, monkeypatch, capsys
    ):
        render_tile, caller = synth.render_tile, os.getpid()

        def dying_render_tile(texture, event, cfg, region, buffers):
            if os.getpid() != caller:
                os._exit(9)  # a worker killed mid-tile
            return render_tile(texture, event, cfg, region, buffers)

        monkeypatch.setattr(synth, "render_tile", dying_render_tile)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "o"
        code = main(["synth", "--config", str(config_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "exit code 9" in err and "Traceback" not in err
        assert multiprocessing.active_children() == []
        # the worker fails at its first tile, the second of the plan: only
        # the first, which the caller made, keeps its name
        cfg = load_config(config_path)
        event = plan_scan(cfg.hole, cfg.region).schedule[0]
        assert [path.name for path in out.iterdir()] == [
            cli._tile_name(event.depth_step, event.rotation_step)
        ]

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_3(self, tmp_path, capsys, where):
        config = tmp_path / "run.ini"
        if where == "flag":
            config.write_text(CONFIG)
            flags, seed = ["--seed", "-1"], "-1"
        else:
            config.write_text(CONFIG + "[synth]\nseed = -4\n")
            flags, seed = [], "-4"
        out = tmp_path / "o"
        code = main(["synth", "--config", str(config), "--out", str(out), *flags])
        assert code == 3
        err = capsys.readouterr().err
        assert f"noise seed must be >= 0, got {seed}" in err and "Traceback" not in err
        assert not out.exists()

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

    def test_defect_wider_than_the_wall_exits_3(self, tmp_path, config_path, capsys):
        # 1.5 turns of the 0.9 mm bore: its stamp would overlap itself
        defects = tmp_path / "defects.csv"
        defects.write_text(
            "kind,z_mm,beta_deg,size_mm,length_mm,contrast\nline,1.0,0,8.48,0.1,\n"
        )
        out = tmp_path / "o"
        code = main(
            ["synth", "--config", str(config_path), "--defects", str(defects),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "line at (z'=1.0, beta=0.0)" in err and "more than the 2618" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_defect_csv_exits_2(self, tmp_path, config_path):
        defects = tmp_path / "defects.csv"
        defects.write_text("kind,z_mm\ndisc,1.0\n")
        code = main(
            ["synth", "--config", str(config_path), "--defects", str(defects),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "row",
        ["disc,nan,100.0,0.2,,", "disc,1.0,100.0,inf,,", "line,1.0,100.0,0.05,nan,",
         "line,1.0,100.0,0.05,inf,"],
        ids=["z-nan", "size-inf", "length-nan", "length-inf"],
    )
    def test_non_finite_defect_exits_3(self, tmp_path, config_path, capsys, row):
        defects = tmp_path / "defects.csv"
        defects.write_text("kind,z_mm,beta_deg,size_mm,length_mm,contrast\n" + row + "\n")
        out = tmp_path / "o"
        code = main(
            ["synth", "--config", str(config_path), "--defects", str(defects),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_exits_3(self, tmp_path, capsys, where, sigma):
        config = tmp_path / "run.ini"
        flags = []
        if where == "flag":
            config.write_text(CONFIG)
            flags = ["--noise-sigma", sigma]
        else:
            config.write_text(CONFIG + f"[synth]\nnoise_sigma = {sigma}\n")
        out = tmp_path / "o"
        code = main(["synth", "--config", str(config), "--out", str(out), *flags])
        assert code == 3
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_never_rasterizes_the_whole_bore(self, tmp_path, monkeypatch):
        # a 4 x 10 mm bore: 4,630 x 5,818 px of wall, 63 tiles
        config = tmp_path / "run.ini"
        config.write_text("[hole]\nradius_mm = 2.0\ndepth_mm = 10.0\n")
        defects = tmp_path / "defects.csv"
        defects.write_text(
            "kind,z_mm,beta_deg,size_mm,length_mm,contrast\n"
            "disc,5.0,100.0,0.2,,\nline,3.0,359.9,0.3,3.0,\n"
        )

        def oracle(texture):
            raise AssertionError("the whole-bore raster was built")

        largest = []
        window = synth.SurfaceTexture.window

        def spy(texture, top, bottom, left, count):
            largest.append((bottom - top) * count)
            return window(texture, top, bottom, left, count)

        monkeypatch.setattr(synth.SurfaceTexture, "pixels", property(oracle))
        monkeypatch.setattr(synth.SurfaceTexture, "window", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code = main(
            ["synth", "--config", str(config), "--defects", str(defects),
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        # at most a strip's 65 texture rows under a tile's ~714-column band
        assert largest and max(largest) <= 65 * 720


# Runs plan, synth and inspect in one process where ``import scipy`` fails.
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from borescan.cli import main
config, defects, out = sys.argv[1:]
for argv in (
    ["plan", "--config", config, "--out", out + "/plan"],
    ["synth", "--config", config, "--defects", defects, "--out", out + "/tiles"],
    ["inspect", "--manifest", out + "/tiles/manifest.yaml", "--out", out + "/inspect"],
):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def _child_env():
    """This environment with ``src`` on PYTHONPATH, for a child interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    ))
    return env


def test_no_command_loads_scipy(tmp_path, config_path, synth_dir):
    defects = tmp_path / "defects.csv"  # written by synth_dir
    out = tmp_path / "subprocess"
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(config_path), str(defects), str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert done.returncode == 0, done.stderr
    assert main(
        ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
         "--out", str(tmp_path / "inprocess")]
    ) == 0
    made = (out / "inspect" / "report.yaml").read_text()
    assert made == (tmp_path / "inprocess" / "report.yaml").read_text()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["plan", "inspect", "version", "plan-help"])
def test_closed_stdout_exits_0(tmp_path, config_path, synth_dir, command, unbuffered):
    out = tmp_path / "out"
    if command == "plan":
        argv = ["plan", "--config", str(config_path), "--out", str(out)]
        written = ["plan.yaml"]
    elif command == "inspect":
        argv = ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
                "--out", str(out)]
        written = ["report.yaml", "report.csv", "panorama.pgm"]
    else:
        # argparse prints these and exits from parse_args
        argv = ["--version"] if command == "version" else ["plan", "--help"]
        written = []
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will ever read the command's stdout
    try:
        done = subprocess.run(
            [sys.executable, "-m", "borescan.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr.decode()) == (0, "")
    assert all((out / name).is_file() for name in written)


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

    @pytest.mark.parametrize("area", ["-5", "0"])
    def test_min_area_below_one_exits_2(self, tmp_path, synth_dir, capsys, area):
        out = tmp_path / "o"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out), "--min-area", area]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--min-area must be >= 1" in err and "Traceback" not in err
        assert not out.exists()

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
        # the strip buffers are per call and the cached weights read-only:
        # every file must come out the same on any number of threads
        tiles = sorted(path.name for path in synth_dir.glob("tile_*.pgm"))
        assert len(tiles) == 8
        for out in outs:
            assert sorted(path.name for path in (out / "corrected").iterdir()) == tiles
        for name in ["report.yaml", "report.csv", "panorama.pgm"] + [
            f"corrected/{tile}" for tile in tiles
        ]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML has no libyaml")
    def test_libyaml_files_equal_safe_dump(self, tmp_path, synth_dir):
        manifest = synth_dir / "manifest.yaml"
        out = tmp_path / "o"
        assert main(["inspect", "--manifest", str(manifest), "--out", str(out)]) == 0
        data = manifest_to_dict(load_manifest(manifest))
        assert manifest.read_text() == yaml.safe_dump(data, sort_keys=False)
        report = (out / "report.yaml").read_text()
        assert yaml.safe_load(report)["records"], "a report with records"
        assert report == yaml.safe_dump(yaml.safe_load(report), sort_keys=False)

    def test_reads_each_plan_tile_by_its_name(self, tmp_path, synth_dir, monkeypatch):
        read, read_pgm = [], cli.read_pgm

        def spy(path):
            read.append(path)
            return read_pgm(path)

        monkeypatch.setattr(cli, "read_pgm", spy)
        path = synth_dir / "manifest.yaml"
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert sorted(read) == sorted(
            synth_dir / cli._tile_name(e.depth_step, e.rotation_step)
            for e in load_manifest(path).plan.schedule
        )

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

    def test_corrupt_tile_midway_writes_no_report_or_panorama(
        self, tmp_path, synth_dir, capsys
    ):
        target = synth_dir / "tile_d01_r01.pgm"
        target.write_bytes(target.read_bytes()[:40])
        out = tmp_path / "o"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out), "--threads", "3"]
        )
        assert code == 5
        assert "tile_d01_r01.pgm" in capsys.readouterr().err
        assert not (out / "report.yaml").exists()
        assert not (out / "panorama.pgm").exists()

    @pytest.mark.parametrize("shape", [(600, 640), (900, 1200)])
    def test_wrongly_sized_tile_exits_5_naming_file(
        self, tmp_path, synth_dir, capsys, shape
    ):
        write_pgm(synth_dir / "tile_d00_r02.pgm", np.full(shape, 180, dtype=np.uint8))
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "tile_d00_r02.pgm" in err
        assert f"{shape[0]}x{shape[1]}" in err

    def test_holds_at_most_threads_plus_one_tiles(
        self, tmp_path, synth_dir, monkeypatch
    ):
        started, pasted = [], []
        inspect_tile, inspect_stack = cli._inspect_tile, cli.inspect_stack

        def counting_inspect_tile(*args):
            started.append(1)
            return inspect_tile(*args)

        def counting_inspect_stack(inspected, *args):
            def arriving():
                for count, item in enumerate(inspected):
                    # tiles read or being read that the stack has not pasted
                    pasted.append(count)
                    assert len(started) - count <= threads + 1
                    yield item

            return inspect_stack(arriving(), *args)

        monkeypatch.setattr(cli, "_inspect_tile", counting_inspect_tile)
        monkeypatch.setattr(cli, "inspect_stack", counting_inspect_stack)
        threads = 2
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "o"), "--threads", str(threads)]
        )
        assert code == 0
        assert len(started) == len(pasted) == 8

    @pytest.mark.parametrize("key", ["width_mm", "height_mm"])
    def test_non_finite_manifest_region_exits_3(self, tmp_path, synth_dir, capsys, key):
        path = set_in_manifest(synth_dir, ("region", key), float("nan"))
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "where, key, value",
        [
            (("hole",), "radius_mm", float("nan")),
            (("truth", 0), "size_mm", float("inf")),
        ],
        ids=["hole-radius-nan", "truth-size-inf"],
    )
    def test_rejected_manifest_hole_or_truth_value_exits_3(
        self, tmp_path, synth_dir, capsys, where, key, value
    ):
        # as from a config or a defect list: well typed, but out of range
        path = set_in_manifest(synth_dir, (*where, key), value)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "where, key",
        [
            ((), "noise_sigmaa"),
            (("hole",), "radius"),
            (("optics",), "pixel_pitch_um"),
            (("region",), "widht_mm"),
            (("plan",), "nrot"),
            (("plan", "schedule", 0), "zmm"),
            (("truth", 0), "lenght_mm"),
        ],
        ids=["top", "hole", "optics", "region", "plan", "schedule-entry", "truth-entry"],
    )
    def test_unknown_manifest_key_exits_2(
        self, tmp_path, synth_dir, capsys, where, key
    ):
        # a misspelt key must not be read and then ignored
        path = set_in_manifest(synth_dir, (*where, key), 1.0)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r}" in err and "Traceback" not in err

    def test_corrupt_manifest_exits_2(self, tmp_path, synth_dir):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{[")
        assert main(["inspect", "--manifest", str(bad), "--out", str(tmp_path)]) == 2

    def test_out_of_plan_schedule_entry_exits_2(self, tmp_path, synth_dir, capsys):
        path = set_in_manifest(synth_dir, ("plan", "schedule", 0, "depth_step"), 99)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "(99, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("plan", "step_mm", "x"),
            ("plan", "alpha_deg", None),
            ("plan", "n_rot", 4.5),
            ("plan", "n_depth", "2"),
            ("plan", "step_mm", float("nan")),
            ("schedule", "order", True),
            ("schedule", "z_mm", "deep"),
            ("schedule", "theta_deg", [90]),
        ],
    )
    def test_non_numeric_plan_value_exits_2(
        self, tmp_path, synth_dir, capsys, section, key, value
    ):
        where = ("plan",) if section == "plan" else ("plan", "schedule", 0)
        path = set_in_manifest(synth_dir, (*where, key), value)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ((), "seed", "abc"),
            ((), "noise_sigma", [1]),
            (("hole",), "radius_mm", True),
        ],
    )
    def test_mistyped_manifest_value_exits_2(
        self, tmp_path, synth_dir, capsys, where, key, value
    ):
        path = set_in_manifest(synth_dir, (*where, key), value)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("mirror_diameter_mm", float("nan")), ("lens_length_mm", float("inf"))],
        ids=["mirror-nan", "lens-inf"],
    )
    def test_non_finite_manifest_optics_exits_3(
        self, tmp_path, synth_dir, capsys, key, value
    ):
        path = set_in_manifest(synth_dir, ("optics", key), value)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert key in err and "finite" in err and "Traceback" not in err

    def test_manifest_over_tile_limit_exits_3(
        self, tmp_path, synth_dir, capsys, no_schedule
    ):
        path = set_in_manifest(synth_dir, ("hole", "depth_mm"), 1e12)
        code = main(["inspect", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"more than the {scanplan.MAX_TILES}" in err and "Traceback" not in err

    def test_manifest_with_image_list_exits_2(self, tmp_path, synth_dir, capsys):
        # a manifest that still lists images, here naming a tile outside its
        # directory, is refused before inspect reads or writes any tile
        outside = tmp_path / "outside.pgm"
        tile = (synth_dir / "tile_d00_r00.pgm").read_bytes()
        outside.write_bytes(tile)
        entry = {"depth_step": 0, "rotation_step": 0, "file": str(outside)}
        path = set_in_manifest(synth_dir, ("images",), [entry])
        out = tmp_path / "o"
        code = main(
            ["inspect", "--manifest", str(path), "--out", str(out), "--threads", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'images'" in err and "Traceback" not in err
        assert outside.read_bytes() == tile
        assert not out.exists()

    def test_plan_without_images_exits_5(self, tmp_path, config_path, capsys):
        plan = tmp_path / "plan"
        assert main(["plan", "--config", str(config_path), "--out", str(plan)]) == 0
        out = tmp_path / "o"
        code = main(
            ["inspect", "--manifest", str(plan / "plan.yaml"), "--out", str(out)]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "tile_d00_r00.pgm" in err and "Traceback" not in err
        assert not (out / "report.yaml").exists()
        assert not (out / "panorama.pgm").exists()

    @pytest.mark.parametrize("value", [0, 2])
    def test_other_manifest_format_exits_2(self, tmp_path, synth_dir, capsys, value):
        path = set_in_manifest(synth_dir, ("format",), value)
        out = tmp_path / "o"
        code = main(["inspect", "--manifest", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'format'" in err and "re-run synth" in err and "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def twelve_bit(good):
        """The 8-bit tile ``good`` scaled to a 12-bit one: maxval 4095."""
        head, raster = good.split(b"\n255\n", 1)
        samples = np.frombuffer(raster, dtype=np.uint8).astype(">u2") * 16
        return head + b"\n4095\n" + samples.tobytes()

    # each replaces tile (1, 2) of the 8-tile run
    FUZZED_TILES = {
        "truncated-raster": lambda good: good[:-100],
        "wrong-magic": lambda good: b"P2" + good[2:],
        "maxval-0": lambda good: good.replace(b"\n255\n", b"\n0\n", 1),
        "maxval-100": lambda good: good.replace(b"\n255\n", b"\n100\n", 1),
        "maxval-4095": lambda good: TestInspect.twelve_bit(good),
        "maxval-65536": lambda good: good.replace(b"\n255\n", b"\n65536\n", 1),
        "header-comment": lambda good: good.replace(b"P5\n", b"P5\n# hand-edited\n", 1),
        "sixteen-bit": None,  # the same pixels, scaled to 16 bits
    }

    @pytest.mark.parametrize("fault", sorted(FUZZED_TILES))
    def test_fuzzed_tile_exits_with_a_documented_code(
        self, tmp_path, synth_dir, capsys, fault
    ):
        target = synth_dir / "tile_d01_r02.pgm"
        fuzz = self.FUZZED_TILES[fault]
        if fuzz is None:
            write_pgm(target, read_pgm(target).astype(np.uint16) * 257)
        else:
            target.write_bytes(fuzz(target.read_bytes()))
        out = tmp_path / "o"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out), "--threads", "2"]
        )
        # a comment is valid PGM; every other fault is a wrong tile, named
        assert code == (0 if fault == "header-comment" else 5)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or "tile_d01_r02.pgm" in err
        if fault.startswith("maxval-"):
            assert fault.removeprefix("maxval-") in err
        left = {path.name for path in out.iterdir()}
        if fault == "header-comment":
            assert code == 0
            assert {"report.yaml", "panorama.pgm"} <= left
        else:
            assert code != 0
            assert not left & {"report.yaml", "report.csv"}
        assert not {name for name in left if name.startswith("panorama.pgm.")}
        if code:
            assert "panorama.pgm" not in left

    def test_otsu_threshold_accepted(self, tmp_path, synth_dir):
        out = tmp_path / "otsu"
        code = main(
            ["inspect", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(out), "--threshold", "otsu"]
        )
        assert code == 0
        # the other 7 tiles hold no feature, and otsu finds none in them
        [record] = read_report(out / "report.yaml")["records"]
        assert record["kind"] == "disc"
        assert record["size_mm"] == pytest.approx(0.2, abs=5e-4)
        assert record["tiles"] == [[1, 1]]


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

    @pytest.mark.parametrize(
        "key, value", [("z_mm", "abc"), ("size_mm", "abc"), ("beta_deg", None)]
    )
    def test_mistyped_report_value_exits_2(
        self, tmp_path, synth_dir, capsys, key, value
    ):
        (report,) = self.run_inspections(tmp_path, synth_dir, count=1)
        with open(report) as handle:
            data = yaml.safe_load(handle)
        data["records"][0][key] = value
        with open(report, "w") as handle:
            yaml.safe_dump(data, handle, sort_keys=False)
        capsys.readouterr()
        code = main(
            ["report-compare", "--manifest", str(synth_dir / "manifest.yaml"),
             "--out", str(tmp_path / "compare"), report]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_manifest_with_image_list_exits_2(self, tmp_path, synth_dir, capsys):
        reports = self.run_inspections(tmp_path, synth_dir, count=1)
        path = set_in_manifest(synth_dir, ("images",), [])
        capsys.readouterr()
        code = main(
            ["report-compare", "--manifest", str(path), "--out", str(tmp_path / "c")]
            + reports
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'images'" in err and "Traceback" not in err

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


@pytest.mark.parametrize("error", [PlanIndexError, ThresholdError])
def test_unmapped_library_error_exits_3(
    tmp_path, config_path, capsys, monkeypatch, error
):
    def failing_plan_scan(hole, region):
        raise error("tile (7, 0) outside plan")

    monkeypatch.setattr(cli, "plan_scan", failing_plan_scan)
    code = main(["plan", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "tile (7, 0) outside plan" in capsys.readouterr().err


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
