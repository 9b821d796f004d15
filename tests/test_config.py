"""INI configs and CSV defect lists."""

from pathlib import Path

import pytest

from borescan.config import load_config, load_defect_list, parse_threshold_spec
from borescan.errors import DomainError, ParseError
from borescan.geometry import OpticsConfig
from borescan.scanplan import plan_scan
from borescan.synth import DefectSpec, build_texture, tile_shape_for

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MINIMAL = "[hole]\nradius_mm = 0.9\ndepth_mm = 2.0\n"


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_example_config_matches_defaults(self):
        example = Path(__file__).resolve().parent.parent / "configs" / "example.ini"
        cfg = load_config(example)
        assert cfg.hole.radius_mm == 2.0
        assert cfg.hole.depth_mm == 47.0
        assert cfg.optics == OpticsConfig()
        assert cfg.region.width_mm == 1.5
        assert cfg.synth.background == 180

    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.hole.radius_mm == 0.9
        assert cfg.optics == OpticsConfig()
        assert cfg.synth.noise_sigma == 0.0

    def test_overrides_win(self, tmp_path):
        text = MINIMAL + "[optics]\npixel_pitch_x_um = 4.32\n[synth]\nseed = 9\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.optics.pixel_pitch_x_um == 4.32
        assert cfg.optics.pixel_pitch_y_um == 2.16
        assert cfg.synth.seed == 9

    def test_missing_hole_section(self, tmp_path):
        with pytest.raises(ParseError, match=r"\[hole\]"):
            load_config(write(tmp_path, "[region]\nwidth_mm = 1.5\n"))

    def test_missing_required_key_named(self, tmp_path):
        with pytest.raises(ParseError, match="depth_mm"):
            load_config(write(tmp_path, "[hole]\nradius_mm = 2.0\n"))

    def test_bad_number_named(self, tmp_path):
        text = "[hole]\nradius_mm = two\ndepth_mm = 47\n"
        with pytest.raises(ParseError, match="radius_mm"):
            load_config(write(tmp_path, text))

    def test_percent_sign_is_a_bad_value(self, tmp_path):
        # read as text, not as an interpolation that fails with a traceback
        text = "[hole]\nradius_mm = 2%\ndepth_mm = 47\n"
        with pytest.raises(ParseError, match="'2%' for 'radius_mm'"):
            load_config(write(tmp_path, text))

    def test_bad_threshold_spec_fails_at_load(self, tmp_path):
        text = MINIMAL + "[detect]\nthreshold = fuzzy\n"
        with pytest.raises(ParseError):
            load_config(write(tmp_path, text))

    def test_detect_section_rejected_naming_flags(self, tmp_path):
        # detection is set on the inspect command line; a config key for it
        # would be parsed and then ignored
        text = MINIMAL + "[detect]\nthreshold = fixed:0.5\n"
        with pytest.raises(ParseError, match="--threshold.*--min-area"):
            load_config(write(tmp_path, text))

    def test_bad_bit_depth(self, tmp_path):
        text = MINIMAL + "[synth]\nbit_depth = 12\n"
        with pytest.raises(ParseError):
            load_config(write(tmp_path, text))

    def test_semantically_invalid_hole_is_domain_error(self, tmp_path):
        text = "[hole]\nradius_mm = -1.0\ndepth_mm = 2.0\n"
        with pytest.raises(DomainError):
            load_config(write(tmp_path, text))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.ini")


class TestThresholdSpec:
    def test_otsu(self):
        assert parse_threshold_spec("otsu") == ("otsu", None)

    def test_fixed_fraction(self):
        assert parse_threshold_spec("fixed:0.4") == ("fixed", 0.4)

    @pytest.mark.parametrize("spec", ["fixed:1.5", "fixed:x", "banana", "fixed:"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ParseError):
            parse_threshold_spec(spec)


class TestDefectList:
    HEADER = "kind,z_mm,beta_deg,size_mm,length_mm,contrast\n"

    def test_mixed_rows(self, tmp_path):
        text = self.HEADER + "disc,1.0,100.0,0.2,,\nline,1.0,40.0,0.1,0.8,-90\n"
        defects = load_defect_list(write(tmp_path, text, "defects.csv"))
        assert defects == [
            DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2),
            DefectSpec(
                "line", z_mm=1.0, beta_deg=40.0, size_mm=0.1, length_mm=0.8,
                contrast=-90,
            ),
        ]

    def test_example_list_has_a_seam_disc_and_a_tile_edge_disc(self):
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        rows = (CONFIGS / "example_defects.csv").read_text().splitlines()
        assert "\n".join(rows[:3]) in readme  # the header and README's two rows
        cfg = load_config(CONFIGS / "example.ini")
        *_, seam, edge = load_defect_list(CONFIGS / "example_defects.csv")
        texture = build_texture(cfg.hole, [seam])
        (stamp,) = texture.stamps
        assert stamp.col_lo + stamp.coverage.shape[1] > texture.width  # wraps
        # the edge disc straddles the boundary between two plan rows
        height = tile_shape_for(cfg.optics, cfg.region)[0]
        half_mm = height * cfg.optics.pixel_pitch_y_um * 1e-3 / 2.0
        ends = [e.z_mm + half_mm for e in plan_scan(cfg.hole, cfg.region).schedule]
        assert min(abs(edge.z_mm - end) for end in ends) < edge.size_mm / 10.0

    def test_empty_contrast_defaults_dark(self, tmp_path):
        text = self.HEADER + "disc,1.0,0.0,0.1,,\n"
        (defect,) = load_defect_list(write(tmp_path, text, "d.csv"))
        assert defect.contrast == -120

    def test_missing_column_named(self, tmp_path):
        text = "kind,z_mm,beta_deg,size_mm\ndisc,1,0,0.1\n"
        with pytest.raises(ParseError, match="length_mm"):
            load_defect_list(write(tmp_path, text, "d.csv"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind,z_mm,beta_deg,size_mm,length_mm,contrast,depth\n"
             "disc,1.0,0.0,0.1,,,3\n", "'depth' in defect row 2"),
            (HEADER + "disc,1.0,0.0,0.1,,,3\n", "None in defect row 2"),
            (HEADER + "disc,,0.0,0.1,,\n", "'z_mm' in defect row 2"),
        ],
        ids=["unknown-column", "extra-cell", "empty-required-cell"],
    )
    def test_cells_that_name_no_field_or_miss_one(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            load_defect_list(write(tmp_path, text, "d.csv"))

    def test_bad_value_names_row(self, tmp_path):
        text = self.HEADER + "disc,1.0,0.0,0.1,,\ndisc,large,0.0,0.1,,\n"
        with pytest.raises(ParseError, match="row 3"):
            load_defect_list(write(tmp_path, text, "d.csv"))

    def test_semantic_error_is_domain_error(self, tmp_path):
        text = self.HEADER + "disc,1.0,0.0,-0.1,,\n"
        with pytest.raises(DomainError):
            load_defect_list(write(tmp_path, text, "d.csv"))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_defect_list(tmp_path / "nope.csv")
