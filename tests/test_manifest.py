"""Manifest serialization and defect reports."""

import yaml
import pytest

from borescan.errors import DomainError, ParseError
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.locate import DefectRecord
from borescan.manifest import (
    RunManifest,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    read_report,
    save_manifest,
    write_report,
)
from borescan.scanplan import EffectiveRegion, plan_scan
from borescan.synth import DefectSpec

HOLE = HoleSpec(0.9, 2.0)
OPTICS = OpticsConfig(2.5, 2.0, 15.0, 230.0, 94.0, 2.16, 2.16)
REGION = EffectiveRegion()


def sample_manifest():
    return RunManifest(
        hole=HOLE,
        optics=OPTICS,
        region=REGION,
        plan=plan_scan(HOLE, REGION),
        truth=[
            DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2),
            DefectSpec("line", z_mm=1.0, beta_deg=40.0, size_mm=0.1, length_mm=0.8),
        ],
        seed=7,
        noise_sigma=5.0,
    )


def sample_record(**overrides):
    base = dict(
        kind="disc",
        z_mm=1.0,
        beta_deg=100.0,
        size_mm=0.2,
        area_mm2=0.0314,
        z_min_mm=0.9,
        z_max_mm=1.1,
        arc_center_deg=100.0,
        arc_half_deg=6.4,
        source_tiles=((1, 1),),
        id=0,
    )
    base.update(overrides)
    return DefectRecord(**base)


class TestManifestRoundTrip:
    def test_values_survive_save_and_load(self, tmp_path):
        manifest = sample_manifest()
        path = tmp_path / "manifest.yaml"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back.hole == manifest.hole
        assert back.optics == manifest.optics
        assert back.region == manifest.region
        assert back.plan == manifest.plan
        assert back.truth == manifest.truth
        assert back.seed == 7
        assert back.noise_sigma == 5.0
        assert back.version == manifest.version

    def test_serialization_is_byte_stable(self, tmp_path):
        manifest = sample_manifest()
        one, two = tmp_path / "m1.yaml", tmp_path / "m2.yaml"
        save_manifest(manifest, one)
        save_manifest(manifest, two)
        assert one.read_bytes() == two.read_bytes()

    def test_dict_form_keeps_declared_key_order(self):
        data = manifest_to_dict(sample_manifest())
        assert list(data)[:3] == ["version", "seed", "noise_sigma"]

    def test_missing_section_raises_with_key_name(self):
        data = manifest_to_dict(sample_manifest())
        del data["hole"]
        with pytest.raises(ParseError, match="hole"):
            manifest_from_dict(data)

    def test_missing_optics_key_raises(self):
        data = manifest_to_dict(sample_manifest())
        del data["optics"]["lens_length_mm"]
        with pytest.raises(ParseError, match="lens_length_mm"):
            manifest_from_dict(data)

    @pytest.mark.parametrize("key, value", [("depth_step", 99), ("rotation_step", -1)])
    def test_out_of_plan_schedule_entry_raises(self, key, value):
        data = manifest_to_dict(sample_manifest())
        data["plan"]["schedule"][0][key] = value
        with pytest.raises(ParseError, match="outside"):
            manifest_from_dict(data)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("n_rot",), 5, "plan n_rot is 5"),
            (("alpha_deg",), 45.0, "plan alpha_deg is 45.0"),
            (("step_mm",), 1.0, "plan step_mm is 1.0"),
            (("schedule", 1, "order"), 5, r"entry 1 names tile \(1, 0\).*order"),
            (("schedule", 3, "z_mm"), 0.5, r"entry 3 names tile \(1, 1\).*z_mm is 0.5"),
            (("schedule", 2, "theta_deg"), 91.0, "entry 2.*theta_deg is 91.0, not 90.0"),
        ],
    )
    def test_plan_other_than_hole_and_region_give_raises(self, path, value, message):
        # tiles are placed by their steps and by their entry's z_mm and
        # theta_deg, so a plan the hole and region do not give is refused
        data = manifest_to_dict(sample_manifest())
        node = data["plan"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ParseError, match=message):
            manifest_from_dict(data)

    def test_plan_with_too_few_entries_raises(self):
        data = manifest_to_dict(sample_manifest())
        data["plan"]["schedule"] = data["plan"]["schedule"][:-1]
        with pytest.raises(ParseError, match="7 entries.*4 x 2"):
            manifest_from_dict(data)

    def test_tile_count_is_compared_first(self):
        # so a hole or region in a file never builds a plan larger than the
        # file's own before it is refused
        data = manifest_to_dict(sample_manifest())
        data["hole"]["depth_mm"] = 15000.0
        with pytest.raises(ParseError, match="8 entries.*4 x 10001"):
            manifest_from_dict(data)

    def test_non_finite_hole_radius_raises(self):
        data = manifest_to_dict(sample_manifest())
        data["hole"]["radius_mm"] = float("nan")
        with pytest.raises(DomainError, match="finite"):
            manifest_from_dict(data)

    def test_unparseable_yaml_raises(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("{[")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_non_mapping_document_raises(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ParseError):
            load_manifest(path)


class TestReports:
    def records(self):
        return [
            sample_record(),
            sample_record(
                id=1, kind="disc", size_mm=0.1, z_mm=0.5, beta_deg=200.0,
                area_mm2=0.00785, z_min_mm=0.45, z_max_mm=0.55,
            ),
            sample_record(
                id=2, kind="line", size_mm=0.3, z_mm=1.0, beta_deg=300.0,
                area_mm2=0.09, z_min_mm=0.5, z_max_mm=1.5,
                source_tiles=((0, 3), (1, 3)),
            ),
        ]

    def write(self, tmp_path):
        csv_path = tmp_path / "report.csv"
        yaml_path = tmp_path / "report.yaml"
        write_report(self.records(), HOLE, "fixed:0.5", csv_path, yaml_path,
                     source="manifest.yaml")
        return csv_path, yaml_path

    def test_csv_layout_and_rounding(self, tmp_path):
        csv_path, _ = self.write(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (
            "id,kind,z_mm,z_from_bottom_mm,beta_deg,size_mm,area_mm2,"
            "z_min_mm,z_max_mm,n_tiles"
        )
        assert lines[1] == "0,disc,1.000,1.000,100.000,0.200,0.031400,0.900,1.100,1"
        assert lines[3] == "2,line,1.000,1.000,300.000,0.300,0.090000,0.500,1.500,2"

    def test_yaml_report_round_trips(self, tmp_path):
        _, yaml_path = self.write(tmp_path)
        data = read_report(yaml_path)
        assert data["threshold"] == "fixed:0.5"
        assert data["source"] == "manifest.yaml"
        assert len(data["records"]) == 3
        assert data["records"][0]["kind"] == "disc"
        assert data["records"][0]["z_mm"] == 1.0

    def test_z_from_bottom_complements_z(self, tmp_path):
        _, yaml_path = self.write(tmp_path)
        for rec in read_report(yaml_path)["records"]:
            assert rec["z_mm"] + rec["z_from_bottom_mm"] == pytest.approx(
                HOLE.depth_mm, abs=1e-3
            )

    def test_summary_stats_use_sample_std(self, tmp_path):
        _, yaml_path = self.write(tmp_path)
        summary = read_report(yaml_path)["summary"]
        assert summary["disc"]["count"] == 2
        assert summary["disc"]["mean_size_mm"] == pytest.approx(0.15)
        # sample std of {0.1, 0.2}
        assert summary["disc"]["std_size_mm"] == pytest.approx(0.071)
        assert summary["line"]["count"] == 1
        assert summary["line"]["std_size_mm"] is None

    def test_report_bytes_stable(self, tmp_path):
        first = tmp_path / "r1.yaml"
        second = tmp_path / "r2.yaml"
        write_report(self.records(), HOLE, "otsu", tmp_path / "a.csv", first)
        write_report(self.records(), HOLE, "otsu", tmp_path / "b.csv", second)
        assert first.read_bytes() == second.read_bytes()

    def test_read_report_requires_record_fields(self, tmp_path):
        path = tmp_path / "thin.yaml"
        path.write_text(yaml.safe_dump({"records": [{"kind": "disc"}]}))
        with pytest.raises(ParseError):
            read_report(path)

    def test_read_report_requires_records_key(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text(yaml.safe_dump({"summary": {}}))
        with pytest.raises(ParseError):
            read_report(path)
