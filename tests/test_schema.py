"""Loaders under mistyped values, one value of a valid file at a time.

Each property test sets one value of a valid manifest, report, run config
or defect list to a value of another type: a string, a bool, null, a
list, nan, inf or a huge integer. A loader may raise only
``BorescanError``, and a value of a type the field does not take must
raise, never load.
"""

import copy
import csv
import re
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from borescan import schema
from borescan.config import load_config, load_defect_list
from borescan.errors import BorescanError
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

HUGE = 10**400
EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.ini"

HOLE = HoleSpec(0.9, 2.0)
MANIFEST = manifest_to_dict(
    RunManifest(
        hole=HOLE,
        optics=OpticsConfig(),
        region=EffectiveRegion(),
        plan=plan_scan(HOLE, EffectiveRegion()),
        truth=[
            DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2),
            DefectSpec("line", z_mm=1.0, beta_deg=40.0, size_mm=0.1, length_mm=0.8),
        ],
        seed=7,
        noise_sigma=5.0,
    )
)

YAML_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), HUGE, None, True, False]),
    st.text(max_size=6),
    st.integers(),
    st.floats(),
    st.lists(st.integers(), max_size=2),
)

# the spellings a text file can hold, with the type each one is
TEXT_VALUES = {
    "abc": str, "true": bool, "null": None, "[1]": list, "nan": float,
    "inf": float, str(HUGE): int, "4.5": float, "7": int,
}


def paths(node, prefix=()):
    """Every value's path in nested dicts and lists, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def replaced(data, path, value):
    """A deep copy of ``data`` with the value at ``path`` set to ``value``,
    and the value it held."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    original, node[path[-1]] = node[path[-1]], value
    return data, original


def takes(original, value) -> bool:
    """Whether a field written as ``original`` takes a value of ``value``'s type.

    Numbers are never bools, a float field takes integers, and a missing
    line length (``None``) stands for a field that takes null or a number.
    """
    if isinstance(value, bool):
        return False
    if isinstance(original, dict):
        return False  # no strategy draws a mapping
    if isinstance(original, list):
        return isinstance(value, list) and all(takes(original[0], v) for v in value)
    if isinstance(original, str):
        return isinstance(value, str)
    if isinstance(original, int):
        return isinstance(value, int)
    return isinstance(value, (int, float)) or (original is None and value is None)


def loads_only_what_it_takes(load, original, value, path):
    try:
        load()
    except BorescanError:
        return
    assert takes(original, value), f"{path} = {value!r} loaded"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mistyped")


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(paths(MANIFEST))), value=YAML_VALUES)
def test_manifest_value_of_another_type(path, value):
    data, original = replaced(MANIFEST, path, value)
    loads_only_what_it_takes(lambda: manifest_from_dict(data), original, value, path)


def write_valid_report(path):
    records = [
        DefectRecord(
            kind=kind, z_mm=1.0, beta_deg=beta, size_mm=0.2, area_mm2=0.03,
            z_min_mm=0.9, z_max_mm=1.1, arc_center_deg=beta, arc_half_deg=6.0,
            source_tiles=((0, 0),), id=n,
        )
        for n, (kind, beta) in enumerate([("disc", 100.0), ("line", 40.0)])
    ]
    write_report(records, HOLE, "fixed:0.5", path.with_suffix(".csv"), path)
    return path


@pytest.fixture(scope="module")
def valid_report(workdir):
    return yaml.safe_load(write_valid_report(workdir / "report.yaml").read_text())


def test_valid_files_load(workdir):
    # the properties below mean something only if the unchanged files load
    save_manifest(manifest_from_dict(MANIFEST), workdir / "manifest.yaml")
    assert manifest_to_dict(load_manifest(workdir / "manifest.yaml")) == MANIFEST
    report = read_report(write_valid_report(workdir / "valid.yaml"))
    assert len(report["records"]) == 2
    assert load_config(EXAMPLE).hole.depth_mm == 47.0
    write_rows(workdir / "valid.csv", DEFECT_ROWS)
    assert len(load_defect_list(workdir / "valid.csv")) == 2


REPORT_PATHS = [("records",)] + [
    ("records", n) + key
    for n in range(2)
    for key in [(), ("kind",), ("z_mm",), ("beta_deg",), ("size_mm",)]
]


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(REPORT_PATHS), value=YAML_VALUES)
def test_report_value_of_another_type(workdir, valid_report, path, value):
    data, original = replaced(valid_report, path, value)
    target = workdir / "mistyped.yaml"
    target.write_text(yaml.safe_dump(data))
    loads_only_what_it_takes(lambda: read_report(target), original, value, path)


def text_takes(field_kind, spelling) -> bool:
    kind = TEXT_VALUES[spelling]
    return kind is field_kind or (field_kind is float and kind is int)


def config_keys():
    section = None
    for line in EXAMPLE.read_text().splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line:
            key, value = line.split(" = ")
            yield section, key, float if "." in value else int


@settings(max_examples=150, deadline=None)
@given(
    entry=st.sampled_from(list(config_keys())),
    spelling=st.sampled_from(list(TEXT_VALUES)),
)
def test_config_value_of_another_type(workdir, entry, spelling):
    section, key, kind = entry
    path = workdir / "mistyped.ini"
    path.write_text(
        re.sub(rf"^{key} = .*$", f"{key} = {spelling}", EXAMPLE.read_text(), flags=re.M)
    )
    try:
        load_config(path)
    except BorescanError:
        return
    assert text_takes(kind, spelling), f"[{section}] {key} = {spelling} loaded"


DEFECT_COLUMNS = {
    "kind": str, "z_mm": float, "beta_deg": float, "size_mm": float,
    "length_mm": float, "contrast": int,
}
DEFECT_ROWS = [
    ["disc", "1.0", "100.0", "0.2", "", ""],
    ["line", "1.0", "40.0", "0.1", "0.8", "-90"],
]


def write_rows(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DEFECT_COLUMNS)
        writer.writerows(rows)


@settings(max_examples=150, deadline=None)
@given(
    row=st.sampled_from([0, 1]),
    column=st.sampled_from(range(len(DEFECT_COLUMNS))),
    spelling=st.sampled_from(list(TEXT_VALUES)),
)
def test_defect_list_value_of_another_type(workdir, row, column, spelling):
    rows = copy.deepcopy(DEFECT_ROWS)
    rows[row][column] = spelling
    path = workdir / "mistyped.csv"
    write_rows(path, rows)
    try:
        load_defect_list(path)
    except BorescanError:
        return
    kind = list(DEFECT_COLUMNS.values())[column]
    assert kind is str or text_takes(kind, spelling), f"{rows[row]} loaded"


def test_type_hints_resolved_once_per_class(monkeypatch, workdir):
    calls = []
    resolve = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        calls.append(cls)
        return resolve(cls, *args, **kwargs)

    schema.field_types.cache_clear()
    monkeypatch.setattr(schema.typing, "get_type_hints", counting)
    path = workdir / "counted.yaml"
    path.write_text(yaml.safe_dump(MANIFEST, sort_keys=False))
    load_manifest(path)
    load_manifest(path)
    write_rows(workdir / "counted.csv", DEFECT_ROWS * 20)
    load_defect_list(workdir / "counted.csv")
    assert DefectSpec in calls and RunManifest in calls
    assert len(calls) == len(set(calls))
