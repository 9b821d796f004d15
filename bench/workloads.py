"""Benchmark workloads: seeded inputs for the borescan CLI, and truth scoring.

Each workload is a bore (an INI config), a planted defect list, a noise
level and a threshold spec. The seed is the only free input: it drives the
synth noise and, where the workload has them, the defect positions. The
program sees only the files written here. See README.md for why each
workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from borescan.locate import LINE_ASPECT

RADIUS_MM = 2.0  # every workload images the reference 4 mm bore
PITCH_UM = 2.16  # default pixel pitch, both axes
TILE_MM = 1.5  # default effective region, both axes: the plan's tile pitch
PIT_GAP_MM = 0.4  # footprint gap: 8x the 0.05 mm merge tolerance, above the match radius


@dataclass(frozen=True)
class Defect:
    """One planted defect; ``z_mm`` is measured up from the hole bottom."""

    kind: str
    z_mm: float
    beta_deg: float
    size_mm: float
    length_mm: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    depth_mm: float
    tiles: int  # plan size the README states for this bore
    noise_sigma: float
    threshold: str
    defects: tuple[Defect, ...]
    synth_seed: int  # the noise field passed to ``synth --seed``

    def config_text(self) -> str:
        return f"[hole]\nradius_mm = {RADIUS_MM}\ndepth_mm = {self.depth_mm}\n"

    def defects_csv(self) -> str:
        rows = ["kind,z_mm,beta_deg,size_mm,length_mm,contrast"]
        for d in self.defects:
            length = "" if d.length_mm is None else repr(d.length_mm)
            rows.append(f"{d.kind},{d.z_mm!r},{d.beta_deg!r},{d.size_mm!r},{length},")
        return "\n".join(rows) + "\n"

    def canvas_shape(self) -> tuple[int, int]:
        """(height, width) of the panorama: the bore wall at the pixel pitch."""
        width = round(2.0 * math.pi * RADIUS_MM * 1e3 / PITCH_UM)
        height = math.floor(self.depth_mm * 1e3 / PITCH_UM) + 1
        return height, width


def bore_reference(seed: int) -> Workload:
    """The acceptance-10 stack: full 47 mm bore, five fixed defects.

    The seed drives only the noise.
    """
    return Workload(
        "bore-reference",
        47.0,
        288,
        5.0,
        "fixed:0.5",
        (
            Defect("disc", 10.0, 20.0, 0.15),
            Defect("disc", 20.0, 359.8, 0.2),
            Defect("disc", 9.75, 120.0, 0.2),
            Defect("line", 6.5, 300.0, 0.3, 3.0),
            Defect("disc", 30.0, 200.0, 0.1),
        ),
        seed,
    )


FEATURELESS_NOISE_SEED = 42


def featureless_otsu(seed: int) -> Workload:
    """The acceptance-08 feature set, jittered by up to half a pixel.

    The seed moves the defects; the noise field is fixed. On noise-only
    tiles the Otsu cut, and with it the raw record count that the O(n^2)
    merge pays for, swings 2x between noise fields (4,014 to 8,692 raw
    records over noise seeds 0-9), which would drown any code change.
    """
    rng = np.random.default_rng(seed)
    half_sep = math.degrees(0.2 / RADIUS_MM)  # half the 0.4 mm pair spacing
    deg_per_px = 360.0 / round(2e3 * math.pi * RADIUS_MM / PITCH_UM)

    def jitter():
        return (
            float(rng.uniform(-0.5, 0.5)) * deg_per_px,
            float(rng.uniform(-0.5, 0.5)) * PITCH_UM * 1e-3,
        )

    (b1, z1), (b2, z2), (bp, zp), (bl, zl) = (jitter() for _ in range(4))
    return Workload(
        "featureless-otsu",
        4.5,
        36,
        5.0,
        "otsu",
        (
            Defect("disc", 1.5 + z1, 10.0 + b1, 0.100),
            Defect("disc", 3.0 + z2, 80.0 + b2, 0.200),
            Defect("disc", 1.8 + zp, 160.0 - half_sep + bp, 0.200),
            Defect("disc", 1.8 + zp, 160.0 + half_sep + bp, 0.200),
            Defect("line", 2.25 + zl, 240.0 + bl, 0.300, 3.7),
        ),
        FEATURELESS_NOISE_SEED,
    )


def pitted_defects(seed: int, depth_mm: float = 15.0, target: int = 300) -> list[Defect]:
    """Seeded discs and axial lines, many of them across tile seams.

    Candidates are drawn at random and kept only when the gap between
    footprint bounding boxes (circular in arc) is at least ``PIT_GAP_MM``
    to every defect kept so far. That is well above both the merge
    tolerance and the match radius, so each planted defect has one
    unambiguous report. A third of the candidates sit on a rotation seam
    (a window edge or the 360-degree wrap) and a third on a depth seam,
    offset by less than their half-extent so the footprint is split. Each
    line is at least twice ``LINE_ASPECT`` times its width long, so it is a
    line by the package's own rule.
    """
    rng = np.random.default_rng(seed)
    circumference = 2.0 * math.pi * RADIUS_MM
    n_rot = math.ceil(circumference / TILE_MM)
    n_depth = math.floor(depth_mm / TILE_MM) + 1
    alpha = 360.0 / n_rot
    rot_seams = [alpha * (k + 0.5) for k in range(n_rot)] + [0.0]
    depth_seams = [TILE_MM * (j + 0.5) for j in range(n_depth - 1)]
    placed: list[Defect] = []
    boxes = np.empty((target, 4))  # arc centre, z centre, half arc, half z; mm
    for _ in range(100 * target):
        if len(placed) == target:
            break
        if rng.random() < 0.25:
            width = round(float(rng.uniform(0.03, 0.08)), 4)
            length = round(float(rng.uniform(max(0.5, 2 * LINE_ASPECT * width), 1.6)), 4)
            half_u, half_z = width / 2.0, length / 2.0
        else:
            width, length = round(float(rng.uniform(0.08, 0.25)), 4), None
            half_u = half_z = width / 2.0
        half_deg = math.degrees(half_u / RADIUS_MM)
        if rng.random() < 1.0 / 3.0:
            seam = rot_seams[int(rng.integers(len(rot_seams)))]
            beta = seam + float(rng.uniform(-half_deg, half_deg))
        else:
            beta = float(rng.uniform(0.0, 360.0))
        beta = round(beta % 360.0, 4) % 360.0
        lo, hi = half_z + 0.05, depth_mm - half_z - 0.05
        if rng.random() < 1.0 / 3.0:
            seam = depth_seams[int(rng.integers(len(depth_seams)))]
            z = min(hi, max(lo, seam + float(rng.uniform(-half_z, half_z))))
        else:
            z = float(rng.uniform(lo, hi))
        z = round(z, 4)
        u = beta / 360.0 * circumference
        kept = boxes[: len(placed)]
        du = np.abs(kept[:, 0] - u)
        du = np.minimum(du, circumference - du)
        gap = np.hypot(
            np.maximum(0.0, du - kept[:, 2] - half_u),
            np.maximum(0.0, np.abs(kept[:, 1] - z) - kept[:, 3] - half_z),
        )
        if np.all(gap >= PIT_GAP_MM):
            boxes[len(placed)] = (u, z, half_u, half_z)
            kind = "disc" if length is None else "line"
            placed.append(Defect(kind, z, beta, width, length))
    return placed


def pitted_bore(seed: int) -> Workload:
    """A 15 mm bore, 99 tiles, a few hundred seeded pits and scratches."""
    return Workload(
        "pitted-bore", 15.0, 99, 5.0, "fixed:0.5", tuple(pitted_defects(seed)), seed
    )


WORKLOADS = {
    "bore-reference": bore_reference,
    "featureless-otsu": featureless_otsu,
    "pitted-bore": pitted_bore,
}


def score(
    workload: Workload, records: list[dict], match_radius_mm: float
) -> dict[str, float]:
    """One-to-one match of report records to planted truth.

    A pair is admissible when the kinds agree and the centres lie within
    ``match_radius_mm`` (axial offset and arc length on the wall). The
    Hungarian method maximises the number of admissible pairs, then
    minimises their total distance. Unmatched truth are misses, unmatched
    records are false positives. With no pair matched, the worst errors
    read 0 and ``matched`` reads 0.
    """
    truth = workload.defects
    n_t, n_r = len(truth), len(records)
    matched, loc_max, size_max = 0, 0.0, 0.0
    if n_t and n_r:
        tz = np.array([workload.depth_mm - d.z_mm for d in truth])
        tb = np.array([d.beta_deg for d in truth])
        rz = np.array([float(r["z_mm"]) for r in records])
        rb = np.array([float(r["beta_deg"]) for r in records])
        dbeta = np.abs(tb[:, None] - rb[None, :]) % 360.0
        darc = np.radians(np.minimum(dbeta, 360.0 - dbeta)) * RADIUS_MM
        dist = np.hypot(tz[:, None] - rz[None, :], darc)
        same = np.array([[d.kind == r["kind"] for r in records] for d in truth])
        ok = same & (dist <= match_radius_mm)
        # an inadmissible pair costs more than any full set of admissible ones
        cost = np.where(ok, dist, match_radius_mm * (min(n_t, n_r) + 1))
        rows, cols = linear_sum_assignment(cost)
        pairs = [(i, j) for i, j in zip(rows, cols) if ok[i, j]]
        matched = len(pairs)
        for i, j in pairs:
            loc_max = max(loc_max, float(dist[i, j]))
            size_max = max(
                size_max, abs(float(records[j]["size_mm"]) - truth[i].size_mm)
            )
    return {
        "truth": n_t,
        "records": n_r,
        "matched": matched,
        "recall": matched / n_t if n_t else 0.0,
        "precision": matched / n_r if n_r else 0.0,
        "loc_err_max_mm": loc_max,
        "size_err_max_mm": size_max,
    }
