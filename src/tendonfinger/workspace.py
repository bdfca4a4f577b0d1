"""
Reachable-point sweeps of the coupled finger and occupancy-grid areas.

Each link's cloud is produced by sweeping the first joint angle over its
full range (the other joints follow through the coupling ratios) while
shrinking every link up to and including that link from zero to its full
length, collecting the link's end point.

Sampling formula: link i sweeps 1 + i variables (theta_1 plus i partial
lengths). Each variable of link i gets

    n_i = max(2, ceil(resolution ** (2 / (i + 1))))

samples, so every link's cloud holds roughly resolution**2 points and
the total work stays bounded by the single resolution knob. Per-link
counts are n_i ** (i + 1) exactly. A resolution whose sweep would need
more than MAX_SWEEP_BYTES is refused before anything is allocated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError
from .model import THETA1_MAX, THETA1_MIN, FingerGeometry

# Each function that builds arrays imports numpy itself, so importing
# this module does not load it.
if TYPE_CHECKING:
    import numpy as np

CLOUD_CSV_HEADER = "link,x_m,y_m"
CSV_BLOCK_ROWS = 65536  # rows formatted by one % operation

# The sweep peaks at about 48 bytes per point (its index, angle and
# coordinate arrays, then the stacked cloud); 64 leaves room for the
# gridding that follows. Resolution 400 needs about 31 MB.
SWEEP_BYTES_PER_POINT = 64
MAX_SWEEP_BYTES = 1 << 30

# A workspace export holds three per-link boolean grids and their union
# (a byte per cell each), then the PGM buffer and its text (two bytes
# per cell each); 8 bytes per cell covers them. The default calibration
# swept at resolution 400 needs about 2 MB at 0.5 mm cells, and cells
# down to about 22 um are accepted.
GRID_BYTES_PER_CELL = 8
MAX_GRID_BYTES = 1 << 30


@dataclass(frozen=True)
class WorkspaceCloud:
    """Per-link reachable point sets from one sweep."""

    points_per_link: tuple[np.ndarray, np.ndarray, np.ndarray]
    sample_counts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    resolution: int
    bounding_box: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

    def all_points(self) -> np.ndarray:
        import numpy as np

        return np.vstack(self.points_per_link)


def samples_per_variable(resolution: int, link: int) -> int:
    """Samples for each swept variable of 1-based link `link`."""
    return max(2, math.ceil(resolution ** (2.0 / (link + 1))))


def sweep_point_count(resolution: int) -> int:
    """Points in the whole cloud swept at `resolution`."""
    return sum(samples_per_variable(resolution, link) ** (link + 1)
               for link in (1, 2, 3))


def sweep_workspace(geom: FingerGeometry, resolution: int) -> WorkspaceCloud:
    """Sweep the coupled configuration space; see the module docstring
    for the per-link sampling formula."""
    import numpy as np

    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    try:
        need = float(sweep_point_count(resolution)) * SWEEP_BYTES_PER_POINT
    except OverflowError:  # point count beyond float range
        need = math.inf
    if need > MAX_SWEEP_BYTES:
        raise ConfigError(
            f"resolution {resolution} needs about {need / 1e9:.3g} GB for "
            f"its sweep, over the {MAX_SWEEP_BYTES / 1e9:.3g} GB budget"
        )

    radii = np.asarray(geom.guide_radii)
    rate = radii[0] / radii  # theta_j = theta_1 * R1 / Rj

    clouds = []
    counts = []
    for link in (1, 2, 3):
        n = samples_per_variable(resolution, link)
        theta1 = np.linspace(THETA1_MIN, THETA1_MAX, n)
        phi = np.cumsum(theta1[:, None] * rate[None, :], axis=1)  # (n, 3)
        axes = [np.linspace(0.0, geom.link_lengths[j], n) for j in range(link)]
        grids = np.meshgrid(np.arange(n), *axes, indexing="ij")
        idx = grids[0].ravel()
        x = np.zeros(idx.shape)
        y = np.zeros(idx.shape)
        for j in range(link):
            lj = grids[1 + j].ravel()
            x += lj * np.cos(phi[idx, j])
            y += lj * np.sin(phi[idx, j])
        clouds.append(np.column_stack((x, y)))
        counts.append(tuple([n] * (link + 1)))

    allpts = np.vstack(clouds)
    bbox = (
        float(allpts[:, 0].min()), float(allpts[:, 1].min()),
        float(allpts[:, 0].max()), float(allpts[:, 1].max()),
    )
    return WorkspaceCloud(
        points_per_link=tuple(clouds),
        sample_counts=tuple(counts),
        resolution=resolution,
        bounding_box=bbox,
    )


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean cell grid over a cloud with its area estimate."""

    marked: np.ndarray  # (ny, nx) bool, row 0 at ymin
    origin: tuple[float, float]
    cell_size: float

    @property
    def area(self) -> float:
        import numpy as np

        return float(np.count_nonzero(self.marked)) * self.cell_size ** 2


def occupancy_grid(
    cloud: WorkspaceCloud, cell_size: float, *, links=None
) -> OccupancyGrid:
    """Mark every cell containing at least one cloud point.

    `links` restricts the gridded points to the given 1-based link ids;
    the grid extent always covers the whole cloud's bounding box so
    per-link grids share cell alignment. A cell size that is not
    positive, exceeds the box's diagonal or whose grid would need more
    than MAX_GRID_BYTES raises ConfigError before anything is allocated,
    and so does a selection with no points.
    """
    import numpy as np

    xmin, ymin, xmax, ymax = cloud.bounding_box
    diag = math.hypot(xmax - xmin, ymax - ymin)
    if cell_size <= 0.0:
        raise ConfigError("cell_size must be > 0")
    if diag > 0.0 and cell_size > diag:
        raise ConfigError("cell_size exceeds the bounding-box diagonal")
    try:
        nx = math.floor((xmax - xmin) / cell_size) + 1
        ny = math.floor((ymax - ymin) / cell_size) + 1
        need = float(nx * ny) * GRID_BYTES_PER_CELL
    except OverflowError:  # cell count beyond float range
        need = math.inf
    if need > MAX_GRID_BYTES:
        raise ConfigError(
            f"cell size {cell_size:g} m needs about {need / 1e9:.3g} GB for "
            f"its grid, over the {MAX_GRID_BYTES / 1e9:.3g} GB budget"
        )

    if links is None:
        pts = cloud.all_points()
    else:
        chosen = [cloud.points_per_link[i - 1] for i in links]
        pts = np.vstack(chosen) if chosen else np.empty((0, 2))
    if pts.shape[0] == 0:
        raise ConfigError("no points to grid")

    ix = np.clip(((pts[:, 0] - xmin) / cell_size).astype(int), 0, nx - 1)
    iy = np.clip(((pts[:, 1] - ymin) / cell_size).astype(int), 0, ny - 1)
    marked = np.zeros((ny, nx), dtype=bool)
    marked[iy, ix] = True
    return OccupancyGrid(marked=marked, origin=(xmin, ymin), cell_size=cell_size)


def cloud_to_csv(cloud: WorkspaceCloud, out) -> None:
    """Write one row per point, link,x_m,y_m, to the text stream `out`.

    Each block of up to CSV_BLOCK_ROWS rows is one `%` operation on
    Python floats; `%.9g` gives the same digits as `:.9g` does per row.
    """
    out.write(CLOUD_CSV_HEADER + "\n")
    for link, pts in enumerate(cloud.points_per_link, start=1):
        row = f"{link},%.9g,%.9g\n"
        for start in range(0, len(pts), CSV_BLOCK_ROWS):
            block = pts[start:start + CSV_BLOCK_ROWS]
            out.write((row * len(block)) % tuple(block.ravel().tolist()))


def grid_to_pgm(grid: OccupancyGrid) -> str:
    """ASCII PGM (P2, maxval 1), top row at the largest y."""
    import numpy as np

    ny, nx = grid.marked.shape
    # Each row is 2*nx bytes: a digit per cell, each followed by a
    # space, except the last, which a newline follows.
    body = np.full((ny, 2 * nx), ord(" "), dtype=np.uint8)
    body[:, 0::2] = ord("0") + grid.marked[::-1]
    body[:, -1] = ord("\n")
    return f"P2\n{nx} {ny}\n1\n" + body.tobytes().decode("ascii")


def grid_sidecar(grid: OccupancyGrid, per_link_area: dict | None = None) -> str:
    """JSON sidecar describing an occupancy grid export."""
    ny, nx = grid.marked.shape
    doc = {
        "cell_size_m": grid.cell_size,
        "origin_m": list(grid.origin),
        "nx": nx,
        "ny": ny,
        "area_m2": grid.area,
    }
    if per_link_area is not None:
        doc["per_link_area_m2"] = per_link_area
    return json.dumps(doc, indent=2) + "\n"
