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
counts are n_i ** (i + 1) exactly. A resolution whose cloud is over
MAX_SWEEP_POINTS is refused before anything is allocated.

A sweep comes in three steps that run one slab at a time: a slab of
whole theta_1 rows (`sweep_slabs`), the marking of its cells
(`mark_cells`) and the encoding of its CSV rows (`write_csv_rows`). The
cloud's bounding box, which places the grid, comes first and from n
values per link (`sweep_extent`), so an export can grid and write each
slab before the next exists and never holds the cloud.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError
from .jsonout import dumps
from .model import THETA1_MAX, THETA1_MIN, FingerGeometry

# Each function that builds arrays imports numpy itself, so importing
# this module does not load it.
if TYPE_CHECKING:
    import numpy as np

CLOUD_CSV_HEADER = b"link,x_m,y_m\n"
# Rows encoded by one pass of array operations (`csv_fields`, then the
# row layout of `write_csv_rows`), and the points of one slab of
# `sweep_slabs` (whole theta_1 rows, at least one). A block's arrays peak
# at about 220 bytes a row, under 2 MB whatever the cloud's size; 8,192
# rows encoded a little faster than 4,096 or 16,384 on a 2-core Xeon.
CSV_BLOCK_ROWS = 8192
CSV_FIELD_BYTES = 16  # the widest %.9g, as in "-1.23456789e-308"

# No sweep holds its cloud, so this cap bounds work, not memory
# (resolution 2,338 sweeps 16,776,278 points; 2,339 is refused). The
# export at 2,338 writes a 485 MB CSV in about 4 s on a 2-core Xeon.
MAX_SWEEP_POINTS = 1 << 24

# A workspace export holds three per-link boolean grids and their union
# (a byte per cell each), then the PGM buffer and the file's bytes (two
# bytes per cell each); 8 bytes per cell covers them. The default
# calibration swept at resolution 400 needs about 2 MB at 0.5 mm cells,
# and cells down to about 22 um are accepted.
GRID_BYTES_PER_CELL = 8
MAX_GRID_BYTES = 1 << 30


def samples_per_variable(resolution: int, link: int) -> int:
    """Samples for each swept variable of 1-based link `link`."""
    return max(2, math.ceil(resolution ** (2.0 / (link + 1))))


def sweep_point_count(resolution: int) -> int:
    """Points in the whole cloud swept at `resolution`."""
    return sum(samples_per_variable(resolution, link) ** (link + 1)
               for link in (1, 2, 3))


def _check_resolution(resolution: int) -> None:
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    try:
        points = sweep_point_count(resolution)
    except OverflowError:  # a resolution beyond float range
        points = math.inf
    if points > MAX_SWEEP_POINTS:
        raise ConfigError(
            f"resolution {resolution} sweeps {points:,} points, "
            f"over the {MAX_SWEEP_POINTS:,}-point cap"
        )


def _link_samples(geom: FingerGeometry, resolution: int, link: int):
    """Link `link`'s swept variables: the cosines and sines of the three
    joint angles at its n theta_1 samples, (n, 3) each, and the n sampled
    lengths of each of links 1 to `link`."""
    import numpy as np

    n = samples_per_variable(resolution, link)
    radii = np.asarray(geom.guide_radii)
    rate = radii[0] / radii  # theta_j = theta_1 * R1 / Rj
    theta1 = np.linspace(THETA1_MIN, THETA1_MAX, n)
    phi = np.cumsum(theta1[:, None] * rate[None, :], axis=1)  # (n, 3)
    lengths = [np.linspace(0.0, geom.link_lengths[j], n) for j in range(link)]
    return np.cos(phi), np.sin(phi), lengths


def _slab(cos: np.ndarray, sin: np.ndarray, lengths) -> np.ndarray:
    """The points of the theta_1 rows whose trig rows are `cos` and `sin`,
    as a (rows,) + (n,) * link + (2,) array in C order: axis 0 samples
    theta_1 and axis 1 + j the length of link j + 1.

    Each link term, the sampled length times the angle's cosine or sine,
    is broadcast and added in place in joint order, so every point is
    ((0 + l1 c1) + l2 c2) + l3 c3. Starting from +0.0 matters: a zero
    length times a negative sine is -0.0, and 0.0 + -0.0 prints as "0"
    in the CSV, not "-0".
    """
    import numpy as np

    link, n = len(lengths), len(lengths[0])
    on_theta = (len(cos),) + (1,) * link
    slab = np.zeros((len(cos),) + (n,) * link + (2,))
    for j, lj in enumerate(lengths):
        on_length = [1] * (link + 1)
        on_length[1 + j] = n
        lj = lj.reshape(on_length)
        slab[..., 0] += lj * cos[:, j].reshape(on_theta)
        slab[..., 1] += lj * sin[:, j].reshape(on_theta)
    return slab


def sweep_extent(
    geom: FingerGeometry, resolution: int
) -> tuple[float, float, float, float]:
    """The bounding box (xmin, ymin, xmax, ymax) of the cloud swept at
    `resolution`, bit for bit the min and max of its points, from n
    values per link rather than the cloud.

    A point's x is ((0 + t1) + t2) + t3 with t_j = l_j * cos(phi_j) (y
    alike with sin), each operation rounded to nearest, which is
    monotone in each operand. So, for each theta_1, the smallest x is the
    same sum of each term's smallest value, and a term is smallest (or
    largest) at one end of its length's samples, 0 or L_j.
    """
    import numpy as np

    _check_resolution(resolution)
    low, high = [], []
    for link in (1, 2, 3):
        cos, sin, lengths = _link_samples(geom, resolution, link)
        trig = np.stack((cos, sin))  # (2, n, 3): x and y
        lo = np.zeros(trig.shape[:2])
        hi = np.zeros(trig.shape[:2])
        for j, lj in enumerate(lengths):
            ends = lj[0] * trig[:, :, j], lj[-1] * trig[:, :, j]
            lo += np.minimum(*ends)
            hi += np.maximum(*ends)
        low.append(lo.min(axis=1))
        high.append(hi.max(axis=1))
    (xmin, ymin), (xmax, ymax) = np.min(low, axis=0), np.max(high, axis=0)
    return float(xmin), float(ymin), float(xmax), float(ymax)


def sweep_slabs(geom: FingerGeometry, resolution: int):
    """Yield (link, points) for links 1, 2 and 3 in turn: each link's
    cloud, in the order of `_slab`, cut into slabs of whole theta_1 rows
    of about CSV_BLOCK_ROWS points (at least one row), each a fresh
    (m, 2) array. The resolution is checked when iteration starts.

    One link's whole cloud is `np.vstack` of its slabs' points.
    """
    _check_resolution(resolution)
    for link in (1, 2, 3):
        cos, sin, lengths = _link_samples(geom, resolution, link)
        rows = max(1, CSV_BLOCK_ROWS // len(cos) ** link)
        for start in range(0, len(cos), rows):
            stop = start + rows
            slab = _slab(cos[start:stop], sin[start:stop], lengths)
            yield link, slab.reshape(-1, 2)


class OccupancyGrid(NamedTuple):
    """Boolean cell grid over a cloud with its area estimate."""

    marked: np.ndarray  # (ny, nx) bool, row 0 at ymin
    origin: tuple[float, float]
    cell_size: float

    @property
    def area(self) -> float:
        import numpy as np

        return float(np.count_nonzero(self.marked)) * self.cell_size ** 2


def blank_grid(bbox: tuple[float, float, float, float],
               cell_size: float) -> OccupancyGrid:
    """An unmarked grid over `bbox` (xmin, ymin, xmax, ymax), its origin
    at the box's lower corner. A cell size that is not > 0 (NaN
    included), exceeds the box's diagonal or whose grid would need more
    than MAX_GRID_BYTES raises ConfigError before anything is allocated.
    """
    import numpy as np

    xmin, ymin, xmax, ymax = bbox
    diag = math.hypot(xmax - xmin, ymax - ymin)
    if not cell_size > 0.0:
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
    return OccupancyGrid(marked=np.zeros((ny, nx), dtype=bool),
                         origin=(xmin, ymin), cell_size=cell_size)


def mark_cells(grid: OccupancyGrid, pts: np.ndarray) -> None:
    """Mark in place the cell of each point of the (m, 2) array `pts`,
    clipped to the grid."""
    import numpy as np

    ny, nx = grid.marked.shape
    xmin, ymin = grid.origin
    ix = np.clip(((pts[:, 0] - xmin) / grid.cell_size).astype(int), 0, nx - 1)
    iy = np.clip(((pts[:, 1] - ymin) / grid.cell_size).astype(int), 0, ny - 1)
    grid.marked[iy, ix] = True


def percent_fields(values: np.ndarray) -> np.ndarray:
    """`%.9g` of each value, space-padded on the left to a
    CSV_FIELD_BYTES-byte uint8 row: the fallback of `csv_fields`."""
    import numpy as np

    text = ("%16.9g" * len(values)) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(
        -1, CSV_FIELD_BYTES)


@functools.cache
def digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The constant byte tables of `csv_fields`, built on first use and
    read-only: (prefixes, groups).

    `prefixes` holds 80 uint64 slots of 8 bytes, at index 40 * s + 10 * z
    + d: a "-" if s is 1, "0", ".", z zeros and the digit d, each absent
    byte a zero. For d = 0 the slot is the sign and "0" alone, which is
    `%.9g` of -0.0 and 0.0. `groups` holds 20,000 uint32 slots of 4
    digits: at g < 10,000 the digits of g in full, at 10,000 + g the same
    digits with their trailing zeros made zero bytes.
    """
    import numpy as np

    sign, rest = np.divmod(np.arange(80), 40)
    z, d = np.divmod(rest, 10)
    nonzero = d > 0
    prefixes = np.zeros((80, 8), dtype=np.uint8)
    prefixes[:, 0] = sign * ord("-")
    prefixes[:, 1] = ord("0")
    prefixes[:, 2] = nonzero * ord(".")
    for k in range(3):
        prefixes[:, 3 + k] = (nonzero & (z > k)) * ord("0")
    prefixes[:, 6] = nonzero * (ord("0") + d)

    g = np.arange(10000)[:, None]
    digits = g // np.array([1000, 100, 10, 1]) % 10
    # True where a nonzero digit is at or after the position.
    kept = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0
    groups = np.empty((2, 10000, 4), dtype=np.uint8)
    groups[0] = ord("0") + digits
    groups[1] = groups[0] * kept

    tables = prefixes.view(np.uint64).ravel(), groups.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def csv_fields(values: np.ndarray) -> np.ndarray:
    """`%.9g` of each value as a CSV_FIELD_BYTES-byte uint8 row in which
    zero bytes mark unused slots.

    A value with |v| in [1e-4, 1) prints as "0.", z zeros and the nine
    digits N = round(|v| * 10**(9 + z)), trailing zeros dropped. numpy
    computes y = |v| * 10**(9 + z); the power is an exact double, so y is
    off the exact product by at most 2**-53 * 1e9, about 1.1e-7. Where
    y's fraction is more than 1e-6 from 1/2, y and the exact product
    round to the same N, so N is %.9g's (which rounds the exact value,
    half to even). N is also required to have nine digits, so rounding
    did not carry into the next power of ten.

    Such a value's row is three lookups in `digit_tables`: with N = d *
    10**8 + mid * 10**4 + lo, the prefix slot of its sign, z and d, then
    mid's group (stripped where lo is 0) and lo's stripped group. An
    exact 0.0 or -0.0 is the prefix slot of its sign with d = 0 and two
    empty groups. Every other value, and every near-tie, is formatted by
    `%` (`percent_fields`).
    """
    import numpy as np

    prefixes, groups = digit_tables()
    a = np.abs(values)
    proven = (a >= 1e-4) & (a < 1.0)
    a = np.where(proven, a, 0.0)  # keeps the others' arithmetic in range
    z = (a < 0.1).astype(np.int8)
    z += a < 0.01
    z += a < 0.001
    y = a * np.array([1e9, 1e10, 1e11, 1e12]).take(z)
    n = np.floor(y + 0.5)
    proven &= (np.abs(y - np.floor(y) - 0.5) > 1e-6) & (n >= 1e8) & (n < 1e9)

    # Nine digits where proven; 0 elsewhere, as for +-0.0, and `%` writes
    # the field of every unproven nonzero value. N < 2**31, so the digit
    # and index arithmetic is int32, half the memory traffic of int64.
    n = np.where(proven, n, 0.0).astype(np.int32)
    d = n // 100000000
    rest = n - d * 100000000
    mid = rest // 10000
    lo = rest - mid * 10000
    fields = np.empty((len(values), CSV_FIELD_BYTES), dtype=np.uint8)
    fields.view(np.uint64)[:, 0] = prefixes.take(
        d + 10 * z + np.int32(40) * np.signbit(values))
    quads = fields.view(np.uint32)
    quads[:, 2] = groups.take(mid + np.int32(10000) * (lo == 0))
    quads[:, 3] = groups.take(lo + 10000)

    deferred = np.flatnonzero(~proven & (values != 0.0))
    if len(deferred):
        fields[deferred] = percent_fields(values[deferred])
    return fields


def write_csv_rows(out, link: int, pts: np.ndarray) -> None:
    """Write one row per point of the (m, 2) array `pts`, link,x_m,y_m,
    to the binary stream `out`.

    Coordinates are `%.9g`, byte for byte. Each block of up to
    CSV_BLOCK_ROWS rows is laid out as link, ",", x's field, ",", y's
    field and a newline in one uint8 array (see `csv_fields` for the
    error bound that decides which fields come from its digit tables),
    and one `bytes.translate` pass deletes its zero and padding-space
    bytes before the block is written.
    """
    import numpy as np

    field = np.dtype((np.void, CSV_FIELD_BYTES))
    for start in range(0, len(pts), CSV_BLOCK_ROWS):
        block = pts[start:start + CSV_BLOCK_ROWS]
        # Fields move as void items, a copy of 16 bytes each.
        fields = csv_fields(block.ravel()).view(field).reshape(len(block), 2)
        rows = np.empty((len(block), 4 + 2 * CSV_FIELD_BYTES), dtype=np.uint8)
        rows[:, 0] = ord("0") + link
        rows[:, 1] = rows[:, 2 + CSV_FIELD_BYTES] = ord(",")
        rows[:, 2:2 + CSV_FIELD_BYTES].view(field)[:, 0] = fields[:, 0]
        rows[:, 3 + CSV_FIELD_BYTES:-1].view(field)[:, 0] = fields[:, 1]
        rows[:, -1] = ord("\n")
        out.write(rows.tobytes().translate(None, b"\0 "))


def grid_to_pgm(grid: OccupancyGrid) -> bytes:
    """ASCII PGM (P2, maxval 1) as bytes, top row at the largest y."""
    import numpy as np

    ny, nx = grid.marked.shape
    # Each row is 2*nx bytes: a digit per cell, each followed by a
    # space, except the last, which a newline follows.
    # The digits are added as uint8: a bool array plus an int is int64,
    # eight bytes a cell, the largest array of an export.
    body = np.full((ny, 2 * nx), ord(" "), dtype=np.uint8)
    body[:, 0::2] = ord("0") + grid.marked[::-1].view(np.uint8)
    body[:, -1] = ord("\n")
    return f"P2\n{nx} {ny}\n1\n".encode("ascii") + body.tobytes()


def grid_sidecar(grid: OccupancyGrid, per_link_area: dict) -> str:
    """JSON sidecar describing an occupancy grid export and per-link areas."""
    ny, nx = grid.marked.shape
    doc = {
        "cell_size_m": grid.cell_size,
        "origin_m": list(grid.origin),
        "nx": nx,
        "ny": ny,
        "area_m2": grid.area,
        "per_link_area_m2": per_link_area,
    }
    return dumps(doc) + "\n"
