import math
import re
import tracemalloc
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendonfinger import cli, workspace
from tendonfinger.config import default_config_path, load_finger_config
from tendonfinger.errors import ConfigError
from tendonfinger.model import THETA1_MAX, THETA1_MIN, FingerGeometry
from tendonfinger.workspace import (
    CLOUD_CSV_HEADER,
    CSV_BLOCK_ROWS,
    blank_grid,
    grid_sidecar,
    grid_to_pgm,
    mark_cells,
    samples_per_variable,
    sweep_extent,
    sweep_point_count,
    sweep_slabs,
    write_csv_rows,
)

GEOM = FingerGeometry(link_lengths=(0.06, 0.06, 0.051),
                      guide_radii=(0.0075, 0.006, 0.005))
SINGLE_LINK = FingerGeometry(link_lengths=(0.06, 0.0, 0.0),
                             guide_radii=(0.0075, 0.006, 0.005))
# Coordinates of metres: about half of them are outside the CSV's numpy
# digit range.
METRES = FingerGeometry(link_lengths=(2.0, 2.0, 1.5),
                        guide_radii=(0.0075, 0.006, 0.005))
ZERO_MIDDLE = FingerGeometry(link_lengths=(0.06, 0.0, 0.051),
                             guide_radii=(0.0075, 0.006, 0.005))
GEOMETRIES = pytest.mark.parametrize(
    "geom", [GEOM, SINGLE_LINK, METRES, ZERO_MIDDLE],
    ids=["geom", "single_link", "metres", "zero_middle"])
HALF_DISK_AREA = math.pi * 0.06 ** 2 / 2


def swept(geom, resolution):
    """Each link's whole cloud: `np.vstack` of its `sweep_slabs` points."""
    slabs = {1: [], 2: [], 3: []}
    for link, pts in sweep_slabs(geom, resolution):
        slabs[link].append(pts)
    return [np.vstack(slabs[link]) for link in (1, 2, 3)]


def gridded(geom, resolution, cell_size, links=(1, 2, 3)):
    """The grid over the sweep's box with the cells of `links`' points
    marked, one slab at a time."""
    grid = blank_grid(sweep_extent(geom, resolution), cell_size)
    for link, pts in sweep_slabs(geom, resolution):
        if link in links:
            mark_cells(grid, pts)
    return grid


def csv_text(clouds):
    """What the header and `write_csv_rows` of each link's points in
    `clouds` write to a binary stream, as text; a byte outside ASCII
    fails the decode."""
    out = BytesIO()
    out.write(CLOUD_CSV_HEADER)
    for link, pts in enumerate(clouds, start=1):
        write_csv_rows(out, link, pts)
    return out.getvalue().decode("ascii")


def reference_csv(clouds):
    """The per-row encoder the block encoder must match byte for byte."""
    lines = ["link,x_m,y_m"]
    for link, pts in enumerate(clouds, start=1):
        for x, y in pts:
            lines.append(f"{link},{x:.9g},{y:.9g}")
    return "\n".join(lines) + "\n"


def assert_csv_is_reference(clouds):
    """`write_csv_rows` writes `reference_csv`'s bytes; a failure shows
    the first differing rows, not a diff of the whole text."""
    got = csv_text(clouds).split("\n")
    want = reference_csv(clouds).split("\n")
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:3] == []


def cloud_of(values):
    """Per-link clouds whose link 1 holds `values` in order, padded with
    0.5 to an even count, and whose links 2 and 3 are empty."""
    values = np.asarray(values, dtype=float)
    if len(values) % 2:
        values = np.append(values, 0.5)
    empty = np.empty((0, 2))
    return [values.reshape(-1, 2), empty, empty]


def with_neighbours(values, ulps=3):
    """`values`, the `ulps` doubles on either side of each, and all of
    their negations."""
    found = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        found += [up, down]
    found = np.concatenate(found)
    return np.concatenate([found, -found])


def reference_sweep(geom, resolution):
    """The per-point sweep `sweep_slabs` must match bit for bit: every
    point gathers its own angles from the (n, 3) table, and x and y add
    l * cos and l * sin to zeros, joint by joint."""
    radii = np.asarray(geom.guide_radii)
    rate = radii[0] / radii
    clouds = []
    for link in (1, 2, 3):
        n = samples_per_variable(resolution, link)
        theta1 = np.linspace(THETA1_MIN, THETA1_MAX, n)
        phi = np.cumsum(theta1[:, None] * rate[None, :], axis=1)
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
    return clouds


def reference_pgm(grid):
    """The per-cell encoder the array encoder must match byte for byte."""
    ny, nx = grid.marked.shape
    lines = ["P2", f"{nx} {ny}", "1"]
    for row in grid.marked[::-1]:
        lines.append(" ".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


class TestSweep:
    def test_resolution_too_low(self):
        with pytest.raises(ConfigError, match="resolution must be >= 2"):
            sweep_extent(GEOM, 1)

    # The cap is 2**24 = 16,777,216 points.
    def test_resolution_cap(self):
        assert sweep_point_count(2338) == 16_776_278
        sweep_extent(GEOM, 2338)
        with pytest.raises(ConfigError) as exc:
            sweep_extent(GEOM, 2339)
        assert str(exc.value) == ("resolution 2339 sweeps 16,780,955 points, "
                                  "over the 16,777,216-point cap")

    def test_sampling_formula_at_50(self):
        clouds = swept(GEOM, 50)
        assert samples_per_variable(50, 1) == 50
        assert samples_per_variable(50, 2) == 14
        assert samples_per_variable(50, 3) == 8
        assert len(clouds[0]) == 50 ** 2
        assert len(clouds[1]) == 14 ** 3
        assert len(clouds[2]) == 8 ** 4

    def test_count_matches_declared_product(self):
        clouds = swept(GEOM, 23)
        for link, pts in enumerate(clouds, start=1):
            assert len(pts) == samples_per_variable(23, link) ** (link + 1)
        assert sum(map(len, clouds)) == sweep_point_count(23)

    def test_reach_bound(self):
        radii = np.hypot(*np.vstack(swept(GEOM, 40)).T)
        assert np.all(radii <= GEOM.total_length + 1e-9)

    def test_per_link_containment(self):
        partial = np.cumsum(GEOM.link_lengths)
        for pts, reach in zip(swept(GEOM, 40), partial):
            assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= reach + 1e-9)

    def test_single_link_arc_boundary(self):
        radii = np.hypot(*swept(SINGLE_LINK, 60)[0].T)
        assert radii.max() == pytest.approx(0.06, abs=1e-12)
        assert np.all(radii <= 0.06 + 1e-12)

    def test_mirror_symmetry_within_cell(self):
        cell = 1e-3
        pts = np.vstack(swept(GEOM, 60))
        occupied = {(int(math.floor(x / cell)), int(math.floor(y / cell)))
                    for x, y in pts}
        rng = np.random.default_rng(1)
        sample = pts[rng.choice(len(pts), 2000, replace=False)]
        for x, y in sample:
            cx = int(math.floor(x / cell))
            cy = int(math.floor(-y / cell))
            hit = any((cx + dx, cy + dy) in occupied
                      for dx in (-1, 0, 1) for dy in (-1, 0, 1))
            assert hit, f"no mirror cell near ({x}, {-y})"

    # At 441, one theta_1 row of link 3 holds 21**3 = 9,261 points, more
    # than CSV_BLOCK_ROWS, so a slab is one row and its edges no longer
    # fall on 8,192-row block edges.
    @pytest.mark.parametrize("resolution", [2, 3, 23, 137, 400, 441])
    @GEOMETRIES
    def test_matches_per_point_reference(self, geom, resolution):
        # Compared as int64 bit patterns, so -0.0 differs from 0.0.
        for got, want in zip(swept(geom, resolution),
                             reference_sweep(geom, resolution)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("resolution", [2, 3, 23, 137, 441])
    @GEOMETRIES
    def test_slabs_are_the_cloud_in_rows(self, geom, resolution):
        # Links come in order, each slab whole theta_1 rows of at most
        # max(row, CSV_BLOCK_ROWS) points, and together every point;
        # `test_matches_per_point_reference` compares the points.
        links = []
        for link, pts in sweep_slabs(geom, resolution):
            row = samples_per_variable(resolution, link) ** link
            assert len(pts) % row == 0
            assert len(pts) <= max(row, CSV_BLOCK_ROWS)
            links += [link] * len(pts)
        assert links == sorted(links)
        assert len(links) == sweep_point_count(resolution)

    def test_slabs_check_the_resolution(self):
        with pytest.raises(ConfigError, match="resolution must be >= 2"):
            next(sweep_slabs(GEOM, 1))

    def test_determinism(self):
        a = swept(GEOM, 30)
        b = swept(GEOM, 30)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)
        assert csv_text(a) == csv_text(b)


class TestOccupancy:
    def test_single_point(self):
        # Degenerate distal links collapse links 2 and 3 onto link 1's
        # points; grid just one link-3 point.
        sub = swept(SINGLE_LINK, 2)[2][:1]
        grid = blank_grid(
            (sub[0, 0], sub[0, 1], sub[0, 0] + 1e-4, sub[0, 1] + 1e-4), 1e-4)
        mark_cells(grid, sub)
        assert np.count_nonzero(grid.marked) == 1
        assert grid.area == pytest.approx(1e-8)

    def test_half_disk_area(self):
        grid = gridded(SINGLE_LINK, 400, 5e-4, links=(1,))
        assert grid.area == pytest.approx(HALF_DISK_AREA, rel=0.05)

    def test_refinement_bounded_by_boundary_band(self):
        h = 1e-3
        coarse = gridded(SINGLE_LINK, 400, h, links=(1,)).area
        fine = gridded(SINGLE_LINK, 400, h / 2, links=(1,)).area
        perimeter = math.pi * 0.06 + 2 * 0.06
        assert abs(coarse - fine) < perimeter * h

    def test_cell_size_validation(self):
        bbox = sweep_extent(GEOM, 5)
        with pytest.raises(ConfigError, match="must be > 0"):
            blank_grid(bbox, 0.0)
        with pytest.raises(ConfigError, match="exceeds the bounding-box diagonal"):
            blank_grid(bbox, 10.0)

    def test_nan_cell_size(self):
        # NaN fails every comparison, so `<= 0` let it through to a bare
        # ValueError from math.floor.
        with pytest.raises(ConfigError, match="cell_size must be > 0"):
            blank_grid(sweep_extent(GEOM, 5), float("nan"))


class TestExports:
    def test_csv_layout(self):
        clouds = swept(GEOM, 3)
        lines = csv_text(clouds).strip().split("\n")
        assert lines[0] == "link,x_m,y_m"
        assert len(lines) == sum(map(len, clouds)) + 1
        assert lines[1].startswith("1,")

    def test_pgm_and_sidecar(self):
        grid = gridded(GEOM, 10, 2e-3)
        pgm = grid_to_pgm(grid).split(b"\n")
        assert pgm[0] == b"P2"
        ny, nx = grid.marked.shape
        assert pgm[1] == f"{nx} {ny}".encode("ascii")
        assert pgm[2] == b"1"
        sidecar = grid_sidecar(grid, {"1": 0.001})
        assert '"cell_size_m"' in sidecar
        assert '"per_link_area_m2"' in sidecar

    # At 300, link 1 holds 90,000 rows: more than one CSV block.
    @pytest.mark.parametrize("resolution", [2, 3, 300])
    def test_encoders_match_reference(self, resolution):
        assert_csv_is_reference(swept(GEOM, resolution))
        grid = gridded(GEOM, resolution, 1e-3)
        assert grid_to_pgm(grid) == reference_pgm(grid).encode("ascii")

    def test_cli_csv_at_benchmark_size(self, tmp_path):
        # The benchmark's first op: the file, read back as bytes, is the
        # per-row encoder's text of the same sweep.
        base = tmp_path / "ws"
        assert cli.main(["workspace", "--resolution", "400", "--cell", "0.0005",
                         "--out", str(base)]) == 0
        geom = load_finger_config(default_config_path()).geometry
        want = reference_csv(reference_sweep(geom, 400)).encode("ascii")
        assert (tmp_path / "ws.csv").read_bytes() == want

    def test_cli_export_is_the_whole_cloud_path(self, tmp_path):
        # The CLI grids and writes one slab at a time; its three files are
        # the per-row and per-cell encoders' of the per-point reference,
        # gridded over the reference's own box. At 441 a link-3 slab is
        # one theta_1 row of 9,261 points.
        base = tmp_path / "ws"
        assert cli.main(["workspace", "--resolution", "441", "--cell", "0.0005",
                         "--out", str(base)]) == 0
        geom = load_finger_config(default_config_path()).geometry
        clouds = reference_sweep(geom, 441)
        pts = np.vstack(clouds)
        bbox = (*pts.min(axis=0), *pts.max(axis=0))
        grids = [blank_grid(bbox, 5e-4) for _ in clouds]
        for grid, link_pts in zip(grids, clouds):
            mark_cells(grid, link_pts)
        union = blank_grid(bbox, 5e-4)
        mark_cells(union, pts)
        per_link = {str(i): g.area for i, g in zip((1, 2, 3), grids)}
        assert (tmp_path / "ws.csv").read_bytes() == reference_csv(
            clouds).encode("ascii")
        assert (tmp_path / "ws.pgm").read_bytes() == reference_pgm(
            union).encode("ascii")
        assert (tmp_path / "ws.json").read_text(encoding="utf-8") == grid_sidecar(
            union, per_link)

    # The bounds, with the peaks read before the export streamed its
    # slabs (12.4 MB and 74.8 MB) and after (2.8 MB and 3.4 MB): at 400 the
    # whole cloud's points alone take 7.8 MB (486,375 points of 16
    # bytes), so an export under 6 MB cannot hold them; at 1000, 6.3
    # times the points, link 1's cloud alone takes 16 MB, and 8 MB shows
    # the peak follows one slab and the grid, not resolution squared.
    @pytest.mark.parametrize("resolution, bound", [(400, 6e6), (1000, 8e6)])
    def test_cli_export_peak_memory(self, tmp_path, resolution, bound):
        base = str(tmp_path / "ws")
        # A first op builds the digit tables and loads numpy's lazy parts.
        assert cli.main(["workspace", "--resolution", "2", "--out", base]) == 0
        tracemalloc.start()
        try:
            assert cli.main(["workspace", "--resolution", str(resolution),
                             "--cell", "0.0005", "--out", base]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_csv_peak_memory_is_one_block(self):
        # The text is never held whole: at resolution 200 the CSV is 3.8
        # MB, and the encoder's peak, one block's arrays (about 220 bytes
        # per row), stays under 2 MiB whatever the point count.
        class Sink:
            size = 0

            def write(self, data):
                self.size += len(data)

        geom = load_finger_config(default_config_path()).geometry
        clouds = swept(geom, 200)
        write_csv_rows(Sink(), 1, clouds[0][:1])  # builds the digit tables
        sink = Sink()
        tracemalloc.start()
        try:
            for link, pts in enumerate(clouds, start=1):
                write_csv_rows(sink, link, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 3_500_000
        assert peak < 256 * CSV_BLOCK_ROWS

    def test_grid_marks_the_cell_of_every_chosen_point(self):
        clouds = swept(GEOM, 60)
        xmin, ymin = sweep_extent(GEOM, 60)[:2]
        for links in ((1, 2, 3), (3,)):
            grid = gridded(GEOM, 60, 1e-3, links=links)
            cells = {(int((y - ymin) / 1e-3), int((x - xmin) / 1e-3))
                     for i in links for x, y in clouds[i - 1]}
            assert {tuple(c) for c in np.argwhere(grid.marked)} == cells

    # The box comes from n values per link (`sweep_extent`), not from the
    # points, yet must equal the points' own min and max bit for bit: the
    # grid's origin, and so every cell, depends on it.
    @pytest.mark.parametrize("resolution", [2, 3, 23, 137, 400, 441])
    @GEOMETRIES
    def test_bounding_box_spans_every_link(self, geom, resolution):
        pts = np.vstack(reference_sweep(geom, resolution))
        want = (*pts.min(axis=0), *pts.max(axis=0))
        assert np.array_equal(np.array(sweep_extent(geom, resolution)).view(np.int64),
                              np.array(want).view(np.int64))


class TestCsvDigits:
    """The numpy digits agree with `%.9g` wherever the error bound lets
    numpy write them, and `%` writes the rest."""

    @pytest.mark.parametrize("zeros", [0, 1, 2, 3])
    def test_near_ties(self, zeros):
        # The doubles nearest to (N + 1/2) * 10**-(9 + zeros), the
        # halfway points between two nine-digit outputs.
        rng = np.random.default_rng(zeros)
        n = np.concatenate([[1e8, 1e9 - 1], rng.integers(10**8, 10**9, 3000)])
        assert_csv_is_reference(cloud_of(
            with_neighbours((n + 0.5) / 10.0 ** (9 + zeros))))

    def test_powers_of_ten(self):
        assert_csv_is_reference(cloud_of(with_neighbours(
            np.array([float(f"1e{d}") for d in range(-8, 12)]))))

    def test_extremes(self):
        assert_csv_is_reference(cloud_of([
            0.0, -0.0, 5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.9999999995]))

    def test_digit_table_edges(self, monkeypatch):
        # N = d * 10**8 + mid * 10**4 + lo at every z, each group full,
        # stripped or empty: nine digits ending in 0000 or 00000000, mid
        # 0 with lo not, leading digits 1 and 9, both signs; then +-0.0
        # and the neighbours of 1e-4 and 1.0. The table rows are what is
        # tested, so no N may go to `%`.
        deferred = []
        fallback = workspace.percent_fields
        monkeypatch.setattr(workspace, "percent_fields",
                            lambda v: deferred.extend(v.tolist()) or fallback(v))
        groups = [(0, 0), (0, 1), (0, 10), (0, 5000), (1, 0), (1000, 0),
                  (1234, 5670), (9999, 9999), (1, 1)]
        n = np.array([d * 10**8 + mid * 10**4 + lo
                      for d in (1, 5, 9) for mid, lo in groups], dtype=float)
        values = np.concatenate([n / 10.0 ** (9 + z) for z in range(4)])
        values = np.concatenate([values, -values, [0.0, -0.0]])
        assert_csv_is_reference(cloud_of(values))
        assert deferred == []
        assert_csv_is_reference(cloud_of(with_neighbours(np.array([1e-4, 1.0]))))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-1.0, 1.0)),
                    min_size=1, max_size=40))
    def test_any_finite_floats(self, values):
        assert_csv_is_reference(cloud_of(values))

    @pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                      CSV_BLOCK_ROWS + 1])
    def test_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        assert_csv_is_reference(cloud_of(rng.uniform(-0.2, 0.2, 2 * rows)))

    def test_metres_scale_geometry(self):
        assert_csv_is_reference(swept(METRES, 40))

    def test_shipped_cloud_mostly_skips_the_fallback(self, monkeypatch):
        # An encoder that sent every value to `%` would pass every test
        # above at the old speed.
        geom = load_finger_config(default_config_path()).geometry
        clouds = swept(geom, 100)
        deferred = []
        fallback = workspace.percent_fields

        def spy(values):
            deferred.append(len(values))
            return fallback(values)

        monkeypatch.setattr(workspace, "percent_fields", spy)
        assert_csv_is_reference(clouds)
        values = 2 * sum(map(len, clouds))
        assert sum(deferred) < 0.02 * values

    def test_shipped_cloud_has_no_negative_zero(self):
        # Zero-length links times a negative sine are -0.0; the sweep's
        # sums start from +0.0, so the CSV prints them as 0.
        geom = load_finger_config(default_config_path()).geometry
        fields = re.split("[,\n]", csv_text(swept(geom, 100)))
        assert "0" in fields
        assert "-0" not in fields
