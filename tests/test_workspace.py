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
    CSV_BLOCK_ROWS,
    WorkspaceCloud,
    cloud_to_csv,
    grid_sidecar,
    grid_to_pgm,
    occupancy_grid,
    samples_per_variable,
    sweep_point_count,
    sweep_slabs,
    sweep_workspace,
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


def csv_text(cloud):
    """What `cloud_to_csv` writes to a binary stream, as text; a byte
    outside ASCII fails the decode."""
    out = BytesIO()
    cloud_to_csv(cloud, out)
    return out.getvalue().decode("ascii")


def reference_csv(cloud):
    """The per-row encoder the block encoder must match byte for byte."""
    lines = ["link,x_m,y_m"]
    for link, pts in enumerate(cloud.points_per_link, start=1):
        for x, y in pts:
            lines.append(f"{link},{x:.9g},{y:.9g}")
    return "\n".join(lines) + "\n"


def assert_csv_is_reference(cloud):
    """`cloud_to_csv` writes `reference_csv`'s bytes; a failure shows the
    first differing rows, not a diff of the whole text."""
    got = csv_text(cloud).split("\n")
    want = reference_csv(cloud).split("\n")
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:3] == []


def cloud_of(values):
    """A one-link cloud whose points hold `values` in order, padded with
    0.5 to an even count."""
    values = np.asarray(values, dtype=float)
    if len(values) % 2:
        values = np.append(values, 0.5)
    pts = values.reshape(-1, 2)
    empty = np.empty((0, 2))
    return WorkspaceCloud(
        points_per_link=(pts, empty, empty),
        sample_counts=((len(pts),), (0,), (0,)),
        bounding_box=(0.0, 0.0, 1.0, 1.0),
    )


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
    """The per-point sweep `sweep_workspace` must match bit for bit: every
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
            sweep_workspace(GEOM, 1)

    def test_sampling_formula_at_50(self):
        cloud = sweep_workspace(GEOM, 50)
        assert samples_per_variable(50, 1) == 50
        assert samples_per_variable(50, 2) == 14
        assert samples_per_variable(50, 3) == 8
        assert len(cloud.points_per_link[0]) == 50 ** 2
        assert len(cloud.points_per_link[1]) == 14 ** 3
        assert len(cloud.points_per_link[2]) == 8 ** 4

    def test_count_matches_declared_product(self):
        cloud = sweep_workspace(GEOM, 23)
        for pts, counts in zip(cloud.points_per_link, cloud.sample_counts):
            assert len(pts) == int(np.prod(counts))

    def test_reach_bound(self):
        cloud = sweep_workspace(GEOM, 40)
        radii = np.hypot(*cloud.all_points().T)
        assert np.all(radii <= GEOM.total_length + 1e-9)

    def test_per_link_containment(self):
        cloud = sweep_workspace(GEOM, 40)
        partial = np.cumsum(GEOM.link_lengths)
        for pts, reach in zip(cloud.points_per_link, partial):
            assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= reach + 1e-9)

    def test_single_link_arc_boundary(self):
        cloud = sweep_workspace(SINGLE_LINK, 60)
        radii = np.hypot(*cloud.points_per_link[0].T)
        assert radii.max() == pytest.approx(0.06, abs=1e-12)
        assert np.all(radii <= 0.06 + 1e-12)

    def test_mirror_symmetry_within_cell(self):
        cloud = sweep_workspace(GEOM, 60)
        cell = 1e-3
        pts = cloud.all_points()
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

    @pytest.mark.parametrize("resolution", [2, 3, 23, 137, 400])
    @pytest.mark.parametrize("geom", [GEOM, SINGLE_LINK, METRES],
                             ids=["geom", "single_link", "metres"])
    def test_matches_per_point_reference(self, geom, resolution):
        # Compared as int64 bit patterns, so -0.0 differs from 0.0.
        cloud = sweep_workspace(geom, resolution)
        for got, want in zip(cloud.points_per_link,
                             reference_sweep(geom, resolution)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # At 441, one theta_1 row of link 3 holds 21**3 = 9,261 points, more
    # than CSV_BLOCK_ROWS, so a slab is one row and its edges no longer
    # fall on 8,192-row block edges.
    @pytest.mark.parametrize("resolution", [2, 3, 23, 137, 441])
    @GEOMETRIES
    def test_slabs_are_the_cloud_in_rows(self, geom, resolution):
        cloud = sweep_workspace(geom, resolution)
        got = {1: [], 2: [], 3: []}
        for link, pts in sweep_slabs(geom, resolution):
            row = samples_per_variable(resolution, link) ** link
            assert len(pts) % row == 0
            assert len(pts) <= max(row, CSV_BLOCK_ROWS)
            got[link].append(pts)
        for link, want in enumerate(cloud.points_per_link, start=1):
            slabs = np.concatenate(got[link])
            assert np.array_equal(slabs.view(np.int64), want.view(np.int64))

    def test_slabs_check_the_resolution(self):
        with pytest.raises(ConfigError, match="resolution must be >= 2"):
            next(sweep_slabs(GEOM, 1))

    def test_peak_memory_per_point(self):
        # The clouds hold 16 bytes a point; the gathered per-point
        # index, length and angle arrays took the peak to 35.
        sweep_workspace(GEOM, 137)
        tracemalloc.start()
        try:
            sweep_workspace(GEOM, 137)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / sweep_point_count(137) < 32

    def test_determinism(self):
        a = sweep_workspace(GEOM, 30)
        b = sweep_workspace(GEOM, 30)
        for pa, pb in zip(a.points_per_link, b.points_per_link):
            assert np.array_equal(pa, pb)
        assert csv_text(a) == csv_text(b)


class TestOccupancy:
    def test_single_point(self):
        cloud = sweep_workspace(SINGLE_LINK, 2)
        # Degenerate distal links collapse links 2 and 3 onto link 1's
        # points; grid just one link-3 point via the links filter.
        sub = cloud.points_per_link[2][:1]
        from tendonfinger.workspace import WorkspaceCloud
        single = WorkspaceCloud(
            points_per_link=(sub, np.empty((0, 2)), np.empty((0, 2))),
            sample_counts=((1,), (0,), (0,)),
            bounding_box=(sub[0, 0], sub[0, 1], sub[0, 0] + 1e-4, sub[0, 1] + 1e-4),
        )
        grid = occupancy_grid(single, 1e-4)
        assert np.count_nonzero(grid.marked) == 1
        assert grid.area == pytest.approx(1e-8)

    def test_half_disk_area(self):
        cloud = sweep_workspace(SINGLE_LINK, 400)
        grid = occupancy_grid(cloud, 5e-4, links=(1,))
        assert grid.area == pytest.approx(HALF_DISK_AREA, rel=0.05)

    def test_refinement_bounded_by_boundary_band(self):
        cloud = sweep_workspace(SINGLE_LINK, 400)
        h = 1e-3
        coarse = occupancy_grid(cloud, h, links=(1,)).area
        fine = occupancy_grid(cloud, h / 2, links=(1,)).area
        perimeter = math.pi * 0.06 + 2 * 0.06
        assert abs(coarse - fine) < perimeter * h

    def test_empty_cloud(self):
        cloud = sweep_workspace(GEOM, 5)
        with pytest.raises(ConfigError, match="no points to grid"):
            occupancy_grid(cloud, 1e-3, links=())

    @pytest.mark.parametrize("link", [0, -1, 4, 1.0])
    def test_link_ids_outside_1_to_3(self, link):
        cloud = sweep_workspace(GEOM, 5)
        with pytest.raises(ConfigError, match=re.escape(f"link id {link!r} ")):
            occupancy_grid(cloud, 1e-3, links=(link,))

    def test_cell_size_validation(self):
        cloud = sweep_workspace(GEOM, 5)
        with pytest.raises(ConfigError, match="must be > 0"):
            occupancy_grid(cloud, 0.0)
        with pytest.raises(ConfigError, match="exceeds the bounding-box diagonal"):
            occupancy_grid(cloud, 10.0)

    def test_nan_cell_size(self):
        # NaN fails every comparison, so `<= 0` let it through to a bare
        # ValueError from math.floor.
        cloud = sweep_workspace(GEOM, 5)
        with pytest.raises(ConfigError, match="cell_size must be > 0"):
            occupancy_grid(cloud, float("nan"))


class TestExports:
    def test_csv_layout(self):
        cloud = sweep_workspace(GEOM, 3)
        lines = csv_text(cloud).strip().split("\n")
        assert lines[0] == "link,x_m,y_m"
        total = sum(len(p) for p in cloud.points_per_link)
        assert len(lines) == total + 1
        assert lines[1].startswith("1,")

    def test_pgm_and_sidecar(self):
        cloud = sweep_workspace(GEOM, 10)
        grid = occupancy_grid(cloud, 2e-3)
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
        cloud = sweep_workspace(GEOM, resolution)
        assert_csv_is_reference(cloud)
        grid = occupancy_grid(cloud, 1e-3)
        assert grid_to_pgm(grid) == reference_pgm(grid).encode("ascii")

    def test_cli_csv_at_benchmark_size(self, tmp_path):
        # The benchmark's first op: the file, read back as bytes, is the
        # per-row encoder's text of the same sweep.
        base = tmp_path / "ws"
        assert cli.main(["workspace", "--resolution", "400", "--cell", "0.0005",
                         "--out", str(base)]) == 0
        geom = load_finger_config(default_config_path()).geometry
        want = reference_csv(sweep_workspace(geom, 400)).encode("ascii")
        assert (tmp_path / "ws.csv").read_bytes() == want

    def test_cli_export_is_the_whole_cloud_path(self, tmp_path):
        # The CLI grids and writes one slab at a time; its three files are
        # those of the whole-cloud functions. At 441 a link-3 slab is one
        # theta_1 row of 9,261 points.
        base = tmp_path / "ws"
        assert cli.main(["workspace", "--resolution", "441", "--cell", "0.0005",
                         "--out", str(base)]) == 0
        geom = load_finger_config(default_config_path()).geometry
        cloud = sweep_workspace(geom, 441)
        out = BytesIO()
        cloud_to_csv(cloud, out)
        grids = [occupancy_grid(cloud, 5e-4, links=(i,)) for i in (1, 2, 3)]
        union = occupancy_grid(cloud, 5e-4)
        per_link = {str(i): g.area for i, g in zip((1, 2, 3), grids)}
        assert (tmp_path / "ws.csv").read_bytes() == out.getvalue()
        assert (tmp_path / "ws.pgm").read_bytes() == grid_to_pgm(union)
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
        cloud = sweep_workspace(geom, 200)
        cloud_to_csv(cloud, Sink())  # builds the digit tables
        sink = Sink()
        tracemalloc.start()
        try:
            cloud_to_csv(cloud, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 3_500_000
        assert peak < 256 * CSV_BLOCK_ROWS

    def test_grid_marks_the_cell_of_every_chosen_point(self):
        cloud = sweep_workspace(GEOM, 60)
        xmin, ymin = cloud.bounding_box[:2]
        for links in ((1, 2, 3), (3, 1)):
            grid = occupancy_grid(cloud, 1e-3, links=links)
            cells = {(int((y - ymin) / 1e-3), int((x - xmin) / 1e-3))
                     for i in links for x, y in cloud.points_per_link[i - 1]}
            assert {tuple(c) for c in np.argwhere(grid.marked)} == cells

    # The box comes from n values per link (`sweep_extent`), not from the
    # points, yet must equal the points' own min and max bit for bit: the
    # grid's origin, and so every cell, depends on it.
    @pytest.mark.parametrize("resolution", [2, 3, 23, 137, 400, 441])
    @GEOMETRIES
    def test_bounding_box_spans_every_link(self, geom, resolution):
        cloud = sweep_workspace(geom, resolution)
        pts = cloud.all_points()
        want = (*pts.min(axis=0), *pts.max(axis=0))
        assert np.array_equal(np.array(cloud.bounding_box).view(np.int64),
                              np.array(want).view(np.int64))

    def test_union_of_link_grids(self):
        cloud = sweep_workspace(GEOM, 60)
        whole = occupancy_grid(cloud, 1e-3)
        links = [occupancy_grid(cloud, 1e-3, links=(i,)) for i in (1, 2, 3)]
        union = links[0].marked | links[1].marked | links[2].marked
        assert np.array_equal(union, whole.marked)
        assert float(np.count_nonzero(union)) * 1e-3 ** 2 == whole.area


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
        assert_csv_is_reference(sweep_workspace(METRES, 40))

    def test_shipped_cloud_mostly_skips_the_fallback(self, monkeypatch):
        # An encoder that sent every value to `%` would pass every test
        # above at the old speed.
        geom = load_finger_config(default_config_path()).geometry
        cloud = sweep_workspace(geom, 100)
        deferred = []
        fallback = workspace.percent_fields

        def spy(values):
            deferred.append(len(values))
            return fallback(values)

        monkeypatch.setattr(workspace, "percent_fields", spy)
        assert_csv_is_reference(cloud)
        values = 2 * sum(len(pts) for pts in cloud.points_per_link)
        assert sum(deferred) < 0.02 * values

    def test_shipped_cloud_has_no_negative_zero(self):
        # Zero-length links times a negative sine are -0.0; the sweep's
        # sums start from +0.0, so the CSV prints them as 0.
        geom = load_finger_config(default_config_path()).geometry
        fields = re.split("[,\n]", csv_text(sweep_workspace(geom, 100)))
        assert "0" in fields
        assert "-0" not in fields
