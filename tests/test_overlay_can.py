"""Unit tests for the CAN overlay."""

import pytest

from repro.overlay.can import CANOverlay


@pytest.fixture(scope="module")
def can100():
    return CANOverlay(100, seed=1)


@pytest.fixture(scope="module")
def can37():
    # Non-square N exercises the uneven-band geometry.
    return CANOverlay(37, seed=2)


class TestGeometry:
    def test_cells_partition_nodes(self, can37):
        cells = {int(can37.cell_of_node[i]) for i in range(37)}
        assert cells == set(range(37))

    def test_cell_coords_roundtrip(self, can37):
        for cell in range(37):
            row, col = can37.cell_coords(cell)
            assert can37.cell_at(row, col) == cell

    def test_zone_rects_tile_unit_square(self, can37):
        area = 0.0
        for node in range(37):
            x0, x1, y0, y1 = can37.zone_rect(node)
            assert 0.0 <= x0 < x1 <= 1.0
            assert 0.0 <= y0 < y1 <= 1.0
            area += (x1 - x0) * (y1 - y0)
        assert area == pytest.approx(1.0)

    def test_owner_of_point_matches_zone(self, can100):
        for node in range(0, 100, 17):
            x0, x1, y0, y1 = can100.zone_rect(node)
            cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
            assert can100.owner_of_point(cx, cy) == node

    def test_owner_of_key_is_deterministic(self, can100):
        assert can100.owner(12345) == can100.owner(12345)

    def test_single_node(self):
        ov = CANOverlay(1, seed=0)
        assert ov.route(0, 0).hops == 0
        assert ov.owner_of_point(0.3, 0.7) == 0


class TestNeighbors:
    def test_neighbors_are_symmetric(self, can37):
        for node in range(37):
            for nb in can37.neighbors(node):
                assert node in can37.neighbors(nb), (node, nb)

    def test_neighbors_exclude_self(self, can100):
        for node in range(0, 100, 13):
            assert node not in can100.neighbors(node)

    def test_neighbor_zones_touch(self, can100):
        for node in (0, 42, 99):
            x0, x1, y0, y1 = can100.zone_rect(node)
            for nb in can100.neighbors(node):
                nx0, nx1, ny0, ny1 = can100.zone_rect(nb)
                x_touch = CANOverlay._intervals_touch(x0, x1, nx0, nx1)
                y_touch = CANOverlay._intervals_touch(y0, y1, ny0, ny1)
                assert x_touch and y_touch


class TestRouting:
    def test_all_pairs_reachable(self, can37):
        for src in range(0, 37, 5):
            for dst in range(37):
                path = can37.route(src, dst).path
                assert path[-1] == dst

    def test_consecutive_hops_are_neighbors(self, can100):
        for src, dst in [(0, 99), (13, 57), (88, 2)]:
            path = can100.route(src, dst).path
            for a, b in zip(path, path[1:]):
                assert b in can100.neighbors(a)

    def test_hops_scale_like_sqrt_n(self):
        means = {}
        for n in (64, 256):
            ov = CANOverlay(n, seed=3)
            means[n] = ov.sample_mean_hops(200, seed=0)
        # d=2 CAN: mean path ~ sqrt(N)/2; quadrupling N doubles hops.
        ratio = means[256] / means[64]
        assert 1.5 < ratio < 2.8

    def test_no_cycles(self, can100):
        for src, dst in [(0, 99), (31, 60)]:
            path = can100.route(src, dst).path
            assert len(path) == len(set(path))
