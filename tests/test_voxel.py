import itertools
import math

import numpy as np
import pytest

from bmink import voxel
from bmink.campaign import CampaignConfig, _run_trial
from bmink.exact2d import ConvexPolygon, minkowski_sum
from bmink.generators import gen_decomposition_pair, trial_rng
from bmink.serialize import spec_from_polygon
from bmink.voxel import (MAX_CELLS, GridError, GridExtentError, GridSet,
                         ShapeSpec, _check_extent, boundary,
                         decomposition_check, dilate, erode_open,
                         is_boundary_connected, rasterize, union, volume)

from test_voxel_oracle import difference, interior, is_subset

BOX = ShapeSpec.box((-1, -1), (1, 1))
BIGBOX = ShapeSpec.box((-2, -2), (2, 2))


def grid_from_cells(cells, dim=2, h=1.0):
    cells = np.asarray(cells)
    lo = cells.min(axis=0)
    shape = tuple(cells.max(axis=0) - lo + 1)
    occ = np.zeros(shape, dtype=bool)
    for c in cells - lo:
        occ[tuple(c)] = True
    return GridSet(dim, h, tuple(int(v) for v in lo), occ)


def reflect(a: GridSet) -> GridSet:
    """Reflection through the lattice origin (cell i maps to -i)."""
    occ = a.occ[tuple(slice(None, None, -1) for _ in range(a.dim))]
    origin = tuple(-(o + n - 1) for o, n in zip(a.origin, a.shape))
    return GridSet(a.dim, a.h, origin, occ)


# -- rasterization --------------------------------------------------------------

def test_rasterize_box_cell_count():
    g = rasterize(BOX, 0.5)
    assert g.count == 16
    assert volume(g) == 4.0


def test_rasterize_ball_volume_converges():
    errs = [abs(volume(rasterize(ShapeSpec.ball((0, 0), 1.0), h)) - math.pi)
            for h in (1 / 16, 1 / 32, 1 / 64)]
    assert errs[2] < errs[0]
    assert errs[2] < 0.02


def test_rasterize_union_additive_when_disjoint():
    a = ShapeSpec.box((0, 0), (1, 1))
    b = ShapeSpec.box((3, 3), (4, 4))
    u = rasterize(ShapeSpec.union_of(a, b), 1 / 8)
    assert u.count == rasterize(a, 1 / 8).count + rasterize(b, 1 / 8).count


def test_rasterize_margin_invariant():
    g = rasterize(BOX, 1 / 8)
    for ax in range(2):
        first = np.take(g.occ, 0, axis=ax)
        last = np.take(g.occ, -1, axis=ax)
        assert not first.any() and not last.any()


def test_rasterize_extent_cap():
    with pytest.raises(GridExtentError):
        rasterize(ShapeSpec.box((0, 0), (10, 10)), 1 / 1024)


@pytest.mark.parametrize("spec", [
    ShapeSpec.box((0, 0), (math.inf, 1)),
    ShapeSpec.ball((math.nan, 0), 1),
    ShapeSpec.ball((1e300, 0), 1),
    ShapeSpec.scaled(ShapeSpec.box((0, 0), (1e300, 1)), 1e300),
], ids=["infinite-box", "nan-ball", "far-ball", "overflowing-scale"])
def test_rasterize_rejects_non_finite_window(spec):
    with np.errstate(all="raise"), pytest.raises(GridError, match="finite"):
        rasterize(spec, 1 / 32)


def test_rasterize_extent_cap_before_cast():
    # Finite and exact, but 2**40 cells wide.
    with pytest.raises(GridExtentError):
        rasterize(ShapeSpec.box((0, 0), (2.0 ** 35, 1)), 1 / 32)


def test_translation_must_match_dimension():
    with pytest.raises(GridError):
        ShapeSpec.translated(BOX, (1, 0, 0))


def test_total_cell_budget():
    _check_extent((4096, 4096))  # every 2D grid within the axis cap is legal
    with pytest.raises(GridExtentError):
        _check_extent((1001, 1001, 1001))


def test_dilate_checks_cell_budget_before_allocating():
    # Two cells at opposite corners: small inputs whose sum frame does not fit.
    side = 130
    assert (2 * side - 1) ** 3 > MAX_CELLS
    occ = np.zeros((side,) * 3, dtype=bool)
    occ[0, 0, 0] = occ[-1, -1, -1] = True
    g = GridSet(3, 1.0, (0, 0, 0), occ)
    with pytest.raises(GridExtentError):
        dilate(g, g)


def test_dilate_checks_cell_budget_before_convolving(monkeypatch):
    # The same corners plus a solid block: dense enough for the FFT path.
    side = 130
    occ = np.zeros((side,) * 3, dtype=bool)
    occ[0, 0, 0] = occ[-1, -1, -1] = True
    occ[1:25, 1:25, 1:25] = True
    g = GridSet(3, 1.0, (0, 0, 0), occ)
    monkeypatch.setattr(voxel, "_pair_sums", None)  # must not be reached
    with pytest.raises(GridExtentError):
        dilate(g, g)


def test_simplex_volume_3d():
    g = rasterize(ShapeSpec.simplex(3), 1 / 64)
    assert abs(volume(g) - 1 / 6) / (1 / 6) < 0.05


# -- grid set basics ---------------------------------------------------------------

def test_gridset_normalization_and_equality():
    occ = np.zeros((9, 9), dtype=bool)
    occ[3:5, 4:7] = True
    a = GridSet(2, 1.0, (0, 0), occ)
    b = grid_from_cells([(3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6)])
    assert a == b
    assert a.shape == (4, 5)  # tight bbox plus one-cell margin


def test_gridset_empty_canonical():
    a = GridSet(2, 1.0, (5, 5), np.zeros((4, 4), dtype=bool))
    b = GridSet(2, 1.0, (-3, 2), np.zeros((2, 2), dtype=bool))
    assert a == b and a.is_empty
    assert volume(a) == 0.0


def test_union_with_the_empty_set_keeps_the_frame():
    # The empty set's array sits at the lattice origin; it adds no cells
    # and no frame, so a union far from the origin stays within the caps.
    far = grid_from_cells([(5000, 5000), (5000, 5001)])
    empty = GridSet(2, 1.0, (0, 0), np.zeros((1, 1), dtype=bool))
    assert union(far, empty) == far == union(empty, far)
    assert union(empty, empty).is_empty


def test_gridset_rejects_bad_inputs():
    with pytest.raises(GridError):
        GridSet(5, 1.0, (0,) * 5, np.zeros((2,) * 5, dtype=bool))
    with pytest.raises(GridError):
        GridSet(2, 0.0, (0, 0), np.zeros((2, 2), dtype=bool))
    with pytest.raises(GridError):
        GridSet(2, 1.0, (0, 0), np.zeros((2, 2, 2), dtype=bool))


# -- dilation ------------------------------------------------------------------------

def test_dilate_identity_element():
    single = grid_from_cells([(0, 0)], h=0.5)
    b = rasterize(BOX, 0.5)
    out = dilate(single, b)
    assert out.count == b.count
    assert set(map(tuple, out.cells())) == set(map(tuple, b.cells()))


def test_dilate_translates_by_offset_cell():
    single = grid_from_cells([(3, -2)], h=0.5)
    b = rasterize(BOX, 0.5)
    out = dilate(single, b)
    assert set(map(tuple, out.cells())) == {(c[0] + 3, c[1] - 2)
                                            for c in map(tuple, b.cells())}


def test_dilate_box_plus_box_is_box():
    b = rasterize(BOX, 0.5)  # 4x4 block of cells
    out = dilate(b, b)
    assert out.count == 7 * 7  # index sums span a 7x7 block
    inner = out.occ[1:-1, 1:-1]
    assert inner.all()


def test_dilate_commutes():
    for seed in range(5):
        rng = trial_rng(900, seed)
        k, _, t, _ = gen_decomposition_pair(rng, 2, 1 / 16)
        assert dilate(k, t) == dilate(t, k)


def test_inexact_convolution_rejected(monkeypatch):
    inverse = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *args, **kwargs: inverse(*args, **kwargs) + 0.3)
    # A disk, not a box, so neither operation takes the box runs; dense
    # enough for dilate's FFT path.
    b = rasterize(ShapeSpec.ball((0, 0), 2), 0.25)
    with pytest.raises(GridError):
        dilate(b, b)
    with pytest.raises(GridError):
        erode_open(b, b)


def test_dilate_routes_benchmark_traffic(monkeypatch):
    # The cost rule was sized on these calls: 2D boundary-by-boundary sums
    # scatter pairs.  The multi-body band takes _dilate_boundary, which
    # scatters the pairs of the band's edge cells with the third boundary.
    # Trial 0 of that cor-multi campaign draws a one-box body, whose
    # boundary takes the box runs, so its band is trial 1's.  A thm-4.2
    # trial's T is a box: its boundary sum and its erosion take the runs.
    calls = {"_convolve": 0, "_pair_sums": 0, "_dilate_boundary": 0}

    def counted(name):
        original = getattr(voxel, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(voxel, name, counted(name))
    _run_trial(CampaignConfig(theorem="thm-av", engine="voxel", dim=2,
                              h=1 / 128, seed=1), 0)
    assert calls["_convolve"] == 0
    calls.update(_convolve=0, _pair_sums=0, _dilate_boundary=0)
    _run_trial(CampaignConfig(theorem="cor-multi", engine="voxel", dim=2,
                              h=1 / 128, bodies=3, seed=1), 1)
    assert calls == {"_convolve": 0, "_pair_sums": 2, "_dilate_boundary": 1}
    for dim, h in ((2, 1 / 128), (3, 1 / 32)):
        calls.update(_convolve=0, _pair_sums=0, _dilate_boundary=0)
        _run_trial(CampaignConfig(theorem="thm-4.2", engine="voxel", dim=dim,
                                  h=h, seed=1), 0)
        assert calls == {"_convolve": 0, "_pair_sums": 0,
                         "_dilate_boundary": 0}


def test_dilate_requires_same_grid():
    a = rasterize(BOX, 0.5)
    b = rasterize(BOX, 0.25)
    with pytest.raises(GridError):
        dilate(a, b)


def test_reflect_equivariance():
    rng = trial_rng(901, 0)
    a, _, b, _ = gen_decomposition_pair(rng, 2, 1 / 16)
    assert dilate(reflect(a), reflect(b)) == reflect(dilate(a, b))


# -- interior / boundary ----------------------------------------------------------------

def test_interior_of_three_by_three():
    g = grid_from_cells([(i, j) for i in range(3) for j in range(3)])
    assert interior(g).count == 1
    assert boundary(g).count == 8


def test_interior_of_single_cell_empty():
    g = grid_from_cells([(0, 0)])
    assert interior(g).is_empty


def test_interior_volume_converges():
    # Interior drops a one-cell rim, so the deficit is about perimeter * h.
    errs = [abs(volume(interior(rasterize(BOX, h))) - 4.0)
            for h in (1 / 16, 1 / 32, 1 / 64)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 8.5 / 64


def test_boundary_interior_partition():
    rng = trial_rng(902, 1)
    g, _, _, _ = gen_decomposition_pair(rng, 2, 1 / 16)
    b, i = boundary(g), interior(g)
    assert union(b, i) == g
    assert g.count == b.count + i.count  # so b and i are disjoint


def test_boundary_thin_set_direction():
    vols = [volume(boundary(rasterize(BOX, h))) for h in (1 / 8, 1 / 16, 1 / 32)]
    assert vols[2] < vols[1] < vols[0]


# -- erosion --------------------------------------------------------------------------

def test_erode_open_fixture():
    k = rasterize(BIGBOX, 1 / 32)
    t = rasterize(BOX, 1 / 32)
    e = erode_open(k, t)
    assert abs(volume(e) - 4.0) <= 0.3


def test_erode_open_self_and_bigger():
    k = rasterize(BIGBOX, 1 / 16)
    t = rasterize(BOX, 1 / 16)
    assert erode_open(t, t).is_empty
    assert erode_open(t, k).is_empty


def test_erosion_dilation_adjunction():
    # x - b lands in the interior for every b, so re-adding the reflected
    # body stays inside A.
    for seed in range(6):
        rng = trial_rng(903, seed)
        a, _, b, _ = gen_decomposition_pair(rng, 2, 1 / 16)
        fit = erode_open(a, b)
        if not fit.is_empty:
            assert is_subset(dilate(fit, reflect(b)), a)


def test_erode_by_empty_rejected():
    a = rasterize(BOX, 0.5)
    empty = GridSet(2, 0.5, (0, 0), np.zeros((1, 1), dtype=bool))
    with pytest.raises(GridError):
        erode_open(a, empty)


# -- connectivity ------------------------------------------------------------------------

def test_boundary_connected_cases():
    solid = rasterize(BOX, 1 / 8)
    assert is_boundary_connected(solid)
    annulus = difference(solid, rasterize(ShapeSpec.box((-0.4, -0.4), (0.4, 0.4)), 1 / 8))
    assert not is_boundary_connected(annulus)
    lshape = rasterize(ShapeSpec.union_of(
        ShapeSpec.box((0, 0), (1, 0.4)), ShapeSpec.box((0, 0), (0.4, 1))), 1 / 16)
    assert is_boundary_connected(lshape)


def _boxes() -> list:
    """A fresh box GridSet for every choice of sides 1-5 in dims 2-4."""
    return [GridSet(dim, 1.0, (0,) * dim, np.ones(sides, dtype=bool))
            for dim in (2, 3, 4)
            for sides in itertools.product(range(1, 6), repeat=dim)]


def test_a_box_boundary_is_connected_without_labelling(monkeypatch):
    def unavailable(occ):
        raise AssertionError("a box's boundary needs no labelling")

    monkeypatch.setattr(voxel, "_full_components", unavailable)
    assert all(is_boundary_connected(box) for box in _boxes())
    monkeypatch.undo()
    assert all(voxel._full_components(boundary(box).occ) == 1
               for box in _boxes())


# -- lemma: boundary containment implies containment ---------------------------------------

def test_lemma_bc_nested_boxes():
    k = rasterize(BIGBOX, 1 / 16)
    t = rasterize(ShapeSpec.box((-0.5, -0.5), (0.5, 0.5)), 1 / 16)
    assert is_subset(boundary(t), interior(k))  # premise really holds
    assert is_subset(t, interior(k))


def test_lemma_bc_vacuous_when_straddling():
    k = rasterize(BOX, 1 / 16)
    t = rasterize(ShapeSpec.box((0.5, 0.5), (1.5, 1.5)), 1 / 16)
    # The premise fails, so the lemma says nothing, and T is indeed not
    # inside interior(K).
    assert not is_subset(boundary(t), interior(k))
    assert not is_subset(t, interior(k))


def test_lemma_bc_randomized_never_false():
    from bmink.generators import _snap

    h = 1 / 16
    premise_hits = 0
    for i in range(500):
        rng = trial_rng(905, i)
        k, _, _, _ = gen_decomposition_pair(rng, 2, h)
        # A small box, drawn as gen_box_set draws one.
        center = [rng.uniform(-0.3, 0.3) for _ in range(2)]
        half = [max(rng.uniform(0.1, 0.4) / 2, 2.5 * h) for _ in range(2)]
        lo = [_snap(c - w, h) for c, w in zip(center, half)]
        hi = [_snap(c + w, h) for c, w in zip(center, half)]
        t = rasterize(ShapeSpec.box(lo, hi), h)
        inner = interior(k)
        if is_subset(boundary(t), inner):
            premise_hits += 1
            assert is_subset(t, inner)
    assert premise_hits > 10  # the implication is exercised, not just vacuous


# -- decomposition -----------------------------------------------------------------------

def test_decomposition_square_disk_fixture():
    k = rasterize(BIGBOX, 1 / 16)
    t = rasterize(ShapeSpec.ball((0, 0), 1.0), 1 / 16)
    report = decomposition_check(k, t)
    assert report.all_pass, report.verdicts


def test_decomposition_equal_boxes():
    k = rasterize(BOX, 1 / 16)
    report = decomposition_check(k, k)
    assert report.all_pass
    assert report.volumes["erosion"] == 0.0


def test_decomposition_lshape_with_small_box():
    k = rasterize(ShapeSpec.union_of(
        ShapeSpec.box((-1, -1), (1, -0.25)), ShapeSpec.box((-1, -1), (-0.25, 1))),
        1 / 16)
    t = rasterize(ShapeSpec.box((-0.25, -0.25), (0.25, 0.25)), 1 / 16)
    report = decomposition_check(k, t)
    assert report.all_pass, report.verdicts


def test_decomposition_requires_connected_boundaries():
    solid = rasterize(BOX, 1 / 8)
    annulus = difference(solid, rasterize(ShapeSpec.box((-0.4, -0.4), (0.4, 0.4)), 1 / 8))
    with pytest.raises(GridError):
        decomposition_check(solid, annulus)


def test_decomposition_swaps_smaller_first_argument():
    k = rasterize(BIGBOX, 1 / 16)
    t = rasterize(BOX, 1 / 16)
    report = decomposition_check(t, k)
    assert report.swapped and report.all_pass


# -- voxel oracle for the exact engine -----------------------------------------------------

def test_voxel_oracle_agreement():
    # Freezes the exact sum-area fixtures against the brute-force engine.
    square = ConvexPolygon.box((-1, -1), (1, 1))
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    diamond = ConvexPolygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
    h = 1 / 32
    for a, b, expect in [(square, tri, 17 / 2), (square, diamond, 14.0)]:
        exact = float(minkowski_sum(a, b).area)
        assert exact == expect
        ga = rasterize(spec_from_polygon(a), h)
        gb = rasterize(spec_from_polygon(b), h)
        approx = volume(dilate(ga, gb))
        assert abs(approx - exact) < 3 * 2 * h * (boundary(ga).count
                                                  + boundary(gb).count) * h
