import pytest

from bmink import campaign, generators, voxel
from bmink.campaign import CampaignConfig, _run_trial
from bmink.exact2d import (EqualityTag, GeometryError, _Lattice,
                           classify_equality, reflect)
from bmink.generators import (PLANT_HOMOTHETIC_SYMMETRIC, PLANT_TRANSLATE,
                              gen_box_set, gen_connected_boundary_set,
                              gen_convex_polygon, gen_decomposition_pair,
                              gen_polygon_pair, gen_symmetric_polygon,
                              random_lattice_shift, trial_rng)
from bmink.voxel import is_boundary_connected


def test_polygon_generator_deterministic():
    a = gen_convex_polygon(trial_rng(1, 5))
    b = gen_convex_polygon(trial_rng(1, 5))
    assert a == b
    c = gen_convex_polygon(trial_rng(1, 6))
    assert c != a


def test_polygon_generator_respects_vertex_range(monkeypatch):
    monkeypatch.setattr(generators, "MIN_VERTICES", 4)
    monkeypatch.setattr(generators, "MAX_VERTICES", 6)
    for i in range(50):
        p = gen_convex_polygon(trial_rng(2, i))
        assert 4 <= len(p) <= 6
        assert p.area > 0


def test_symmetric_polygon_is_symmetric():
    for i in range(25):
        p = gen_symmetric_polygon(trial_rng(3, i))
        assert reflect(p) == p


def test_planted_translate_pairs():
    for i in range(20):
        k, t, mode = gen_polygon_pair(trial_rng(4, i), plant_rate=1.0,
                                      plant_mode=PLANT_TRANSLATE)
        assert mode == PLANT_TRANSLATE
        assert classify_equality(k, t).tag is EqualityTag.TRANSLATE


def test_planted_homothetic_symmetric_pairs():
    for i in range(20):
        k, t, mode = gen_polygon_pair(trial_rng(5, i), plant_rate=1.0,
                                      plant_mode=PLANT_HOMOTHETIC_SYMMETRIC)
        assert mode == PLANT_HOMOTHETIC_SYMMETRIC
        tag = classify_equality(k, t).tag
        assert tag is EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D


def test_unplanted_pairs_return_none_mode():
    _, _, mode = gen_polygon_pair(trial_rng(6, 0), plant_rate=0.0)
    assert mode is None
    with pytest.raises(GeometryError):
        gen_polygon_pair(trial_rng(6, 0), plant_rate=1.5)


@pytest.mark.parametrize("coord_range, snap", [(3, 16), (1, 8), (1, 1)])
def test_point_draw_is_the_randint_draw(monkeypatch, coord_range, snap):
    # The oracle is the draw the generators made before: one
    # rng.randint(-span, span) per coordinate.  Equal coordinates and an
    # equal next rng.random() show the stream is left in the same state.
    monkeypatch.setattr(generators, "COORD_RANGE", coord_range)
    monkeypatch.setattr(generators, "SNAP", snap)
    span = coord_range * snap
    for seed in range(400):
        new, old = trial_rng(seed, 3), trial_rng(seed, 3)
        count = 1 + seed % 13
        expected = [(old.randint(-span, span), old.randint(-span, span))
                    for _ in range(count)]
        assert generators._snapped_points(new, count) == expected
        assert new.random() == old.random()


def test_lattice_shift_is_the_randint_draw_over_snap():
    span = generators.COORD_RANGE * generators.SNAP
    for seed in range(300):
        new, old = trial_rng(seed, 0), trial_rng(seed, 0)
        shift = random_lattice_shift(new)
        assert shift == _Lattice([(old.randint(-span, span),
                                   old.randint(-span, span))], generators.SNAP)
        assert new.random() == old.random()


def test_grid_generator_deterministic_and_valid():
    for i in range(15):
        g1, s1 = gen_connected_boundary_set(trial_rng(7, i), 2, 1 / 32)
        g2, s2 = gen_connected_boundary_set(trial_rng(7, i), 2, 1 / 32)
        assert g1 == g2 and s1 == s2
        assert g1.count > 0
        assert is_boundary_connected(g1)


def test_grid_generator_dimension_three():
    g, spec = gen_connected_boundary_set(trial_rng(8, 0), 3, 1 / 16)
    assert g.dim == 3 and spec.ndim == 3
    assert is_boundary_connected(g)


def test_box_set_generator():
    g, spec = gen_box_set(trial_rng(9, 0), 2, 1 / 16)
    assert spec.kind == "box"
    assert g.count > 0


def test_decomposition_pair_orders_by_count():
    for i in range(10):
        k, _, t, t_spec = gen_decomposition_pair(trial_rng(10, i), 2, 1 / 16)
        assert t.count <= k.count
        assert t_spec.kind == "box"


def test_decomposition_pair_redraws_when_t_cannot_shrink(monkeypatch):
    # At 4D h = 1/8 the first K of this trial is smaller than any box with
    # the 2h half-width floor; the pair is redrawn instead of returning
    # |T| > |K|.
    k, _, t, _ = gen_decomposition_pair(trial_rng(1, 3), 4, 1 / 8)
    assert t.count <= k.count
    monkeypatch.setattr(generators, "GRID_RETRIES", 1)
    with pytest.raises(GeometryError, match="decomposition pair"):
        gen_decomposition_pair(trial_rng(1, 3), 4, 1 / 8)


def test_voxel_trial_builds_and_labels_each_body_once(monkeypatch):
    # Seed 1's first thm-av trial draws both bodies without a retry.  Each
    # drawn primitive is rasterized once, into its own window, never as
    # part of a union spec, and each body's boundary is labelled once, by
    # the generator: check_thm_av reuses the cached verdict.
    labels, rasterized, drawn, in_check = [], [], [], []
    label = voxel._full_components
    raster_window = voxel._raster_window
    random_primitive = generators._random_primitive
    check_thm_av = campaign.check_thm_av

    def counted_label(*args, **kwargs):
        labels.append(1)
        return label(*args, **kwargs)

    def counted_window(spec, h):
        rasterized.append(spec.kind)
        return raster_window(spec, h)

    def counted_primitive(*args):
        drawn.append(1)
        return random_primitive(*args)

    def counted_check(*args, **kwargs):
        before = len(labels)
        report = check_thm_av(*args, **kwargs)
        in_check.append(len(labels) - before)
        return report

    monkeypatch.setattr(voxel, "_full_components", counted_label)
    monkeypatch.setattr(voxel, "_raster_window", counted_window)
    monkeypatch.setattr(generators, "_random_primitive", counted_primitive)
    monkeypatch.setattr(campaign, "check_thm_av", counted_check)
    config = CampaignConfig(theorem="thm-av", engine="voxel", h=1 / 16,
                            seed=1)
    assert [r.theorem_id for r in _run_trial(config, 0)] == ["thm-av"]
    assert len(labels) == 2
    assert in_check == [0]
    assert len(rasterized) == len(drawn) == 5
    assert set(rasterized) <= {"box", "ball"}


def test_voxel_thm_bbm_checker_reuses_the_generated_bodies(monkeypatch):
    # The campaign hands check_thm_bbm the grids it generated, so the
    # checker rasterizes only the four scaled bodies and labels nothing:
    # both connectivity verdicts are cached by the generator.
    labels, rasterized, in_check = [], [], []
    label = voxel._full_components
    rasterize = voxel.rasterize
    check_thm_bbm = campaign.check_thm_bbm

    def counted_label(*args, **kwargs):
        labels.append(1)
        return label(*args, **kwargs)

    def counted_rasterize(spec, h):
        rasterized.append(spec.kind)
        return rasterize(spec, h)

    def counted_check(*args, **kwargs):
        before = len(labels), len(rasterized)
        report = check_thm_bbm(*args, **kwargs)
        in_check.append((len(labels) - before[0],
                         rasterized[before[1]:]))
        return report

    monkeypatch.setattr(voxel, "_full_components", counted_label)
    monkeypatch.setattr(voxel, "rasterize", counted_rasterize)
    monkeypatch.setattr(campaign, "check_thm_bbm", counted_check)
    config = CampaignConfig(theorem="thm-bbm", engine="voxel", h=1 / 16,
                            seed=1)
    assert [r.theorem_id for r in _run_trial(config, 0)] == ["thm-bbm"]
    assert in_check == [(0, ["scaled"] * 4)]
