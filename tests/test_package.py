import inspect

import pytest

import bmink


def test_every_exported_name_resolves():
    missing = [name for name in bmink.__all__ if not hasattr(bmink, name)]
    assert missing == []
    assert len(set(bmink.__all__)) == len(bmink.__all__)


@pytest.mark.parametrize("checker", [
    bmink.check_thm_av, bmink.check_cor_multi, bmink.check_thm_bbm,
    bmink.check_lemma_pbm, bmink.check_rn, bmink.check_arithmetic_bm,
    bmink.check_thm_4_2_voxel,
], ids=lambda f: f.__name__)
def test_checkers_take_only_their_mathematical_inputs(checker):
    # The campaign stamps seed, trial and shapes on each report, and the
    # engine follows from the type of the bodies.
    params = set(inspect.signature(checker).parameters)
    assert not params & {"shapes", "seed", "trial", "engine"}
