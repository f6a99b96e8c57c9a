"""`fahnline_boost` is the planar link on its unit time-like domain.

It checks its domain, unit time-like R and S and then R.S <= -1, and
returns the operator and record of `planar_link`, bit for bit.
"""

import numpy as np
import pytest

from relkin import (
    DegenerateSumError,
    NotFutureDirectedError,
    NotUnitTimelikeError,
    NullVectorError,
    fahnline_boost,
    linker,
    planar_link,
)
from relkin.sampling import make_space, random_observer, rng_for


def test_equals_planar_link_bit_for_bit():
    space = make_space(4, "lorentzian")
    rng = rng_for(3)
    for _ in range(50):
        r = random_observer(space, rng).vector
        s = random_observer(space, rng).vector
        fb, planar = fahnline_boost(r, s), planar_link(r, s)
        assert np.array_equal(fb.mapping.entries, planar.mapping.entries)
        assert fb.gamma == planar.gamma
        assert np.array_equal(fb.generator.first.components, planar.generator.first.components)
        assert np.array_equal(fb.generator.second.components, planar.generator.second.components)


@pytest.mark.parametrize("r, s, planar_error, error", [
    # null R and S: planar_link refuses the null vectors
    ([1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], NullVectorError, NotUnitTimelikeError),
    # S = -R: planar_link refuses (R+S)^2 = 0
    ([1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], DegenerateSumError, NotFutureDirectedError),
    # past-directed and not unit: the unit test comes first
    ([1.0, 0.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0], None, NotUnitTimelikeError),
])
def test_domain_refusals_come_first(monkeypatch, r, s, planar_error, error):
    space = make_space(4, "lorentzian")
    r, s = space.vector(r), space.vector(s)
    if planar_error is not None:
        with pytest.raises(planar_error):
            planar_link(r, s)

    def unreached(*args):
        raise AssertionError("the planar link's checks ran")

    monkeypatch.setattr(linker, "_planar_link", unreached)
    with pytest.raises(error):
        fahnline_boost(r, s)
