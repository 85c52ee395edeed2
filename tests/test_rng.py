import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachbot.rng import substream, substream_uniforms

# Seeds of one, two, three and five entropy words: a seed past 2**64 puts
# more words into SeedSequence than its 4-word pool holds.
SEEDS = st.one_of(st.sampled_from([0, 42, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 12345, 2**130 + 7]),
                  st.integers(0, 2**140))
TRIALS = st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]), st.integers(0, 2**40)),
                  max_size=6)
TAGS = st.one_of(st.sampled_from(["", "anchors", "resample:10:100", "résumé:∂Ω"]),
                 st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


def reference(seed, trials, tag, n):
    """One numpy generator per trial: the stream's definition."""
    return np.array([substream(seed, t, tag).random(n) for t in trials]).reshape(len(trials), n)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, trials=TRIALS, tag=TAGS, n=st.integers(0, 41))
@example(seed=0, trials=[0, 2**32 - 1], tag="", n=0)
@example(seed=2**32 - 1, trials=[2**32 - 1], tag="resample:10:100", n=1)
@example(seed=2**32, trials=[0, 7], tag="résumé:∂Ω", n=5)
@example(seed=2**64 + 3, trials=[0, 2**32 - 1, 2**32], tag="resample:10:100", n=41)
def test_uniforms_are_the_generators_draws(seed, trials, tag, n):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = substream_uniforms(seed, trials, tag, n)
    assert got.dtype == np.float64 and got.shape == (len(trials), n)
    assert got.tobytes() == reference(seed, trials, tag, n).tobytes()


def test_uniforms_take_an_index_array():
    trials = np.arange(3, 9)
    assert substream_uniforms(5, trials, "anchors", 60).tobytes() == \
        reference(5, trials.tolist(), "anchors", 60).tobytes()


@pytest.mark.parametrize("seed, trials", [(-1, [0]), (0, [3, -1])])
def test_negative_keys_are_rejected(seed, trials):
    with pytest.raises(ValueError, match="non-negative"):
        substream_uniforms(seed, trials, "anchors", 4)
