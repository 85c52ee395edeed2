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
# A trial of 2**32 or more is two entropy words.
TRIAL = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]), st.integers(0, 2**40))
TRIALS = st.lists(TRIAL, max_size=6)
TAGS = st.one_of(st.sampled_from(["", "anchors", "resample:10:100", "résumé:∂Ω"]),
                 st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


def reference(seed, trials, tags, n):
    """One numpy generator per row: the stream's definition. ``tags``: one tag or one per row."""
    tags = [tags] * len(trials) if isinstance(tags, str) else tags
    return np.array([substream(seed, t, tag).random(n)
                     for t, tag in zip(trials, tags)]).reshape(len(trials), n)


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


# Rows of (trial, tag); tags drawn from a few values repeat across rows.
ROWS = st.lists(st.tuples(TRIAL, st.one_of(
    st.sampled_from(["anchors", "resample:8:1", "resample:8:2"]), TAGS)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, rows=ROWS, n=st.integers(0, 41))
@example(seed=0, rows=[], n=3)
@example(seed=42, rows=[(5, "resample:8:1"), (5, "resample:8:2"), (6, "resample:8:1")], n=40)
@example(seed=2**64 + 3, rows=[(2**32, "a"), (0, "a"), (2**32 - 1, "b"), (2**32, "b"),
                               (2**40 + 9, "résumé:∂Ω")], n=7)
def test_uniforms_take_one_tag_per_row(seed, rows, n):
    trials, tags = [t for t, _ in rows], [tag for _, tag in rows]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = substream_uniforms(seed, trials, tags, n)
    assert got.dtype == np.float64 and got.shape == (len(rows), n)
    assert got.tobytes() == reference(seed, trials, tags, n).tobytes()


def test_tags_must_match_the_rows():
    with pytest.raises(ValueError):
        substream_uniforms(5, [0, 1, 2], ["a", "b"], 4)


def test_uniforms_take_an_index_array():
    trials = np.arange(3, 9)
    assert substream_uniforms(5, trials, "anchors", 60).tobytes() == \
        reference(5, trials.tolist(), "anchors", 60).tobytes()


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        substream(-1)


@pytest.mark.parametrize("seed, trials", [(-1, [0]), (0, [3, -1])])
def test_negative_keys_are_rejected(seed, trials):
    with pytest.raises(ValueError, match="non-negative"):
        substream_uniforms(seed, trials, "anchors", 4)
