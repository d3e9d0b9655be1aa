"""The sorted key index shared by the cloud object store and the coordination replicas."""

from hypothesis import given, settings, strategies as st

from repro.common.sortedkeys import SortedKeys

KEYS = ("meta:/a", "meta:/a/b", "meta:/a/b2", "meta:/a/b/c", "meta:/a/b%2F", "meta:/a%",
        "meta:/ab", "depsky/u/metadata", "depsky/u/v1-ff-b0", "")


def _index(*keys: str) -> SortedKeys:
    index = SortedKeys()
    for key in keys:
        index.add(key)
    return index


def _all(index: SortedKeys) -> list[str]:
    return list(index.prefixed(""))


def test_a_prefix_walks_its_range_only():
    index = _index("meta:/a/b2", "meta:/a/b/c", "meta:/a/b", "meta:/ab", "meta:/a/b%2F")
    assert list(index.prefixed("meta:/a/b/")) == ["meta:/a/b/c"]
    assert list(index.prefixed("meta:/a/b")) == [
        "meta:/a/b", "meta:/a/b%2F", "meta:/a/b/c", "meta:/a/b2"]


def test_the_empty_prefix_walks_everything_in_order():
    assert _all(_index("c", "a", "b")) == ["a", "b", "c"]


def test_a_prefix_beyond_or_between_the_keys_lists_nothing():
    index = _index("b/1", "b/2")
    assert list(index.prefixed("c")) == list(index.prefixed("a")) == list(index.prefixed("b/3")) == []


def test_add_is_idempotent_and_discard_tolerates_an_absent_key():
    index = _index("k", "k", "j")
    index.discard("never")
    assert _all(index) == ["j", "k"]
    index.discard("k")
    index.discard("k")
    assert _all(index) == ["j"]


def test_keys_added_in_order_append():
    index = _index(*(f"pool/{i:05d}" for i in range(100)))
    assert _all(index) == [f"pool/{i:05d}" for i in range(100)]
    assert list(index.prefixed("pool/0009")) == [f"pool/{i:05d}" for i in range(90, 100)]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(), st.sampled_from(KEYS)), max_size=40),
       prefix=st.sampled_from(KEYS + ("meta:/a/", "meta:", "depsky/u/v", "z")))
def test_matches_a_brute_force_filter_of_a_set(steps, prefix):
    index, model = SortedKeys(), set()
    for adding, key in steps:
        if adding:
            index.add(key)
            model.add(key)
        else:
            index.discard(key)
            model.discard(key)
        assert _all(index) == sorted(model)
    assert list(index.prefixed(prefix)) == sorted(key for key in model if key.startswith(prefix))
