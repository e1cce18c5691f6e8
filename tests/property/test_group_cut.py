"""Property test of the one cut behind pool tasks, ``--shard``, the fleet and
heal plans (:func:`repro.sweep.campaign.cut_groups`): over random group
sizes, costs and part counts, every group lands whole in exactly one part,
in order, and no part is empty while groups remain."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sweep.campaign import cut_groups

GROUPS = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8), st.floats(min_value=1e-9, max_value=1e6)),
    max_size=40,
)


@given(GROUPS, st.integers(min_value=1, max_value=16))
def test_cut_keeps_groups_whole_and_parts_non_empty(shapes, parts):
    groups, costs, index = [], [], 0
    for size, cost in shapes:
        groups.append(list(range(index, index + size)))
        costs.append(cost)
        index += size
    cut = cut_groups(groups, costs, parts)
    placed = [group for part in cut for group in part]
    # Every group lands in exactly one part, whole (the very same object),
    # and the parts are contiguous runs in group order.
    assert len(placed) == len(groups)
    assert all(got is want for got, want in zip(placed, groups))
    # No empty part while groups remain, and never more parts than asked.
    assert all(cut)
    assert len(cut) == min(parts, len(groups))
    if parts == 1 and groups:
        assert len(cut) == 1
