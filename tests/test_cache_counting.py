"""One counting path: captures and ``stats()`` read the same totals.

Every ``BoundedCache`` lookup bumps one pair of lifetime totals.  An
obs capture reports their growth while it was installed; ``stats()``
reports their growth since the last ``clear()``.
"""

from repro import cache, obs


def test_capture_spanning_clear_counts_every_lookup():
    c = cache.BoundedCache("t_count_clear", maxsize=4, register=False)
    with obs.capture() as rec:
        c.put("a", 1)
        c.get("a"), c.get("b")
        c.clear()
        s = c.stats()
        assert (s.hits, s.misses, s.size) == (0, 0, 0)
        c.get("a"), c.get("c")
        c.put("c", 3)
        c.get("c")
    s = c.stats()
    assert (s.hits, s.misses, s.size) == (1, 2, 1)
    assert rec.metrics.counter_value("cache.hits", cache="t_count_clear") == 2
    assert (
        rec.metrics.counter_value("cache.misses", cache="t_count_clear") == 3
    )
