"""Layout interning, the bounded caches, and the off-switch.

Two properties matter: structurally equal layouts behave as one value
(the eq/hash contract plus interning identity), and caching is purely
an optimization — every compiled kernel and conversion plan must be
bit-identical with the caches bypassed.
"""

import dataclasses
import functools
import random

import pytest

from repro import cache
from repro.bench.fig7 import shuffle_pair
from repro.codegen import plan_conversion
from repro.core import BLOCK, LANE, LinearLayout, REGISTER, WARP
from repro.engine import compile
from repro.gpusim.opcost import op_cost_model
from repro.hardware import GH200, RTX4090
from repro.kernels.models import (
    build_flex_attention,
    build_gemm,
    build_layer_norm,
    build_softmax,
)
from repro.mxfp import F16

from tests.test_random_layout_conversions import random_distributed_layout


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts and ends with cold caches."""
    cache.clear()
    yield
    cache.clear()


def _layout(seed: int = 0, **kwargs) -> LinearLayout:
    return random_distributed_layout(random.Random(seed), 9, **kwargs)


# ----------------------------------------------------------------------
# __eq__ / __hash__ consistency
# ----------------------------------------------------------------------
def test_equal_layouts_hash_equal():
    a = _layout(seed=3)
    b = random_distributed_layout(random.Random(3), 9)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_key() == b.canonical_key()


def test_unequal_layouts_compare_unequal():
    a = _layout(seed=1)
    b = _layout(seed=2)
    assert a != b
    assert a.canonical_key() != b.canonical_key()


def test_in_dim_order_is_part_of_identity():
    """Same bases registered in a different input-dim order differ.

    ``__eq__`` and ``__hash__`` must agree on this: the regression
    fixed here was hashing a value that ignored what ``__eq__``
    checked.
    """
    bases = {REGISTER: [(1,)], LANE: [(2,)], WARP: [(4,)]}
    swapped = {LANE: [(2,)], REGISTER: [(1,)], WARP: [(4,)]}
    dims = {"dim0": 8}
    a = LinearLayout(dict(bases), dict(dims))
    b = LinearLayout(dict(swapped), dict(dims))
    assert (a == b) == (hash(a) == hash(b) and a.canonical_key() == b.canonical_key())
    assert a != b  # declaration order is semantic (register iteration)


def test_layouts_work_as_dict_keys():
    a = _layout(seed=5)
    b = random_distributed_layout(random.Random(5), 9)
    c = _layout(seed=6)
    table = {a: "first"}
    table[b] = "second"  # structurally equal: overwrites
    table[c] = "third"
    assert len(table) == 2
    assert table[a] == "second"


@pytest.mark.parametrize("seed", range(8))
def test_eq_hash_contract_randomized(seed):
    """For random layout pairs: a == b implies hash(a) == hash(b)."""
    rng = random.Random(seed)
    a = random_distributed_layout(rng, 9, extra_reg_bits=seed % 2)
    rng2 = random.Random(seed)
    b = random_distributed_layout(rng2, 9, extra_reg_bits=seed % 2)
    assert a == b and hash(a) == hash(b)
    other = random_distributed_layout(random.Random(seed + 1000), 9)
    if a == other:
        assert hash(a) == hash(other)


# ----------------------------------------------------------------------
# Interning
# ----------------------------------------------------------------------
def test_intern_returns_same_object_for_equal_layouts():
    a = _layout(seed=7)
    b = random_distributed_layout(random.Random(7), 9)
    assert a is not b
    assert a.intern() is b.intern()
    assert a.intern() in (a, b)


def test_intern_distinguishes_different_layouts():
    assert _layout(seed=8).intern() is not _layout(seed=9).intern()


def test_intern_is_identity_when_disabled():
    a = _layout(seed=10)
    with cache.disabled():
        assert a.intern() is a
    # Nothing was recorded while disabled.
    assert cache.layouts.stats().size == 0


def test_interned_layout_still_equal_to_original():
    a = _layout(seed=11)
    canonical = a.intern()
    fresh = random_distributed_layout(random.Random(11), 9)
    assert fresh == canonical
    assert fresh.intern() is canonical


# ----------------------------------------------------------------------
# BoundedCache mechanics
# ----------------------------------------------------------------------
def test_bounded_cache_hits_misses_and_stats():
    c = cache.BoundedCache("t_stats", maxsize=4)
    assert c.get("a") is None
    c.put("a", 1)
    assert c.get("a") == 1
    s = c.stats()
    assert (s.hits, s.misses, s.size, s.maxsize) == (1, 1, 1, 4)
    assert 0.0 < s.hit_rate < 1.0
    d = s.to_dict()
    assert d["name"] == "t_stats" and d["hit_rate"] == 0.5


def test_bounded_cache_evicts_lru_first():
    c = cache.BoundedCache("t_lru", maxsize=2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")  # refresh "a": now "b" is least recently used
    c.put("c", 3)
    assert c.get("a") == 1
    assert c.get("b") is None  # evicted
    assert c.stats().evictions == 1


def test_bounded_cache_first_insert_wins():
    c = cache.BoundedCache("t_race", maxsize=4)
    assert c.put("k", "first") == "first"
    assert c.put("k", "second") == "first"
    assert c.get("k") == "first"


def test_get_or_create_runs_factory_once():
    c = cache.BoundedCache("t_factory", maxsize=4)
    calls = []
    for _ in range(3):
        c.get_or_create("k", lambda: calls.append(1) or len(calls))
    assert calls == [1]


def test_clear_resets_entries_and_statistics():
    c = cache.BoundedCache("t_clear", maxsize=4)
    c.put("a", 1)
    c.get("a")
    c.get("zzz")
    c.clear()
    s = c.stats()
    assert (s.hits, s.misses, s.size) == (0, 0, 0)


def test_global_clear_and_stats_cover_named_caches():
    _layout(seed=12).intern()
    snapshot = cache.stats()
    for name in ("layouts", "derivations", "plans", "engine"):
        assert name in snapshot
    assert snapshot["layouts"].size == 1
    cache.clear()
    assert cache.stats()["layouts"].size == 0


def test_rejects_nonpositive_maxsize():
    with pytest.raises(ValueError):
        cache.BoundedCache("t_bad", maxsize=0)


# ----------------------------------------------------------------------
# Off-switch
# ----------------------------------------------------------------------
def test_disabled_context_restores_state():
    assert cache.enabled()
    with cache.disabled():
        assert not cache.enabled()
        with cache.disabled():
            assert not cache.enabled()
        assert not cache.enabled()
    assert cache.enabled()


def test_cached_bypasses_when_disabled():
    c = cache.BoundedCache("t_gate", maxsize=4)
    calls = []
    with cache.disabled():
        for _ in range(2):
            cache.cached(c, "k", lambda: calls.append(1) or "v")
    assert len(calls) == 2
    assert c.stats().size == 0


@pytest.mark.parametrize(
    "value,expected",
    [
        ("0", False),
        ("off", False),
        ("FALSE", False),
        (" no ", False),
        ("1", True),
        ("", True),
        ("yes", True),
    ],
)
def test_env_off_switch_values(monkeypatch, value, expected):
    monkeypatch.setenv("REPRO_CACHE", value)
    assert cache._env_enabled() is expected
    monkeypatch.delenv("REPRO_CACHE")
    assert cache._env_enabled() is True


# ----------------------------------------------------------------------
# Caching is purely an optimization: identical results on and off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_plan_conversion_identical_with_and_without_cache(seed):
    rng = random.Random(seed)
    shape = {"dim0": 16, "dim1": 32}
    src = random_distributed_layout(rng, 9, shape=shape)
    dst = random_distributed_layout(rng, 9, shape=shape)
    spec = RTX4090 if seed % 2 == 0 else GH200
    warm = plan_conversion(src, dst, elem_bits=16, spec=spec)
    cached_again = plan_conversion(src, dst, elem_bits=16, spec=spec)
    assert cached_again is warm  # the PlanCache shares the object
    with cache.disabled():
        cold = plan_conversion(src, dst, elem_bits=16, spec=spec)
    assert cold is not warm
    assert cold.kind == warm.kind
    assert cold.program == warm.program
    assert cold == warm


@pytest.mark.parametrize(
    "build",
    [
        build_gemm,
        build_softmax,
        build_flex_attention,
        build_layer_norm,
        functools.partial(build_gemm, m=128, n=128, k=64, k_iters=8),
    ],
    ids=["gemm", "softmax", "flex_attention", "layer_norm", "gemm_128"],
)
@pytest.mark.parametrize("mode", ["linear", "legacy"])
def test_compile_identical_with_and_without_cache(build, mode):
    warm = compile(build().graph, RTX4090, mode)
    rewarm = compile(build().graph, RTX4090, mode)
    with cache.disabled():
        cold = compile(build().graph, RTX4090, mode)
    assert warm.cycles() == rewarm.cycles() == cold.cycles()
    assert warm.op_counts() == rewarm.op_counts() == cold.op_counts()


def test_fig9_conversions_are_planned_and_priced_once(monkeypatch):
    """A conversion's or gather's plan lives in ``plans`` and its
    price on the plan's program: a cold fig9 pass leaves no priced
    conversion in ``engine``, and a second pass neither misses
    ``plans`` nor prices any program."""
    from repro.gpusim import opcost
    from tests.test_pipeline import FIG9_SUITE, _compile_fig9

    def fig9_pass():
        for model, case, platform, mode in FIG9_SUITE:
            _compile_fig9(model, case, platform, mode)

    fig9_pass()
    assert not [
        key for key in cache.engine._data if "priced_conversion" in key
    ]
    assert cache.stats()["plans"].hits > 0
    priced = []
    real = opcost.price_program

    def counted(program, *args, **kwargs):
        priced.append(program)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(opcost, "price_program", counted)
    before = cache.stats()["plans"]
    fig9_pass()
    after = cache.stats()["plans"]
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert priced == []


def test_replaced_spec_keeps_its_own_cost_entries():
    """A spec that differs from RTX4090 in one cost field shares its
    name, and so its hash, but none of its cached prices."""
    slow = dataclasses.replace(RTX4090, shuffle_cycles=40)
    a_desc, b_desc = shuffle_pair(64)
    src, dst = a_desc.to_linear((64, 64)), b_desc.to_linear((64, 64))

    def misses(name):
        return cache.stats()[name].misses

    for spec in (RTX4090, slow):
        model = op_cost_model(spec, "linear")
        for name, lookup in (
            ("plans", lambda: model.priced_conversion(src, dst, F16)),
            ("engine", lambda: model.global_cycles(src, None, (64, 64), F16)),
        ):
            before = misses(name)
            lookup()
            assert misses(name) > before  # its own entry, not RTX4090's
            before = misses(name)
            lookup()
            assert misses(name) == before

    def conversion_cycles(spec):
        return op_cost_model(spec, "linear").conversion_cycles(src, dst, F16)

    with cache.disabled():
        uncached = conversion_cycles(slow)
    assert conversion_cycles(slow) == uncached != conversion_cycles(RTX4090)

    def compile_cycles():
        return [
            compile(build_softmax().graph, spec=spec).cycles()
            for spec in (RTX4090, slow)
        ]

    warm = compile_cycles()
    with cache.disabled():
        cold = compile_cycles()
    assert warm == cold
    assert warm[0] != warm[1]


@pytest.mark.parametrize("seed", range(4))
def test_compile_identical_across_random_engine_configs(seed):
    rng = random.Random(900 + seed)
    m = rng.choice([32, 64, 128])
    n = rng.choice([32, 64, 128])
    num_warps = rng.choice([2, 4, 8])
    spec = rng.choice([RTX4090, GH200])
    build = lambda: build_gemm(m=m, n=n, k=64, k_iters=2)
    warm = compile(build().graph, spec=spec, num_warps=num_warps)
    with cache.disabled():
        cold = compile(build().graph, spec=spec, num_warps=num_warps)
    assert warm.cycles() == cold.cycles()
    assert warm.op_counts() == cold.op_counts()


def test_derivations_identical_with_and_without_cache():
    a = _layout(seed=20)
    warm_inv = a.invert_and_compose(_layout(seed=21))
    warm_rank = a.is_injective()
    warm_masks = a.free_variable_masks()
    with cache.disabled():
        b = random_distributed_layout(random.Random(20), 9)
        cold_inv = b.invert_and_compose(
            random_distributed_layout(random.Random(21), 9)
        )
        assert cold_inv == warm_inv
        assert b.is_injective() == warm_rank
        assert b.free_variable_masks() == warm_masks


def test_free_variable_masks_returns_fresh_dict():
    """Callers may mutate the returned dict without corrupting the memo."""
    layout = _layout(seed=22, extra_reg_bits=1)
    first = layout.free_variable_masks()
    first[BLOCK] = 12345
    assert BLOCK not in layout.free_variable_masks()
