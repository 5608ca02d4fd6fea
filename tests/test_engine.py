"""Slot engine contracts: bookkeeping rules, collective ops, metering."""

import concurrent.futures
import json
import pickle
import re
import sys
import threading

import numpy as np
import pytest

from packedhe import engine
from packedhe.engine import (CapacityError, EngineError, KeyMismatchError,
                             LevelExhaustedError, MissingPartyError)


def make_ctx(**kw):
    params = dict(ring_dim=64, initial_level=6, initial_scale=2.0 ** 40,
                  party_count=3)
    params.update(kw)
    return engine.new_context(**params)


# ------------------------------------------------------------------ contexts

def test_context_parameters_large():
    ctx = engine.new_context(2 ** 13, 6, 2.0 ** 40, 10)
    assert ctx.slot_count == 4096
    assert ctx.initial_level == 6


def test_context_minimal():
    ctx = engine.new_context(8, 1, 2.0, 1)
    assert ctx.slot_count == 4

def test_context_even_larger_ring():
    ctx = engine.new_context(2 ** 14, 6, 2.0 ** 40, 50)
    assert ctx.slot_count == 8192
    assert len(ctx.parties) == 50


@pytest.mark.parametrize("ring", [7, 12, 100, 6])
def test_context_rejects_non_power_of_two(ring):
    with pytest.raises(EngineError):
        engine.new_context(ring)


def test_context_rejects_zero_parties():
    with pytest.raises(EngineError):
        engine.new_context(64, party_count=0)


def test_context_rejects_bad_level_and_scale():
    with pytest.raises(EngineError):
        engine.new_context(64, initial_level=0)
    with pytest.raises(EngineError):
        engine.new_context(64, initial_scale=1.0)


# ------------------------------------------------------------- encode/decode

def test_encode_zero_pads():
    ctx = engine.new_context(8)
    pt = ctx.encode([1, 2, 3])
    assert ctx.decode(pt).tolist() == [1, 2, 3, 0]


def test_encode_decode_round_trip():
    ctx = engine.new_context(8)
    out = ctx.decode(ctx.encode([0.5, -0.25]))
    assert out.tolist() == [0.5, -0.25, 0, 0]


@pytest.mark.parametrize("make", [
    lambda: np.arange(4.0),
    lambda: np.arange(4.0).reshape(2, 2),
    lambda: np.arange(4.0).reshape(2, 2).T,
    lambda: np.arange(8.0)[::2],
    lambda: np.arange(4, dtype=np.float32),
    lambda: np.array([True, False, True, True]),
])
def test_encode_copies_full_size_input(make):
    ctx = engine.new_context(8)
    values = make()
    expect = np.asarray(values, dtype=np.float64).ravel().copy()
    pt = ctx.encode(values)
    values[...] = 0
    assert np.array_equal(pt.slots, expect)
    assert not pt.slots.flags.writeable


def test_encode_capacity_bound():
    ctx = make_ctx(ring_dim=2 ** 13)
    with pytest.raises(CapacityError):
        ctx.encode(np.zeros(4097))


# ----------------------------------------------------------- encrypt/decrypt

def test_encrypt_ddec_round_trip():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([1, 2, 3]))
    out = ctx.decode(ctx.ddec(ct, ctx.parties))
    assert out[:4].tolist() == [1, 2, 3, 0]


def test_ddec_partial_roster_rejected():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([1.0]))
    with pytest.raises(MissingPartyError):
        ctx.ddec(ct, ctx.parties[:2])


def test_fresh_ciphertext_level_and_scale():
    ctx = engine.new_context(2 ** 13, 6, 2.0 ** 40, 10)
    ct = ctx.encrypt(ctx.encode([1.0]))
    assert ct.level == 6
    assert ct.scale == 2.0 ** 40


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_slot_vector_rejects_bad_scale(scale):
    with pytest.raises(EngineError):
        engine.SlotVector(np.zeros(4), 1, scale, "ctx", "pk")


def test_slot_vector_is_an_immutable_identity_record():
    ct = engine.SlotVector(np.zeros(4), 1, 2.0, "ctx", "pk")
    with pytest.raises(AttributeError):
        ct.level = 0
    with pytest.raises(AttributeError):
        del ct.slots
    assert ct.level == 1
    twin = engine.SlotVector(ct.slots, 1, 2.0, "ctx", "pk")
    assert ct == ct and ct != twin
    assert len({ct, twin, ct}) == 2
    assert repr(ct) == ("SlotVector(n=4, level=1, scale=2.0, key_tag='pk', "
                        "context_id='ctx')")
    back = pickle.loads(pickle.dumps(ct))
    assert (back.level, back.scale, back.key_tag) == (1, 2.0, "pk")
    with pytest.raises(LevelExhaustedError):
        engine.SlotVector(np.zeros(4), -1, 2.0, "ctx", "pk")


def test_every_proper_subset_rejected():
    ctx = make_ctx(party_count=4)
    ct = ctx.encrypt(ctx.encode([1.0]))
    parties = list(ctx.parties)
    for drop in range(len(parties)):
        subset = parties[:drop] + parties[drop + 1:]
        with pytest.raises(MissingPartyError):
            ctx.ddec(ct, subset)
        with pytest.raises(MissingPartyError):
            ctx.dbootstrap(ct, subset)
        with pytest.raises(MissingPartyError):
            ctx.dkey_switch(ct, ctx.SERVER_KEY, subset)


# -------------------------------------------------------------- add/sub/muls

def test_add_values_and_bookkeeping():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1, 2]))
    b = ctx.encrypt(ctx.encode([3, 4]))
    out = ctx.add(a, b)
    assert ctx.decode(ctx.ddec(out, ctx.parties))[:2].tolist() == [4, 6]


def test_add_level_takes_min():
    ctx = make_ctx()
    one = ctx.encode([1.0])
    a = ctx.encrypt(one)
    b = ctx.encrypt(one)
    a = ctx.rescale(ctx.mul_pt(a, one))  # level 5
    for _ in range(3):
        b = ctx.rescale(ctx.mul_pt(b, one))  # level 3
    assert a.scale == b.scale == ctx.initial_scale
    assert ctx.add(a, b).level == 3
    assert ctx.add(a, b).scale == ctx.initial_scale


@pytest.mark.parametrize("op", ["add", "sub"])
def test_add_and_sub_refuse_operands_at_two_scales(op):
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))
    b = ctx.mul_pt(a, ctx.encode([1.0]))  # scale 2**80, not rescaled
    before = ctx.meter.snapshot()
    with ctx.meter_scope() as scope:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(EngineError, match=re.escape(
                    f"{op}s operands at scales {x.scale!r} and {y.scale!r}")):
                getattr(ctx, op)(x, y)
    assert ctx.meter.snapshot() == before
    assert scope.snapshot() == engine.OpCounter().snapshot()


@pytest.mark.parametrize("op", ["add", "sub"])
def test_add_and_sub_take_scales_within_a_relative_1e_9(op):
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))

    def at(scale):
        return engine.SlotVector(a.slots, a.level, scale, ctx.context_id,
                                 a.key_tag)
    assert getattr(ctx, op)(a, at(a.scale * (1 + 1e-10))).scale == a.scale
    with pytest.raises(EngineError):
        getattr(ctx, op)(a, at(a.scale * (1 + 1e-8)))


def test_sub_self_is_zero():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.5, -2.5]))
    out = ctx.sub(a, a)
    assert np.all(out.slots == 0)
    assert out.level == a.level


def test_add_rejects_key_mismatch():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]), ctx.DEFAULT_KEY)
    ctx.register_key("other", ctx.parties)
    b = ctx.encrypt(ctx.encode([1.0]), "other")
    with pytest.raises(KeyMismatchError):
        ctx.add(a, b)


def test_add_rejects_context_mismatch():
    ctx1, ctx2 = make_ctx(), make_ctx()
    a = ctx1.encrypt(ctx1.encode([1.0]))
    b = ctx2.encrypt(ctx2.encode([1.0]))
    with pytest.raises(EngineError):
        ctx1.add(a, b)


def test_mul_pt_values():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([2, 3]))
    out = ctx.mul_pt(ct, ctx.encode([5, 5]))
    assert ctx.decode(ctx.ddec(out, ctx.parties))[:2].tolist() == [10, 15]


def test_mul_ct_scale_product():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([2.0]))
    b = ctx.encrypt(ctx.encode([3.0]))
    out = ctx.mul_ct(a, b)
    assert out.scale == 2.0 ** 80
    assert out.slots[0] == 6.0


def test_mul_at_level_zero_rejected():
    ctx = make_ctx(initial_level=1)
    a = ctx.encrypt(ctx.encode([1.0]))
    a0 = ctx.rescale(a)
    assert a0.level == 0
    with pytest.raises(LevelExhaustedError):
        ctx.mul_ct(a0, a)
    with pytest.raises(LevelExhaustedError):
        ctx.mul_pt(a0, ctx.encode([1.0]))


# ------------------------------------------------------------- gather plans

def _masked_sum(ctx, terms, rows):
    """Sum of ``mul_pt(terms[j], encode(rows[j]))``, one engine op each.

    The chain is metered as it runs, but the slots come by masked copy: a
    slot that row j selects holds ``terms[j]``'s value bit for bit and every
    other slot is +0.0.  The chain gives +-0.0 there, or NaN for an inf term.
    """
    acc = None
    with np.errstate(invalid="ignore"):  # inf * 0 in the unselected slots
        for ct, row in zip(terms, rows):
            part = ctx.mul_pt(ct, ctx.encode(row))
            acc = part if acc is None else ctx.add(acc, part)
    slots = np.zeros(ctx.slot_count)
    for ct, row in zip(terms, rows):
        np.copyto(slots, ct.slots, where=row)
    return engine.SlotVector(slots, acc.level, acc.scale, acc.context_id,
                             acc.key_tag)


def _random_plan(n, baby, shifts, seed):
    """Giant steps whose images split the output slots at random: each slot
    is read by one (giant, baby) pair or by none."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(-1, len(shifts) * len(baby), n)
    steps = []
    for i, shift in enumerate(shifts):
        mine = owner // len(baby) == i
        labels = np.where(mine, owner - i * len(baby), -1)
        steps.append((shift, np.roll(labels, shift or 0)))
    return steps


def _gather_chain(ctx, ct, baby, steps):
    terms = [ct if b is None else ctx.rot(ct, b) for b in baby]
    acc = None
    for shift, labels in steps:
        part = _masked_sum(ctx, terms, labels == np.arange(len(terms))[:, None])
        part = part if shift is None else ctx.rot(part, shift)
        acc = part if acc is None else ctx.add(acc, part)
    return acc


@pytest.mark.parametrize("baby, shifts", [
    ((None,), (None,)),
    ((None, 3, -5), (None,)),
    ((0, 2, 4), (0, 6, -6, 12)),
    ((None, 1), (None, 7)),
])
def test_lin_trans_equals_its_chain(baby, shifts):
    ctx = make_ctx()
    n = ctx.slot_count
    steps = _random_plan(n, baby, shifts, seed=len(baby) + len(shifts))
    plan = engine.GatherPlan(baby, steps, n)
    slots = np.random.default_rng(3).standard_normal(n)
    slots[::3] = -0.0
    slots[1:6:2] = [np.inf, -np.inf, np.nan]
    ct = engine.SlotVector(slots, 2, ctx.initial_scale, ctx.context_id, "pk")
    with ctx.meter_scope() as fused:
        got = ctx.lin_trans(ct, plan)
    with ctx.meter_scope() as chain:
        want = _gather_chain(ctx, ct, baby, steps)
    assert got.slots.tobytes() == want.slots.tobytes()
    assert (got.level, got.scale, got.key_tag) == (want.level, want.scale,
                                                   want.key_tag)
    assert fused.snapshot() == chain.snapshot()
    assert not got.slots.flags.writeable


@pytest.mark.parametrize("case, error", [
    ("overlapping images", EngineError),
    ("bool labels", EngineError),
    ("float labels", EngineError),
    ("labels shape", CapacityError),
    ("label past the baby steps", CapacityError),
    ("label below -1", CapacityError),
    ("no giant steps", EngineError),
    ("no baby steps", EngineError),
])
def test_gather_plan_rejects_malformed_descriptions(case, error):
    n = 8
    labels = np.array([0, 1, -1, -1, -1, -1, -1, -1])  # slots 0 and 1
    baby, steps = [0, 1], [(0, labels), (4, labels)]
    if case == "overlapping images":
        steps = [(0, labels), (n + 1, labels)]  # the second reads slots n-1 and 0
    elif case == "bool labels":
        steps = [(0, labels >= 0)]
    elif case == "float labels":
        steps = [(0, labels.astype(float))]
    elif case == "labels shape":
        steps = [(0, labels[:-1])]
    elif case == "label past the baby steps":
        baby = [0]
    elif case == "label below -1":
        steps = [(0, np.where(labels < 0, -2, labels))]
    elif case == "no giant steps":
        steps = []
    elif case == "no baby steps":
        baby = []
    with pytest.raises(error):
        engine.GatherPlan(baby, steps, n)


def _lin_trans_misuse(case):
    ctx = make_ctx()
    n = ctx.slot_count
    plan = engine.GatherPlan([0, 1], _random_plan(n, [0, 1], [0, 4], seed=5), n)
    ct = ctx.encrypt(ctx.encode(np.arange(n, dtype=float)))
    if case == "level 0":
        ct = engine.SlotVector(ct.slots, 0, ct.scale, ct.context_id, ct.key_tag)
    elif case == "other context":
        other = make_ctx()
        ct = other.encrypt(other.encode(np.ones(n)))
    elif case == "unknown key":
        ct = engine.SlotVector(ct.slots, 2, ct.scale, ct.context_id, "nobody")
    elif case == "slot shape":
        ct = engine.SlotVector(ct.slots[:-1], 2, ct.scale, ct.context_id, "pk")
    elif case == "plan slot count":
        plan = engine.GatherPlan([0], _random_plan(2 * n, [0], [0], seed=6), 2 * n)
    elif case == "labels":
        plan = _random_plan(n, [0], [None], seed=7)[0][1]
    return ctx, ct, plan


@pytest.mark.parametrize("case, error", [
    ("level 0", LevelExhaustedError),
    ("other context", EngineError),
    ("unknown key", KeyMismatchError),
    ("slot shape", CapacityError),
    ("plan slot count", CapacityError),
    ("labels", EngineError),
])
def test_lin_trans_rejects_misuse_before_any_tally(case, error):
    ctx, ct, plan = _lin_trans_misuse(case)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        ctx.lin_trans(ct, plan)
    assert ctx.meter.snapshot() == before


def test_lin_trans_memo_hit_equals_first_call_and_chain():
    # A fresh plan per call, as the reference baselines build them: the memo
    # keys on the plan's counts, so the second call is a hit all the same.
    ctx = make_ctx()
    n = ctx.slot_count
    baby, shifts = (0, 2, 4), (0, 6, -6, 12)
    steps = _random_plan(n, baby, shifts, seed=9)
    ct = ctx.encrypt(ctx.encode(np.random.default_rng(9).standard_normal(n)))
    calls = []
    for _ in range(2):
        with ctx.meter_scope() as scope:
            calls.append((ctx.lin_trans(ct, engine.GatherPlan(baby, steps, n)),
                          scope.snapshot()))
        assert len(ctx._chains) == 1
    with ctx.meter_scope() as chain:
        want = _gather_chain(ctx, ct, baby, steps)
    for got, tally in calls:
        assert got.slots.tobytes() == want.slots.tobytes()
        assert (got.level, got.scale) == (want.level, want.scale)
        assert tally == chain.snapshot()


@pytest.mark.parametrize("case, error", [
    ("level one short", LevelExhaustedError),
    ("scale overflow", EngineError),
])
def test_rejected_lin_trans_stores_and_meters_nothing(case, error):
    ctx = make_ctx()
    n = ctx.slot_count
    plan = engine.GatherPlan([0, 1], _random_plan(n, [0, 1], [0, 4], seed=5), n)
    ct = ctx.encrypt(ctx.encode(np.arange(n, dtype=float)))
    level, scale = (0, ct.scale) if case == "level one short" else (1, 2.0 ** 1000)
    bad = engine.SlotVector(ct.slots, level, scale, ct.context_id, ct.key_tag)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        ctx.lin_trans(bad, plan)
    assert ctx._chains == {}
    assert ctx.meter.snapshot() == before
    good = engine.SlotVector(ct.slots, 1, ct.scale, ct.context_id, ct.key_tag)
    assert ctx.lin_trans(good, plan).level == 1
    assert len(ctx._chains) == 1
    assert ctx.meter.mul_pt - before["mul_pt"] == plan.terms


# ------------------------------------------------------------------ rotation

def test_rot_left_by_one():
    ctx = engine.new_context(8)
    ct = ctx.encrypt(ctx.encode([1, 2, 3, 4]))
    assert ctx.rot(ct, 1).slots.tolist() == [2, 3, 4, 1]


def test_rot_identity_and_inverse():
    ctx = engine.new_context(8)
    ct = ctx.encrypt(ctx.encode([1, 2, 3, 4]))
    assert ctx.rot(ct, 0).slots.tolist() == ct.slots.tolist()
    n = ctx.slot_count
    assert ctx.rot(ctx.rot(ct, 1), n - 1).slots.tolist() == ct.slots.tolist()


def test_rot_negative_equals_complement():
    ctx = engine.new_context(8)
    ct = ctx.encrypt(ctx.encode([1, 2, 3, 4]))
    assert ctx.rot(ct, -1).slots.tolist() == ctx.rot(ct, 3).slots.tolist()


def test_rotation_group_property():
    rng = np.random.default_rng(11)
    ctx = engine.new_context(32)
    n = ctx.slot_count
    for _ in range(50):
        v = ctx.encrypt(ctx.encode(rng.standard_normal(n)))
        k1, k2 = rng.integers(-2 * n, 2 * n, size=2)
        left = ctx.rot(ctx.rot(v, int(k1)), int(k2))
        right = ctx.rot(v, int(k1 + k2) % n)
        assert np.array_equal(left.slots, right.slots)


# ------------------------------------------------------------------- rescale

def test_rescale_drops_level_and_scale():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))
    b = ctx.mul_ct(a, a)
    assert (b.level, b.scale) == (6, 2.0 ** 80)
    out = ctx.rescale(b)
    assert (out.level, out.scale) == (5, 2.0 ** 40)
    assert np.array_equal(out.slots, b.slots)


def test_rescale_at_level_zero_rejected():
    ctx = make_ctx(initial_level=1)
    ct = ctx.rescale(ctx.encrypt(ctx.encode([1.0])))
    with pytest.raises(LevelExhaustedError):
        ctx.rescale(ct)


# ----------------------------------------------------------------- bootstrap

def test_dbootstrap_resets_budget():
    ctx = engine.new_context(2 ** 13, 6, 2.0 ** 40, 10)
    ct = ctx.encrypt(ctx.encode([1.25, -3.5]))
    low = ct
    for _ in range(5):
        low = ctx.rescale(ctx.mul_ct(low, ct))
    assert low.level == 1
    fresh = ctx.dbootstrap(low, ctx.parties)
    assert fresh.level == 6
    assert fresh.scale == 2.0 ** 40
    assert np.array_equal(fresh.slots, low.slots)


def test_dbootstrap_partial_roster():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([1.0]))
    with pytest.raises(MissingPartyError):
        ctx.dbootstrap(ct, ctx.parties[1:])


# ---------------------------------------------------------------- key switch

def test_dkey_switch_then_server_decrypt():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([7.0, -1.0]))
    switched = ctx.dkey_switch(ct, ctx.SERVER_KEY, ctx.parties)
    assert switched.key_tag == ctx.SERVER_KEY
    assert switched.level == ct.level and switched.scale == ct.scale
    out = ctx.decode(ctx.ddec(switched, ("server",)))
    assert out[:2].tolist() == [7.0, -1.0]


def test_server_decrypt_without_switch_fails():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([7.0]))
    with pytest.raises(MissingPartyError):
        ctx.ddec(ct, ("server",))


def test_dkey_switch_partial_roster():
    ctx = engine.new_context(64, party_count=10)
    ct = ctx.encrypt(ctx.encode([1.0]))
    with pytest.raises(MissingPartyError):
        ctx.dkey_switch(ct, ctx.SERVER_KEY, ctx.parties[:9])


def test_dkey_switch_unknown_target():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([1.0]))
    with pytest.raises(KeyMismatchError):
        ctx.dkey_switch(ct, "nonexistent", ctx.parties)


# -------------------------------------------------------------------- meter

def test_meter_exactness_per_call():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))
    b = ctx.encrypt(ctx.encode([2.0]))
    calls = [
        ("adds", lambda: ctx.add(a, b)),
        ("subs", lambda: ctx.sub(a, b)),
        ("mul_pt", lambda: ctx.mul_pt(a, ctx.encode([1.0]))),
        ("mul_ct", lambda: ctx.mul_ct(a, b)),
        ("rotations", lambda: ctx.rot(a, 1)),
        ("rescales", lambda: ctx.rescale(a)),
        ("bootstraps", lambda: ctx.dbootstrap(a, ctx.parties)),
        ("keyswitches", lambda: ctx.dkey_switch(a, ctx.SERVER_KEY, ctx.parties)),
    ]
    for field, fn in calls:
        before = ctx.meter.snapshot()
        fn()
        after = ctx.meter.snapshot()
        diff = {k: after[k] - before[k] for k in after}
        assert diff.pop(field) == 1
        assert all(v == 0 for v in diff.values()), (field, diff)


def test_meter_scope_isolation_and_reset():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))
    ctx.rot(a, 1)
    with ctx.meter_scope() as outer:
        ctx.rot(a, 1)
        with ctx.meter_scope() as inner:
            ctx.rot(a, 2)
        assert inner.rotations == 1
    assert outer.rotations == 2
    assert ctx.meter.rotations == 3
    ctx.meter.reset()
    assert ctx.meter.rotations == 0


def test_meter_scopes_concurrent_threads():
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))

    def work(k):
        with ctx.meter_scope() as scope:
            for _ in range(k):
                ctx.rot(a, 1)
            return scope.rotations

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        counts = list(pool.map(work, [10, 20, 30, 40]))
    assert counts == [10, 20, 30, 40]
    assert ctx.meter.rotations == 100


def test_meter_json_snapshot_keys():
    ctx = make_ctx()
    snapshot = json.loads(ctx.meter.to_json())
    for key in ("adds", "mul_pt", "mul_ct", "rotations", "rescales",
                "bootstraps", "keyswitches"):
        assert key in snapshot


def test_meter_lock_under_thread_switch_pressure():
    # More threads than cores and a tiny switch interval: a lost update on the
    # shared meter shows as a total below workers * calls.
    ctx = make_ctx()
    a = ctx.encrypt(ctx.encode([1.0]))
    workers, calls = 8, 2000
    seen = [None] * workers

    def work(i):
        with ctx.meter_scope() as scope:
            for _ in range(calls):
                ctx.rot(a, 1)
        seen[i] = scope.rotations

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert seen == [calls] * workers
    assert ctx.meter.rotations == workers * calls


# ---------------------------------------------------------- shared slot arrays

SLOT_KEEPING_OPS = {
    "rescale": lambda ctx, ct: ctx.rescale(ct).slots,
    "dbootstrap": lambda ctx, ct: ctx.dbootstrap(ct, ctx.parties).slots,
    "dkey_switch": lambda ctx, ct: ctx.dkey_switch(
        ct, ctx.SERVER_KEY, ctx.parties).slots,
    "ddec": lambda ctx, ct: ctx.ddec(ct, ctx.parties).slots,
}


@pytest.mark.parametrize("op", sorted(SLOT_KEEPING_OPS))
def test_slot_keeping_ops_share_engine_arrays(op):
    ctx = make_ctx()
    ct = ctx.rot(ctx.encrypt(ctx.encode([1.0, -2.0, 3.0])), 1)
    out = SLOT_KEEPING_OPS[op](ctx, ct)
    assert not out.flags.writeable
    assert np.shares_memory(out, ct.slots)


@pytest.mark.parametrize("op", sorted(SLOT_KEEPING_OPS))
def test_slot_keeping_ops_copy_caller_arrays(op):
    ctx = make_ctx()
    mine = np.arange(ctx.slot_count, dtype=np.float64)
    ct = engine.SlotVector(mine, 2, ctx.initial_scale, ctx.context_id,
                           ctx.DEFAULT_KEY)
    out = SLOT_KEEPING_OPS[op](ctx, ct)
    assert not out.flags.writeable
    assert not np.shares_memory(out, mine)
    assert mine.flags.writeable
    assert out.tobytes() == mine.tobytes()


def test_exact_encrypt_shares_only_read_only_plaintexts():
    ctx = make_ctx()
    pt = ctx.encode([1.0, 2.0])
    assert np.shares_memory(ctx.encrypt(pt).slots, pt.slots)
    mine = np.ones(ctx.slot_count)
    ct = ctx.encrypt(engine.Plaintext(mine, ctx.initial_scale, ctx.context_id))
    assert not np.shares_memory(ct.slots, mine)
    assert not ct.slots.flags.writeable and mine.flags.writeable


def test_gaussian_encrypt_draws_fresh_noise_each_call():
    ctx = engine.new_context(64, party_count=2, noise_mode="gaussian",
                             noise_sigma=1e-6, noise_seed=3)
    pt = ctx.encode(np.linspace(-1, 1, ctx.slot_count))
    before = pt.slots.tobytes()
    first, second = ctx.encrypt(pt), ctx.encrypt(pt)
    assert first.slots.tobytes() != second.slots.tobytes()
    assert not np.shares_memory(first.slots, pt.slots)
    assert pt.slots.tobytes() == before


# -------------------------------------------------------------- homomorphism

def _random_expression_check(seed):
    rng = np.random.default_rng(seed)
    ctx = engine.new_context(32, initial_level=6)
    n = ctx.slot_count

    plain = [rng.uniform(-1e3, 1e3, n) for _ in range(3)]
    cts = [ctx.encrypt(ctx.encode(p)) for p in plain]
    vals = list(plain)

    for _ in range(12):
        op = rng.integers(0, 5)
        i, j = rng.integers(0, len(cts), 2)
        if op == 0:
            cts.append(ctx.add(cts[i], cts[j]))
            vals.append(vals[i] + vals[j])
        elif op == 1:
            cts.append(ctx.sub(cts[i], cts[j]))
            vals.append(vals[i] - vals[j])
        elif op == 2:
            k = int(rng.integers(0, n))
            cts.append(ctx.rot(cts[i], k))
            vals.append(np.roll(vals[i], -k))
        elif op == 3:
            if cts[i].level >= 1:
                mask = rng.uniform(-1, 1, n)
                cts.append(ctx.rescale(ctx.mul_pt(cts[i], ctx.encode(mask))))
                vals.append(vals[i] * mask)
        else:
            if cts[i].level >= 2 and cts[j].level >= 2:
                prod = ctx.rescale(ctx.mul_ct(cts[i], cts[j]))
                cts.append(prod)
                vals.append(vals[i] * vals[j])
    for ct, val in zip(cts, vals):
        got = ctx.decode(ctx.ddec(ct, ctx.parties))
        scale = np.maximum(np.abs(val), 1.0)
        assert np.max(np.abs(got - val) / scale) < 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_homomorphism_random_expressions(seed):
    _random_expression_check(seed)


def test_level_never_increases_without_bootstrap():
    rng = np.random.default_rng(5)
    ctx = engine.new_context(32)
    ct = ctx.encrypt(ctx.encode(rng.standard_normal(4)))
    level = ct.level
    for op in (lambda c: ctx.add(c, c), lambda c: ctx.rot(c, 3),
               lambda c: ctx.mul_pt(c, ctx.encode([1.0])),
               lambda c: ctx.rescale(c)):
        ct = op(ct)
        assert ct.level <= level
        level = ct.level


# ------------------------------------------------------------- gaussian mode

def test_gaussian_noise_bounded():
    sigma = 1e-6
    ctx = engine.new_context(2 ** 10, party_count=2, noise_mode="gaussian",
                             noise_sigma=sigma, noise_seed=42)
    values = np.linspace(-1, 1, ctx.slot_count)
    ct = ctx.encrypt(ctx.encode(values))
    out = ctx.decode(ctx.ddec(ct, ctx.parties))
    assert np.max(np.abs(out - values)) <= 6 * sigma
    prod = ctx.mul_ct(ct, ctx.encrypt(ctx.encode(np.ones(ctx.slot_count))))
    out2 = ctx.decode(ctx.ddec(prod, ctx.parties))
    assert np.max(np.abs(out2 - out)) <= 6 * sigma


def test_gaussian_mode_requires_sigma():
    with pytest.raises(EngineError):
        engine.new_context(64, noise_mode="gaussian")


def test_slots_are_immutable():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([1.0, 2.0]))
    with pytest.raises(ValueError):
        ct.slots[0] = 99.0
