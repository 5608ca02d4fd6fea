"""Self-check of the benchmark's percentile and self-time arithmetic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The spans are synthetic, so no part of packedhe is imported.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracer import covered, layer_table, percentile, self_time  # noqa: E402


def span(sid, parent, name, t0, t1, node="party-0", value=None):
    return (sid, parent, name, t0, t1, node, 1, 0, value)


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_matches_closest_rank_interpolation_on_101_points():
    values = [float(v) for v in range(101)]
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert covered(0.0, 10.0, [(6.0, 7.0), (1.0, 2.0)]) == 2.0
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 15.0)]) == 2.0
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == 6.0


def test_self_time_subtracts_children_once():
    parent = span(1, 0, "p", 0.0, 10.0)
    kids = [span(2, 1, "a", 1.0, 4.0), span(3, 1, "b", 3.0, 5.0),
            span(4, 1, "c", 8.0, 9.0)]
    assert self_time(parent, kids) == pytest.approx(5.0)
    assert self_time(parent, []) == 10.0


def test_layer_table_per_step_figures_from_synthetic_spans():
    # One round on one party: forward with a sign gate that refreshes twice,
    # two rotations (one by 0) and a bootstrap-free product.
    spans = [
        span(10, 0, "protocol.job", 0.0, 0.100, node="server"),
        span(1, 0, "protocol.forward", 0.010, 0.060),
        span(2, 1, "approx.app_sign", 0.015, 0.045, value=3),
        span(3, 2, "protocol.refresh", 0.020, 0.025),
        span(4, 2, "protocol.refresh", 0.030, 0.040),
        span(5, 2, "engine.rot", 0.041, 0.042, value=1),
        span(6, 1, "matrix.he_mat_mult.h16", 0.046, 0.056),
        span(7, 6, "engine.rot", 0.047, 0.049, value=0),
        span(8, 6, "engine.encode", 0.050, 0.051),
    ]
    table = layer_table(spans, steps=1, party_count=1)
    assert table["engine.rot.calls"] == (2.0, "count")
    assert table["engine.rot.self_ms"][0] == pytest.approx(3.0)
    assert table["engine.rot.identity_share"][0] == 0.5
    assert table["approx.app_sign.calls"][0] == 1.0
    assert table["approx.app_sign.self_ms"][0] == pytest.approx(15.0)
    assert table["approx.app_sign.bootstraps_per_call"][0] == 2.0
    assert table["approx.stage_ms"][0] == pytest.approx(5.0)
    assert table["protocol.refresh.calls"][0] == 2.0
    assert table["protocol.refresh_rtt.ms_p50"][0] == pytest.approx(7.5)
    # forward: 50 ms less the sign gate (30) and the product (10).
    assert table["protocol.forward.self_ms"][0] == pytest.approx(10.0)
    # busy: forward less its refresh round trips (15 ms), over 100 ms of wall.
    assert table["protocol.party_busy_share"][0] == pytest.approx(0.35)
    assert table["matrix.he_mat_mult.h16.ms_p50"][0] == pytest.approx(10.0)
    assert table["matrix.encodes_per_product"][0] == 1.0
    assert table["matrix.he_mat_mult.h64.calls"][0] == 0.0

    halved = layer_table(spans, steps=2, party_count=1)
    assert halved["engine.rot.calls"][0] == 1.0
    assert halved["matrix.he_mat_mult.h16.ms_p50"][0] == pytest.approx(10.0)
