"""Span tracer for the packedhe benchmark, applied from outside the library.

The tracer wraps public functions of ``engine``, ``matrix``, ``approx``,
``federated.protocol``, ``federated.wire`` and ``federated.transport`` at the
attribute the program calls them through, records one span per call in
memory, and turns the spans into the per-layer table.  The library itself is
not modified; ``uninstall`` puts every original attribute back.

A span is the tuple ``(sid, parent, name, t0, t1, node, job, round, value)``:
``parent`` is the enclosing span on the same thread (0 at the top), ``node``
is ``"server"``, ``"party-<id>"`` or ``"main"``, and ``value`` carries one
observation some spans make (the frame size of ``encode_frame``, the input
level of ``dbootstrap``, whether a rotation is by 0, the depth of ``app_sign``).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

SID, PARENT, NAME, T0, T1, NODE, JOB, ROUND, VALUE = range(9)

ENGINE_OPS = ("rot", "mul_pt", "mul_ct", "add", "sub", "rescale", "encode",
              "encrypt", "dbootstrap", "ddec")
PRODUCTS = ("he_mat_mult", "he_transpose", "he_rect_mat_mult")
SIDES = (16, 32, 64)
ORACLE = ("protocol.oracle.step", "protocol.oracle.decode_model",
          "protocol.oracle.accuracy")


# ------------------------------------------------------------------ arithmetic


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    return (span[T1] - span[T0]) - covered(
        span[T0], span[T1], [(c[T0], c[T1]) for c in children])


# --------------------------------------------------------------------- tracing


class Tracer:
    """In-memory span recorder with install/uninstall of library wrappers."""

    def __init__(self):
        self.spans: list = []
        self.job = 0
        self.round = 0          # server-side round; party threads keep their own
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def set_node(self, node: str) -> None:
        self._local.node = node

    def wrap(self, name, fn, label=None, value=None):
        """Return ``fn`` recording a span per call.

        ``label(args)`` overrides the span name; ``value(args, kwargs, out)``
        is stored in the span's value field.
        """
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, label(args) if label else name, t0, t1,
                          getattr(local, "node", "main"), self.job,
                          getattr(local, "round", self.round),
                          value(args, kwargs, out) if value else None))
            return out

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _trace(self, owners, attr, name, **kw) -> None:
        """Wrap ``attr`` once and bind the same wrapper on every owner."""
        traced = self.wrap(name, getattr(owners[0], attr), **kw)
        for owner in owners:
            self._patch(owner, attr, traced)

    def install(self) -> None:
        from packedhe import approx, engine, matrix
        from packedhe.federated import mirror, protocol, transport, wire

        ctx_cls = engine.CryptoContext
        for op in ENGINE_OPS:
            kw = {}
            if op == "rot":
                kw["value"] = lambda a, k, out: int(
                    int(a[2] if len(a) > 2 else k["k"]) % a[0].slot_count == 0)
            elif op == "dbootstrap":
                kw["value"] = lambda a, k, out: a[1].level
            self._trace([ctx_cls], op, f"engine.{op}", **kw)

        # protocol.py binds the products by name, so both bindings are patched.
        for fn in PRODUCTS:
            self._trace([matrix, protocol], fn, None,
                        label=lambda a, fn=fn: f"matrix.{fn}.h{a[0].dim_h}")
        self._trace([matrix], "he_lin_trans_bsgs", "matrix.he_lin_trans_bsgs")

        self._trace([approx, protocol], "app_sign", "approx.app_sign",
                    value=lambda a, k, out: a[1].k)

        for fn, name in (("prepare", "protocol.prepare"),
                         ("aggregate", "protocol.aggregate"),
                         ("run_training", "protocol.job")):
            self._trace([protocol], fn, name)
        for fn, name in (("local_forward", "protocol.forward"),
                         ("local_backward", "protocol.backward")):
            self._patch(protocol, fn, self._refresh_traced(
                self.wrap(name, getattr(protocol, fn))))
        self._trace([protocol], "decode_model", "protocol.oracle.decode_model")
        self._trace([protocol], "accuracy_with_weights", "protocol.oracle.accuracy")
        self._trace([mirror.PlainPipeline], "step", "protocol.oracle.step")
        self._trace([mirror.PlainPipeline], "accuracy", "protocol.oracle.accuracy")
        srv = protocol.ServerRuntime
        self._trace([srv], "collect_gradients", "protocol.collect_wait")
        self._trace([srv], "finalize_over_wire", "protocol.finalize")
        self._patch(srv, "broadcast_model", self._server_round(srv.broadcast_model))
        self._patch(srv, "_read_loop", self._on_node(srv._read_loop,
                                                     lambda rt: "server"))
        party = protocol.PartyRuntime
        self._patch(party, "run", self._on_node(
            party.run, lambda rt: f"party-{rt.state.party_id}"))
        self._patch(party, "_run_round", self._party_round(party._run_round))

        for fn in ("encode_frame", "encode_ciphertext", "decode_frame",
                   "decode_ciphertext"):
            kw = {"value": lambda a, k, out: len(out)} if fn == "encode_frame" else {}
            self._trace([wire, protocol], fn, f"wire.{fn}", **kw)

        for cls in (transport.QueueLink, transport.SocketLink):
            for fn, name in (("send", "transport.send"),
                             ("server_send", "transport.send"),
                             ("recv", "transport.recv"),
                             ("server_recv", "transport.recv")):
                self._trace([cls], fn, name)
        for fn in ("open_in_process_links", "open_tcp_links"):
            self._trace([transport, protocol], fn, "transport.open")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _refresh_traced(self, fn):
        """Trace the bootstrap callable the protocol hands to a party pass."""
        def call(*args, **kwargs):
            if kwargs.get("bootstrap") is not None:
                kwargs["bootstrap"] = self.wrap("protocol.refresh",
                                                kwargs["bootstrap"])
            return fn(*args, **kwargs)
        return call

    def _on_node(self, method, node_of):
        def call(rt, *args, **kwargs):
            self.set_node(node_of(rt))
            return method(rt, *args, **kwargs)
        return call

    def _party_round(self, method):
        local = self._local

        def call(rt, round_no, *args, **kwargs):
            local.round = round_no
            return method(rt, round_no, *args, **kwargs)
        return call

    def _server_round(self, method):
        def call(rt, round_no, *args, **kwargs):
            self.round = round_no
            return method(rt, round_no, *args, **kwargs)
        return call

    def write(self, path) -> None:
        """Write the spans as gzip JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("sid", "parent", "name", "t0", "t1", "node", "job", "round", "value")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# ----------------------------------------------------------------- the table


def layer_table(spans, steps: int, party_count: int) -> dict:
    """Per-layer metrics per step (calls, milliseconds) from recorded spans.

    ``steps`` is the number of rounds or linalg steps the spans cover;
    ``party_count`` is 0 for workloads without parties.
    """
    by_id = {s[SID]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
        by_name[s[NAME]].append(s)

    def dur(s):
        return s[T1] - s[T0]

    def total(names, fn=dur):
        return sum(fn(s) for n in names for s in by_name[n])

    def strict_self(s):
        return self_time(s, children[s[SID]])

    def ancestors(s):
        parent = by_id.get(s[PARENT])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[PARENT])

    def ancestor_in(s, names):
        return any(a[NAME] in names for a in ancestors(s))

    refresh_under = defaultdict(list)
    for r in by_name["protocol.refresh"]:
        for a in ancestors(r):
            refresh_under[a[SID]].append(r)

    def minus_refresh(s):
        """Duration less the refresh round trips made anywhere beneath it."""
        return self_time(s, refresh_under[s[SID]])

    per = 1.0 / steps
    ms = 1000.0 * per
    out = {}
    for op in ENGINE_OPS:
        name = f"engine.{op}"
        out[f"{name}.calls"] = (len(by_name[name]) * per, "count")
        out[f"{name}.self_ms"] = (total([name], strict_self) * ms, "ms")
    rots = by_name["engine.rot"]
    out["engine.rot.identity_share"] = (
        sum(s[VALUE] for s in rots) / len(rots) if rots else 0.0, "ratio")
    boots = by_name["engine.dbootstrap"]
    out["engine.dbootstrap.input_level_mean"] = (
        sum(s[VALUE] for s in boots) / len(boots) if boots else 0.0, "level")

    products = set()
    for fn in PRODUCTS:
        for h in SIDES:
            name = f"matrix.{fn}.h{h}"
            got = by_name[name]
            out[f"{name}.ms_p50"] = (
                1000.0 * percentile([dur(s) for s in got], 50) if got else 0.0, "ms")
            out[f"{name}.calls"] = (len(got) * per, "count")
            if fn != "he_transpose":
                products.add(name)
    out["matrix.he_lin_trans_bsgs.self_ms"] = (
        total(["matrix.he_lin_trans_bsgs"], strict_self) * ms, "ms")
    product_count = sum(len(by_name[n]) for n in products)
    encodes = sum(1 for s in by_name["engine.encode"] if ancestor_in(s, products))
    out["matrix.encodes_per_product"] = (
        encodes / product_count if product_count else 0.0, "count")

    signs = by_name["approx.app_sign"]
    sign_ms = total(["approx.app_sign"], minus_refresh)
    sign_boots = sum(1 for s in by_name["protocol.refresh"] + boots
                     if ancestor_in(s, {"approx.app_sign"}))
    stages = sum(s[VALUE] for s in signs)
    out["approx.app_sign.calls"] = (len(signs) * per, "count")
    out["approx.app_sign.self_ms"] = (sign_ms * ms, "ms")
    out["approx.app_sign.bootstraps_per_call"] = (
        sign_boots / len(signs) if signs else 0.0, "count")
    out["approx.stage_ms"] = (1000.0 * sign_ms / stages if stages else 0.0, "ms")

    out["protocol.prepare.ms"] = (total(["protocol.prepare"]) * ms, "ms")
    out["protocol.forward.self_ms"] = (
        total(["protocol.forward"], strict_self) * ms, "ms")
    out["protocol.backward.self_ms"] = (
        total(["protocol.backward"], strict_self) * ms, "ms")
    out["protocol.aggregate.ms"] = (total(["protocol.aggregate"]) * ms, "ms")
    out["protocol.finalize.ms"] = (total(["protocol.finalize"]) * ms, "ms")
    out["protocol.oracle.ms"] = (total(ORACLE) * ms, "ms")
    refresh = by_name["protocol.refresh"]
    out["protocol.refresh.calls"] = (len(refresh) * per, "count")
    out["protocol.refresh_rtt.ms_p50"] = (
        1000.0 * percentile([dur(s) for s in refresh], 50) if refresh else 0.0, "ms")
    out["protocol.collect_wait.ms"] = (total(["protocol.collect_wait"]) * ms, "ms")
    busy = total(["protocol.forward", "protocol.backward"], minus_refresh)
    wall = total(["protocol.job"])
    out["protocol.party_busy_share"] = (
        busy / (party_count * wall) if party_count and wall else 0.0, "ratio")

    frames = by_name["wire.encode_frame"]
    out["wire.frames"] = (len(frames) * per, "count")
    out["wire.bytes"] = (sum(s[VALUE] for s in frames) * per, "B")
    out["wire.encode.ms"] = (
        total(["wire.encode_frame", "wire.encode_ciphertext"]) * ms, "ms")
    out["wire.decode.ms"] = (
        total(["wire.decode_frame", "wire.decode_ciphertext"]) * ms, "ms")

    out["transport.send.ms"] = (total(["transport.send"]) * ms, "ms")
    out["transport.recv_wait.ms"] = (total(["transport.recv"]) * ms, "ms")
    out["transport.open.ms"] = (total(["transport.open"]) * ms, "ms")
    return out
