"""N-party encrypted federated training over the packed-matrix engine.

One global round works on ciphertexts end to end: the server broadcasts the
encrypted model, every party runs an encrypted forward/backward pass over one
mini-batch of its local shard (rectangular packed products for the batch and,
transposed, for the gradients, composite-polynomial gates for the
activations), the server sums the encrypted per-party gradients and
applies the update  w <- w - eta/(batch*N) * grad  under encryption.  After
the last round the model is collectively re-keyed to the server's key and
decrypted there; parties never see a server-keyed ciphertext.

Level maintenance follows a fixed schedule: a rescale after every product,
which keeps every ciphertext that meets another in an add at the context
scale, and a collective refresh after each activation plus wherever a
product chain would exhaust the budget.
Mid-training refreshes travel the wire as BOOTSTRAP_REQ/BOOTSTRAP_SHARE
frames, so both transports account the same bytes.  Refresh requests,
refresh shares, gradients and key-switch shares name their round; a frame
of another round than the current one raises ``ProtocolError``, and so does
a key-switch share before the last round has ended.

``run_training`` runs the in-process parties on the server's own thread and
each TCP party in a forked child process.  Once the model is broadcast, a
party's round does not depend on the other parties', so the server runs
them in turn, party 0 first, wherever it would otherwise wait for them: an
in-process job starts no thread, and a refresh is a call.  Over TCP, a
reader thread of the server's serves each link; the readers and the
server's main thread share one interpreter and its lock, and only the
forked parties run on interpreters of their own.  A child meters its ops on
its forked copy of the context and reports them to the server over an
unmetered pipe before each round's gradients; the server books them
on its own meter, so ``metrics["rounds"][i]["ops"]`` covers every node on
both transports.  A party that fails closes its link (a child by exiting),
which wakes the waiting server: it raises ``ProtocolError`` from the
party's error at once, and every job reaps its children.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from .. import matrix
from ..approx import (CompositePolySpec, _ensure_level, app_sign,
                      make_local_bootstrapper, polyval_ct, smooth_fit)
from ..engine import CryptoContext, MissingPartyError, Plaintext, new_context
# he_mat_mult stays bound though unused: perfbench's tracer patches it here.
from ..matrix import (PRODUCT_DEPTH, PackedMatrix, he_mat_mult,
                      he_rect_mat_mult, he_rect_tn_mult, he_transpose,
                      pad_matrix)
from ..validation import check_finite, check_labels
from .config import TrainingConfig, next_pow2, one_hot
from .mirror import PlainActivation, PlainPipeline, accuracy_with_weights
from .transport import (QueueLink, TransportError, open_in_process_links,
                        open_tcp_links)
from .wire import (SERVER_ID, MsgType, WireError, decode_ciphertext,
                   decode_frame, decode_share_index, encode_ciphertext,
                   encode_frame, encode_share_index, max_frame_body)

DEFAULT_TIMEOUT = 300.0
_REAP_S = 10.0   # how long a job waits for a party or reader to end


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class PadPlan:
    """Padded packing geometry shared by every participant."""

    features: int
    classes: int
    neurons: tuple
    h: int                  # padded square side
    t: int                  # padded batch rows, t | h
    col_masks: tuple        # per layer, (h,) 0/1 row masking logical columns
    rowcol_mask: np.ndarray  # (t, h) mask of real samples x label columns

    @property
    def ring_dim(self) -> int:
        return 2 * self.h * self.h


def build_plan(config: TrainingConfig, feature_dim: int) -> PadPlan:
    classes = config.neurons[-1]
    h = next_pow2(max(feature_dim, max(config.neurons), config.batch_size, 2))
    t = min(next_pow2(config.batch_size), h)
    col_masks = []
    for n in config.neurons:
        mask = np.zeros(h)
        mask[:n] = 1.0
        col_masks.append(mask)
    rowcol = np.zeros((t, h))
    rowcol[: config.batch_size, :classes] = 1.0
    return PadPlan(feature_dim, classes, config.neurons, h, t,
                   tuple(col_masks), rowcol)


@dataclass
class ModelState:
    """Encrypted model weights plus the round counter."""

    weights: list           # per-layer PackedMatrix under the collective key
    iteration: int

    def clone(self) -> "ModelState":
        return ModelState(list(self.weights), self.iteration)


@dataclass
class GradientMsg:
    """One party's encrypted per-layer gradient sums for one round."""

    party_id: int
    iteration: int
    grads: list             # per-layer PackedMatrix

    def validate(self, config: TrainingConfig, key_tag: str) -> None:
        if len(self.grads) != config.layers:
            raise ProtocolError(
                f"party {self.party_id} sent {len(self.grads)} gradient layers, "
                f"expected {config.layers}")
        for g in self.grads:
            if g.ct.key_tag != key_tag:
                raise ProtocolError("gradient ciphertext under the wrong key")


@dataclass(frozen=True)
class PassConstants:
    """The constant plaintexts of one party's passes, encoded once per job."""

    col_masks: tuple        # per layer, the logical-neuron column mask
    label_mask: Plaintext   # real samples x label columns
    two: Plaintext          # derivative factor of the squared loss
    relu_range: Plaintext | None  # 1 / input_range, approx_relu only
    half: Plaintext | None        # 0.5, approx_relu only


def _encode_constants(ctx: CryptoContext, config: TrainingConfig,
                      plan: PadPlan) -> PassConstants:
    def full(value):
        return ctx.encode(np.full(ctx.slot_count, float(value)))
    relu = config.activation.kind == "approx_relu"
    return PassConstants(
        tuple(ctx.encode(np.tile(mask, plan.h)) for mask in plan.col_masks),
        ctx.encode(np.tile(plan.rowcol_mask, (plan.h // plan.t, 1)).ravel()),
        full(2.0),
        full(1.0 / config.activation.input_range) if relu else None,
        full(0.5) if relu else None)


@dataclass
class ServerState:
    ctx: CryptoContext
    config: TrainingConfig
    plan: PadPlan
    model: ModelState
    logical_dims: list      # (rows, cols) per layer before padding
    lr_factor: Plaintext    # eta / (batch * N), encoded once per job
    finalized: bool = False


@dataclass
class PartyState:
    party_id: int
    ctx: CryptoContext
    config: TrainingConfig
    plan: PadPlan
    model: ModelState
    consts: PassConstants
    shard: tuple | None = None       # (features, labels)
    schedule: list | None = None     # per-round row indices for this party


@dataclass
class ForwardTrace:
    """Encrypted activations and derivative gates kept for backpropagation."""

    x_ct: PackedMatrix
    activations: list       # M_1 .. M_L (rectangular packed)
    gates: list              # per layer, PackedMatrix or None
    rows: int


def init_weights(config: TrainingConfig, feature_dim: int):
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) logical weight matrices."""
    rng = np.random.default_rng(config.seed)
    dims = []
    mats = []
    fan_in = feature_dim
    for n in config.neurons:
        bound = 1.0 / np.sqrt(fan_in)
        mats.append(rng.uniform(-bound, bound, size=(fan_in, n)))
        dims.append((fan_in, n))
        fan_in = n
    return mats, dims


def prepare(config: TrainingConfig, feature_dim: int):
    """Key ceremony and model initialization.

    Creates the shared context (collective key owned by the N parties, a
    separate server key), encrypts the seeded initial weights, and hands every
    party an identical model copy.
    """
    plan = build_plan(config, feature_dim)
    ctx = new_context(plan.ring_dim, config.initial_level,
                      2.0 ** config.scale_bits, config.party_count)
    logical, dims = init_weights(config, feature_dim)
    weights = [matrix.encode_matrix(pad_matrix(w, plan.h, plan.h), ctx)
               for w in logical]
    model = ModelState(weights, 0)
    factor = config.learning_rate / (config.batch_size * config.party_count)
    server = ServerState(ctx, config, plan, model, dims,
                         ctx.encode(np.full(ctx.slot_count, factor)))
    parties = [PartyState(p, ctx, config, plan, model.clone(),
                          _encode_constants(ctx, config, plan))
               for p in range(config.party_count)]
    return server, parties


# ------------------------------------------------------------ ciphertext math


class _Compute:
    """Per-party ciphertext helpers: a product's operands are refreshed to
    level 2 if need be, and the product is rescaled to the context scale."""

    def __init__(self, ctx: CryptoContext, bootstrap):
        self.ctx = ctx
        self.bootstrap = bootstrap

    def mul(self, a, b):
        a = _ensure_level(self.ctx, a, 2, self.bootstrap)
        b = _ensure_level(self.ctx, b, 2, self.bootstrap)
        return self.ctx.rescale(self.ctx.mul_ct(a, b))

    def mul_const(self, ct, pt: Plaintext):
        ct = _ensure_level(self.ctx, ct, 2, self.bootstrap)
        return self.ctx.rescale(self.ctx.mul_pt(ct, pt))


class CipherActivation:
    """Ciphertext twin of mirror.PlainActivation."""

    def __init__(self, config: TrainingConfig, consts: PassConstants):
        act = config.activation
        self.act = act
        self.consts = consts
        if act.kind == "approx_relu":
            self.spec = CompositePolySpec.for_closeness(act.d, act.sigma, act.delta)
        elif act.kind == "approx_sigmoid":
            r = act.input_range
            self.fit = smooth_fit("sigmoid", act.degree, (-r, r))
            d = np.polynomial.polynomial.polyder(np.array(self.fit.coeffs))
            self.deriv_coeffs = tuple(d)

    def __call__(self, comp: _Compute, e):
        ctx = comp.ctx
        if self.act.kind == "identity":
            return e, None
        if self.act.kind == "approx_relu":
            half = self.consts.half
            scaled = comp.mul_const(e, self.consts.relu_range)
            s = app_sign(scaled, self.spec, ctx, comp.bootstrap)
            prod = comp.mul(e, s)
            m = comp.mul_const(ctx.add(e, prod), half)
            gate = comp.mul_const(
                ctx.add(s, ctx.constant(1.0, s.key_tag)), half)
            return m, gate
        m = polyval_ct(e, self.fit.coeffs, ctx, comp.bootstrap)
        gate = polyval_ct(e, self.deriv_coeffs, ctx, comp.bootstrap)
        return m, gate


def _as_rect(pm: PackedMatrix, t: int) -> PackedMatrix:
    return PackedMatrix(pm.ct, pm.dim_h, t, pm.batch_beta)


def _ensure_pm(comp: _Compute, pm: PackedMatrix, need: int) -> PackedMatrix:
    ct = _ensure_level(comp.ctx, pm.ct, need, comp.bootstrap)
    return PackedMatrix(ct, pm.dim_h, pm.rows_t, pm.batch_beta) \
        if ct is not pm.ct else pm


def local_forward(party: PartyState, batch_x: np.ndarray,
                  bootstrap=None) -> ForwardTrace:
    """Encrypted feedforward over one mini-batch.

    The batch is packed as a replicated rectangular matrix (padded rows t,
    side h); each layer is one rectangular product, the activation gate, a
    column mask confining values to the logical neurons, and a collective
    refresh.  ``bootstrap`` defaults to the in-engine collective refresh; the
    wire runtimes substitute the framed request/share exchange.
    """
    ctx, plan, config = party.ctx, party.plan, party.config
    if bootstrap is None:
        bootstrap = make_local_bootstrapper(ctx)
    comp = _Compute(ctx, bootstrap)
    activation = CipherActivation(config, party.consts)

    rows = len(batch_x)
    if rows > config.batch_size:
        raise ProtocolError(f"batch of {rows} rows exceeds batch_size "
                            f"{config.batch_size}")
    if np.shape(batch_x)[1:] != (plan.features,):
        raise ProtocolError(f"batch rows of shape {np.shape(batch_x)[1:]} "
                            f"do not hold {plan.features} features")
    x_ct = matrix.encode_rect_matrix(pad_matrix(batch_x, plan.t, plan.h), ctx)

    acts = []
    gates = []
    current = x_ct
    for j, w in enumerate(party.model.weights):
        lhs = _ensure_pm(comp, _as_rect(current, plan.t), PRODUCT_DEPTH)
        rhs = _ensure_pm(comp, w, PRODUCT_DEPTH)
        e = he_rect_mat_mult(lhs, rhs)
        m_ct, gate_ct = activation(comp, e.ct)
        m_ct = comp.mul_const(m_ct, party.consts.col_masks[j])
        m_ct = bootstrap(m_ct)
        m = PackedMatrix(m_ct, plan.h, plan.t, 1)
        acts.append(m)
        gates.append(None if gate_ct is None
                     else PackedMatrix(gate_ct, plan.h, plan.t, 1))
        current = m
    return ForwardTrace(x_ct, acts, gates, rows)


def local_backward(party: PartyState, trace: ForwardTrace,
                   batch_labels: np.ndarray, bootstrap=None) -> GradientMsg:
    """Encrypted backpropagation; returns per-layer gradient sums.

    Each layer's gradient is ``he_rect_tn_mult`` of the replicated t x h
    activation image below it and the replicated error image: the t-stage
    product of the transpose, which sums the block product over the batch
    rows.
    """
    ctx, plan, config = party.ctx, party.plan, party.config
    consts = party.consts
    if bootstrap is None:
        bootstrap = make_local_bootstrapper(ctx)
    comp = _Compute(ctx, bootstrap)

    yb = pad_matrix(one_hot(batch_labels, plan.classes), plan.t, plan.h)
    y_ct = matrix.encode_rect_matrix(yb, ctx)

    m_last = trace.activations[-1]
    if config.fig5_squared_loss:
        err = ctx.sub(_ensure_level(ctx, y_ct.ct, 2, bootstrap),
                      _ensure_level(ctx, m_last.ct, 2, bootstrap))
        delta = comp.mul(err, err)
    else:
        err = ctx.sub(_ensure_level(ctx, m_last.ct, 2, bootstrap),
                      _ensure_level(ctx, y_ct.ct, 2, bootstrap))
        delta = comp.mul_const(err, consts.two)
    if trace.gates[-1] is not None:
        delta = comp.mul(delta, trace.gates[-1].ct)
    delta = comp.mul_const(delta, consts.label_mask)

    weights = party.model.weights
    below = [trace.x_ct] + trace.activations[:-1]
    grads: list = [None] * len(weights)
    for j in reversed(range(len(weights))):
        grads[j] = he_rect_tn_mult(
            _ensure_pm(comp, below[j], PRODUCT_DEPTH + 1),
            _ensure_pm(comp, PackedMatrix(delta, plan.h, plan.t, 1),
                       PRODUCT_DEPTH))
        if j > 0:
            w_t = he_transpose(_ensure_pm(comp, weights[j], 2))
            d_pm = he_rect_mat_mult(
                _ensure_pm(comp, PackedMatrix(delta, plan.h, plan.t, 1),
                           PRODUCT_DEPTH),
                _ensure_pm(comp, w_t, PRODUCT_DEPTH))
            delta = d_pm.ct
            if trace.gates[j - 1] is not None:
                delta = comp.mul(delta, trace.gates[j - 1].ct)
    return GradientMsg(party.party_id, party.model.iteration, grads)


def aggregate(server: ServerState, msgs: list) -> ModelState:
    """Sum the N gradient messages and apply the encrypted SGD update.

    Synchronous-round contract: exactly one message per party at the current
    iteration, otherwise the round stalls with an error.
    """
    ctx, config, plan = server.ctx, server.config, server.plan
    seen = {m.party_id for m in msgs}
    expected = set(range(config.party_count))
    if seen != expected:
        missing = sorted(expected - seen)
        raise MissingPartyError(
            f"aggregation round {server.model.iteration} is missing gradient "
            f"messages from parties {missing}")
    by_party = {m.party_id: m for m in msgs}
    for m in msgs:
        if m.iteration != server.model.iteration:
            raise ProtocolError(
                f"party {m.party_id} sent gradients for round {m.iteration}, "
                f"server is at round {server.model.iteration}")
        m.validate(config, ctx.DEFAULT_KEY)

    new_weights = []
    for j, w in enumerate(server.model.weights):
        total = None
        for p in range(config.party_count):
            g = by_party[p].grads[j].ct
            total = g if total is None else ctx.add(total, g)
        total = _ensure_level(ctx, total, 1, make_local_bootstrapper(ctx))
        upd = ctx.rescale(ctx.mul_pt(total, server.lr_factor))
        new_ct = ctx.sub(w.ct, upd)
        # Refresh so the next round's products have their full budget.
        new_ct = ctx.dbootstrap(new_ct, ctx.parties)
        new_weights.append(PackedMatrix(new_ct, plan.h, plan.h, 1))
    server.model = ModelState(new_weights, server.model.iteration + 1)
    return server.model


def finalize(server: ServerState, roster=None):
    """Re-key every weight to the server key and decrypt, unpadding layers."""
    ctx, config = server.ctx, server.config
    if server.model.iteration < config.global_iters:
        raise ProtocolError(
            f"finalize before round {config.global_iters}: model is at "
            f"iteration {server.model.iteration}")
    roster = ctx.parties if roster is None else tuple(roster)
    out = []
    for w, (rows, cols) in zip(server.model.weights, server.logical_dims):
        switched = ctx.dkey_switch(w.ct, ctx.SERVER_KEY, roster)
        slots = ctx.decode(ctx.ddec(switched, ("server",)))
        img = slots[: server.plan.h * server.plan.h].reshape(
            server.plan.h, server.plan.h)
        out.append(img[:rows, :cols].copy())
    server.finalized = True
    return out


def decode_model(server: ServerState) -> list:
    """Instrumentation: decode the padded encrypted weights (full roster)."""
    ctx = server.ctx
    h = server.plan.h
    out = []
    for w in server.model.weights:
        slots = ctx.decode(ctx.ddec(w.ct, ctx.parties))
        out.append(slots[: h * h].reshape(h, h).copy())
    return out


# ----------------------------------------------------------------- runtimes


def build_schedule(config: TrainingConfig, shard_sizes: list) -> list:
    """Deterministic per-round, per-party mini-batch row indices."""
    streams = []
    for p, size in enumerate(shard_sizes):
        rng = np.random.default_rng([config.seed, p])
        order = rng.permutation(size)
        streams.append(order)
    schedule = []
    cursors = [0] * len(shard_sizes)
    for _ in range(config.global_iters):
        round_rows = []
        for p, size in enumerate(shard_sizes):
            take = min(config.batch_size, size)
            rows = []
            for _ in range(take):
                rows.append(streams[p][cursors[p] % size])
                cursors[p] += 1
            round_rows.append(np.array(rows, dtype=np.int64))
        schedule.append(round_rows)
    return schedule


class PartyRuntime:
    """One party's side of the wire protocol; ``handle`` serves one frame.

    ``run`` handles frames until ``DONE``, waiting for each; ``serve``
    handles those already queued, on the calling thread, which is how the
    server runs an in-process party.  Either keeps a failure in ``error``.

    With ``tally_pipe`` set, the party runs in a process of its own on a
    forked copy of the context: before each round's gradients it sends the
    ops its meter counted since the last report, ``{meter field: count}``,
    over that pipe, which no byte accounting sees.
    """

    def __init__(self, state: PartyState, link, timeout: float = DEFAULT_TIMEOUT,
                 tally_pipe=None):
        self.state = state
        self.link = link
        self.timeout = timeout
        self.tally_pipe = tally_pipe
        self.error: BaseException | None = None
        self._round = 0   # the round in progress, or else the next one
        self._weights: list = []   # the next round's weights received so far
        self._requests = 0         # key-switch requests answered
        self._reported = state.ctx.meter.snapshot()

    def _decode_ct(self, payload):
        ct = decode_ciphertext(payload, self.state.ctx)
        # Parties must never be handed server-keyed material.
        if ct.key_tag != self.state.ctx.DEFAULT_KEY:
            raise ProtocolError(
                f"party {self.state.party_id} received a ciphertext under "
                f"key {ct.key_tag!r}")
        return ct

    def _bootstrap(self, ct):
        payload = encode_ciphertext(ct)
        self.link.send(encode_frame(MsgType.BOOTSTRAP_REQ, self._round,
                                    self.state.party_id, payload))
        frame = decode_frame(self.link.recv(self.timeout))
        if frame.msg_type != MsgType.BOOTSTRAP_SHARE:
            raise ProtocolError(
                f"expected a bootstrap share, got {frame.msg_type.name}")
        self._require_round(frame, self._round)
        return self._decode_ct(frame.payload)

    def _require_round(self, frame, round_no: int) -> None:
        if frame.round != round_no:
            raise ProtocolError(
                f"party {self.state.party_id} got {frame.msg_type.name} for "
                f"round {frame.round} during round {round_no}")

    def _run_round(self, round_no: int, weight_cts: list) -> None:
        state = self.state
        plan = state.plan
        state.model = ModelState(
            [PackedMatrix(ct, plan.h, plan.h, 1) for ct in weight_cts],
            round_no)
        x, y = state.shard
        rows = state.schedule[round_no][state.party_id]
        trace = local_forward(state, x[rows], bootstrap=self._bootstrap)
        msg = local_backward(state, trace, y[rows], bootstrap=self._bootstrap)
        if self.tally_pipe is not None:
            # Ahead of the gradients, so the server holds the round's tallies
            # once it holds its gradients.  A party meters only in rounds.
            now = state.ctx.meter.snapshot()
            self.tally_pipe.send({k: now[k] - self._reported[k] for k in now})
            self._reported = now
        for g in msg.grads:
            self.link.send(encode_frame(MsgType.GRADIENT, round_no,
                                        state.party_id, encode_ciphertext(g.ct)))

    def handle(self, data: bytes) -> bool:
        """Serve one frame from the server; True once it ends the job."""
        frame = decode_frame(data)
        if frame.msg_type == MsgType.MODEL_BCAST:
            # The party's next round, which every frame of one model must
            # name.
            self._require_round(frame, self._round)
            self._weights.append(self._decode_ct(frame.payload))
            if len(self._weights) == self.state.config.layers:
                weight_cts, self._weights = self._weights, []
                self._run_round(frame.round, weight_cts)
                self._round += 1
        elif frame.msg_type == MsgType.KEYSWITCH_REQ:
            self._require_round(frame, self.state.config.global_iters)
            # The request carries the collective-key ciphertext being
            # re-keyed; the party answers with its consent share, which
            # names the request by its place in the stream.
            self._decode_ct(frame.payload)
            self.link.send(encode_frame(
                MsgType.KEYSWITCH_SHARE, frame.round, self.state.party_id,
                encode_share_index(self._requests)))
            self._requests += 1
        elif frame.msg_type == MsgType.DONE:
            # The server names the round it ended at, which is the party's
            # once it has run every round.
            self._require_round(frame, self._round)
            return True
        else:
            raise ProtocolError(f"party {self.state.party_id} cannot handle "
                                f"{frame.msg_type.name}")
        return False

    def run(self) -> None:
        try:
            while not self.handle(self.link.recv(self.timeout)):
                pass
        except BaseException as exc:  # surfaced by the server loop
            self.error = exc

    def serve(self) -> None:
        """Handle the frames queued for the party until it ends the job.

        A party that fails keeps its error and closes its link, which the
        server's handler sees; it handles no frame after that.
        """
        try:
            while self.error is None and self.link.pending():
                if self.handle(self.link.recv(self.timeout)):
                    return
        except Exception as exc:  # surfaced by the server loop
            self.error = exc
            self.link.close()


class ServerRuntime:
    """Server side: broadcast, collect, aggregate, finalize.

    ``_handle`` serves every party frame: it answers refresh requests and
    files gradients and key-switch shares.  ``parties`` are the in-process
    ``PartyRuntime``s: whenever the server would wait, and once it has sent
    ``DONE``, it first runs each of them in turn on its own thread over the
    frames queued for it, and an in-process link calls the handler as the
    party sends.  A TCP link has a reader thread, started by ``start``, that
    calls it on each frame it reads.  A frame the handler refuses, or a link
    that fails or closes, wakes the waiting server unless the server is
    shutting down, and the link is served no more; the server then closes
    that link, so a party waiting on it ends, and raises ``ProtocolError``
    from the party's own error, which ``party_failure(pid)`` returns
    (``None`` when the party reports none); the message names the link's
    error at the server as well, such as the reason a frame was refused.
    """

    def __init__(self, server: ServerState, links: list,
                 timeout: float = DEFAULT_TIMEOUT, party_failure=None,
                 parties=()):
        self.server = server
        self.links = links
        self.timeout = timeout
        self._party_failure = party_failure or (lambda pid: None)
        self._parties = parties
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._gradients: dict = {}
        self._ks_shares: dict = {}   # party id -> answered requests
        self._link_errors: list = []
        self._closing = False
        self._readers = []
        for pid, link in enumerate(links):
            if isinstance(link, QueueLink):
                link.attach(functools.partial(self._deliver, pid))
            else:
                self._readers.append(threading.Thread(
                    target=self._read_loop, args=(pid,), daemon=True))

    # ---------------------------------------------------------------- wiring

    def start(self) -> None:
        for t in self._readers:
            t.start()

    def _read_loop(self, pid: int) -> None:
        link = self.links[pid]
        try:
            while True:
                # No timeout: a party may rightly be silent for as long as
                # the server waits; the link's close ends the loop.
                self._handle(pid, link.server_recv())
        except BaseException as exc:
            self._fail(pid, exc)

    def _deliver(self, pid: int, data: bytes | None) -> bool:
        """Serve one frame an in-process party sent, during its turn on the
        server's thread, ``None`` for the link's close; False once the link
        is served no more."""
        try:
            if data is None:
                raise TransportError("channel to server closed")
            self._handle(pid, data)
        except BaseException as exc:
            self._fail(pid, exc)
            return False
        return True

    def _fail(self, pid: int, exc: BaseException) -> None:
        if self._closing and isinstance(exc, (TransportError, WireError)):
            return  # the link closed at shutdown
        with self._arrived:
            self._link_errors.append((pid, exc))
            self._arrived.notify_all()

    def _handle(self, pid: int, data: bytes) -> None:
        frame = decode_frame(data)
        # A link speaks only for the party it was opened for.
        if frame.party_id != pid:
            raise ProtocolError(
                f"{frame.msg_type.name} on party {pid}'s link claims "
                f"party {frame.party_id}")
        now = self.server.model.iteration
        if (frame.msg_type in (MsgType.BOOTSTRAP_REQ, MsgType.GRADIENT,
                               MsgType.KEYSWITCH_SHARE)
                and frame.round != now):
            raise ProtocolError(
                f"{frame.msg_type.name} for round {frame.round} while "
                f"the server is at round {now}")
        if frame.msg_type == MsgType.BOOTSTRAP_REQ:
            ct = decode_ciphertext(frame.payload, self.server.ctx)
            out = self.server.ctx.dbootstrap(ct, self.server.ctx.parties)
            self.links[pid].server_send(encode_frame(
                MsgType.BOOTSTRAP_SHARE, frame.round, SERVER_ID,
                encode_ciphertext(out)))
        elif frame.msg_type == MsgType.GRADIENT:
            ct = decode_ciphertext(frame.payload, self.server.ctx)
            with self._arrived:
                self._gradients.setdefault((frame.round, pid), []).append(ct)
                self._arrived.notify_all()
        elif frame.msg_type == MsgType.KEYSWITCH_SHARE:
            # One share answers one weight's request, which it names; the
            # requests follow the last round.
            if now < self.server.config.global_iters:
                raise ProtocolError(f"party {pid} sent a key-switch share "
                                    f"during round {now}")
            index = decode_share_index(frame.payload)
            layers = self.server.config.layers
            if index >= layers:
                raise ProtocolError(
                    f"party {pid} answered key-switch request {index}, but "
                    f"the model has {layers} weights")
            with self._arrived:
                answered = self._ks_shares.setdefault(pid, set())
                if index in answered:
                    raise ProtocolError(
                        f"party {pid} answered key-switch request {index} of "
                        f"round {frame.round} twice")
                answered.add(index)
                self._arrived.notify_all()
        else:
            raise ProtocolError(f"server cannot handle {frame.msg_type.name}")

    def _serve_parties(self) -> None:
        # Outside the arrival lock, which the handler takes as it files.
        for party in self._parties:
            party.serve()

    def _wait(self, done, timeout_error) -> None:
        """Run the in-process parties, then wait until ``done()`` holds
        (under the arrival lock).

        Raises ``ProtocolError`` once a link has failed, and
        ``TransportError(timeout_error())`` after ``timeout`` s without news.
        """
        self._serve_parties()
        with self._arrived:
            while not self._link_errors and not done():
                if not self._arrived.wait(self.timeout):
                    raise TransportError(timeout_error())
            failed = self._link_errors[:1]
        if failed:
            (pid, exc), = failed
            self.links[pid].close()
            err = self._party_failure(pid)
            if err is not None:
                # Name the server's side too: when the server refused a
                # frame, the party's error is only what followed from it.
                raise ProtocolError(f"party {pid} failed: {err!r}; the "
                                    f"server's end of its link: {exc!r}"
                                    ) from err
            raise ProtocolError(f"party {pid} link failed: {exc}") from exc

    def broadcast_model(self, round_no: int) -> None:
        for link in self.links:
            for w in self.server.model.weights:
                link.server_send(encode_frame(
                    MsgType.MODEL_BCAST, round_no, SERVER_ID,
                    encode_ciphertext(w.ct)))

    def collect_gradients(self, round_no: int) -> list:
        config = self.server.config
        layers = config.layers

        def missing():
            return [p for p in range(config.party_count)
                    if len(self._gradients.get((round_no, p), [])) < layers]
        self._wait(lambda: not missing(), lambda: (
            f"round {round_no} timed out waiting for parties {missing()}"))
        plan = self.server.plan
        with self._arrived:
            cts = [self._gradients.pop((round_no, p))
                   for p in range(config.party_count)]
        return [GradientMsg(p, round_no, [PackedMatrix(ct, plan.h, plan.h, 1)
                                          for ct in party_cts])
                for p, party_cts in enumerate(cts)]

    def finalize_over_wire(self) -> list:
        config = self.server.config
        round_no = self.server.model.iteration
        for link in self.links:
            for w in self.server.model.weights:
                link.server_send(encode_frame(
                    MsgType.KEYSWITCH_REQ, round_no, SERVER_ID,
                    encode_ciphertext(w.ct)))

        def acked():
            # Every party consents to re-key every weight, or none is.
            return all(len(self._ks_shares.get(p, ())) == config.layers
                       for p in range(config.party_count))
        self._wait(acked, lambda: "key switch timed out")
        parties = self.server.ctx.parties
        with self._arrived:
            roster = [parties[p] for p in sorted(self._ks_shares)]
        return finalize(self.server, roster)

    def shutdown(self) -> None:
        """Tell every party the job is over, and let each in-process party
        read it; from now on a closing link is no failure."""
        self._closing = True
        for link in self.links:
            try:
                link.server_send(encode_frame(MsgType.DONE,
                                              self.server.model.iteration,
                                              SERVER_ID))
            except Exception:
                pass
        self._serve_parties()

    def close(self) -> None:
        """Close every server-side link, which detaches the handler from an
        in-process one, and wait for the readers to end."""
        self._closing = True
        for link in self.links:
            link.close()
        for t in self._readers:
            if t.is_alive():
                t.join(_REAP_S)


class _PartyProcess:
    """A party in a forked child process, over a TCP link.

    The child runs on its forked copy of the party's state and context, that
    party's own replica.  It first closes ``inherited``, the parent's
    descriptors it holds copies of, with ``close``: a ``shutdown`` would end
    the connection for the parent too.  It sends its tallies, then any
    error, over a one-way pipe, and ends with ``os._exit``, so no exit
    handler of the parent's runs in it.  Fork is used because the copy is
    the replica; the parent holds no other thread of the job while it forks.
    """

    def __init__(self, state: PartyState, link, timeout: float, inherited: list):
        import multiprocessing  # here: only TCP jobs pay for the import
        fork = multiprocessing.get_context("fork")
        self.pipe, child_end = fork.Pipe(duplex=False)
        self._proc = fork.Process(
            target=_serve_party, daemon=True,
            args=(state, link, timeout, child_end, inherited + [self.pipe]))
        try:
            self._proc.start()
        finally:
            child_end.close()
        self._error: BaseException | None = None
        self._stopped = False

    def book_round(self, ctx: CryptoContext) -> None:
        # The party sent the round's tallies before its gradients, which
        # the server already holds, so this read does not wait.
        ctx.book_tallies(self.pipe.recv())

    def failure(self) -> BaseException | None:
        """The party's error; reaps the child (see ``stop``) to read it."""
        self.stop()
        return self._error

    def stop(self) -> None:
        """Wait ``_REAP_S`` for the child to end, kill it if it has not, reap
        it and keep its error: the one it reported, else a non-zero exit."""
        if self._stopped:
            return
        self._stopped = True
        self._proc.join(_REAP_S)
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()
        try:
            while self.pipe.poll():
                msg = self.pipe.recv()
                if isinstance(msg, BaseException):
                    self._error = msg
        except EOFError:
            pass
        if self._error is None and self._proc.exitcode != 0:
            self._error = ChildProcessError(
                f"party process exited with code {self._proc.exitcode}")
        self.pipe.close()
        self._proc.close()


def _serve_party(state: PartyState, link, timeout: float, pipe,
                 inherited: list) -> None:
    """Body of a party's child process; see ``_PartyProcess``."""
    code = 1
    try:
        for end in inherited:
            end.close()
        runtime = PartyRuntime(state, link, timeout, tally_pipe=pipe)
        runtime.run()
        if runtime.error is None:
            code = 0
        else:
            pipe.send(_portable(runtime.error))
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError``
    that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _features(x, name: str) -> np.ndarray:
    """``x`` as a float64 array of finite features, else ``ProtocolError``."""
    try:
        return check_finite(np.asarray(x, dtype=np.float64), name)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _class_labels(y, classes: int, name: str) -> np.ndarray:
    """``y`` as int64 class indices in ``[0, classes)``, else ``ProtocolError``."""
    try:
        y = check_labels(y, name)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    if len(y) and y.max() >= classes:
        raise ProtocolError(f"{name} holds label {y.max()}, but the model "
                            f"has {classes} classes")
    return y


@dataclass
class TrainingResult:
    final_weights: list          # logical (unpadded) numpy arrays
    metrics: dict
    ct_trajectory: list          # per-round decoded padded weights
    mirror_trajectory: list      # per-round mirror padded weights
    mirror_final: list
    exact_final_accuracy: float
    accuracy_delta: float
    context: CryptoContext


def run_training(config: TrainingConfig, party_datasets, transport: str = "in_process",
                 test_set=None, timeout: float = DEFAULT_TIMEOUT) -> TrainingResult:
    """Run the full synchronous protocol and return model, metrics, oracles.

    ``party_datasets`` is one (features, labels) pair per party.  The metrics
    report carries per-round train/test accuracy, cumulative meter snapshots
    of every node and byte accounting; a plaintext run with ideal
    activations on the same seed supplies the accuracy-gap figure.

    With ``transport="tcp"`` every party runs in a child process forked
    after its links open and before any server reader starts, which needs a
    platform with ``fork``; ``"in_process"`` runs them in turn on the
    calling thread and starts no thread.  A party that fails makes the job
    raise ``ProtocolError`` from the party's error without waiting out
    ``timeout``, which bounds the wait for a silent party.  No child
    outlives the call: each is joined, and killed if it has not ended within
    10 s of the job's end.  Features that are not finite and labels that
    are not integers in ``[0, config.neurons[-1])``, in a shard or the test
    set, raise ``ProtocolError`` before any party starts.
    """
    if len(party_datasets) != config.party_count:
        raise ProtocolError(
            f"{len(party_datasets)} datasets for {config.party_count} parties")
    classes = config.neurons[-1]
    shards = [(_features(x, f"party {p}'s x"),
               _class_labels(y, classes, f"party {p}'s y"))
              for p, (x, y) in enumerate(party_datasets)]
    feature_dim = shards[0][0].shape[1]
    for x, y in shards:
        if x.shape[1] != feature_dim:
            raise ProtocolError("feature dimensions differ across parties")
        if len(x) != len(y):
            raise ProtocolError("feature/label row counts differ")
        if len(x) < 1:
            raise ProtocolError("every party needs at least one sample")
    if test_set is not None:
        test_x = _features(test_set[0], "the test set's x")
        test_y = _class_labels(test_set[1], classes, "the test set's y")
        if test_x.shape[1:] != (feature_dim,):
            raise ProtocolError("test set feature dimension differs from "
                                "the parties'")

    server, parties = prepare(config, feature_dim)
    plan = server.plan
    schedule = build_schedule(config, [len(x) for x, _ in shards])
    for p, state in enumerate(parties):
        state.shard = shards[p]
        state.schedule = schedule

    padded_init = decode_model(server)
    mirror = PlainPipeline(config, plan, padded_init, shards, schedule)
    exact_ref = PlainPipeline(config, plan, padded_init, shards, schedule,
                              exact_activation=True)

    train_x = np.concatenate([x for x, _ in shards])
    train_y = np.concatenate([y for _, y in shards])
    if test_set is None:
        test_x, test_y = train_x[:0], train_y[:0]
    poly_act = PlainActivation(config.activation)

    if transport == "in_process":
        server_links, party_links, acct = open_in_process_links(
            config.party_count)
    elif transport == "tcp":
        server_links, party_links, acct = open_tcp_links(
            config.party_count, max_frame_body(server.ctx.slot_count))
    else:
        raise ProtocolError(f"unknown transport {transport!r}")

    # In process, the server runs every party on its own thread; over TCP,
    # each party runs in a child of its own.
    local = ([PartyRuntime(state, party_links[p], timeout)
              for p, state in enumerate(parties)]
             if transport == "in_process" else [])
    hosts: list = []

    def failure(p: int) -> BaseException | None:
        return local[p].error if local else hosts[p].failure()
    srv = ServerRuntime(server, server_links, timeout, party_failure=failure,
                        parties=local)
    rounds = []
    ct_traj = []
    mirror_traj = []
    prev_tx = prev_rx = 0
    try:
        for p, state in enumerate(() if local else parties):
            inherited = [*(h.pipe for h in hosts),
                         *(link.sock for link in server_links + party_links
                           if link is not party_links[p])]
            hosts.append(_PartyProcess(state, party_links[p], timeout,
                                       inherited))
            party_links[p].sock.close()   # the child's end now
        srv.start()
        for r in range(config.global_iters):
            srv.broadcast_model(r)
            msgs = srv.collect_gradients(r)
            for host in hosts:
                host.book_round(server.ctx)
            aggregate(server, msgs)
            mirror.step()
            exact_ref.step()

            decoded = decode_model(server)
            ct_traj.append(decoded)
            mirror_traj.append([w.copy() for w in mirror.weights])
            tx, rx = acct.totals()
            rounds.append({
                "round": r,
                "train_acc": accuracy_with_weights(decoded, plan, poly_act,
                                                   train_x, train_y),
                "test_acc": accuracy_with_weights(decoded, plan, poly_act,
                                                  test_x, test_y),
                "ops": server.ctx.meter.snapshot(),
                "bytes_tx": tx - prev_tx,
                "bytes_rx": rx - prev_rx,
            })
            prev_tx, prev_rx = tx, rx
        final = srv.finalize_over_wire()
    finally:
        srv.shutdown()
        for host in hosts:
            host.stop()
        srv.close()
        for link in party_links:
            link.close()
    for p in range(config.party_count):
        err = failure(p)
        if err is not None:
            raise ProtocolError(f"party {p} failed") from err

    # finalize leaves server.model as the last round decoded it.
    last = rounds[-1]
    if len(test_x):
        eval_x, eval_y, final_acc = test_x, test_y, last["test_acc"]
    else:
        eval_x, eval_y, final_acc = train_x, train_y, last["train_acc"]
    exact_acc = exact_ref.accuracy(eval_x, eval_y)
    tx, rx = acct.totals()
    metrics = {
        "transport": transport,
        "parties": config.party_count,
        "rounds": rounds,
        "final": {
            "train_acc": last["train_acc"],
            "test_acc": last["test_acc"],
            "accuracy": final_acc,
            "exact_activation_accuracy": exact_acc,
            "accuracy_delta": abs(final_acc - exact_acc),
            "bytes_tx_total": tx,
            "bytes_rx_total": rx,
            "ops_total": server.ctx.meter.snapshot(),
        },
    }
    return TrainingResult(final, metrics, ct_traj, mirror_traj,
                          [w.copy() for w in mirror.weights],
                          exact_acc, abs(final_acc - exact_acc), server.ctx)
