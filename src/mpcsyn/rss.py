"""Three-party replicated secret sharing over Z_{2^64}.

A value x is split as x = c0 + c1 + c2 (mod 2^64); party i holds the pair
(c_i, c_{i+1 mod 3}). Any two parties can reconstruct, a single party's
view is uniform. The engine simulates the three parties in one process:
a ShareVec stores all three parties' pairs in one (3, 2, *shape) uint64
array, so each party's copy of a component is its own slot, and every
interactive step moves data through an explicit logged message, so
transcripts reflect the real communication pattern (3 messages per
multiplication, 0 for linear work).

Everything is vectorized: local operations are single numpy calls on the
whole share array, protocols batch elementwise, and message sizes are 8
bytes per element. Comparison and truncation recover their borrow bits
with a log-depth parallel-prefix network (``prefix_scan``), so a 64-bit
borrow costs 6 rounds instead of 64.

``PlainEngine`` exposes the identical operation surface on plaintext
words. It is the trusted-aggregator (cdp) backend: same fixed-point
semantics, same DP-level randomness streams, no communication. Because
the two engines share the "noise"-purpose randomness streams and all
revealed MPC values are deterministic in the inputs (masks and resharing
randomness cancel), running the same protocol code on either engine
yields bit-identical results.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fixed import F, HALF, as_word, decode, encode, trunc_word

U64 = np.uint64
MASK64 = 0xFFFFFFFFFFFFFFFF


def _wrapping(fn):
    """Ring arithmetic wraps mod 2^64 by design; numpy's scalar-overflow
    warning (which fires on 0-d operands) is noise here."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return inner


def _as_shape(shape) -> tuple[int, ...]:
    return (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)


def _lift(a: np.ndarray, lead: int, ndim: int) -> np.ndarray:
    """View of ``a`` with unit axes inserted after its ``lead`` leading axes,
    so its data axes number at least ``ndim`` (numpy broadcasting aligns
    trailing axes, which would otherwise pair data axes with the lead)."""
    extra = ndim - (a.ndim - lead)
    if extra <= 0:
        return a
    return a.reshape(a.shape[:lead] + (1,) * extra + a.shape[lead:])


# purpose tags for pairwise PRF streams (numpy Philox, keyed by
# (master seed, purpose, pair)). Purposes are separated so that the
# DP-level "noise" stream is consumed identically by the mpc and cdp
# backends regardless of how many masked openings the mpc side performs.
_PURPOSE_ZERO_SHARE = 0
_PURPOSE_MASK = 1
_PURPOSE_NOISE = 2
_PURPOSE_INPUT = 3


class IntegrityError(RuntimeError):
    """Replicated copies of a share component disagree."""


class DegenerateInputError(ValueError):
    """A protocol input is outside its usable domain (e.g. all-zero weights)."""


class RangeContractError(ValueError):
    """A value breaks a primitive's documented range contract."""


# scale_pub's contract: |value| and |value * c| stay below this
SCALE_PUB_LIMIT = 2.0**15


def check_width(nbits: int) -> None:
    """Reject a mask or equality width outside [1, 64] bits."""
    if not 1 <= nbits <= 64:
        raise ValueError(f"mask width {nbits} outside [1, 64]")


def _philox(master_seed: int, purpose: int, idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(purpose, idx))
    return np.random.Generator(np.random.Philox(ss))


class Transcript:
    """Message and primitive-invocation accounting for one engine run.

    Aggregates are always kept (message/byte totals per directed channel
    and per protocol scope, monotone counters). Full ordered message
    records are stored only when recording is enabled, for the
    shape-invariance tests.
    """

    def __init__(self, record_messages: bool = False):
        self.counters: dict[str, int] = {}
        self.msg_count = 0
        self.byte_count = 0
        self.rounds = 0
        # keyed by (sender, receiver); summary() names them "s->r"
        self.channels: dict[tuple[int, int], dict[str, int]] = {}
        self.scopes: dict[str, dict[str, int]] = {}
        self.records: list[tuple[int, str, int, int, int]] | None = (
            [] if record_messages else None
        )

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(k)

    def log_message(self, scope: str, sender: int, receiver: int, nbytes: int) -> None:
        self.msg_count += 1
        self.byte_count += nbytes
        entry = self.channels.setdefault((sender, receiver), {"messages": 0, "bytes": 0})
        entry["messages"] += 1
        entry["bytes"] += nbytes
        sc = self.scopes.setdefault(scope, {"messages": 0, "bytes": 0})
        sc["messages"] += 1
        sc["bytes"] += nbytes
        if self.records is not None:
            self.records.append((self.rounds, scope, sender, receiver, nbytes))

    def next_round(self) -> None:
        self.rounds += 1

    def summary(self) -> dict:
        return {
            "messages": self.msg_count,
            "bytes": self.byte_count,
            "rounds": self.rounds,
            "channels": dict(sorted((f"{s}->{r}", dict(v))
                                    for (s, r), v in self.channels.items())),
            "counters": dict(sorted(self.counters.items())),
            "scopes": {k: dict(v) for k, v in sorted(self.scopes.items())},
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.summary(), **kwargs)


@dataclass(frozen=True)
class ShareVec:
    """Replicated sharing of an array, held as one (3, 2, *shape) array.

    ``data[i, k]`` is party i's copy of component c_{i+k mod 3}, so
    pairs[i] = (c_i, c_{i+1}) at party i. ``pairs``, ``shape`` and ``size``
    are derived views: writing through ``pairs[i][k]`` changes party i's
    copy only, and the other holder's copy of that component stays as it
    was.
    """

    data: np.ndarray

    @property
    def pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        d = self.data
        return tuple((d[i, 0], d[i, 1]) for i in range(3))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[2:]

    @property
    def size(self) -> int:
        return self.data.size // 6


@dataclass(frozen=True)
class PlainVec:
    """Plaintext counterpart of ShareVec used by the cdp backend."""

    raw: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.raw.shape

    @property
    def size(self) -> int:
        return int(self.raw.size)


class _EngineBase:
    """Operation surface shared by the MPC engine and the plaintext engine.

    Subclasses provide the representation-specific pieces; everything
    expressed in terms of those (public scaling, uniform draws, linear
    combinations) lives here once so both backends cannot drift apart.
    """

    is_plain: bool

    def __init__(self, seed: int, record_messages: bool = False):
        self.seed = int(seed)
        self.transcript = Transcript(record_messages)
        self._scope_stack: list[str] = ["top"]
        self._noise_streams = [_philox(self.seed, _PURPOSE_NOISE, p) for p in range(3)]
        self._injected_uniform: list[int] = []
        self._injected_bits: list[int] = []

    # -- scopes / accounting -------------------------------------------------

    @property
    def scope_name(self) -> str:
        return self._scope_stack[-1]

    @contextmanager
    def scope(self, name: str):
        self._scope_stack.append(name)
        try:
            yield
        finally:
            self._scope_stack.pop()

    def count(self, name: str, k: int) -> None:
        self.transcript.count(name, k)

    # -- test hooks ----------------------------------------------------------

    def inject_uniform(self, values) -> None:
        """Queue uniform draws (reals in [0,1) or raw grid words) for tests."""
        for v in values:
            if isinstance(v, (int, np.integer)):
                raw = int(v)
            else:
                raw = int(float(v) * (1 << F))
            if not 0 <= raw < (1 << F):
                raise ValueError("injected uniform outside [0,1)")
            self._injected_uniform.append(raw)

    def inject_bits(self, bits) -> None:
        for b in bits:
            if int(b) not in (0, 1):
                raise ValueError("injected bit must be 0 or 1")
            self._injected_bits.append(int(b))

    def _pop_injected(self, queue: list[int], n: int) -> np.ndarray | None:
        if not queue:
            return None
        if len(queue) < n:
            raise ValueError("injected stream shorter than one draw request")
        vals = [queue.pop(0) for _ in range(n)]
        return np.array(vals, dtype=U64)

    # -- representation-specific hooks ---------------------------------------

    def const_vec(self, raws):
        raise NotImplementedError

    def mul_const_int(self, x, c):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def trunc(self, x, g: int = F):
        raise NotImplementedError

    def _embed_public(self, raws: np.ndarray):
        raise NotImplementedError

    def _xor3(self, b0, b1, b2):
        """Combine the three pairwise PRF bit arrays into one shared bit."""
        raise NotImplementedError

    # -- shared randomness ----------------------------------------------------

    def rand_bit(self, shape):
        """Shared uniform bits, unknown to every single party (noise purpose)."""
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        self.count("rand_bit", n)
        inj = self._pop_injected(self._injected_bits, n)
        if inj is not None:
            return self._embed_public(inj.reshape(shape))
        draws = [g.integers(0, 2, size=shape, dtype=U64) for g in self._noise_streams]
        return self._xor3(*draws)

    def rand_uniform01(self, shape):
        """Shared uniform fixed-point value on {k * 2^-F : 0 <= k < 2^F}."""
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        inj = self._pop_injected(self._injected_uniform, n)
        if inj is not None:
            self.count("rand_bit", F * n)
            return self._embed_public(inj.reshape(shape))
        bits = self.rand_bit((F,) + shape)
        weights = (np.uint64(1) << np.arange(F, dtype=U64)).reshape((F,) + (1,) * len(shape))
        return self.sum_axis(self.mul_const_int(bits, weights), axis=0)

    # -- generic derived operations -------------------------------------------

    def zeros(self, shape):
        shape = _as_shape(shape)
        return self.const_vec(np.zeros(shape, dtype=U64))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        return self.mul_const_int(x, -1)

    def add_const(self, x, raws):
        return self.add(x, self.const_vec(np.broadcast_to(as_word(raws), x.shape)))

    def sub_const(self, x, raws):
        return self.add_const(x, np.uint64(0) - as_word(raws))

    def linear(self, coeffs, inputs, const: float = 0.0):
        """Share of sum(c_i * x_i) + const, computed locally (0 messages).

        Coefficients must be integer-valued: exact public scaling by a
        non-integer requires an interactive truncation, which scale_pub
        provides separately.
        """
        if len(coeffs) != len(inputs):
            raise ValueError("coeffs and inputs length mismatch")
        acc = None
        for c, x in zip(coeffs, inputs):
            cf = float(c)
            if cf != int(cf):
                raise ValueError("linear() coefficients must be integer-valued")
            term = self.mul_const_int(x, int(cf))
            acc = term if acc is None else self.add(acc, term)
        base = self.const_vec(np.broadcast_to(encode(float(const)), acc.shape if acc is not None else ()))
        return base if acc is None else self.add(acc, base)

    def scale_pub(self, x, c: float):
        """Multiply by a public real constant, exact to < 2^-31.

        Integer constants are exact and local; otherwise the encoded
        constant is split into two 16-bit limbs, each applied by a local
        integer multiply followed by a truncation. Contract: |value| < 2^15
        and |value * c| < 2^15 (enough for count-scale pipeline data); the
        plaintext engine raises ``RangeContractError`` when it is broken.
        """
        cf = float(c)
        if cf == int(cf):
            return self.mul_const_int(x, int(cf))
        mag = abs(cf)
        c_raw = int(encode(mag))
        hi, lo = c_raw >> 16, c_raw & 0xFFFF
        y = self.trunc(self.mul_const_int(x, hi), 16)
        if lo:
            y = self.add(y, self.trunc(self.mul_const_int(x, lo), F))
        return self.neg(y) if cf < 0 else y

    # -- layout helpers (linear, local, message-free) --------------------------
    #
    # ``_layout`` applies fn to the whole representation array, whose first
    # ``_lead`` axes are not data axes (0 for plaintext words, 2 for the
    # (party, slot) axes of a share), so the helpers shift axes and keys
    # past them.

    _lead = 0

    def _layout(self, fn, *vecs):
        raise NotImplementedError

    def _axis(self, axis: int) -> int:
        return axis + self._lead if axis >= 0 else axis

    def reshape(self, x, shape):
        lead, shape = self._lead, _as_shape(shape)
        return self._layout(lambda a: a.reshape(a.shape[:lead] + shape), x)

    def broadcast_to(self, x, shape):
        lead, shape = self._lead, _as_shape(shape)
        return self._layout(
            lambda a: np.broadcast_to(_lift(a, lead, len(shape)), a.shape[:lead] + shape).copy(), x
        )

    def index(self, x, key):
        key = (slice(None),) * self._lead + (key if isinstance(key, tuple) else (key,))
        return self._layout(lambda a: a[key], x)

    def stack(self, xs, axis=0):
        axis = self._axis(axis)
        return self._layout(lambda *arrs: np.stack(arrs, axis=axis), *xs)

    def concat(self, xs, axis=0):
        axis = self._axis(axis)
        return self._layout(lambda *arrs: np.concatenate(arrs, axis=axis), *xs)

    def sum_axis(self, x, axis=None):
        if axis is None:
            axis = tuple(range(self._lead, self._lead + len(x.shape)))
        elif isinstance(axis, tuple):
            axis = tuple(self._axis(a) for a in axis)
        else:
            axis = self._axis(axis)
        return self._layout(lambda a: np.sum(a, axis=axis, dtype=U64), x)

    def cumsum_axis(self, x, axis):
        axis = self._axis(axis)
        return self._layout(lambda a: np.cumsum(a, axis=axis, dtype=U64), x)

    def assemble(self, shape, placements):
        """Zero array with rectangles written in: (row_slice, columns, vec)."""
        raise NotImplementedError


def _aligned(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Share arrays of two operands with equally many data axes."""
    if a.ndim != b.ndim:
        nd = max(a.ndim, b.ndim) - 2
        a, b = _lift(a, 2, nd), _lift(b, 2, nd)
    return a, b


def _add_public(data: np.ndarray, raws) -> None:
    """Add public words to a share array in place, under the public-constant
    convention (component c0: party 1's first slot, party 3's second)."""
    data[0, 0, ...] += raws
    data[2, 1, ...] += raws


def _disagreeing(data: np.ndarray, comps) -> int | None:
    """First component among ``comps`` whose two replicated copies differ.

    Component c sits at party c (slot 0) and party c-1 (slot 1)."""
    if np.array_equal(data[:, 0], data[[2, 0, 1], 1]):
        return None
    for c in comps:
        if not np.array_equal(data[c, 0], data[(c + 2) % 3, 1]):
            return c
    return None


_BIT_POS = np.arange(64, dtype=U64)
_BIT_WEIGHTS = np.uint64(1) << _BIT_POS


@functools.lru_cache(maxsize=None)
def _high_weights(g: int) -> np.ndarray:
    """Weights 2^(j-g) for bit positions j >= g, zero below."""
    w = np.zeros(64, dtype=U64)
    w[g:] = _BIT_WEIGHTS[: 64 - g]
    w.flags.writeable = False  # cached: shared by every caller
    return w


class Mpc3Engine(_EngineBase):
    """Deterministic in-process simulator of the three-party protocol."""

    is_plain = False
    _lead = 2

    def __init__(self, seed: int, record_messages: bool = False):
        super().__init__(seed, record_messages)
        self._zero_streams = [_philox(self.seed, _PURPOSE_ZERO_SHARE, p) for p in range(3)]
        self._mask_streams = [_philox(self.seed, _PURPOSE_MASK, p) for p in range(3)]
        self._input_streams = [_philox(self.seed, _PURPOSE_INPUT, p) for p in range(3)]

    # -- plumbing --------------------------------------------------------------

    def _send(self, sender: int, receiver: int, arr: np.ndarray) -> np.ndarray:
        """Move an array from one party to another, logging the message."""
        self.transcript.log_message(
            self.scope_name, sender + 1, receiver + 1, 8 * int(arr.size)
        )
        return arr

    def _from_components(self, c0, c1, c2) -> ShareVec:
        comps = [np.asarray(c, dtype=U64) for c in (c0, c1, c2)]
        data = np.empty((3, 2) + comps[0].shape, dtype=U64)
        for i in range(3):
            data[i, 0] = comps[i]
            data[i, 1] = comps[(i + 1) % 3]
        return ShareVec(data)

    # -- sharing / reconstruction ----------------------------------------------

    @_wrapping
    def share(self, raws, owner: int = 0) -> ShareVec:
        """Owner splits its input into uniform components and distributes pairs."""
        raws = as_word(raws)
        rng = self._input_streams[owner]
        a = rng.integers(0, 1 << 64, size=raws.shape, dtype=U64)
        b = rng.integers(0, 1 << 64, size=raws.shape, dtype=U64)
        comps = [None, None, None]
        comps[owner] = a
        comps[(owner + 1) % 3] = b
        comps[(owner + 2) % 3] = raws - a - b
        self.transcript.next_round()
        for other in ((owner + 1) % 3, (owner + 2) % 3):
            # owner ships party `other` its pair (c_other, c_other+1)
            self._send(owner, other, np.concatenate([comps[other].ravel(), comps[(other + 1) % 3].ravel()]))
        return self._from_components(*comps)

    def const_vec(self, raws) -> ShareVec:
        """Public constant by convention: party 1 contributes it, others zero."""
        raws = as_word(raws)
        data = np.zeros((3, 2) + raws.shape, dtype=U64)
        _add_public(data, raws)
        return ShareVec(data)

    def _embed_public(self, raws: np.ndarray) -> ShareVec:
        return self.const_vec(raws)

    def reconstruct(self, x: ShareVec) -> np.ndarray:
        """Simulator-level reconstruction with the replication tripwire."""
        bad = _disagreeing(x.data, (1, 2, 0))
        if bad is not None:
            raise IntegrityError(f"replicated copies of component {bad} disagree")
        return np.asarray(np.sum(x.data[:, 0], axis=0, dtype=U64))

    def open(self, x: ShareVec, to: int | None = None) -> np.ndarray:
        """Protocol-level opening; ``to=None`` reveals to all parties.

        The receiving party obtains its missing component from both
        holders and cross-checks the copies.
        """
        self.transcript.next_round()
        targets = range(3) if to is None else [to]
        d = x.data
        for p in targets:
            # party p misses c_{p+2}; parties p+1 and p+2 each send their copy
            self._send((p + 1) % 3, p, d[(p + 1) % 3, 1])
            self._send((p + 2) % 3, p, d[(p + 2) % 3, 0])
        bad = _disagreeing(d, [(p + 2) % 3 for p in targets])
        if bad is not None:
            raise IntegrityError(f"opening to party {(bad + 1) % 3 + 1}: component copies disagree")
        p = targets[-1]
        return np.asarray(d[p, 0, ...] + d[p, 1, ...] + d[(p + 1) % 3, 1, ...], dtype=U64)

    # -- local algebra -----------------------------------------------------------

    def _layout(self, fn, *vecs):
        return ShareVec(np.asarray(fn(*(v.data for v in vecs)), dtype=U64))

    def add(self, x: ShareVec, y: ShareVec) -> ShareVec:
        a, b = _aligned(x.data, y.data)
        return ShareVec(a + b)

    def sub(self, x: ShareVec, y: ShareVec) -> ShareVec:
        a, b = _aligned(x.data, y.data)
        return ShareVec(a - b)

    def mul_const_int(self, x: ShareVec, c) -> ShareVec:
        cw = as_word(np.asarray(c))
        return ShareVec(_lift(x.data, 2, cw.ndim) * cw)

    def add_const(self, x: ShareVec, raws) -> ShareVec:
        data = x.data.copy()
        _add_public(data, as_word(raws))
        return ShareVec(data)

    def _bit_sum(self, bits: ShareVec, weights: np.ndarray) -> ShareVec:
        """Share of sum_j weights[j] * bits[j] (local; no full-size temporary)."""
        d = bits.data
        n = int(np.prod(d.shape[3:], dtype=np.int64))
        out = np.matmul(weights, d.reshape(d.shape[:3] + (n,)))
        return ShareVec(out.reshape(d.shape[:2] + d.shape[3:]))

    # -- interactive operations ---------------------------------------------------

    def _add_zero_share(self, w: np.ndarray) -> None:
        """Add party i's share of zero to w[i], in place.

        Party i's share is PRF(pair {i,i+1}) - PRF(pair {i-1,i}).
        """
        for i, g in enumerate(self._zero_streams):
            # raw Philox words: the same stream integers(0, 2**64) yields
            draw = g.bit_generator.random_raw(w.shape[1:])
            w[i, ...] += draw
            w[(i + 1) % 3, ...] -= draw

    def _reshare(self, w: np.ndarray) -> None:
        """Second half of a multiplication, given each party's local product
        term w[i]: mask it with a fresh sharing of zero (in place), then
        party i sends it to party i-1 (one round, 3 messages)."""
        self._add_zero_share(w)
        self.transcript.next_round()
        for i in range(3):
            self._send((i + 1) % 3, i, w[(i + 1) % 3])

    def _mul_impl(self, x: ShareVec, y: ShareVec) -> ShareVec:
        a, b = _aligned(x.data, y.data)
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=U64)
        w = out[:, 0]
        # party i's term x_i y_i + x_i y_{i+1} + x_{i+1} y_i
        np.add(b[:, 0], b[:, 1], out=w)
        w *= a[:, 0]
        w += a[:, 1] * b[:, 0]
        self._reshare(w)
        # new pair at party i = (w_i, w_{i+1})
        out[:2, 1] = w[1:]
        out[2, 1] = w[0]
        return ShareVec(out)

    def mul(self, x: ShareVec, y: ShareVec, count: bool = True) -> ShareVec:
        """Protocol-level multiplication (3 messages, one ring element each way)."""
        if count:
            n = int(np.prod(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64))
            self.count("mul", n)
        return self._mul_impl(x, y)

    def _mul_raw(self, x: ShareVec, y: ShareVec) -> ShareVec:
        """Multiplication internal to another primitive: messages, no counter."""
        return self._mul_impl(x, y)

    def assemble(self, shape, placements) -> ShareVec:
        base = self.zeros(shape)
        for rslice, cols, vec in placements:
            base.data[:, :, rslice, cols] = vec.data
        return base

    def mask_bits(self, shape, nbits: int = 64) -> ShareVec:
        """``nbits`` uniform shared bits per element of ``shape``, stacked on
        a new leading axis (mask purpose streams).

        Each pairwise stream draws one raw 64-bit word per element; the
        word's low ``nbits`` bits are that element's bits from the stream.
        Cost: ``nbits`` ``mask_bit`` per element and two resharings of the
        (nbits, *shape) bits (2 rounds, 6 messages).
        """
        check_width(nbits)
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64))
        self.count("mask_bit", nbits * n)
        pos = _BIT_POS[:nbits].reshape((nbits,) + (1,) * len(shape))
        draws = [(g.bit_generator.random_raw(n).reshape(shape) >> pos) & np.uint64(1)
                 for g in self._mask_streams]
        return self._xor3(*draws)

    def _xor3(self, b0, b1, b2) -> ShareVec:
        """Shared b0 XOR b1 XOR b2 as two shared XORs x + y - 2xy.

        Bit b_p is known to pair {p, p+1} and enters as component p+1, their
        common one, so most components are public zeros. Each product's
        local terms x_i y_i + x_i y_{i+1} + x_{i+1} y_i are computed from
        the nonzero components only; they equal the terms of a general
        multiplication and are reshared the same way.
        """
        # (b0 as c1) * (b1 as c2): only party 2's term x_1 y_2 is nonzero
        w = np.zeros((3,) + b0.shape, dtype=U64)
        np.multiply(b0, b1, out=w[1, ...])
        self._reshare(w)
        t = -(w + w)
        t[1, ...] += b0
        t[2, ...] += b1
        # t * (b2 as c0): party 1's term (t_0 + t_1) y_0, party 3's t_2 y_0
        w = np.zeros_like(t)
        np.multiply(t[0, ...] + t[1, ...], b2, out=w[0, ...])
        np.multiply(t[2, ...], b2, out=w[2, ...])
        self._reshare(w)
        t -= w
        t -= w
        t[0, ...] += b2
        return self._from_components(*t)

    def masked_open(self, x: ShareVec, nbits: int = 64) -> tuple[np.ndarray, ShareVec]:
        """Open x + r for a fresh mask r of width ``nbits``; returns
        (public, bits).

        r = sum_{j < nbits} 2^j bits[j] + 2^nbits R: the low ``nbits`` bits
        are shared bits (``mask_bits``) and R is a ring element whose three
        components come from the pairwise mask streams, so it costs no
        messages (the edaBits construction). The opened word is uniform, so
        it reveals nothing, and its low ``nbits`` bits equal
        (x + sum 2^j bits[j]) mod 2^nbits; the caller extracts what it
        needs from those and the shared bits. Cost: ``nbits`` mask bits
        per element, their two resharings and one opening (3 rounds).
        """
        bits = self.mask_bits(x.shape, nbits)
        r = self._bit_sum(bits, _BIT_WEIGHTS[:nbits])
        if nbits < 64:
            n = int(np.prod(x.shape, dtype=np.int64))
            high = [g.bit_generator.random_raw(n).reshape(x.shape) << np.uint64(nbits)
                    for g in self._mask_streams]
            # stream p is known to pair {p, p+1}: their common component p+1
            r = self.add(r, self._from_components(high[2], high[0], high[1]))
        m = self.open(self.add(x, r))
        return m, bits

    def borrow_taps(self, m: np.ndarray, bits: ShareVec, taps) -> ShareVec:
        """Borrows of (public m) - (shared r), r = sum_j 2^j bits[j].

        Row i of the result is the shared borrow *into* bit taps[i], so tap
        64 is the overall borrow [m < r] and tap 0 is 0. With m public, the
        generate bit g_j = (1 - m_j) r_j and the propagate bit
        p_j = XNOR(m_j, r_j) = (1 - m_j) + (2 m_j - 1) r_j of every position
        are local, and ``prefix_scan`` merges them in ceil(log2 max(taps))
        rounds. The message pattern depends on the taps and the shape,
        never on the data.
        """
        taps = tuple(int(t) for t in taps)
        return prefix_scan(self, _borrow_leaves(m, bits, max(taps)), _borrow_combine, taps)

    @_wrapping
    def trunc(self, x: ShareVec, g: int = F) -> ShareVec:
        """Exact arithmetic right shift by g bits of the shared 64-bit value.

        Mask-and-open construction: with the +2^63 bias, the unsigned
        identity X >> g = (C >> g) - (R >> g) - carry_g + 2^(64-g) * ov
        holds for C = X + R (mod 2^64), carry_g = [C mod 2^g < R mod 2^g],
        ov = [C < R]; both indicator bits come from one borrow network
        (taps g and 64).
        """
        if not 0 < g < 64:
            raise ValueError("shift amount out of range")
        self.count("trunc", x.size)
        biased = self.add_const(x, np.uint64(HALF))
        c_pub, bits = self.masked_open(biased)
        borrows = self.borrow_taps(c_pub, bits, (g, 64)).data
        carry, ov = borrows[:, :, 0], borrows[:, :, 1]
        r_high = self._bit_sum(bits, _high_weights(g)).data
        unbias = np.uint64((1 << (63 - g)) & MASK64)
        pub = (c_pub >> np.uint64(g)) - unbias
        y = ov * (np.uint64(1) << np.uint64(64 - g)) - r_high - carry
        _add_public(y, pub)
        return ShareVec(y)


def _borrow_leaves(m: np.ndarray, bits: ShareVec, n: int) -> ShareVec:
    """(G, P) of bit positions 0..n-1 of (public m) - (shared r), stacked."""
    pos = np.arange(n, dtype=U64).reshape((n,) + (1,) * m.ndim)
    m_bits = (m >> pos) & np.uint64(1)
    keep = np.uint64(1) - m_bits
    coef = np.stack([keep, m_bits + m_bits - np.uint64(1)])
    leaves = bits.data[:, :, np.newaxis, :n] * coef
    _add_public(leaves[:, :, 1], keep)
    return ShareVec(leaves)


def _borrow_combine(eng: Mpc3Engine, hi: ShareVec, lo: ShareVec) -> ShareVec:
    """(G, P)_hi o (G, P)_lo = (G_hi + P_hi G_lo, P_hi P_lo).

    G and P of a span are never both 1, so the OR in the borrow rule is a
    sum. Both products share one multiplication: one level, one round.
    """
    merged = eng._mul_raw(eng.index(hi, slice(1, 2)), lo)
    merged.data[:, :, 0] += hi.data[:, :, 0]
    return merged


@functools.lru_cache(maxsize=None)
def _scan_plan(n: int, taps: tuple[int, ...]):
    """Schedule of ``prefix_scan`` over n leaves for the given taps.

    Table rows 0..n-1 are the leaves and row n the empty prefix. A span
    [a, b) of two or more positions splits at a plus the largest power of
    two below b - a, so its low part is an aligned block that every tap
    covering it shares, and its depth is ceil(log2(b - a)). Returns one
    (hi_rows, lo_rows) pair per depth, whose merges are appended to the
    table in that order, and the table row of each tap's prefix [0, t).
    """
    if any(not 0 <= t <= n for t in taps):
        raise ValueError("tap outside the scanned positions")
    row = {(j, j + 1): j for j in range(n)}
    row[(0, 0)] = n
    split: dict[tuple[int, int], int] = {}

    def need(a: int, b: int) -> None:
        if b - a > 1 and (a, b) not in split:
            s = a + (1 << ((b - a - 1).bit_length() - 1))
            split[(a, b)] = s
            need(a, s)
            need(s, b)

    for t in taps:
        need(0, t)
    depths = sorted({(b - a - 1).bit_length() for a, b in split})
    def frozen(rows: list[int]) -> np.ndarray:  # cached: shared by every caller
        arr = np.array(rows, dtype=np.intp)
        arr.flags.writeable = False
        return arr

    rounds = []
    for d in depths:
        spans = [(a, s, b) for (a, b), s in split.items() if (b - a - 1).bit_length() == d]
        hi = frozen([row[(s, b)] for a, s, b in spans])
        lo = frozen([row[(a, s)] for a, s, b in spans])
        for a, _, b in spans:
            row[(a, b)] = len(row)
        rounds.append((hi, lo))
    return tuple(rounds), frozen([row[(0, t)] for t in taps])


def prefix_scan(eng, leaves, combine, taps):
    """Prefixes of an associative operator over shared leaves, in log depth.

    ``leaves`` has shape (c, n, *shape): n positions, each a c-component
    element. ``combine(eng, hi, lo)`` merges stacked elements of adjacent
    spans (``hi`` covering the higher positions) in one interactive round.
    Returns component 0 of the prefix over positions [0, t) for each t in
    ``taps``, stacked in tap order; the empty prefix (t = 0) is 0, the
    identity's component 0 for both operators used here (borrow and OR).
    The network is a divide-and-conquer (Sklansky-style) prefix network
    pruned to the requested taps; each of its depths is a single batched
    ``combine``, so the whole scan costs ceil(log2 max(taps)) rounds.
    """
    c, n = leaves.shape[:2]
    rounds, out_rows = _scan_plan(n, tuple(taps))
    lead = eng._lead
    rows = n + 1 + sum(len(hi) for hi, _ in rounds)

    # one table, allocated once, holds the leaves, the empty prefix (a zero
    # row) and every merged span; each round fills its rows in place, as a
    # table grown by concatenation would be copied once per round
    def allocate(a):
        t = np.zeros(a.shape[: lead + 1] + (rows,) + a.shape[lead + 2 :], dtype=U64)
        t[(slice(None),) * (lead + 1) + (slice(0, n),)] = a
        return t

    table = eng._layout(allocate, leaves)
    del leaves  # copied into the table; a caller's temporary can go now
    row = n + 1
    for hi, lo in rounds:
        merged = combine(eng, eng.index(table, (slice(None), hi)), eng.index(table, (slice(None), lo)))
        key = (slice(None),) * (lead + 1) + (slice(row, row + len(hi)),)

        def fill(t, m, key=key):
            t[key] = m
            return t

        table = eng._layout(fill, table, merged)
        row += len(hi)
    return eng.index(table, (0, out_rows))


class PlainEngine(_EngineBase):
    """Trusted-aggregator backend: the same surface on plaintext words."""

    is_plain = True

    def share(self, raws, owner: int = 0) -> PlainVec:
        return PlainVec(as_word(raws).copy())

    def const_vec(self, raws) -> PlainVec:
        return PlainVec(as_word(raws).copy())

    def _embed_public(self, raws: np.ndarray) -> PlainVec:
        return PlainVec(raws.copy())

    def reconstruct(self, x: PlainVec) -> np.ndarray:
        return x.raw

    def open(self, x: PlainVec, to: int | None = None) -> np.ndarray:
        return x.raw

    @_wrapping
    def _layout(self, fn, *vecs):
        return PlainVec(np.asarray(fn(*(v.raw for v in vecs)), dtype=U64))

    @_wrapping
    def add(self, x: PlainVec, y: PlainVec) -> PlainVec:
        return PlainVec(x.raw + y.raw)

    @_wrapping
    def mul_const_int(self, x: PlainVec, c) -> PlainVec:
        return PlainVec(x.raw * as_word(np.asarray(c)))

    @_wrapping
    def mul(self, x: PlainVec, y: PlainVec, count: bool = True) -> PlainVec:
        if count:
            n = int(np.prod(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64))
            self.count("mul", n)
        return PlainVec(x.raw * y.raw)

    @_wrapping
    def _mul_raw(self, x: PlainVec, y: PlainVec) -> PlainVec:
        return PlainVec(x.raw * y.raw)

    def _xor3(self, b0, b1, b2) -> PlainVec:
        return PlainVec(b0 ^ b1 ^ b2)

    def trunc(self, x: PlainVec, g: int = F) -> PlainVec:
        self.count("trunc", x.size)
        return PlainVec(trunc_word(x.raw, g))

    def scale_pub(self, x: PlainVec, c: float) -> PlainVec:
        """The engine's ``scale_pub``, failing closed with
        ``RangeContractError`` when a non-integer constant meets a value
        outside its contract (|value| < 2^15 and |value * c| < 2^15).
        The protocol runs the same code on the same values, so a ``cdp``
        run that passes certifies the ``mpc`` run."""
        cf = float(c)
        if cf != int(cf):
            mag = np.abs(decode(x.raw))
            if np.any(mag >= SCALE_PUB_LIMIT) \
                    or np.any(mag * abs(cf) >= SCALE_PUB_LIMIT):
                raise RangeContractError(
                    f"scale_pub by {cf}: a value or its product has "
                    f"magnitude >= 2^15")
        return super().scale_pub(x, c)

    def assemble(self, shape, placements) -> PlainVec:
        base = np.zeros(shape, dtype=U64)
        for rslice, cols, vec in placements:
            base[rslice, cols] = vec.raw
        return PlainVec(base)


def make_engine(backend: str, seed: int, record_messages: bool = False) -> _EngineBase:
    if backend == "mpc":
        return Mpc3Engine(seed, record_messages)
    if backend == "cdp":
        return PlainEngine(seed, record_messages)
    raise ValueError(f"unknown backend {backend!r}")
