"""Three-party replicated secret sharing over Z_{2^64}.

A value x is split as x = c0 + c1 + c2 (mod 2^64); party i holds the pair
(c_i, c_{i+1 mod 3}). Any two parties can reconstruct, a single party's
view is uniform. The engine simulates the three parties in one process:
a ShareVec stores all three parties' pairs in one (3, 2, *shape) uint64
array, so each party's copy of a component is its own slot, and every
interactive step moves data through an explicit message, tallied by
scope and channel, so transcripts reflect the real communication pattern
(3 messages per multiplication, 0 for linear work).

Everything is vectorized: local operations are single numpy calls on the
whole share array, protocols batch elementwise, and message sizes are 8
bytes per element.

Bit-level work runs on packed XOR shares (the mixed arithmetic/binary
sharing of ABY3): the same (3, 2, *shape) layout, read as x = c0 ^ c1 ^ c2,
64 shared bits per word. A masked opening's mask r exists in both forms
for free (edaBits): the pairwise stream words that give its arithmetic
bits are its packed XOR shares. Truncation, bit decomposition and
most-significant-bit one-hots run a Kogge-Stone borrow scan on those
words (a suffix-OR scan follows for the one-hot), one AND round per
level, so a 64-bit borrow costs 6 rounds. daBits, random bits shared both
ways and drawn with the mask bits, turn the wanted bits arithmetic: the
last level's AND is opened together with the daBit as bit ^ daBit, in
the same round. ``_xor_terms`` turns stream bits into additive party
terms with one masked word per bit, and each party sums its terms first
where the caller needs only public weighted sums (truncation's high
part, a uniform draw). A masked opening never makes r a replicated
share: each party adds its component of x to its term of r's word, and
the round that reshares the other rows also sends that term on, so the
opening reveals x + r in 2 rounds.

Ring arithmetic wraps mod 2^64 without any error-state handling: every
ring op is a ufunc call or an operator on an array of at least one
dimension, never operator arithmetic on two numpy scalars, which warns on
overflow (see ``fixed``). Every other weighted sum of shared bits (the
power-of-two factors of the elementary functions, an equality mask's
word) is one ``bit_sum``, a local matmul over axis 0.

``PlainEngine`` exposes the identical operation surface on plaintext
words. It is the trusted-aggregator (cdp) backend: same fixed-point
semantics, same DP-level randomness streams, no communication. Because
the two engines share the "noise"-purpose randomness streams and all
revealed MPC values are deterministic in the inputs (masks and resharing
randomness cancel), running the same protocol code on either engine
yields bit-identical results. It is the plaintext oracle's only home:
it reads directly off the words the bits and equalities that the
protocol computes from masked openings, and it alone evaluates
``require``, where every range contract is checked.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fixed import F, HALF, as_word, decode, encode, trunc_word

U64 = np.uint64
MASK64 = 0xFFFFFFFFFFFFFFFF
_BIT_POS = np.arange(64, dtype=U64)
_BIT_WEIGHTS = np.uint64(1) << _BIT_POS

# glibc mallopt parameters, and the values heap retention sets them to
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


def _retain_heap() -> bool:
    """Keep freed heap pages in the process; True if glibc accepted both.

    Every masked opening allocates fresh arrays. By default glibc serves
    large blocks with mmap and trims the freed heap top, so the next call
    faults the same pages in again. Raising both thresholds keeps freed
    blocks in the heap for reuse. Setting only one of them switches off
    glibc's dynamic thresholds and faults more, so the mmap threshold,
    the one that can be refused, goes first and a refusal changes nothing.
    Any other libc is left as it is.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


_retain_heap()


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
# The pipeline's public synthetic-row sampler draws from its own purpose.
_PURPOSE_ZERO_SHARE = 0
_PURPOSE_MASK = 1
_PURPOSE_NOISE = 2
_PURPOSE_INPUT = 3
PURPOSE_SAMPLE = 4


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

    Monotone counters, the round count and one tally: messages and bytes
    per (scope, sender, receiver), updated once per message. The totals
    and the per-channel and per-scope sums of ``summary`` derive from it.
    """

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.rounds = 0
        # (scope, sender, receiver) -> [messages, bytes]
        self.tally: defaultdict[tuple[str, int, int], list[int]] = defaultdict(lambda: [0, 0])

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(k)

    def log_message(self, scope: str, sender: int, receiver: int, nbytes: int) -> None:
        entry = self.tally[(scope, sender, receiver)]
        entry[0] += 1
        entry[1] += nbytes

    @property
    def msg_count(self) -> int:
        return sum(m for m, _ in self.tally.values())

    @property
    def byte_count(self) -> int:
        return sum(b for _, b in self.tally.values())

    def next_round(self) -> None:
        self.rounds += 1

    def summary(self) -> dict:
        channels, scopes = {}, {}
        for (scope, s, r), (m, b) in self.tally.items():
            for group, key in ((channels, f"{s}->{r}"), (scopes, scope)):
                entry = group.setdefault(key, {"messages": 0, "bytes": 0})
                entry["messages"] += m
                entry["bytes"] += b
        return {"messages": self.msg_count, "bytes": self.byte_count, "rounds": self.rounds,
                "channels": dict(sorted(channels.items())),
                "counters": dict(sorted(self.counters.items())),
                "scopes": dict(sorted(scopes.items()))}


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


@dataclass(frozen=True)
class Mask:
    """The mask r of a masked opening, shared two ways, and its daBits.

    Row i of ``rows`` is an arithmetic share of the weighted sum of r's
    low ``nbits`` bits by row i of the opening's ``weights``, stacked on a
    new leading axis (identity weights give the bits themselves). A mask
    drawn with daBits also holds ``word``, r's bits packed 64 to a word,
    one word per element, in the ShareVec layout read as XOR shares
    (x = c0 ^ c1 ^ c2): the pairwise stream words are its components, so
    it costs nothing (the edaBits construction). A daBit is a random bit
    shared both ways: row i of ``dabits`` is an arithmetic share of bit
    ``dabit_pos[i]`` of the packed ``dabit_word``. A daBit masks one
    opened bit and is used once.
    """

    rows: ShareVec
    dabit_pos: tuple[int, ...] = ()
    dabits: ShareVec | None = None
    word: ShareVec | None = None
    dabit_word: ShareVec | None = None


class _EngineBase:
    """Operation surface shared by the MPC engine and the plaintext engine.

    Subclasses provide the representation-specific pieces; everything
    expressed in terms of those (public scaling, uniform draws, layout
    helpers) lives here once so both backends cannot drift apart.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.transcript = Transcript()
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

    def _xor3(self, b0, b1, b2, weights=None):
        """Combine the three pairwise PRF bit arrays into shared bits, or
        into the sums ``_weigh`` makes of them."""
        raise NotImplementedError

    def require(self, x, ok, what: str) -> None:
        """Range-contract check: raise ``RangeContractError(what)`` unless
        the predicate ``ok`` holds for every word of x. Only the plaintext
        engine sees words; the protocol cannot and checks nothing."""
        raise NotImplementedError

    # -- shared randomness ----------------------------------------------------

    def rand_bit(self, shape, weights=None):
        """Shared uniform bits, unknown to every single party (noise purpose),
        or with ``weights`` the sums ``_weigh`` makes of them."""
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        self.count("rand_bit", n)
        inj = self._pop_injected(self._injected_bits, n)
        if inj is not None:
            return self.const_vec(_weigh(inj.reshape(shape), weights, 0))
        draws = [g.integers(0, 2, size=shape, dtype=U64) for g in self._noise_streams]
        return self._xor3(*draws, weights)

    def rand_uniform01(self, shape):
        """Shared uniform fixed-point value on {k * 2^-F : 0 <= k < 2^F}:
        F random bits, summed with weights 2^j before their resharing."""
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        inj = self._pop_injected(self._injected_uniform, n)
        if inj is not None:
            self.count("rand_bit", F * n)
            return self.const_vec(inj.reshape(shape))
        return self.index(self.rand_bit((F,) + shape, _BIT_WEIGHTS[None, :F]), 0)

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

    def scale_pub(self, x, c: float):
        """Multiply by a public real constant, exact to < 2^-31.

        Integer constants are exact and local; otherwise the encoded
        constant is split into two 16-bit limbs, each applied by a local
        integer multiply followed by a truncation. Contract: |value| < 2^15
        and |value * c| < 2^15 (enough for count-scale pipeline data),
        checked by ``require``. The protocol runs the same code on the same
        values, so a ``cdp`` run that passes certifies the ``mpc`` run.
        """
        cf = float(c)
        if cf == int(cf):
            return self.mul_const_int(x, int(cf))
        mag = abs(cf)
        self.require(x, lambda w: np.abs(decode(w)) * max(1.0, mag) < SCALE_PUB_LIMIT,
                     f"scale_pub by {cf}: a value or its product has magnitude >= 2^15")
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

    def sum_segments(self, x, starts):
        """Sums along axis 0 over the runs starting at the strictly
        increasing ``starts``, each to the next start (the last to the
        end): one pass, the same words as one ``sum_axis`` per run."""
        axis = self._axis(0)
        return self._layout(
            lambda a: np.add.reduceat(a, starts, axis=axis, dtype=U64), x)

    def cumsum_axis(self, x, axis):
        axis = self._axis(axis)
        return self._layout(lambda a: np.cumsum(a, axis=axis, dtype=U64), x)

    def bit_sum(self, bits, weights):
        """Share of sum_j weights[j] * bits[j] over axis 0: one local matmul,
        exact mod 2^64. ``weights`` are uint64 words or Python ints."""
        if not isinstance(weights, np.ndarray):
            weights = np.asarray(weights, dtype=object)  # ints of any size
        w, lead = as_word(weights)[None], self._lead
        return self._layout(lambda a: _weigh(a, w, lead)[(slice(None),) * lead + (0,)], bits)

    def reduce_pairs(self, x, combine):
        """Reduce axis 0 by halving: each level combines elements 2i and
        2i + 1 and carries an odd last one, so len - 1 combines in
        ceil(log2 len) levels. ``eq_public`` ANDs its chunk indicators
        this way, and ``sec_max`` runs its tournament."""
        length = x.shape[0]
        while length > 1:
            half = length // 2
            out = combine(self.index(x, slice(0, 2 * half, 2)),
                          self.index(x, slice(1, 2 * half, 2)))
            if length % 2:
                out = self.concat([out, self.index(x, slice(2 * half, length))], axis=0)
            x, length = out, (length + 1) // 2
        return self.index(x, 0)

    def assemble(self, shape, placements):
        """Zero array with rectangles written in: (row_slice, columns, vec)."""
        raise NotImplementedError


def _weigh(a: np.ndarray, weights, lead: int) -> np.ndarray:
    """``a`` with its first B rows (axis ``lead``) replaced by the K sums
    ``weights`` @ rows for a (K, B) matrix of words, exact mod 2^64; the
    rows past B stay as they are, and so does ``a`` for ``weights`` None."""
    if weights is None:
        return a
    nb, tail = weights.shape[1], a.shape[lead + 1:]
    flat = a.reshape(a.shape[:lead + 1] + (math.prod(tail),))
    out = np.concatenate([np.matmul(weights, flat[..., :nb, :]), flat[..., nb:, :]], axis=lead)
    return out.reshape(out.shape[:lead + 1] + tail)


def _pub_bits(word: np.ndarray, positions) -> np.ndarray:
    """Bits of public words at ``positions``, stacked on a new leading axis."""
    pos = np.asarray(positions, dtype=U64).reshape((-1,) + (1,) * np.ndim(word))
    return (word >> pos) & np.uint64(1)


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


def _xor_public(data: np.ndarray, word) -> np.ndarray:
    """A packed word XOR a public word, under the same convention (local)."""
    out = data.copy()
    out[0, 0, ...] ^= word
    out[2, 1, ...] ^= word
    return out


_PAIR_ROWS = np.array([0, 1, 1, 2, 2, 0])


def _pair(w: np.ndarray) -> np.ndarray:
    """Share array of party terms w passed left: party i holds (w_i, w_{i+1})."""
    return w.take(_PAIR_ROWS, axis=0).reshape((3, 2) + w.shape[1:])


def _disagreeing(data: np.ndarray, comps) -> int | None:
    """First component among ``comps`` whose two replicated copies differ.

    Component c sits at party c (slot 0) and party c-1 (slot 1)."""
    if np.array_equal(data[:, 0], data[[2, 0, 1], 1]):
        return None
    for c in comps:
        if not np.array_equal(data[c, 0], data[(c + 2) % 3, 1]):
            return c
    return None


@functools.lru_cache(maxsize=None)
def _high_weights(g: int) -> np.ndarray:
    """Weights 2^(j-g) for bit positions j >= g, zero below."""
    w = np.zeros(64, dtype=U64)
    w[g:] = _BIT_WEIGHTS[: 64 - g]
    w.flags.writeable = False  # cached: shared by every caller
    return w


@functools.lru_cache(maxsize=None)
def _opening_plan(positions: tuple[int, ...], dabit_pos: tuple[int, ...]):
    """For opening the bits at ``positions`` against daBits drawn at
    ``dabit_pos``: the word that keeps those bits, the positions as shift
    amounts, and the daBit row of each position."""
    missing = sorted(set(positions) - set(dabit_pos))
    if missing:
        raise ValueError(f"mask has no daBits at positions {missing}")
    keep = np.uint64(sum(1 << p for p in set(positions)))
    pos = np.array(positions, dtype=U64)
    rows = np.array([dabit_pos.index(p) for p in positions], dtype=np.intp)
    pos.flags.writeable = rows.flags.writeable = False  # cached: shared by every caller
    return keep, pos, rows


class Mpc3Engine(_EngineBase):
    """Deterministic in-process simulator of the three-party protocol."""

    _lead = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self._zero_streams = [_philox(self.seed, _PURPOSE_ZERO_SHARE, p) for p in range(3)]
        self._mask_streams = [_philox(self.seed, _PURPOSE_MASK, p) for p in range(3)]
        self._input_streams = [_philox(self.seed, _PURPOSE_INPUT, p) for p in range(3)]

    # -- plumbing --------------------------------------------------------------

    def _send(self, sender: int, receiver: int, arr: np.ndarray) -> np.ndarray:
        """Move an array from one party to another, logging the message."""
        self.transcript.log_message(self.scope_name, sender + 1, receiver + 1, 8 * int(arr.size))
        return arr

    def _from_components(self, c0, c1, c2) -> ShareVec:
        comps = [np.asarray(c, dtype=U64) for c in (c0, c1, c2)]
        data = np.empty((3, 2) + comps[0].shape, dtype=U64)
        for i in range(3):
            data[i, 0] = comps[i]
            data[i, 1] = comps[(i + 1) % 3]
        return ShareVec(data)

    # -- sharing / reconstruction ----------------------------------------------

    def share(self, raws, owner: int = 0) -> ShareVec:
        """Owner splits its input into uniform components and distributes pairs."""
        raws = as_word(raws)
        rng = self._input_streams[owner]
        a = rng.integers(0, 1 << 64, size=raws.shape, dtype=U64)
        b = rng.integers(0, 1 << 64, size=raws.shape, dtype=U64)
        comps = [None, None, None]
        comps[owner] = a
        comps[(owner + 1) % 3] = b
        comps[(owner + 2) % 3] = np.subtract(np.subtract(raws, a), b)
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

    def _pass_left(self, w: np.ndarray) -> None:
        """Party i sends its term w[i] to party i-1 (one round, 3 messages)."""
        self.transcript.next_round()
        for i in range(3):
            self._send((i + 1) % 3, i, w[(i + 1) % 3])

    def _reshare(self, w: np.ndarray) -> None:
        """Second half of a multiplication, given each party's local product
        term w[i]: mask it with a fresh sharing of zero (in place), then
        pass it left."""
        self._add_zero_share(w)
        self._pass_left(w)

    def _mul_impl(self, x: ShareVec, y: ShareVec) -> ShareVec:
        a, b = _aligned(x.data, y.data)
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=U64)
        w = out[:, 0]
        # party i's term x_i y_i + x_i y_{i+1} + x_{i+1} y_i
        np.add(b[:, 0], b[:, 1], out=w)
        w *= a[:, 0]
        w += np.multiply(a[:, 1], b[:, 0], out=out[:, 1])  # scratch until the pair is set
        self._reshare(w)
        # new pair at party i = (w_i, w_{i+1})
        out[:2, 1] = w[1:]
        out[2, 1] = w[0]
        return ShareVec(out)

    def mul(self, x: ShareVec, y: ShareVec) -> ShareVec:
        """Protocol-level multiplication (3 messages, one ring element each way)."""
        self.count("mul", math.prod(np.broadcast_shapes(x.shape, y.shape)))
        return self._mul_impl(x, y)

    def _mul_raw(self, x: ShareVec, y: ShareVec) -> ShareVec:
        """Multiplication internal to another primitive: messages, no counter."""
        return self._mul_impl(x, y)

    def require(self, x: ShareVec, ok, what: str) -> None:
        """No check: the protocol never sees the words (see ``PlainEngine``)."""

    def assemble(self, shape, placements) -> ShareVec:
        base = self.zeros(shape)
        for rslice, cols, vec in placements:
            base.data[:, :, rslice, cols] = vec.data
        return base

    def _xor_terms(self, b0, b1, b2) -> np.ndarray:
        """Party terms, (3, *shape), that sum to b0 ^ b1 ^ b2 per bit.

        Bit b_p is known to pair {p, p+1}, so index 1 knows t = b0 ^ b1 and
        sends index 0 the word t + s, with s from zero stream 1, which only
        indexes 1 and 2 hold: index 0 sees a uniform word. The terms
        b2 - 2(t + s) b2 at index 0, t at index 1 and 2 s b2 at index 2 sum
        to t ^ b2. Cost: 1 round, one word per bit from index 1 to 0.
        """
        w = np.empty((3,) + b0.shape, dtype=U64)
        np.bitwise_xor(b0, b1, out=w[1])
        s = self._zero_streams[1].bit_generator.random_raw(b0.shape)
        self.transcript.next_round()
        u = self._send(1, 0, np.add(w[1], s, out=w[0]))
        np.subtract(b2, (u + u) * b2, out=w[0])
        np.multiply(s + s, b2, out=w[2])
        return w

    def _xor3(self, b0, b1, b2, weights=None) -> ShareVec:
        """Shared b0 ^ b1 ^ b2 per bit, or the sums ``_weigh`` makes of them.

        Each party weights its ``_xor_terms``, and one resharing (a fresh
        zero share, then pass left) makes them replicated shares, so every
        term a party receives is masked by that zero share. Cost: 2 rounds;
        one word per bit from index 1 to 0, then 3 messages of one word per
        output row.
        """
        w = _weigh(self._xor_terms(b0, b1, b2), weights, 1)
        self._reshare(w)
        return ShareVec(_pair(w))

    def masked_open(self, x: ShareVec, nbits: int = 64, dabits=(),
                    weights=()) -> tuple[np.ndarray, Mask]:
        """Open m = x + r for a fresh mask r of width ``nbits``; returns
        (m, mask), with daBits at the bit positions ``dabits``.

        r = sum_{j < nbits} 2^j b_j + 2^nbits R. Each pairwise mask stream
        draws one raw word per element, and a second one when daBits are
        asked for: the first word's low ``nbits`` bits give the bits b_j,
        the second word's bits at ``dabits`` the daBits, and with daBits
        the raw words are also kept as r's packed XOR shares (the edaBits
        construction). R's three components come from one more word per
        stream, so it costs no messages. ``_xor_terms`` turns the bits into
        party terms, and each party weights its terms by the row of powers
        of two stacked over ``weights``, a (K, nbits) matrix of public
        words (K = 0 by default), then adds its components of x and of
        2^nbits R to row 0. One resharing makes rows 1..K (``Mask.rows``,
        the weighted sums of the bits) and the daBits replicated shares,
        and in the same round each party also sends its row-0 term right:
        every party then holds all three row-0 terms, each masked by a
        zero-stream word it lacks, and learns only their sum m, which is
        uniform. That reveal has no second copy of a component to compare,
        so unlike ``open`` it makes no ``IntegrityError`` check.

        Cost: ``nbits`` ``mask_bit`` and len(dabits) ``dabit`` per element
        and 2 rounds: one message of nbits + len(dabits) words per element
        from index 1 to 0, then 3 of 1 + K + len(dabits) words and 3 of one
        word per element; the ``masked_open`` counter adds the elements.
        """
        check_width(nbits)
        dabits = tuple(int(p) for p in dabits)
        if len(set(dabits)) < len(dabits) or any(not 0 <= p < 64 for p in dabits):
            raise ValueError("daBit positions must be distinct and in [0, 64)")
        shape, n, k = x.shape, x.size, len(dabits)
        self.count("masked_open", n)
        self.count("mask_bit", nbits * n)
        if k:
            self.count("dabit", k * n)
        pos = np.concatenate([_BIT_POS[:nbits], np.array(dabits, dtype=U64)])
        pos = pos.reshape((nbits + k,) + (1,) * len(shape))
        word_of_row = np.repeat([0, 1], [nbits, k]) if k else 0
        raw = [g.bit_generator.random_raw((1 + (k > 0),) + shape) for g in self._mask_streams]
        w = self._xor_terms(*((r[word_of_row] >> pos) & np.uint64(1) for r in raw))
        w = _weigh(w, np.vstack([_BIT_WEIGHTS[:nbits], *weights]), 1)
        w[:, 0] += x.data[:, 0]
        if nbits < 64:
            high = [g.bit_generator.random_raw(shape) << np.uint64(nbits) for g in self._mask_streams]
            # stream p is known to pair {p, p+1}: their common component p+1
            w[:, 0] += self._from_components(high[2], high[0], high[1]).data[:, 0]
        self._reshare(w)
        for i in range(3):
            self._send(i, (i + 1) % 3, w[i, 0])
        m = np.asarray(np.sum(w[:, 0], axis=0, dtype=U64))
        out, nw = _pair(w[:, 1:]), len(weights)
        if not k:
            return m, Mask(ShareVec(out))
        words = self._from_components(raw[2], raw[0], raw[1]).data
        return m, Mask(ShareVec(out[:, :, :nw]), dabit_pos=dabits, dabits=ShareVec(out[:, :, nw:]),
                       word=ShareVec(words[:, :, 0]), dabit_word=ShareVec(words[:, :, 1]))

    # -- packed XOR shares ---------------------------------------------------------
    #
    # A packed word shares 64 bits at once: the (3, 2, *shape) array of a
    # share, read as XOR shares. XOR, shifts and AND with a public word are
    # local; AND costs one round. A word still owed its last resharing is
    # a pair (y, z): a packed word y and party terms z, (3, *shape) or None,
    # that XOR to the value.

    def _and_terms(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Party i's term x_i y_i ^ x_i y_{i+1} ^ x_{i+1} y_i of the packed
        x AND y, masked with a fresh XOR sharing of zero (no messages)."""
        y0 = y[:, 0]
        w = (y0 ^ y[:, 1]) & x[:, 0]
        w ^= x[:, 1] & y0
        # party i's share of zero: PRF(pair {i,i+1}) ^ PRF(pair {i-1,i})
        d0, d1, d2 = (g.bit_generator.random_raw(w.shape[1:]) for g in self._zero_streams)
        w[0] ^= d0 ^ d2
        w[1] ^= d1 ^ d0
        w[2] ^= d2 ^ d1
        return w

    def _and(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Packed x AND y (one round, 3 messages)."""
        w = self._and_terms(x, y)
        self._pass_left(w)
        return _pair(w)

    def _borrow_word(self, m: np.ndarray, word: ShareVec, depth: int):
        """Borrows of (public m) - (packed r) by a Kogge-Stone scan, as a
        pair (y, z) whose bit j is the borrow out of bit j, exact for
        j < 2^depth; ``depth`` rounds, the last one left to the caller.

        The generate g = ~m & r and propagate p = ~(m ^ r) of every bit
        are local. Level k merges each bit's span with the one 2^k below:
        g ^= p & (g << 2^k) (g and p of a span are never both 1, so the OR
        is an XOR) and p &= p << 2^k, both in one AND.
        """
        notm = ~np.asarray(m, dtype=U64)
        gp = np.stack([word.data & notm, _xor_public(word.data, notm)], axis=2)
        for k in range(depth):
            shifted = gp << np.uint64(1 << k)
            if k == depth - 1:
                return gp[:, :, 0], self._and_terms(gp[:, :, 1], shifted[:, :, 0])
            merged = self._and(gp[:, :, 1:], shifted)
            merged[:, :, 0] ^= gp[:, :, 0]
            gp = merged
        return gp[:, :, 0], None

    def _value_word(self, m: np.ndarray, mask: Mask, top: int):
        """x = m - r as a pair (y, z), exact at bits 0..top: bit j is
        m_j ^ r_j ^ (borrow out of bit j - 1)."""
        g, z = self._borrow_word(m, mask.word, (max(top, 1) - 1).bit_length())
        y = _xor_public(mask.word.data ^ (g << np.uint64(1)), m)
        return y, None if z is None else z << np.uint64(1)

    def _open_bits(self, y: np.ndarray, z, mask: Mask, positions) -> ShareVec:
        """Arithmetic shares of the bits at ``positions`` of the pair (y, z),
        stacked on a new leading axis, in one round.

        Each party XORs its component of y, its term of z and its
        component of the daBit word, keeps the bits at ``positions`` and
        sends that word to both other parties (6 messages). All learn
        c = bit ^ daBit, which is uniform, and bit = c + (1 - 2c) daBit is
        local. ``mask`` needs a daBit at every position.
        """
        keep, pos, rows = _opening_plan(tuple(positions), mask.dabit_pos)
        u = y[:, 0] ^ mask.dabit_word.data[:, 0]
        if z is not None:
            u ^= z
        u &= keep
        self.transcript.next_round()
        for p in range(3):
            self._send((p + 1) % 3, p, u[(p + 1) % 3])
            self._send((p + 2) % 3, p, u[(p + 2) % 3])
        c = ((u[0] ^ u[1] ^ u[2]) >> _lift(pos, 1, u.ndim - 1)) & np.uint64(1)
        out = mask.dabits.data[:, :, rows] * (np.uint64(1) - c - c)
        _add_public(out, c)
        return ShareVec(out)

    def borrow_taps(self, m: np.ndarray, mask: Mask, taps) -> ShareVec:
        """Borrows of (public m) - (shared r) for the mask r of
        ``masked_open``.

        Row i of the result is the shared borrow *into* bit taps[i], a tap
        in [1, 64], so tap 64 is the overall borrow [m < r]. The borrow
        into bit t is bit t - 1 of the packed borrow word
        (``_borrow_word``): ceil(log2 max(taps)) rounds after the opening's
        2, the last one fused with the opening that makes the tapped bits
        arithmetic, so
        ``mask`` needs a daBit at t - 1 for every tap t. The message
        pattern depends on the taps and the shape, never on the data.
        """
        taps = tuple(int(t) for t in taps)
        if any(not 1 <= t <= 64 for t in taps):
            raise ValueError("tap outside [1, 64]")
        y, z = self._borrow_word(m, mask.word, (max(taps) - 1).bit_length())
        return self._open_bits(y, z, mask, [t - 1 for t in taps])

    def value_bits(self, x: ShareVec, positions) -> ShareVec:
        """Shared bits of the word x at bit ``positions``, stacked on a new
        leading axis in that order; exact for any word.

        x = m - r for a masked opening, so its packed bits come from the
        borrow word (``_value_word``) and one fused opening makes them
        arithmetic: 2 + ceil(log2 max(positions)) rounds (at least 3).
        """
        positions = tuple(int(p) for p in positions)
        m, mask = self.masked_open(x, dabits=positions)
        y, z = self._value_word(m, mask, max(positions))
        return self._open_bits(y, z, mask, positions)

    def msb_onehot(self, x: ShareVec, nbits: int) -> ShareVec:
        """One-hot of the most significant set bit among bits 0..nbits-1
        of x (all zeros when there is none), for 1 <= nbits < 64.

        The packed value word's low ``nbits`` bits are reshared, then a
        suffix-OR scan s |= s >> 2^k, each OR an AND by De Morgan,
        runs ceil(log2 nbits) rounds; bit j of s ^ (s >> 1) is the
        one-hot, and the last AND is fused with its opening. Rounds:
        2 + ceil(log2 (nbits - 1)) + ceil(log2 nbits) for nbits >= 2.
        """
        positions = tuple(range(nbits))
        m, mask = self.masked_open(x, dabits=positions)
        y, z = self._value_word(m, mask, nbits - 1)
        if z is not None:
            self._pass_left(z)
            y = y ^ _pair(z)
        s, z = y & as_word((1 << nbits) - 1), None
        ones = np.uint64(MASK64)
        levels = (nbits - 1).bit_length()
        for k in range(levels):
            a = _xor_public(s, ones)
            b = _xor_public(s >> np.uint64(1 << k), ones)
            if k < levels - 1:
                s = _xor_public(self._and(a, b), ones)
            else:  # s = ~(a AND b) = ones ^ terms
                s, z = _xor_public(np.zeros_like(s), ones), self._and_terms(a, b)
        y = s ^ (s >> np.uint64(1))
        return self._open_bits(y, None if z is None else z ^ (z >> np.uint64(1)), mask, positions)

    def eq_public(self, x: ShareVec, pub, nbits: int = 64) -> ShareVec:
        """Shared [x == pub mod 2^nbits] for public words ``pub``, at the
        broadcast of x's and pub's shapes.

        One masked opening of x serves every target: m = x + r is open, so
        d = m - pub is public, and x == pub there iff the low ``nbits``
        bits of d equal those of r. The mask bits pair into 2-bit chunks
        (a lone top bit is a chunk of its own), and one multiplication
        r_2i r_2i+1 per pair gives each chunk's shared one-hot over its 4
        values, linear in the two bits and their product (one-time truth
        tables, Ishai et al., TCC 2013). Chunk i's indicator for a target
        is then a local lookup of its one-hot at bits 2i, 2i + 1 of d, and
        ``reduce_pairs`` ANDs the ceil(nbits/2) indicators per output
        element. Cost: ``nbits`` mask bits, one opened word and
        floor(nbits/2) products per element of x, ceil(nbits/2) - 1 ANDs
        per output element, 2 + ceil(log2 nbits) rounds.
        """
        pub = as_word(pub)
        ndim = max(len(x.shape), pub.ndim)
        x = self.reshape(x, (1,) * (ndim - len(x.shape)) + x.shape)
        m, mask = self.masked_open(x, nbits, weights=np.eye(nbits, dtype=U64))
        bits, pairs, chunks = mask.rows.data, nbits // 2, (nbits + 1) // 2
        # hot[:, :, i, v]: chunk i of r equals v, as [1 - r0 - r1 + p, r0 - p, r1 - p, p]
        hot = np.zeros((3, 2, chunks, 4) + x.shape, dtype=U64)
        hot[:, :, :, 1] = bits[:, :, 0::2]
        if pairs:
            hi = bits[:, :, 1::2]
            p = self._mul_raw(ShareVec(bits[:, :, 0:2 * pairs:2]), ShareVec(hi)).data
            hot[:, :, :pairs, 1] -= p
            np.subtract(hi, p, out=hot[:, :, :pairs, 2])
            hot[:, :, :pairs, 3] = p
        np.negative(hot[:, :, :, 1:].sum(axis=3, dtype=U64), out=hot[:, :, :, 0])
        _add_public(hot[:, :, :, 0], np.uint64(1))
        # flat index of hot[:, :, i, chunk i of d, x's element]: one take for all
        d = np.subtract(m, pub) & np.uint64(MASK64 >> (64 - nbits))
        flat = (d >> _lift(_BIT_POS[:nbits:2], 1, ndim)).view(np.int64)
        flat &= 3
        size = x.size
        flat *= size
        flat += (np.arange(chunks) * (4 * size)).reshape((chunks,) + (1,) * ndim) \
            + np.arange(size).reshape(x.shape)
        hits = np.take(hot.reshape(6, 4 * chunks * size), flat, axis=1)
        return self.reduce_pairs(ShareVec(hits.reshape((3, 2) + flat.shape)), self._mul_raw)

    def trunc(self, x: ShareVec, g: int = F) -> ShareVec:
        """Exact arithmetic right shift by g bits of the shared 64-bit value.

        Mask-and-open construction: with the +2^63 bias, the unsigned
        identity X >> g = (C >> g) - (R >> g) - carry_g + 2^(64-g) * ov
        holds for C = X + R (mod 2^64), carry_g = [C mod 2^g < R mod 2^g],
        ov = [C < R]; both indicator bits come from one borrow network
        (taps g and 64, with their daBits): 2 + 6 rounds; R >> g is a sum.
        """
        if not 0 < g < 64:
            raise ValueError("shift amount out of range")
        self.count("trunc", x.size)
        biased = self.add_const(x, np.uint64(HALF))
        c_pub, mask = self.masked_open(biased, dabits=(g - 1, 63), weights=(_high_weights(g),))
        borrows = self.borrow_taps(c_pub, mask, (g, 64)).data
        carry, ov = borrows[:, :, 0], borrows[:, :, 1]
        r_high = mask.rows.data[:, :, 0]
        unbias = np.uint64((1 << (63 - g)) & MASK64)
        pub = np.subtract(c_pub >> np.uint64(g), unbias)
        y = ov * (np.uint64(1) << np.uint64(64 - g)) - r_high - carry
        _add_public(y, pub)
        return ShareVec(y)


class PlainEngine(_EngineBase):
    """Trusted-aggregator backend: the same surface on plaintext words.

    Where the protocol extracts bits from a masked opening, this engine
    reads them off the words; ``require`` checks the range contracts that
    the protocol relies on but cannot see.
    """

    def share(self, raws, owner: int = 0) -> PlainVec:
        return PlainVec(as_word(raws).copy())

    def const_vec(self, raws) -> PlainVec:
        return PlainVec(as_word(raws).copy())

    def reconstruct(self, x: PlainVec) -> np.ndarray:
        return x.raw

    def open(self, x: PlainVec, to: int | None = None) -> np.ndarray:
        return x.raw

    def _layout(self, fn, *vecs):
        return PlainVec(np.asarray(fn(*(v.raw for v in vecs)), dtype=U64))

    def add(self, x: PlainVec, y: PlainVec) -> PlainVec:
        return PlainVec(np.add(x.raw, y.raw))

    def mul_const_int(self, x: PlainVec, c) -> PlainVec:
        return PlainVec(np.multiply(x.raw, as_word(np.asarray(c))))

    def mul(self, x: PlainVec, y: PlainVec) -> PlainVec:
        self.count("mul", math.prod(np.broadcast_shapes(x.shape, y.shape)))
        return PlainVec(np.multiply(x.raw, y.raw))

    def _mul_raw(self, x: PlainVec, y: PlainVec) -> PlainVec:
        return PlainVec(np.multiply(x.raw, y.raw))

    def _xor3(self, b0, b1, b2, weights=None) -> PlainVec:
        return PlainVec(_weigh(b0 ^ b1 ^ b2, weights, 0))

    def trunc(self, x: PlainVec, g: int = F) -> PlainVec:
        self.count("trunc", x.size)
        return PlainVec(trunc_word(x.raw, g))

    def require(self, x: PlainVec, ok, what: str) -> None:
        if not np.all(ok(x.raw)):
            raise RangeContractError(what)

    def value_bits(self, x: PlainVec, positions) -> PlainVec:
        """Bits of the word x at bit ``positions``, stacked on a new
        leading axis in that order."""
        return PlainVec(_pub_bits(x.raw, tuple(positions)))

    def msb_onehot(self, x: PlainVec, nbits: int) -> PlainVec:
        """One-hot of the most significant set bit among bits 0..nbits-1
        of x (all zeros when there is none): the suffix ORs s_j = OR of
        bits j..nbits-1 by shifted ORs, then s ^ (s >> 1)."""
        s = x.raw & np.uint64((1 << nbits) - 1)
        for k in range(6):
            s = s | (s >> np.uint64(1 << k))
        return PlainVec(_pub_bits(s ^ (s >> np.uint64(1)), range(nbits)))

    def eq_public(self, x: PlainVec, pub, nbits: int = 64) -> PlainVec:
        """[x == pub] at the broadcast shape; equal to the protocol's
        [x == pub mod 2^nbits] wherever the caller's width contract holds."""
        return PlainVec((x.raw == as_word(pub)).astype(U64))

    def assemble(self, shape, placements) -> PlainVec:
        base = np.zeros(shape, dtype=U64)
        for rslice, cols, vec in placements:
            base[rslice, cols] = vec.raw
        return PlainVec(base)


def make_engine(backend: str, seed: int) -> _EngineBase:
    if backend == "mpc":
        return Mpc3Engine(seed)
    if backend == "cdp":
        return PlainEngine(seed)
    raise ValueError(f"unknown backend {backend!r}")
