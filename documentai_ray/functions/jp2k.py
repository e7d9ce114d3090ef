"""JPEG 2000 (ITU-T T.800 / ISO 15444-1) — restricted LOSSLESS codec.

Closes the last raising image filter in the PDF path (`/JPXDecode`).
Scope: raw J2K codestream, single tile, single grayscale component,
REVERSIBLE 5/3 wavelet with 0..32 decomposition levels, no
quantization (Sqcd no-quant), one quality layer, LRCP progression,
whole-subband precincts, default code-block style (no bypass/reset/
termination/causal/segmentation-symbols), code-blocks up to 64x64.
That is exactly the shape a lossless grayscale scan encoder emits.

Pieces:
- 5/3 reversible lifting DWT (symmetric extension, integer-exact) and
  its inverse;
- EBCOT Tier-1 code-block coder: the three coding passes
  (significance propagation, magnitude refinement, cleanup with
  run-length mode) over 4-row stripes, driven by the SAME MQ
  arithmetic coder as JBIG2 (T.88 Annex E == T.800 Annex C) with the
  19-context model (9 significance contexts per Table D.1 band
  mapping, 5 sign contexts + XOR per Tables D.2/D.3, 3 magnitude
  contexts, run-length and UNIFORM contexts with the published initial
  states 4/3/46);
- Tier-2 packet headers: inclusion + zero-bitplane tag trees, the
  Table B.4 pass-count codeword, Lblock length signaling, 0xFF bit
  stuffing;
- codestream layer: SOC/SIZ/COD/QCD/SOT/SOD/EOC markers.

Honesty note (same contract as minijpeg/faxg4/jbig2): no reference
JPEG 2000 codec exists in this container, so cross-implementation
interop cannot be proven in-sandbox; what IS verified: encode→decode
round-trips are bit-exact on adversarial images across sizes/levels,
the context tables and marker layouts match the published spec, and
malformed streams raise ValueError.
"""

from __future__ import annotations

import struct

import numpy as np

from documentai_ray.functions.jbig2 import CtxState, MQDecoder, MQEncoder

# ---------------------------------------------------------------------------
# 5/3 reversible DWT (T.800 Annex F) — lifting with symmetric extension
# ---------------------------------------------------------------------------


def _fwd_53_1d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-D forward 5/3: x (int array) → (low, high) subbands."""
    n = x.shape[0]
    if n == 1:
        return x.copy(), np.empty((0,) + x.shape[1:], x.dtype)
    ext = np.concatenate([x[1:2], x, x[-2:-1]])  # symmetric extension
    even = ext[1:-1:2] if n % 2 == 0 else ext[1::2]
    # interleaved positions: ext index i corresponds to sample i-1
    e = x[0::2]
    o = x[1::2]
    # predict: d[i] = o[i] - floor((e[i] + e[i+1]) / 2), mirrored at edge
    e_r = np.concatenate([e[1:], e[-1:]]) if n % 2 == 0 \
        else e[1:]
    if n % 2 == 0:
        d = o - ((e + e_r) >> 1)
    else:
        d = o - ((e[:-1] + e_r) >> 1)
    # update: s[i] = e[i] + floor((d[i-1] + d[i] + 2) / 4), mirrored
    if d.shape[0]:
        d_l = np.concatenate([d[0:1], d[:-1]])
        if n % 2 == 0:
            s = e + ((d_l + d + 2) >> 2)
        else:
            d_r = np.concatenate([d, d[-1:]])
            d_l = np.concatenate([d[0:1], d])
            s = e + ((d_l[: e.shape[0]] + d_r[: e.shape[0]] + 2) >> 2)
    else:
        s = e.copy()
    return s, d


def _inv_53_1d(s: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _fwd_53_1d back to length n."""
    if n == 1:
        return s.copy()
    if d.shape[0]:
        if n % 2 == 0:
            d_l = np.concatenate([d[0:1], d[:-1]])
            e = s - ((d_l + d + 2) >> 2)
        else:
            d_r = np.concatenate([d, d[-1:]])
            d_l = np.concatenate([d[0:1], d])
            e = s - ((d_l[: s.shape[0]] + d_r[: s.shape[0]] + 2) >> 2)
    else:
        e = s.copy()
    if n % 2 == 0:
        e_r = np.concatenate([e[1:], e[-1:]])
        o = d + ((e + e_r) >> 1)
    else:
        e_r = e[1:]
        o = d + ((e[:-1] + e_r) >> 1)
    out_shape = (n,) + s.shape[1:]
    x = np.empty(out_shape, s.dtype)
    x[0::2] = e
    x[1::2] = o
    return x


def fwd_dwt53(img: np.ndarray, levels: int):
    """2-D forward: returns (ll, [(hl, lh, hh) per level, coarsest
    last])."""
    ll = img.astype(np.int32)
    bands = []
    for _ in range(levels):
        # columns (vertical) then rows (horizontal)
        lo_v, hi_v = _fwd_53_1d(ll)
        ll_, hl = _fwd_53_1d(lo_v.T)
        lh, hh = _fwd_53_1d(hi_v.T)
        bands.append((hl.T.copy(), lh.T.copy(), hh.T.copy()))
        ll = ll_.T.copy()
    return ll, bands


def inv_dwt53(ll: np.ndarray, bands) -> np.ndarray:
    """Inverse of fwd_dwt53 (bands as returned, coarsest last)."""
    out = ll.astype(np.int32)
    for hl, lh, hh in reversed(bands):
        h = out.shape[0] + lh.shape[0]
        w = out.shape[1] + hl.shape[1]
        lo_v = _inv_53_1d(out.T, hl.T, w).T
        hi_v = _inv_53_1d(lh.T, hh.T, w).T
        out = _inv_53_1d(lo_v, hi_v, h)
    return out


# ---------------------------------------------------------------------------
# EBCOT Tier-1 (T.800 Annex D) — code-block bit-plane coder
# ---------------------------------------------------------------------------

# Table D.1 significance context mapping, keyed (band, sh, sv, sd)
# band: 0 = LL/LH, 1 = HL, 2 = HH


def _sig_ctx(band: int, sh: int, sv: int, sd: int) -> int:
    if band == 1:          # HL: swap roles of H and V
        sh, sv = sv, sh
        band = 0
    if band == 0:          # LL / LH
        if sh == 2:
            return 8
        if sh == 1:
            return 7 if sv >= 1 else (6 if sd >= 1 else 5)
        if sv == 2:
            return 4
        if sv == 1:
            return 3
        return 2 if sd >= 2 else (1 if sd == 1 else 0)
    # HH
    shv = sh + sv
    if sd >= 3:
        return 8
    if sd == 2:
        return 7 if shv >= 1 else 6
    if sd == 1:
        return 5 if shv >= 2 else (4 if shv == 1 else 3)
    return 2 if shv >= 2 else (1 if shv == 1 else 0)


# Tables D.2/D.3 sign coding: (ctx, xor) keyed (hc+1, vc+1)
_SIGN_LUT = {
    (2, 2): (13, 0), (2, 1): (12, 0), (2, 0): (11, 0),
    (1, 2): (10, 0), (1, 1): (9, 0), (1, 0): (10, 1),
    (0, 2): (11, 1), (0, 1): (12, 1), (0, 0): (13, 1),
}

_CTX_RL = 17
_CTX_UNI = 18
_N_CTX = 19


def _fresh_ctx() -> CtxState:
    st = CtxState(_N_CTX)
    st.i[0] = 4          # all-zero-neighborhood significance ctx
    st.i[_CTX_RL] = 3
    st.i[_CTX_UNI] = 46
    return st


class _BlockCoder:
    """Shared per-block state for encode/decode: significance map,
    visited-in-sig-pass flags, first-refinement flags, neighbor sums.

    Flat Python buffers (bytearray / list) instead of numpy arrays:
    the per-pixel state reads here are THE tier-1 hot path, and a
    bytearray index is ~5x cheaper than a numpy scalar index — the
    coded bitstream is unchanged (r4 #8 stretch)."""

    __slots__ = ("h", "w", "band", "stride", "sig", "sgn", "visited",
                 "refined")

    def __init__(self, h: int, w: int, band: int):
        self.h, self.w, self.band = h, w, band
        self.stride = w + 2
        self.sig = bytearray((h + 2) * (w + 2))     # 1-pad borders
        self.sgn = [0] * ((h + 2) * (w + 2))        # -1/+1 when sig
        self.visited = bytearray(h * w)
        self.refined = bytearray(h * w)

    def set_sig(self, y: int, x: int, negative: bool) -> None:
        i = (y + 1) * self.stride + (x + 1)
        self.sig[i] = 1
        self.sgn[i] = -1 if negative else 1

    def is_sig(self, y: int, x: int) -> int:
        return self.sig[(y + 1) * self.stride + (x + 1)]

    def clear_visited(self) -> None:
        self.visited = bytearray(self.h * self.w)

    def neighbor_sums(self, y: int, x: int):
        s = self.sig
        i = (y + 1) * self.stride + (x + 1)
        st = self.stride
        sh = s[i - 1] + s[i + 1]
        sv = s[i - st] + s[i + st]
        sd = (s[i - st - 1] + s[i - st + 1]
              + s[i + st - 1] + s[i + st + 1])
        return sh, sv, sd

    def stripe_clear(self, y0: int, x: int) -> bool:
        """True when the full 4-row stripe column at (y0..y0+3, x) is
        unvisited, insignificant and has an all-zero neighborhood —
        the run-length-mode precondition (18 sig cells + 4 visited)."""
        v = self.visited
        w = self.w
        j = y0 * w + x
        if v[j] or v[j + w] or v[j + 2 * w] or v[j + 3 * w]:
            return False
        s = self.sig
        st = self.stride
        i = y0 * st + x          # padded (y0-1, x-1)
        for _ in range(6):
            if s[i] or s[i + 1] or s[i + 2]:
                return False
            i += st
        return True

    def sign_ctx(self, y: int, x: int):
        g = self.sgn
        i = (y + 1) * self.stride + (x + 1)
        st = self.stride
        hc = g[i - 1] + g[i + 1]
        vc = g[i - st] + g[i + st]
        hc = -1 if hc < -1 else (1 if hc > 1 else hc)
        vc = -1 if vc < -1 else (1 if vc > 1 else vc)
        return _SIGN_LUT[(hc + 1, vc + 1)]

    def mag_ctx(self, y: int, x: int) -> int:
        if self.refined[y * self.w + x]:
            return 16
        sh, sv, sd = self.neighbor_sums(y, x)
        return 15 if sh + sv + sd else 14


def _stripes(h: int, w: int):
    for y0 in range(0, h, 4):
        for x in range(w):
            for y in range(y0, min(y0 + 4, h)):
                yield y, x, y0


def encode_block(coefs: np.ndarray, band: int):
    """Sign-magnitude code-block → (data, n_passes, n_zero_planes,
    n_planes_total). ``coefs``: int32 (h, w)."""
    h, w = coefs.shape
    mag = np.abs(coefs).astype(np.int64)
    neg = coefs < 0
    maxmag = int(mag.max()) if mag.size else 0
    nplanes = max(1, maxmag.bit_length()) if maxmag else 0
    if nplanes == 0:
        return b"", 0, 0
    enc = MQEncoder()
    cx = _fresh_ctx()
    st = _BlockCoder(h, w, band)
    magl = [[int(v) for v in row] for row in mag]
    negl = [[bool(v) for v in row] for row in neg]
    npasses = 0
    for p in range(nplanes - 1, -1, -1):
        bit = 1 << p
        first = p == nplanes - 1
        if not first:
            # significance propagation pass
            for y, x, _y0 in _stripes(h, w):
                if st.is_sig(y, x):
                    continue
                sh, sv, sd = st.neighbor_sums(y, x)
                if sh + sv + sd == 0:
                    continue
                st.visited[y * w + x] = 1
                d = 1 if magl[y][x] & bit else 0
                enc.encode(cx, d, _sig_ctx(band, sh, sv, sd))
                if d:
                    sctx, xor = st.sign_ctx(y, x)
                    enc.encode(cx, int(negl[y][x]) ^ xor, sctx)
                    st.set_sig(y, x, negl[y][x])
            npasses += 1
            # magnitude refinement pass
            refine_now = []
            for y, x, _y0 in _stripes(h, w):
                if st.is_sig(y, x) and not st.visited[y * w + x] \
                        and magl[y][x] >= (bit << 1):
                    enc.encode(cx, 1 if magl[y][x] & bit else 0,
                               st.mag_ctx(y, x))
                    refine_now.append(y * w + x)
            for i in refine_now:
                st.refined[i] = 1
            npasses += 1
        # cleanup pass
        x = 0
        while x < w:
            y0 = 0
            while y0 < h:
                ylim = min(y0 + 4, h)
                y = y0
                # run-length mode: full stripe column, all four
                # insignificant, unvisited, zero neighborhoods
                if ylim - y0 == 4 and st.stripe_clear(y0, x):
                    run_sig = [yy for yy in range(y0, ylim)
                               if magl[yy][x] & bit]
                    if not run_sig:
                        enc.encode(cx, 0, _CTX_RL)
                        y = ylim
                    else:
                        enc.encode(cx, 1, _CTX_RL)
                        pos = run_sig[0] - y0
                        enc.encode(cx, (pos >> 1) & 1, _CTX_UNI)
                        enc.encode(cx, pos & 1, _CTX_UNI)
                        y = y0 + pos
                        # that sample becomes significant: sign next
                        sctx, xor = st.sign_ctx(y, x)
                        enc.encode(cx, int(negl[y][x]) ^ xor, sctx)
                        st.set_sig(y, x, negl[y][x])
                        y += 1
                while y < ylim:
                    if not st.visited[y * w + x] and not st.is_sig(y, x):
                        sh, sv, sd = st.neighbor_sums(y, x)
                        d = 1 if magl[y][x] & bit else 0
                        enc.encode(cx, d, _sig_ctx(band, sh, sv, sd))
                        if d:
                            sctx, xor = st.sign_ctx(y, x)
                            enc.encode(cx, int(negl[y][x]) ^ xor, sctx)
                            st.set_sig(y, x, negl[y][x])
                    y += 1
                y0 = ylim
            x += 1
        st.clear_visited()
        npasses += 1
    return enc.flush(), npasses, nplanes


def decode_block(data: bytes, h: int, w: int, band: int, nplanes: int,
                 npasses: int) -> np.ndarray:
    """Inverse of encode_block → int32 (h, w)."""
    if nplanes == 0 or npasses == 0:
        return np.zeros((h, w), np.int32)
    dec = MQDecoder(data)
    cx = _fresh_ctx()
    st = _BlockCoder(h, w, band)
    magl = [[0] * w for _ in range(h)]
    negl = [[False] * w for _ in range(h)]
    passes_done = 0
    p = nplanes - 1
    while passes_done < npasses and p >= 0:
        bit = 1 << p
        first = p == nplanes - 1
        if not first:
            if passes_done >= npasses:
                break
            for y, x, _y0 in _stripes(h, w):
                if st.is_sig(y, x):
                    continue
                sh, sv, sd = st.neighbor_sums(y, x)
                if sh + sv + sd == 0:
                    continue
                st.visited[y * w + x] = 1
                if dec.decode(cx, _sig_ctx(band, sh, sv, sd)):
                    sctx, xor = st.sign_ctx(y, x)
                    sgn = dec.decode(cx, sctx) ^ xor
                    magl[y][x] |= bit
                    negl[y][x] = bool(sgn)
                    st.set_sig(y, x, bool(sgn))
            passes_done += 1
            if passes_done >= npasses:
                break
            refine_now = []
            for y, x, _y0 in _stripes(h, w):
                if st.is_sig(y, x) and not st.visited[y * w + x] \
                        and magl[y][x] >= (bit << 1):
                    if dec.decode(cx, st.mag_ctx(y, x)):
                        magl[y][x] |= bit
                    refine_now.append(y * w + x)
            for i in refine_now:
                st.refined[i] = 1
            passes_done += 1
            if passes_done >= npasses:
                break
        # cleanup
        x = 0
        while x < w:
            y0 = 0
            while y0 < h:
                ylim = min(y0 + 4, h)
                y = y0
                if ylim - y0 == 4 and st.stripe_clear(y0, x):
                    if not dec.decode(cx, _CTX_RL):
                        y = ylim
                    else:
                        pos = (dec.decode(cx, _CTX_UNI) << 1) \
                            | dec.decode(cx, _CTX_UNI)
                        y = y0 + pos
                        sctx, xor = st.sign_ctx(y, x)
                        sgn = dec.decode(cx, sctx) ^ xor
                        magl[y][x] |= bit
                        negl[y][x] = bool(sgn)
                        st.set_sig(y, x, bool(sgn))
                        y += 1
                while y < ylim:
                    if not st.visited[y * w + x] and not st.is_sig(y, x):
                        sh, sv, sd = st.neighbor_sums(y, x)
                        if dec.decode(cx, _sig_ctx(band, sh, sv, sd)):
                            sctx, xor = st.sign_ctx(y, x)
                            sgn = dec.decode(cx, sctx) ^ xor
                            magl[y][x] |= bit
                            negl[y][x] = bool(sgn)
                            st.set_sig(y, x, bool(sgn))
                    y += 1
                y0 = ylim
            x += 1
        st.clear_visited()
        passes_done += 1
        p -= 1
    out = np.array(magl, np.int32).reshape(h, w)
    negarr = np.array(negl, bool).reshape(h, w)
    out[negarr] = -out[negarr]
    return out


# ---------------------------------------------------------------------------
# Tier-2: tag trees, packet headers (T.800 Annex B)
# ---------------------------------------------------------------------------


class _HdrW:
    """Packet-header bit writer with 0xFF stuffing (a byte of 0xFF is
    followed by a 7-bit byte)."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nb = 0
        self.lim = 8    # bits in the CURRENT byte (7 right after 0xFF)

    def bit(self, b: int) -> None:
        self.acc = (self.acc << 1) | (b & 1)
        self.nb += 1
        if self.nb == self.lim:
            self.buf.append(self.acc)
            self.lim = 7 if self.acc == 0xFF else 8
            self.acc = 0
            self.nb = 0

    def bits(self, value: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.bit((value >> i) & 1)

    def done(self) -> bytes:
        if self.nb:
            self.buf.append(self.acc << (self.lim - self.nb))
            self.acc = self.nb = 0
            self.lim = 8
        if self.buf and self.buf[-1] == 0xFF:  # header must not end FF
            self.buf.append(0)
        return bytes(self.buf)


class _HdrR:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nb = 0
        self.prev_ff = False

    def bit(self) -> int:
        if self.nb == 0:
            if self.pos >= len(self.data):
                raise ValueError("JPX packet header exhausted")
            b = self.data[self.pos]
            self.pos += 1
            self.acc = b
            self.nb = 7 if self.prev_ff else 8
            self.prev_ff = b == 0xFF
        self.nb -= 1
        return (self.acc >> self.nb) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def align(self) -> int:
        """Byte-align and return the next byte position in data."""
        self.nb = 0
        # stuffed byte after a final 0xFF belongs to the header
        if self.prev_ff and self.pos < len(self.data):
            self.pos += 1
            self.prev_ff = False
        return self.pos


class _TagTree:
    """Standard JPEG 2000 tag tree (T.800 B.10.2) over an (h, w) leaf
    grid — the canonical incremental algorithm: per node a lower bound
    ``low`` and (encoder) the true minimum ``value`` with a ``known``
    flag; a 0-bit means "value > low", a 1-bit "value == low"."""

    _INF = 1 << 60

    def __init__(self, h: int, w: int, encoder: bool):
        self.dims = [(h, w)]
        while h > 1 or w > 1:
            h = (h + 1) // 2
            w = (w + 1) // 2
            self.dims.append((h, w))
        self.value = [np.full(d, self._INF, np.int64) for d in self.dims]
        self.low = [np.zeros(d, np.int64) for d in self.dims]
        self.known = [np.zeros(d, bool) for d in self.dims]
        self.encoder = encoder

    def set(self, y: int, x: int, v: int) -> None:
        assert self.encoder
        self.value[0][y, x] = v
        for li in range(1, len(self.dims)):
            below = self.value[li - 1]
            yy, xx = y >> li, x >> li
            blk = below[yy * 2: yy * 2 + 2, xx * 2: xx * 2 + 2]
            self.value[li][yy, xx] = blk.min()

    def _path(self, y: int, x: int):
        out = []
        for li in range(len(self.dims) - 1, -1, -1):
            out.append((li, y >> li, x >> li))
        return out  # root first

    def encode(self, w_out: _HdrW, y: int, x: int, threshold: int) -> None:
        low = 0
        for li, yy, xx in self._path(y, x):
            if low > self.low[li][yy, xx]:
                self.low[li][yy, xx] = low
            else:
                low = int(self.low[li][yy, xx])
            val = int(self.value[li][yy, xx])
            while low < threshold:
                if low >= val:
                    if not self.known[li][yy, xx]:
                        w_out.bit(1)
                        self.known[li][yy, xx] = True
                    break
                w_out.bit(0)
                low += 1
            self.low[li][yy, xx] = low

    def decode(self, r: _HdrR, y: int, x: int, threshold: int) -> bool:
        low = 0
        for li, yy, xx in self._path(y, x):
            if low > self.low[li][yy, xx]:
                self.low[li][yy, xx] = low
            else:
                low = int(self.low[li][yy, xx])
            while low < threshold and low < self.value[li][yy, xx]:
                if r.bit():
                    self.value[li][yy, xx] = low
                else:
                    low += 1
            self.low[li][yy, xx] = low
        return int(self.value[0][y, x]) < threshold


def _passes_codeword(w_out: _HdrW, n: int) -> None:
    """Table B.4 number-of-coding-passes codeword."""
    if n == 1:
        w_out.bit(0)
    elif n == 2:
        w_out.bit(1)
        w_out.bit(0)
    elif 3 <= n <= 5:
        w_out.bits(0b11, 2)
        w_out.bits(n - 3, 2)
    elif 6 <= n <= 36:
        w_out.bits(0b1111, 4)
        w_out.bits(n - 6, 5)
    elif 37 <= n <= 164:
        w_out.bits(0b111111111, 9)
        w_out.bits(n - 37, 7)
    else:
        raise ValueError("pass count out of range")


def _passes_read(r: _HdrR) -> int:
    if not r.bit():
        return 1
    if not r.bit():
        return 2
    v = r.bits(2)
    if v != 3:
        return 3 + v
    v = r.bits(5)
    if v != 31:
        return 6 + v
    return 37 + r.bits(7)


# ---------------------------------------------------------------------------
# codestream assembly / parse
# ---------------------------------------------------------------------------

_CB_EXP = 6           # 64x64 code-blocks
_GUARD_BITS = 2


def _band_geometry(h: int, w: int, levels: int):
    """Per-resolution subband shapes. Returns list: entry 0 is the LL
    at the coarsest level; entries r=1..levels are (hl, lh, hh) shapes
    at that resolution, finest last — mirroring fwd_dwt53's outputs."""
    shapes = []
    hh, ww = h, w
    per_level = []
    for _ in range(levels):
        lo_h, hi_h = (hh + 1) // 2, hh // 2
        lo_w, hi_w = (ww + 1) // 2, ww // 2
        per_level.append(((lo_h, hi_w), (hi_h, lo_w), (hi_h, hi_w)))
        hh, ww = lo_h, lo_w
    shapes.append((hh, ww))
    return shapes[0], per_level


def encode_jp2k(img: np.ndarray, levels: int = 2,
                prog: int = 0) -> bytes:
    """uint8 (h, w) grayscale or (h, w, 3) RGB → lossless J2K
    codestream. Color uses the REVERSIBLE color transform (RCT, T.800
    G.2): Y = (R+2G+B)>>2, Cb = B−G, Cr = R−G after the DC level shift
    — chroma components are 9-bit signed."""
    img = np.ascontiguousarray(img)
    if img.ndim == 2:
        comps = [img.astype(np.int32) - 128]   # DC level shift (8-bit)
        depths = [8]
        mct = 0
    elif img.ndim == 3 and img.shape[2] == 3:
        r = img[:, :, 0].astype(np.int32) - 128
        g = img[:, :, 1].astype(np.int32) - 128
        b = img[:, :, 2].astype(np.int32) - 128
        comps = [(r + 2 * g + b) >> 2, b - g, r - g]
        depths = [8, 9, 9]
        mct = 1
    elif img.ndim == 3 and img.shape[2] in (2, 4):
        # gray+alpha / RGBA: components stored direct (no MCT — the
        # RCT is defined for exactly three components)
        comps = [img[:, :, k].astype(np.int32) - 128
                 for k in range(img.shape[2])]
        depths = [8] * img.shape[2]
        mct = 0
    else:
        raise ValueError("(h, w) grayscale or (h, w, 2/3/4) required")
    h, w = img.shape[:2]
    levels = max(0, min(levels, 32))
    decomposed = [fwd_dwt53(c, levels) for c in comps]

    # one layer; resolution-major (LRCP/RLCP/RPCL) or component-major
    # (PCRL/CPRL) packet emission; fwd returns finest level first, so
    # packets walk bands[] from the coarsest (last) to the finest
    if prog not in (0, 1, 2, 3, 4):
        raise ValueError("bad progression order")
    packets = []

    def one_band_packet(band_arrs, depth):
        """band_arrs: list of (arr, band_kind 0/1/2). One packet body
        with one code-block per band (arrays are <= 64x64 when the
        image is; larger arrays tile into code-blocks)."""
        hdr = _HdrW()
        hdr.bit(1)                             # packet non-empty
        bodies = []
        for arr, kind in band_arrs:
            bh, bw = arr.shape
            if bh == 0 or bw == 0:
                continue
            nby = -(-bh // (1 << _CB_EXP))
            nbx = -(-bw // (1 << _CB_EXP))
            incl = _TagTree(nby, nbx, encoder=True)
            zbp = _TagTree(nby, nbx, encoder=True)
            blocks = []
            mb = depth + _GUARD_BITS + (0 if kind == 0 else
                                        (1 if kind < 2 else 2)) + 1
            for by in range(nby):
                for bx in range(nbx):
                    sub = arr[by << _CB_EXP: (by + 1) << _CB_EXP,
                              bx << _CB_EXP: (bx + 1) << _CB_EXP]
                    data, npass, nplanes = encode_block(sub, kind)
                    zb = mb - nplanes
                    blocks.append((by, bx, data, npass, nplanes, zb))
                    # an all-zero block contributes no passes: excluded
                    # from the (single) layer via inclusion value >= 1
                    incl.set(by, bx, 0 if npass else 1)
                    zbp.set(by, bx, zb)
            for by, bx, data, npass, nplanes, zb in blocks:
                incl.encode(hdr, by, bx, 1)
                if npass == 0:
                    continue               # excluded: nothing further
                # zero-bitplane tag tree: encode thresholds until
                # decoder learns the exact value
                t = 1
                while True:
                    zbp.encode(hdr, by, bx, t)
                    if zb < t:
                        break
                    t += 1
                _passes_codeword(hdr, npass)
                # Lblock length signaling
                lblock = 3
                nbits = lblock + int(np.floor(np.log2(npass))) \
                    if npass else lblock
                need = max(1, len(data)).bit_length()
                while need > nbits:
                    hdr.bit(1)
                    lblock += 1
                    nbits += 1
                hdr.bit(0)
                hdr.bits(len(data), nbits)
                bodies.append(data)
        return hdr.done() + b"".join(bodies)

    nlev = levels
    if prog in (3, 4):                 # PCRL/CPRL: component-major
        for ci, (ll, bands) in enumerate(decomposed):
            packets.append(one_band_packet([(ll, 0)], depths[ci]))
            for r_i in range(nlev):
                hl, lh, hh_b = bands[nlev - 1 - r_i]
                packets.append(one_band_packet(
                    [(hl, 1), (lh, 0), (hh_b, 2)], depths[ci]))
    else:                              # LRCP/RLCP/RPCL: res-major
        for ci, (ll, _bands) in enumerate(decomposed):
            packets.append(one_band_packet([(ll, 0)], depths[ci]))
        for r_i in range(nlev):
            for ci, (_ll, bands) in enumerate(decomposed):
                hl, lh, hh_b = bands[nlev - 1 - r_i]   # coarsest first
                packets.append(one_band_packet(
                    [(hl, 1), (lh, 0), (hh_b, 2)], depths[ci]))

    body = b"".join(packets)

    ncomp = len(comps)
    out = bytearray()
    out += b"\xff\x4f"                                     # SOC
    siz = struct.pack(">HHIIIIIIIIH", 38 + 3 * ncomp, 0, w, h, 0, 0,
                      w, h, 0, 0, ncomp)
    for d in depths:
        ssiz = (d - 1) | (0x80 if d > 8 else 0)  # chroma: signed 9-bit
        siz += struct.pack(">BBB", ssiz, 1, 1)
    out += b"\xff\x51" + siz
    spcod = struct.pack(">BBBBB", levels, _CB_EXP - 2, _CB_EXP - 2, 0, 1)
    cod = struct.pack(">HBBHB", 12, 0, prog, 1, mct) + spcod
    out += b"\xff\x52" + cod
    nsub = 3 * levels + 1
    qcd = struct.pack(">HB", 3 + nsub, 0x40 | (_GUARD_BITS << 5))
    gains = [0] + [g for _ in range(levels) for g in (1, 1, 2)]
    for g in gains:
        qcd += struct.pack(">B", (8 + g + 1) << 3)
    out += b"\xff\x5c" + qcd
    psot = 12 + 2 + len(body)
    out += b"\xff\x90" + struct.pack(">HHIBB", 10, 0, psot, 0, 1)
    out += b"\xff\x93" + body
    out += b"\xff\xd9"                                     # EOC
    return bytes(out)


def _unwrap_jp2_container(data: bytes) -> bytes:
    """ISO base-media box walk: find the 'jp2c' contiguous-codestream
    box inside a JP2 file (PDF /JPXDecode streams are often JP2-boxed,
    not raw codestreams) and return its payload."""
    pos = 0
    n = len(data)
    while pos + 8 <= n:
        (ln,) = struct.unpack_from(">I", data, pos)
        typ = data[pos + 4: pos + 8]
        hdr = 8
        if ln == 1:
            if pos + 16 > n:
                raise ValueError("truncated JP2 XL box")
            (ln,) = struct.unpack_from(">Q", data, pos + 8)
            hdr = 16
        elif ln == 0:
            ln = n - pos
        if ln < hdr or pos + ln > n:
            raise ValueError("malformed JP2 box")
        if typ == b"jp2c":
            return data[pos + hdr: pos + ln]
        pos += ln
    raise ValueError("JP2 container without a jp2c codestream box")


def decode_jp2k(data: bytes) -> np.ndarray:
    """J2K codestream or JP2-boxed file (the subset encode_jp2k
    writes, incl. foreign streams of the same restricted shape) →
    uint8 grayscale (h, w) or RGB (h, w, 3)."""
    if data[:12] == (b"\x00\x00\x00\x0cjP  \r\n\x87\n"):
        data = _unwrap_jp2_container(data)
    if data[:2] != b"\xff\x4f":
        raise ValueError("not a J2K codestream")
    try:
        return _decode_jp2k_inner(data)
    except (struct.error, IndexError) as exc:
        raise ValueError(f"malformed J2K stream: {exc}") from exc


def _decode_jp2k_inner(data: bytes) -> np.ndarray:
    pos = 2
    w = h = None
    levels = None
    cb_exp = None
    body = None
    depths = [8]
    mct = 0
    transform = 1
    qcd_eps: list[int] = []
    qcd_mu: list[int] = []
    qcd_derived = None
    prog = 0
    sot_seen = False
    while pos + 2 <= len(data):
        marker = data[pos:pos + 2]
        pos += 2
        if marker == b"\xff\x93":                          # SOD
            body = data[pos:]
            break
        if marker == b"\xff\xd9":
            break
        if pos + 2 > len(data):
            raise ValueError("truncated J2K marker")
        (ln,) = struct.unpack_from(">H", data, pos)
        seg = data[pos + 2: pos + ln]
        if marker == b"\xff\x51":                          # SIZ
            _r, xs, ys, xo, yo, *_rest = struct.unpack_from(
                ">HIIII", seg, 0)
            (csiz,) = struct.unpack_from(">H", seg, 34)
            if csiz not in (1, 2, 3, 4):
                raise ValueError("JPX component count unsupported")
            depths = []
            for ci in range(csiz):
                ssiz = seg[36 + 3 * ci]
                d = (ssiz & 0x7F) + 1
                if d not in (8, 9) or (d == 8 and ssiz & 0x80):
                    raise ValueError(
                        "only 8-bit unsigned / 9-bit signed JPX comps")
                depths.append(d)
            w, h = xs - xo, ys - yo
        elif marker == b"\xff\x52":                        # COD
            scod = seg[0]
            if scod & 0x01:
                raise ValueError("precinct-partitioned JPX unsupported")
            prog = seg[1]
            layers = struct.unpack_from(">H", seg, 2)[0]
            if layers != 1:
                raise ValueError("multi-layer JPX unsupported")
            mct = seg[4]
            if mct not in (0, 1):
                raise ValueError("unknown MCT value")
            levels = seg[5]
            cb_exp = seg[6] + 2
            if seg[7] + 2 != cb_exp:
                raise ValueError("non-square code-blocks unsupported")
            if seg[8] != 0:
                raise ValueError("code-block style flags unsupported")
            transform = seg[9]
            if transform not in (0, 1):
                raise ValueError("unknown wavelet transformation")
            # packet layout: with one layer and whole-subband
            # precincts, LRCP / RLCP / RPCL all reduce to
            # resolution-major (per resolution, per component) and
            # PCRL / CPRL to component-major (per component, per
            # resolution) — both walks are implemented below; anything
            # else is unknown and raises
            if prog not in (0, 1, 2, 3, 4):
                raise ValueError(
                    f"JPX progression order {prog} unsupported")
        elif marker == b"\xff\x5c":                        # QCD
            sqcd = seg[0]
            qstyle = sqcd & 0x1F
            if qstyle == 0:        # no quantization (reversible)
                qcd_eps = [b >> 3 for b in seg[1:]]
                qcd_mu = [0] * len(qcd_eps)
            elif qstyle == 1:      # scalar derived: one LL pair
                (v,) = struct.unpack_from(">H", seg, 1)
                qcd_derived = (v >> 11, v & 0x7FF)
            elif qstyle == 2:      # scalar expounded
                vals = [struct.unpack_from(">H", seg, 1 + 2 * i)[0]
                        for i in range((len(seg) - 1) // 2)]
                qcd_eps = [v >> 11 for v in vals]
                qcd_mu = [v & 0x7FF for v in vals]
            else:
                raise ValueError(f"unknown quantization style {qstyle}")
        elif marker == b"\xff\x90":                        # SOT
            # single-tile decoder: the body reader below concatenates
            # packets as one tile — a second tile-part or a nonzero
            # tile index would decode with the wrong layout (ADVICE r4)
            isot, _psot, tpsot, _tnsot = struct.unpack_from(
                ">HIBB", seg, 0)
            if isot != 0 or tpsot != 0:
                raise ValueError("multi-tile JPX codestreams unsupported")
            if sot_seen:
                raise ValueError("multiple JPX tile-parts unsupported")
            sot_seen = True
        pos += ln
    if body is None or w is None or levels is None:
        raise ValueError("J2K stream missing SIZ/COD/SOD")
    if qcd_derived is not None:
        # T.800 E.1.1 / the openjpeg SIQNT expansion: eps_b =
        # max(0, eps_0 - floor((b-1)/3)) in [LL, then coarsest->finest
        # HL/LH/HH] band order; mu shared
        e0, m0 = qcd_derived
        qcd_eps = [e0] + [max(0, e0 - k // 3)
                          for k in range(3 * levels)]
        qcd_mu = [m0] * (3 * levels + 1)
    if body.endswith(b"\xff\xd9"):
        body = body[:-2]
    # T.800 forbids 0xFF90+ codes inside entropy-coded data, so a SOT
    # marker inside the body is reliably a second tile-part (ADVICE r4)
    if b"\xff\x90" in body:
        raise ValueError("multi-tile JPX codestreams unsupported")
    if max(w, h) > (1 << 16) or w * h > (1 << 26):
        raise ValueError("implausible JPX geometry")

    ll_shape, per_level = _band_geometry(h, w, levels)

    offset = 0

    def read_band_packet(band_shapes, depth, mbs=None):
        nonlocal offset
        r = _HdrR(body[offset:])
        out_arrays = []
        if not r.bit():
            # EMPTY packet (header bit 0, B.10.3): no code-block
            # contributions — every band decodes all-zero and the
            # packet is just the byte-aligned single-bit header
            offset += r.align()
            return [np.zeros((bh, bw), np.int32)
                    for (bh, bw), _k in band_shapes]
        metas = []
        for bi, ((bh, bw), kind) in enumerate(band_shapes):
            if bh == 0 or bw == 0:
                out_arrays.append(np.zeros((bh, bw), np.int32))
                metas.append([])
                continue
            nby = -(-bh // (1 << cb_exp))
            nbx = -(-bw // (1 << cb_exp))
            incl = _TagTree(nby, nbx, encoder=False)
            zbp = _TagTree(nby, nbx, encoder=False)
            if mbs is not None:
                mb = mbs[bi]
            else:
                mb = depth + _GUARD_BITS + (0 if kind == 0 else
                                            (1 if kind < 2 else 2)) + 1
            band_meta = []
            for by in range(nby):
                for bx in range(nbx):
                    if not incl.decode(r, by, bx, 1):
                        continue           # excluded: all-zero block
                    t = 1
                    while not zbp.decode(r, by, bx, t):
                        t += 1
                    zb = t - 1
                    npass = _passes_read(r)
                    lblock = 3
                    while r.bit():
                        lblock += 1
                    nbits = lblock + int(np.floor(np.log2(npass)))
                    ln = r.bits(nbits)
                    band_meta.append((by, bx, mb - zb, npass, ln))
            metas.append(band_meta)
            out_arrays.append(np.zeros((bh, bw), np.int32))
        data_pos = offset + r.align()
        for (bh, bw), kind, arr, band_meta in zip(
                [s for s, _k in band_shapes],
                [k for _s, k in band_shapes], out_arrays, metas):
            for by, bx, nplanes, npass, ln in band_meta:
                blk = decode_block(body[data_pos:data_pos + ln],
                                   min(1 << cb_exp, bh - (by << cb_exp)),
                                   min(1 << cb_exp, bw - (bx << cb_exp)),
                                   kind, nplanes, npass)
                arr[by << cb_exp: (by + 1) << cb_exp,
                    bx << cb_exp: (bx + 1) << cb_exp] = blk
                data_pos += ln
        offset = data_pos
        return out_arrays

    ncomp = len(depths)
    if transform == 0:
        # irreversible 9/7: spec Mb = G + eps_b - 1 per subband, then
        # mid-interval dequantization and the float inverse transform;
        # 3-component streams interleave one packet per component per
        # resolution (LRCP) and un-ICT when MCT is set (T.800 G.3)
        if len(qcd_eps) < 3 * levels + 1:
            raise ValueError("QCD bands missing for 9/7 stream")

        def delta(bi):
            return (2.0 ** (8 + (0 if bi == 0 else
                                 (1 if (bi - 1) % 3 < 2 else 2))
                            - qcd_eps[bi])
                    * (1.0 + qcd_mu[bi] / 2048.0))

        def dq(q, bi):
            f = q.astype(np.float64)
            nz = q != 0
            f[nz] = (np.sign(f[nz]) * (np.abs(f[nz]) + 0.5)
                     * delta(bi))
            return f

        mb0 = _GUARD_BITS + qcd_eps[0] - 1
        lls_f = [None] * ncomp
        comp_b97 = [[] for _ in range(ncomp)]
        if prog in (3, 4):             # PCRL/CPRL: component-major
            for ci in range(ncomp):
                (llq,) = read_band_packet([(ll_shape, 0)], 0,
                                          mbs=[mb0])
                lls_f[ci] = dq(llq, 0)
                bi = 1
                for (hl_s, lh_s, hh_s) in reversed(per_level):
                    mbs = [_GUARD_BITS + qcd_eps[bi + k] - 1
                           for k in range(3)]
                    hlq, lhq, hhq = read_band_packet(
                        [(hl_s, 1), (lh_s, 0), (hh_s, 2)], 0, mbs=mbs)
                    comp_b97[ci].append((dq(hlq, bi), dq(lhq, bi + 1),
                                         dq(hhq, bi + 2)))
                    bi += 3
        else:                          # LRCP/RLCP/RPCL: res-major
            for ci in range(ncomp):
                (llq,) = read_band_packet([(ll_shape, 0)], 0,
                                          mbs=[mb0])
                lls_f[ci] = dq(llq, 0)
            bi = 1
            for (hl_s, lh_s, hh_s) in reversed(per_level):
                mbs = [_GUARD_BITS + qcd_eps[bi + k] - 1
                       for k in range(3)]
                for ci in range(ncomp):
                    hlq, lhq, hhq = read_band_packet(
                        [(hl_s, 1), (lh_s, 0), (hh_s, 2)], 0, mbs=mbs)
                    comp_b97[ci].append((dq(hlq, bi), dq(lhq, bi + 1),
                                         dq(hhq, bi + 2)))
                bi += 3
        planes97 = []
        for ci in range(ncomp):
            comp_b97[ci].reverse()
            planes97.append(_inv_dwt97(lls_f[ci], comp_b97[ci]))
        if ncomp == 1:
            return np.clip(np.rint(planes97[0] + 128.0),
                           0, 255).astype(np.uint8)
        yf, cbf, crf = planes97
        if mct:                        # inverse ICT (T.800 G.3)
            r_f = yf + 1.402 * crf
            g_f = yf - 0.344136 * cbf - 0.714136 * crf
            b_f = yf + 1.772 * cbf
        else:
            r_f, g_f, b_f = yf, cbf, crf
        rgb = np.stack([r_f, g_f, b_f], axis=-1) + 128.0
        return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
    lls = [None] * ncomp
    comp_bands = [[] for _ in range(ncomp)]
    if prog in (3, 4):                 # PCRL/CPRL: component-major
        for ci in range(ncomp):
            (ll,) = read_band_packet([(ll_shape, 0)], depths[ci])
            lls[ci] = ll
            for (hl_s, lh_s, hh_s) in reversed(per_level):
                hl, lh, hh_b = read_band_packet(
                    [(hl_s, 1), (lh_s, 0), (hh_s, 2)], depths[ci])
                comp_bands[ci].append((hl, lh, hh_b))
    else:                              # LRCP/RLCP/RPCL: res-major
        for ci in range(ncomp):
            (ll,) = read_band_packet([(ll_shape, 0)], depths[ci])
            lls[ci] = ll
        for (hl_s, lh_s, hh_s) in reversed(per_level):
            for ci in range(ncomp):
                hl, lh, hh_b = read_band_packet(
                    [(hl_s, 1), (lh_s, 0), (hh_s, 2)], depths[ci])
                comp_bands[ci].append((hl, lh, hh_b))
    planes = []
    for ci in range(ncomp):
        comp_bands[ci].reverse()       # back to finest-first order
        planes.append(inv_dwt53(lls[ci], comp_bands[ci]))
    if ncomp == 1:
        return np.clip(planes[0] + 128, 0, 255).astype(np.uint8)
    if ncomp in (2, 4):
        # gray+alpha / RGBA: direct components, no color transform
        out = np.stack([p + 128 for p in planes], axis=-1)
        return np.clip(out, 0, 255).astype(np.uint8)
    yy, cb, cr = planes
    if mct:
        g = yy - ((cb + cr) >> 2)      # inverse RCT (T.800 G.2)
        r_p = cr + g
        b_p = cb + g
    else:
        r_p, g, b_p = yy, cb, cr
    rgb = np.stack([r_p + 128, g + 128, b_p + 128], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# irreversible 9/7 path (T.800 Annex F.4 + E quantization) — what LOSSY
# wild JPX scans actually use. Same EBCOT tier-1/tier-2 machinery; the
# delta is the float lifting transform and scalar dequantization
# (Sqcd = scalar-expounded, per-band 5-bit exponent + 11-bit mantissa,
# reconstruction at mid-interval). The published lifting constants:
# ---------------------------------------------------------------------------

_A97 = -1.586134342059924
_B97 = -0.052980118572961
_G97 = 0.882911075530934
_D97 = 0.443506852043971
_K97 = 1.230174104914001


def _fwd_97_1d(x: np.ndarray):
    """Forward 9/7 lifting with whole-sample symmetric extension: the
    extension mirrors the core and lifting preserves that symmetry, so
    all four steps apply uniformly over the extended array."""
    n = x.shape[0]
    if n == 1:
        return x.astype(np.float64).copy(), \
            np.empty((0,) + x.shape[1:], np.float64)
    M = 4
    pad = ((M, M),) + ((0, 0),) * (x.ndim - 1)
    y = np.pad(x.astype(np.float64), pad, mode="reflect")
    ln = y.shape[0]
    odd = np.arange(1, ln - 1, 2)
    even = np.arange(2, ln - 1, 2)
    y[odd] += _A97 * (y[odd - 1] + y[odd + 1])
    y[even] += _B97 * (y[even - 1] + y[even + 1])
    y[odd] += _G97 * (y[odd - 1] + y[odd + 1])
    y[even] += _D97 * (y[even - 1] + y[even + 1])
    core = y[M:M + n]
    return core[0::2] * (1.0 / _K97), core[1::2] * _K97


def _inv_97_1d(s: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return s.astype(np.float64).copy()
    M = 4
    core = np.empty((n,) + s.shape[1:], np.float64)
    core[0::2] = s * _K97
    core[1::2] = d * (1.0 / _K97)
    pad = ((M, M),) + ((0, 0),) * (core.ndim - 1)
    y = np.pad(core, pad, mode="reflect")
    ln = y.shape[0]
    odd = np.arange(1, ln - 1, 2)
    even = np.arange(2, ln - 1, 2)
    y[even] -= _D97 * (y[even - 1] + y[even + 1])
    y[odd] -= _G97 * (y[odd - 1] + y[odd + 1])
    y[even] -= _B97 * (y[even - 1] + y[even + 1])
    y[odd] -= _A97 * (y[odd - 1] + y[odd + 1])
    return y[M:M + n]


def _fwd_dwt97(img: np.ndarray, levels: int):
    ll = img.astype(np.float64)
    bands = []
    for _ in range(levels):
        lo_v, hi_v = _fwd_97_1d(ll)
        ll_, hl = _fwd_97_1d(lo_v.T)
        lh, hh = _fwd_97_1d(hi_v.T)
        bands.append((hl.T.copy(), lh.T.copy(), hh.T.copy()))
        ll = ll_.T.copy()
    return ll, bands


def _inv_dwt97(ll: np.ndarray, bands) -> np.ndarray:
    out = ll.astype(np.float64)
    for hl, lh, hh in reversed(bands):
        h = out.shape[0] + lh.shape[0]
        w = out.shape[1] + hl.shape[1]
        lo_v = _inv_97_1d(out.T, hl.T, w).T
        hi_v = _inv_97_1d(lh.T, hh.T, w).T
        out = _inv_97_1d(lo_v, hi_v, h)
    return out


def encode_jp2k_lossy(img: np.ndarray, levels: int = 2,
                      base_exp: int = 10,
                      derived: bool = False) -> bytes:
    """uint8 grayscale (h, w) or RGB (h, w, 3) → IRREVERSIBLE 9/7 J2K
    codestream (COD transformation 0; QCD scalar-expounded, or
    scalar-DERIVED — the single-pair Sqcd style 1 whose per-band
    exponents expand as eps_b = max(0, eps_0 - floor((b-1)/3)) — when
    ``derived``). Color runs through the irreversible color transform
    (ICT, T.800 G.2) with one packet per component per resolution."""
    img = np.ascontiguousarray(img)
    if img.ndim not in (2, 3):
        raise ValueError("grayscale (h, w) or (h, w, 3) input required")
    h, w = img.shape[:2]
    ncomp = 1 if img.ndim == 2 else img.shape[2]
    if ncomp not in (1, 3):
        raise ValueError("1 or 3 components required")
    levels = max(0, min(levels, 32))
    if ncomp == 3:
        rf = img[:, :, 0].astype(np.float64) - 128.0
        gf = img[:, :, 1].astype(np.float64) - 128.0
        bf = img[:, :, 2].astype(np.float64) - 128.0
        # forward ICT (T.800 G.2)
        yf = 0.299 * rf + 0.587 * gf + 0.114 * bf
        cbf = -0.168736 * rf - 0.331264 * gf + 0.5 * bf
        crf = 0.5 * rf - 0.418688 * gf - 0.081312 * bf
        comps97 = [_fwd_dwt97(c, levels) for c in (yf, cbf, crf)]
    else:
        comps97 = [_fwd_dwt97(img.astype(np.float64) - 128.0, levels)]
    ll, bands = comps97[0]

    packets = []

    # per-band eps: constant (expounded emission) or the derived
    # expansion; band order [LL, coarsest->finest HL/LH/HH]
    nsub_total = 3 * levels + 1
    if derived:
        band_eps = [base_exp] + [max(0, base_exp - k // 3)
                                 for k in range(3 * levels)]
    else:
        band_eps = [base_exp] * nsub_total

    def quant(arr, gain, eps_b):
        delta = float(2.0 ** (8 + gain - eps_b))
        q = np.trunc(arr / delta).astype(np.int64)
        # spec Mb = G + eps_b - 1 bounds the coded magnitude planes
        mb = _GUARD_BITS + eps_b - 1
        cap = (1 << mb) - 1
        return np.clip(q, -cap, cap).astype(np.int32)

    def one_band_packet(band_arrs, depth):
        hdr = _HdrW()
        hdr.bit(1)
        bodies = []
        for arr, kind, eps_b in band_arrs:
            bh, bw = arr.shape
            if bh == 0 or bw == 0:
                continue
            nby = -(-bh // (1 << _CB_EXP))
            nbx = -(-bw // (1 << _CB_EXP))
            incl = _TagTree(nby, nbx, encoder=True)
            zbp = _TagTree(nby, nbx, encoder=True)
            blocks = []
            mb = _GUARD_BITS + eps_b - 1                    # spec Mb
            for by in range(nby):
                for bx in range(nbx):
                    sub = arr[by << _CB_EXP: (by + 1) << _CB_EXP,
                              bx << _CB_EXP: (bx + 1) << _CB_EXP]
                    data, npass, nplanes = encode_block(sub, kind)
                    zb = mb - nplanes
                    blocks.append((by, bx, data, npass, nplanes, zb))
                    incl.set(by, bx, 0 if npass else 1)
                    zbp.set(by, bx, zb)
            for by, bx, data, npass, nplanes, zb in blocks:
                incl.encode(hdr, by, bx, 1)
                if npass == 0:
                    continue
                t = 1
                while True:
                    zbp.encode(hdr, by, bx, t)
                    if zb < t:
                        break
                    t += 1
                _passes_codeword(hdr, npass)
                lblock = 3
                nbits = lblock + int(np.floor(np.log2(npass)))
                need = max(1, len(data)).bit_length()
                while need > nbits:
                    hdr.bit(1)
                    lblock += 1
                    nbits += 1
                hdr.bit(0)
                hdr.bits(len(data), nbits)
                bodies.append(data)
        return hdr.done() + b"".join(bodies)

    for cll, _cb in comps97:
        packets.append(one_band_packet(
            [(quant(cll, 0, band_eps[0]), 0, band_eps[0])], 0))
    bi = 1
    nlev = len(comps97[0][1])
    for li in range(nlev - 1, -1, -1):     # coarsest level first
        e1, e2, e3 = band_eps[bi], band_eps[bi + 1], band_eps[bi + 2]
        for _cll, cbands in comps97:
            hl, lh, hh_b = cbands[li]
            # context kind (LL/LH share table 0) != quantizer gain (LH
            # is a high band: gain 1) — pass them independently
            packets.append(one_band_packet(
                [(quant(hl, 1, e1), 1, e1), (quant(lh, 1, e2), 0, e2),
                 (quant(hh_b, 2, e3), 2, e3)], 0))
        bi += 3
    body = b"".join(packets)

    out = bytearray()
    out += b"\xff\x4f"
    siz = struct.pack(">HHIIIIIIIIH", 38 + 3 * ncomp, 0, w, h, 0, 0,
                      w, h, 0, 0, ncomp)
    for _ in range(ncomp):
        siz += struct.pack(">BBB", 7, 1, 1)
    out += b"\xff\x51" + siz
    spcod = struct.pack(">BBBBB", levels, _CB_EXP - 2, _CB_EXP - 2,
                        0, 0)                  # transformation 0 = 9/7
    cod = struct.pack(">HBBHB", 12, 0, 0, 1,
                      1 if ncomp == 3 else 0) + spcod
    out += b"\xff\x52" + cod
    if derived:
        # QCD scalar derived (Sqcd style 1): ONE (eps0, mu0) pair
        qcd = struct.pack(">HBH", 5, 0x01 | (_GUARD_BITS << 5),
                          base_exp << 11)
    else:
        # QCD scalar expounded: Sqcd = 2 | guard<<5; per band
        # (eps<<11|mu)
        qcd = struct.pack(">HB", 3 + 2 * nsub_total,
                          0x02 | (_GUARD_BITS << 5))
        for e in band_eps:
            qcd += struct.pack(">H", (e << 11) | 0)
    out += b"\xff\x5c" + qcd
    psot = 12 + 2 + len(body)
    out += b"\xff\x90" + struct.pack(">HHIBB", 10, 0, psot, 0, 1)
    out += b"\xff\x93" + body
    out += b"\xff\xd9"
    return bytes(out)
