"""General JFIF/JPEG decoder (ITU T.81, stdlib + numpy) + test encoder.

Extends minijpeg's engine codec to the real-world decode surface:

* DHT-driven Huffman tables (minijpeg's old decoder *assumed* the
  Annex-K tables; wild JPEGs ship optimized tables in DHT)
* multi-component SOF0/SOF1 with sampling factors (4:4:4, 4:2:0, ...),
  interleaved MCUs, YCbCr→RGB (JFIF constants), chroma upsampling
* restart intervals (DRI + RST0-7 markers)
* progressive SOF2: spectral selection, successive approximation (DC
  first/refine, AC first/refine with EOB runs) per T.81 Annex G
* 16-bit DQT precision, multiple tables, fill bytes between segments

* CMYK/YCCK 4-component frames (Adobe APP14 transform 0/2) → (H, W, 4)

Lossless SOF3 (Annex H: predictors 1-7, 2-16-bit precision, point
transform) decodes via its dedicated path; 12-bit extended sequential
(SOF1 at precision 12) rides the normal scan machinery. Arithmetic
coding (SOF9+) and hierarchical processes raise ValueError — honest
unsupported, not faked. ``encode_jpeg`` exists to exercise every
decoder path in-sandbox (gray/RGB, 444/420, DRI, progressive with a
non-Annex-K AC table so DHT-driven decode is actually tested); parity
note: the reference ingests wild JPEGs via PIL/cv2 in its image path
(documentClassifier.py), here the decode is engine-internal.
"""

from __future__ import annotations

import struct

import numpy as np

from documentai_ray.functions.minijpeg import (AC_BITS, AC_VALS, DC_BITS,
                                               DC_VALS, QTABLE, ZIGZAG,
                                               _build_codes, _C, _extend,
                                               _magnitude)

# Annex K.2 chrominance quantization table, raster order
QTABLE_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], np.int32).reshape(8, 8)

# custom AC table for progressive scans: covers EOBn (r 0-14), ZRL and
# (r,s) for s 1..10 — symbols Annex K.5 lacks (it has no EOBn beyond
# EOB0), so decoding these streams REQUIRES honoring DHT
_PROG_AC_SYMS = ([r << 4 for r in range(15)] + [0xF0]
                 + [(r << 4) | s for r in range(16) for s in range(1, 11)])
_PROG_AC_BITS = [0] * 7 + [128, len(_PROG_AC_SYMS) - 128] + [0] * 7
_PROG_AC_VALS = list(_PROG_AC_SYMS)

def _decode_table(bits: list[int], vals: list[int]) -> dict:
    return {(ln, code): v
            for v, (code, ln) in _build_codes(bits, vals).items()}


class _SegReader:
    """Bit reader over entropy segments; RSTn boundaries between them."""

    __slots__ = ("segs", "si", "bi", "acc", "nb")

    def __init__(self, segs: list[bytes]) -> None:
        self.segs = segs
        self.si = 0
        self.bi = 0
        self.acc = 0
        self.nb = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        while self.nb < n:
            seg = self.segs[self.si]
            if self.bi >= len(seg):
                raise ValueError("truncated entropy segment")
            self.acc = (self.acc << 8) | seg[self.bi]
            self.bi += 1
            self.nb += 8
        v = (self.acc >> (self.nb - n)) & ((1 << n) - 1)
        self.nb -= n
        self.acc &= (1 << self.nb) - 1
        return v

    def restart(self) -> None:
        if self.si + 1 >= len(self.segs):
            raise ValueError("missing restart segment")
        self.si += 1
        self.bi = 0
        self.acc = 0
        self.nb = 0

    def huff(self, table: dict) -> int:
        code = 0
        for ln in range(1, 17):
            code = (code << 1) | self.read(1)
            if (ln, code) in table:
                return table[(ln, code)]
        raise ValueError("bad huffman code")


class _Comp:
    __slots__ = ("cid", "h", "v", "tq", "bw", "bh", "sbw", "sbh", "coef",
                 "pred")

    def __init__(self, cid: int, h: int, v: int, tq: int) -> None:
        self.cid = cid
        self.h = h
        self.v = v
        self.tq = tq
        self.pred = 0


def _split_scan(payload: bytes, pos: int) -> tuple[list[bytes], int]:
    """Entropy-coded data from ``pos`` to the next true marker; RSTn
    markers split segments, 0xFF00 unstuffs."""
    segs: list[bytes] = []
    cur = bytearray()
    n = len(payload)
    i = pos
    while i < n:
        b = payload[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        nxt = payload[i + 1] if i + 1 < n else 0xD9
        if nxt == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= nxt <= 0xD7:
            segs.append(bytes(cur))
            cur = bytearray()
            i += 2
        else:
            break
    segs.append(bytes(cur))
    return segs, i


def decode_jpeg(payload: bytes) -> np.ndarray:
    """JPEG bytes → uint8 (H, W) gray or (H, W, 3) RGB."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    qtabs: dict[int, np.ndarray] = {}
    dc_tabs: dict[int, dict] = {}
    ac_tabs: dict[int, dict] = {}
    comps: list[_Comp] = []
    height = width = 0
    progressive = False
    restart_interval = 0
    frame_seen = False
    precision = 8
    adobe_transform: int | None = None
    pos = 2
    n = len(payload)
    while pos < n:
        if payload[pos] != 0xFF:
            raise ValueError("bad marker byte")
        # fill bytes: any number of 0xFF before the marker code
        while pos < n and payload[pos] == 0xFF:
            pos += 1
        if pos >= n:
            break
        marker = payload[pos]
        pos += 1
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # standalone markers
        if pos + 2 > n:
            raise ValueError("truncated segment header")
        (ln,) = struct.unpack_from(">H", payload, pos)
        body = payload[pos + 2:pos + ln]
        if len(body) != ln - 2:
            raise ValueError("truncated segment body")
        if marker == 0xDB:  # DQT
            o = 0
            while o < len(body):
                pq, tq = body[o] >> 4, body[o] & 0x0F
                o += 1
                if pq == 0:
                    tab = np.frombuffer(body[o:o + 64], np.uint8)
                    o += 64
                elif pq == 1:
                    tab = np.frombuffer(body[o:o + 128], ">u2")
                    o += 128
                else:
                    raise ValueError("bad DQT precision")
                if len(tab) != 64:
                    raise ValueError("short DQT table")
                qtabs[tq] = tab.astype(np.int64)  # zigzag order
        elif marker == 0xC4:  # DHT
            o = 0
            while o + 17 <= len(body):
                tc, th = body[o] >> 4, body[o] & 0x0F
                bits = list(body[o + 1:o + 17])
                cnt = sum(bits)
                vals = list(body[o + 17:o + 17 + cnt])
                if len(vals) != cnt:
                    raise ValueError("short DHT table")
                o += 17 + cnt
                tab = _decode_table(bits, vals)
                if tc == 0:
                    dc_tabs[th] = tab
                elif tc == 1:
                    ac_tabs[th] = tab
                else:
                    raise ValueError("bad DHT class")
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1/2
            if frame_seen:
                raise ValueError("multiple frames")
            frame_seen = True
            progressive = marker == 0xC2
            if len(body) < 6:
                raise ValueError("truncated SOF")
            prec, height, width, nc = struct.unpack_from(">BHHB", body, 0)
            if len(body) < 6 + 3 * nc:
                raise ValueError("truncated SOF component list")
            if prec not in (8, 12):
                raise ValueError(f"unsupported sample precision {prec}")
            precision = prec
            if nc not in (1, 3, 4):
                raise ValueError(f"unsupported component count {nc}")
            if height == 0 or width == 0:
                raise ValueError("bad frame dimensions")
            for c in range(nc):
                cid, hv, tq = struct.unpack_from(">BBB", body, 6 + 3 * c)
                h, v = hv >> 4, hv & 0x0F
                if not (1 <= h <= 4 and 1 <= v <= 4):
                    raise ValueError("bad sampling factor")
                comps.append(_Comp(cid, h, v, tq))
            hmax = max(c.h for c in comps)
            vmax = max(c.v for c in comps)
            mcx = (width + 8 * hmax - 1) // (8 * hmax)
            mcy = (height + 8 * vmax - 1) // (8 * vmax)
            for c in comps:
                c.bw = mcx * c.h
                c.bh = mcy * c.v
                # non-interleaved scan dims (actual sample coverage)
                cw = (width * c.h + hmax - 1) // hmax
                ch = (height * c.v + vmax - 1) // vmax
                c.sbw = (cw + 7) // 8
                c.sbh = (ch + 7) // 8
                c.coef = np.zeros((c.bh, c.bw, 64), np.int32)
        elif marker == 0xC3:  # lossless (Annex H): dedicated path
            return decode_lossless_jpeg(payload)
        elif marker in (0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD,
                        0xCE, 0xCF):
            raise ValueError(
                f"unsupported JPEG process (SOF marker 0xFF{marker:02X})")
        elif marker == 0xDD:  # DRI
            if len(body) < 2:
                raise ValueError("truncated DRI")
            (restart_interval,) = struct.unpack_from(">H", body, 0)
        elif marker == 0xDA:  # SOS
            if not frame_seen:
                raise ValueError("SOS before SOF")
            if not body:
                raise ValueError("empty SOS")
            ns = body[0]
            if len(body) < 1 + 2 * ns + 3 or not 1 <= ns <= 4:
                raise ValueError("malformed SOS header")
            scomps = []
            for s in range(ns):
                cs, tt = body[1 + 2 * s], body[2 + 2 * s]
                matches = [c for c in comps if c.cid == cs]
                if not matches:
                    raise ValueError("SOS references unknown component")
                scomps.append((matches[0], tt >> 4, tt & 0x0F))
            ss, se, ahal = body[1 + 2 * ns:4 + 2 * ns]
            ah, al = ahal >> 4, ahal & 0x0F
            segs, pos = _split_scan(payload, pos + ln)
            _decode_scan(_SegReader(segs), scomps, dc_tabs, ac_tabs,
                         ss, se, ah, al, progressive, restart_interval)
            continue
        elif marker == 0xEE and body[:5] == b"Adobe":  # APP14
            if len(body) >= 12:
                adobe_transform = body[11]
        # other APPn / COM: skipped
        pos += ln
    if not comps or comps[0].coef is None:
        raise ValueError("no frame decoded")
    return _reconstruct(comps, qtabs, height, width, adobe_transform,
                                precision)


def _decode_scan(br: _SegReader, scomps, dc_tabs, ac_tabs, ss, se, ah, al,
                 progressive, restart_interval) -> None:
    if not progressive:
        ss, se, ah, al = 0, 63, 0, 0
    for c, _td, _ta in scomps:
        c.pred = 0
    eobrun = 0
    interleaved = len(scomps) > 1
    if interleaved:
        if ss != 0:
            raise ValueError("interleaved AC scan is illegal")
        c0 = scomps[0][0]
        total_units = (c0.bw // c0.h) * (c0.bh // c0.v)
        units_x = c0.bw // c0.h
    else:
        c0, _, _ = scomps[0]
        total_units = c0.sbw * c0.sbh
        units_x = c0.sbw
    to_restart = restart_interval
    rst_needed = False
    for unit in range(total_units):
        if rst_needed:
            br.restart()
            for c, _td, _ta in scomps:
                c.pred = 0
            eobrun = 0
            to_restart = restart_interval
            rst_needed = False
        uy, ux = divmod(unit, units_x)
        for c, td, ta in scomps:
            if interleaved:
                blocks = [(uy * c.v + dv, ux * c.h + dh)
                          for dv in range(c.v) for dh in range(c.h)]
            else:
                blocks = [(uy, ux)]
            for by, bx in blocks:
                coef = c.coef[by, bx]
                if ss == 0 and (not progressive or ah == 0):
                    # DC (and, for sequential, the whole block)
                    dc_tab = dc_tabs.get(td)
                    if dc_tab is None:
                        raise ValueError("missing DC table")
                    cat = br.huff(dc_tab)
                    if cat > 15:
                        raise ValueError("bad DC category")
                    c.pred += _extend(br.read(cat), cat) if cat else 0
                    coef[0] = c.pred << al
                    if not progressive:
                        _decode_block_ac(br, coef, ac_tabs.get(ta))
                elif ss == 0:  # DC refinement
                    if br.read(1):
                        coef[0] = int(coef[0]) | (1 << al)
                else:
                    ac_tab = ac_tabs.get(ta)
                    if ac_tab is None:
                        raise ValueError("missing AC table")
                    if ah == 0:
                        eobrun = _decode_ac_first(br, coef, ac_tab, ss, se,
                                                  al, eobrun)
                    else:
                        eobrun = _decode_ac_refine(br, coef, ac_tab, ss, se,
                                                   al, eobrun)
        if restart_interval:
            to_restart -= 1
            if to_restart == 0 and unit != total_units - 1:
                rst_needed = True


def _decode_block_ac(br: _SegReader, coef, ac_tab) -> None:
    if ac_tab is None:
        raise ValueError("missing AC table")
    k = 1
    while k < 64:
        rs = br.huff(ac_tab)
        if rs == 0x00:
            break
        if rs == 0xF0:
            k += 16
            continue
        k += rs >> 4
        s = rs & 0x0F
        if k > 63:
            raise ValueError("AC index overflow")
        coef[k] = _extend(br.read(s), s)
        k += 1


def _decode_ac_first(br, coef, ac_tab, ss, se, al, eobrun) -> int:
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        rs = br.huff(ac_tab)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:
                k += 16
                continue
            return (1 << r) - 1 + (br.read(r) if r else 0)
        k += r
        if k > se:
            raise ValueError("AC band overflow")
        coef[k] = _extend(br.read(s), s) << al
        k += 1
    return 0


def _decode_ac_refine(br, coef, ac_tab, ss, se, al, eobrun) -> int:
    p1 = 1 << al
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = br.huff(ac_tab)
            r, s = rs >> 4, rs & 0x0F
            if s == 0:
                if r < 15:
                    # count includes the current block, whose remaining
                    # nonzero coefficients still take correction bits
                    eobrun = (1 << r) + (br.read(r) if r else 0)
                    break
                val = 0
            elif s == 1:
                val = p1 if br.read(1) else -p1
            else:
                raise ValueError("bad refinement magnitude")
            while k <= se:
                cv = int(coef[k])
                if cv != 0:
                    if br.read(1) and (cv & p1) == 0:
                        coef[k] = cv + (p1 if cv >= 0 else -p1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if s and k <= se:
                coef[k] = val
            k += 1
    if eobrun > 0:
        while k <= se:
            cv = int(coef[k])
            if cv != 0 and br.read(1) and (cv & p1) == 0:
                coef[k] = cv + (p1 if cv >= 0 else -p1)
            k += 1
        eobrun -= 1
    return eobrun


def _reconstruct(comps, qtabs, height, width,
                 adobe_transform: int | None = None,
                 precision: int = 8) -> np.ndarray:
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    planes = []
    for c in comps:
        if c.tq not in qtabs:
            raise ValueError("missing quantization table")
        qt = qtabs[c.tq]  # zigzag order
        zz = (c.coef.reshape(-1, 64).astype(np.int64) * qt)
        nat = np.zeros_like(zz)
        nat[:, ZIGZAG] = zz
        blocks = nat.reshape(-1, 8, 8).astype(np.float64)
        pix = _C.T[None] @ blocks @ _C[None]  # batched IDCT
        img = (pix.reshape(c.bh, c.bw, 8, 8)
               .transpose(0, 2, 1, 3).reshape(c.bh * 8, c.bw * 8))
        cw = (width * c.h + hmax - 1) // hmax
        ch = (height * c.v + vmax - 1) // vmax
        img = img[:ch, :cw]
        if c.h != hmax or c.v != vmax:
            # integer-ratio upsampling only: a legal-but-exotic JPEG with
            # non-integral sampling (e.g. hmax=3, h=2) would otherwise
            # produce an undersized plane and die in np.dstack with an
            # opaque shape error (ADVICE r3) — raise the honest one here
            if hmax % c.h or vmax % c.v:
                raise ValueError(
                    f"unsupported JPEG sampling ratio {c.h}x{c.v} "
                    f"vs max {hmax}x{vmax} (non-integral upsample)")
            img = np.repeat(np.repeat(img, vmax // c.v, axis=0),
                            hmax // c.h, axis=1)
        planes.append(img[:height, :width] + float(1 << (precision - 1)))
    mid = float(1 << (precision - 1))
    top = (1 << precision) - 1
    dt = np.uint8 if precision == 8 else np.uint16
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, top).astype(dt)
    if len(planes) == 4:
        # CMYK (Adobe transform 0/absent: stored direct) or YCCK
        # (transform 2: first three channels are YCbCr-coded) — output
        # the 4 stored-CMYK channels; color-management is the caller's
        c1, c2, c3, k = planes
        if adobe_transform == 2:
            r = c1 + 1.402 * (c3 - mid)
            g = c1 - 0.344136 * (c2 - mid) - 0.714136 * (c3 - mid)
            b = c1 + 1.772 * (c2 - mid)
            c1, c2, c3 = r, g, b
        return np.clip(np.round(np.dstack([c1, c2, c3, k])), 0,
                       top).astype(dt)
    y, cb, cr = planes
    r = y + 1.402 * (cr - mid)
    g = y - 0.344136 * (cb - mid) - 0.714136 * (cr - mid)
    b = y + 1.772 * (cb - mid)
    return np.clip(np.round(np.dstack([r, g, b])), 0, top).astype(dt)


# ---------------------------------------------------------------------------
# encoder (test vectors for every decoder path)
# ---------------------------------------------------------------------------

class _BitWriterJ:
    """MSB-first writer with 0xFF byte stuffing (T.81 B.1.1.5)."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        if length == 0:
            return
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)


def _seg(marker: int, payload: bytes) -> bytes:
    return struct.pack(">HH", marker, len(payload) + 2) + payload


def _rgb_to_ycbcr(img: np.ndarray):
    r = img[:, :, 0].astype(np.float64)
    g = img[:, :, 1].astype(np.float64)
    b = img[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return y, cb, cr


def _comp_blocks(plane: np.ndarray, bw: int, bh: int, qt: np.ndarray):
    """Pad plane to (bh*8, bw*8), DCT+quantize → (bh*bw, 64) zigzag."""
    h, w = plane.shape
    pad = np.pad(plane, ((0, bh * 8 - h), (0, bw * 8 - w)), mode="edge")
    blocks = (pad.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
              .reshape(-1, 8, 8) - 128.0)
    coef = _C[None] @ blocks @ _C.T[None]
    q = np.round(coef / qt.astype(np.float64)).astype(np.int64)
    return q.reshape(-1, 64)[:, ZIGZAG]


def _encode_block_seq(bw_, zz, pred, dc_enc, ac_enc) -> int:
    dc = int(zz[0])
    cat, bits = _magnitude(dc - pred)
    code, ln = dc_enc[cat]
    bw_.write(code, ln)
    if cat:
        bw_.write(bits, cat)
    nz = np.nonzero(zz[1:])[0]
    last = int(nz[-1]) + 1 if len(nz) else 0
    run = 0
    for i in range(1, last + 1):
        v = int(zz[i])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_enc[0xF0]
            bw_.write(code, ln)
            run -= 16
        cat, bits = _magnitude(v)
        code, ln = ac_enc[(run << 4) | cat]
        bw_.write(code, ln)
        bw_.write(bits, cat)
        run = 0
    if last < 63:
        code, ln = ac_enc[0x00]
        bw_.write(code, ln)
    return dc


class _ProgACWriter:
    """AC scan writer with EOB-run accumulation + buffered correction
    bits (refinement), per T.81 G.1.2."""

    def __init__(self, bw_, ac_enc) -> None:
        self.bw = bw_
        self.enc = ac_enc
        self.eobrun = 0
        self.pending: list[int] = []

    def _emit(self, sym: int, extra_bits: int, extra_len: int) -> None:
        code, ln = self.enc[sym]
        self.bw.write(code, ln)
        if extra_len:
            self.bw.write(extra_bits, extra_len)
        for bit in self.pending:
            self.bw.write(bit, 1)
        self.pending = []

    def flush_eob(self) -> None:
        if self.eobrun == 0:
            if self.pending:
                raise AssertionError("pending bits without EOB run")
            return
        r = self.eobrun.bit_length() - 1
        self._emit(r << 4, self.eobrun - (1 << r), r)
        self.eobrun = 0

    def end_block(self) -> None:
        self.eobrun += 1
        if self.eobrun == 0x7FFF:
            self.flush_eob()


def _encode_ac_first(w: _ProgACWriter, zz, ss, se, al) -> None:
    run = 0
    for k in range(ss, se + 1):
        v = int(zz[k])
        t = abs(v) >> al
        if t == 0:
            run += 1
            continue
        w.flush_eob()
        while run > 15:
            w._emit(0xF0, 0, 0)
            run -= 16
        cat, bits = _magnitude(t if v > 0 else -t)
        w._emit((run << 4) | cat, bits, cat)
        run = 0
    if run:  # trailing zeros (or an all-zero band) fold into the EOB run
        w.end_block()


def _encode_ac_refine(w: _ProgACWriter, zz, ss, se, al) -> None:
    t = [(abs(int(zz[k])) >> al) for k in range(ss, se + 1)]
    sgn = [int(zz[k]) >= 0 for k in range(ss, se + 1)]
    # last newly-significant position (t == 1); runs beyond it fold into
    # the EOB run, so ZRL draining must stop there (T.81 G.1.2.3)
    eob = -1
    for i, tv in enumerate(t):
        if tv == 1:
            eob = i
    run = 0
    pend: list[int] = []
    for i, tv in enumerate(t):
        if tv == 0:
            run += 1
            continue
        # drain 16-runs as soon as the scan passes them (correction bits
        # buffered so far belong to those spans and ride the ZRL)
        while run > 15 and i <= eob:
            w.flush_eob()
            w.pending.extend(pend)
            pend = []
            w._emit(0xF0, 0, 0)
            run -= 16
        if tv > 1:
            # history coefficient: buffer its correction bit; does not
            # break the zero run
            pend.append(tv & 1)
            continue
        # newly significant (tv == 1)
        w.flush_eob()
        w.pending.extend(pend)
        pend = []
        w._emit((run << 4) | 1, 1 if sgn[i] else 0, 1)
        run = 0
    if run or pend:
        w.pending.extend(pend)
        w.end_block()


def encode_jpeg(img: np.ndarray, *, subsampling: str = "444",
                progressive: bool = False,
                restart_interval: int = 0) -> bytes:
    """Gray (H, W) or RGB (H, W, 3) uint8 → JFIF bytes. ``subsampling``
    "444" or "420" (RGB only); ``progressive`` writes a SOF2 scan script
    with successive approximation; ``restart_interval`` adds DRI+RSTn."""
    gray = img.ndim == 2
    h, w = img.shape[0], img.shape[1]
    cmyk = img.ndim == 3 and img.shape[2] == 4
    if gray:
        planes = [img.astype(np.float64)]
        samps = [(1, 1)]
    elif cmyk:
        # Adobe APP14 transform 0: the four channels store direct
        planes = [img[:, :, i].astype(np.float64) for i in range(4)]
        samps = [(1, 1)] * 4
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsampling == "420":
            ph, pw = -h % 2, -w % 2
            cbp = np.pad(cb, ((0, ph), (0, pw)), mode="edge")
            crp = np.pad(cr, ((0, ph), (0, pw)), mode="edge")
            cb = cbp.reshape(cbp.shape[0] // 2, 2,
                             cbp.shape[1] // 2, 2).mean(axis=(1, 3))
            cr = crp.reshape(crp.shape[0] // 2, 2,
                             crp.shape[1] // 2, 2).mean(axis=(1, 3))
            samps = [(2, 2), (1, 1), (1, 1)]
        elif subsampling == "444":
            samps = [(1, 1), (1, 1), (1, 1)]
        else:
            raise ValueError("subsampling must be 444 or 420")
        planes = [y, cb, cr]
    hmax = max(s[0] for s in samps)
    vmax = max(s[1] for s in samps)
    mcx = (w + 8 * hmax - 1) // (8 * hmax)
    mcy = (h + 8 * vmax - 1) // (8 * vmax)
    qts = [QTABLE] + [QTABLE_CHROMA] * (len(planes) - 1)
    comps = []
    for plane, (sh, sv), qt in zip(planes, samps, qts):
        bw_, bh_ = mcx * sh, mcy * sv
        comps.append({"zz": _comp_blocks(plane, bw_, bh_, qt),
                      "bw": bw_, "bh": bh_, "h": sh, "v": sv,
                      "sbw": (plane.shape[1] + 7) // 8,
                      "sbh": (plane.shape[0] + 7) // 8})

    dc_enc = _build_codes(DC_BITS, DC_VALS)
    ac_enc = _build_codes(AC_BITS, AC_VALS)
    prog_ac_enc = _build_codes(_PROG_AC_BITS, _PROG_AC_VALS)

    out = bytearray(struct.pack(">H", 0xFFD8))
    out += _seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    if cmyk:  # Adobe APP14, transform 0 (direct CMYK)
        out += _seg(0xFFEE, b"Adobe" + struct.pack(">HHHB", 100, 0, 0, 0))
    out += _seg(0xFFDB, bytes([0]) + bytes(
        int(QTABLE.ravel()[ZIGZAG][i]) for i in range(64)))
    if not gray:
        out += _seg(0xFFDB, bytes([1]) + bytes(
            int(QTABLE_CHROMA.ravel()[ZIGZAG][i]) for i in range(64)))
    sof = 0xFFC2 if progressive else 0xFFC0
    body = struct.pack(">BHHB", 8, h, w, len(comps))
    for i, c in enumerate(comps):
        body += bytes([i + 1, (c["h"] << 4) | c["v"], 0 if i == 0 else 1])
    out += _seg(sof, body)
    out += _seg(0xFFC4, bytes([0x00]) + bytes(DC_BITS) + bytes(DC_VALS))
    out += _seg(0xFFC4, bytes([0x10]) + bytes(AC_BITS) + bytes(AC_VALS))
    if progressive:
        out += _seg(0xFFC4, bytes([0x11]) + bytes(_PROG_AC_BITS)
                    + bytes(_PROG_AC_VALS))
    if restart_interval:
        out += _seg(0xFFDD, struct.pack(">H", restart_interval))

    def sos_header(comp_ids_tables, ss, se, ah, al) -> bytes:
        b = bytes([len(comp_ids_tables)])
        for cid, td, ta in comp_ids_tables:
            b += bytes([cid, (td << 4) | ta])
        return _seg(0xFFDA, b + bytes([ss, se, (ah << 4) | al]))

    def run_scan(scomps, encode_unit) -> bytes:
        """Iterate scan units with restart handling; returns entropy."""
        bw2 = _BitWriterJ()
        if len(scomps) > 1:
            c0 = comps[scomps[0]]
            total = mcx * mcy
        else:
            c0 = comps[scomps[0]]
            total = c0["sbw"] * c0["sbh"]
        state = {"preds": [0] * len(comps), "w": None}
        to_rst = restart_interval
        rstn = 0
        parts = bytearray()
        for unit in range(total):
            encode_unit(bw2, unit, state)
            if restart_interval:
                to_rst -= 1
                if to_rst == 0 and unit != total - 1:
                    if state["w"] is not None:
                        state["w"].flush_eob()
                    bw2.flush()
                    parts += bw2.out
                    parts += struct.pack(">H", 0xFFD0 | rstn)
                    rstn = (rstn + 1) & 7
                    bw2 = _BitWriterJ()
                    state["preds"] = [0] * len(comps)
                    to_rst = restart_interval
        if state["w"] is not None:
            state["w"].flush_eob()
        bw2.flush()
        parts += bw2.out
        return bytes(parts)

    if not progressive:
        scomps = list(range(len(comps)))
        tabs = [(i + 1, 0, 0) for i in range(len(comps))]

        def unit_seq(bw2, unit, state):
            uy, ux = divmod(unit, mcx)
            for ci, c in enumerate(comps):
                for dv in range(c["v"]):
                    for dh in range(c["h"]):
                        by = uy * c["v"] + dv
                        bx = ux * c["h"] + dh
                        zz = c["zz"][by * c["bw"] + bx]
                        state["preds"][ci] = _encode_block_seq(
                            bw2, zz, state["preds"][ci], dc_enc, ac_enc)

        out += sos_header(tabs, 0, 63, 0, 0)
        out += run_scan(scomps if len(comps) > 1 else [0], unit_seq)
    else:
        # scan script: DC first (Al=1, interleaved), DC refine, then per
        # component AC first (Al=1) and AC refine (Al=0)
        def unit_dc_first(bw2, unit, state):
            uy, ux = divmod(unit, mcx)
            for ci, c in enumerate(comps):
                for dv in range(c["v"]):
                    for dh in range(c["h"]):
                        by = uy * c["v"] + dv
                        bx = ux * c["h"] + dh
                        dc = int(c["zz"][by * c["bw"] + bx][0]) >> 1
                        cat, bits = _magnitude(dc - state["preds"][ci])
                        code, ln = dc_enc[cat]
                        bw2.write(code, ln)
                        if cat:
                            bw2.write(bits, cat)
                        state["preds"][ci] = dc

        def unit_dc_refine(bw2, unit, state):
            uy, ux = divmod(unit, mcx)
            for c in comps:
                for dv in range(c["v"]):
                    for dh in range(c["h"]):
                        by = uy * c["v"] + dv
                        bx = ux * c["h"] + dh
                        bw2.write(int(c["zz"][by * c["bw"] + bx][0]) & 1, 1)

        out += sos_header([(i + 1, 0, 0) for i in range(len(comps))],
                          0, 0, 0, 1)
        out += run_scan(list(range(len(comps))), unit_dc_first)
        out += sos_header([(i + 1, 0, 0) for i in range(len(comps))],
                          0, 0, 1, 0)
        out += run_scan(list(range(len(comps))), unit_dc_refine)
        for ci, c in enumerate(comps):
            for (ah, al) in ((0, 1), (1, 0)):
                def unit_ac(bw2, unit, state, c=c, ah=ah, al=al):
                    if state["w"] is None or state["w"].bw is not bw2:
                        state["w"] = _ProgACWriter(bw2, prog_ac_enc)
                    uy, ux = divmod(unit, c["sbw"])
                    zz = c["zz"][uy * c["bw"] + ux]
                    if ah == 0:
                        _encode_ac_first(state["w"], zz, 1, 63, al)
                    else:
                        _encode_ac_refine(state["w"], zz, 1, 63, al)

                out += sos_header([(ci + 1, 0, 1)], 1, 63, ah, al)
                out += run_scan([ci], unit_ac)

    out += struct.pack(">H", 0xFFD9)
    return bytes(out)


# ---------------------------------------------------------------------------
# lossless JPEG (SOF3, ITU T.81 Annex H) — the DNG/medical/old-scanner
# process: per-sample prediction (selectors 1-7) with Huffman-coded
# difference categories (DC-style SSSS + mantissa bits), 2-16 bit
# precision, optional point transform.
# ---------------------------------------------------------------------------

def _lossless_predict(row, prev, x, sel, default):
    """Predictor Px (T.81 Table H.1). ``row``/``prev`` are int arrays
    of reconstructed samples for the current/previous line."""
    if prev is None:
        return row[x - 1] if x else default  # first line: a / default
    if x == 0:
        return prev[0]                       # first column: b
    a = row[x - 1]
    b = prev[x]
    c = prev[x - 1]
    if sel == 1:
        return a
    if sel == 2:
        return b
    if sel == 3:
        return c
    if sel == 4:
        return a + b - c
    if sel == 5:
        return a + ((b - c) >> 1)
    if sel == 6:
        return b + ((a - c) >> 1)
    return (a + b) >> 1                      # sel 7


def decode_lossless_jpeg(payload: bytes) -> np.ndarray:
    """SOF3 lossless JPEG → uint8/uint16 (H, W) or (H, W, N) samples.
    Single-scan, interleaved, 1x1 sampling, no restarts (DRI raises
    honestly)."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    dc_tabs: dict[int, dict] = {}
    prec = height = width = None
    comps: list[tuple[int, int]] = []  # (cid, td)
    pos = 2
    n = len(payload)
    while pos < n:
        while pos < n and payload[pos] == 0xFF:
            pos += 1
        if pos >= n:
            break
        marker = payload[pos]
        pos += 1
        if marker == 0xD9:
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            continue
        (ln,) = struct.unpack_from(">H", payload, pos)
        body = payload[pos + 2:pos + ln]
        pos += ln
        if marker == 0xC3:  # SOF3
            prec = body[0]
            height, width = struct.unpack_from(">HH", body, 1)
            nc = body[5]
            if not 2 <= prec <= 16:
                raise ValueError("bad lossless precision")
            if nc not in (1, 3):
                raise ValueError("unsupported component count")
            sof_comps = []
            for ci in range(nc):
                cid, hv, _tq = body[6 + 3 * ci:9 + 3 * ci]
                if hv != 0x11:
                    raise ValueError(
                        "lossless sampling factors != 1x1 unsupported")
                sof_comps.append(cid)
        elif marker == 0xC4:  # DHT
            bp = 0
            while bp < len(body):
                tc_th = body[bp]
                bits = list(body[bp + 1:bp + 17])
                nv = sum(bits)
                vals = list(body[bp + 17:bp + 17 + nv])
                if (tc_th >> 4) == 0:
                    dc_tabs[tc_th & 0xF] = _decode_table(bits, vals)
                bp += 17 + nv
        elif marker == 0xDD:
            if struct.unpack_from(">H", body, 0)[0]:
                raise ValueError("lossless restart intervals unsupported")
        elif marker == 0xDA:  # SOS
            if prec is None:
                raise ValueError("SOS before SOF3")
            ns = body[0]
            comps = []
            for si in range(ns):
                cs, tdta = body[1 + 2 * si:3 + 2 * si]
                comps.append((cs, tdta >> 4))
            sel = body[1 + 2 * ns]           # Ss = predictor selector
            pt = body[3 + 2 * ns] & 0xF      # Al = point transform
            if not 1 <= sel <= 7:
                raise ValueError("bad lossless predictor selector")
            segs, _end = _split_scan(payload, pos)
            br = _SegReader(segs)
            default = 1 << (prec - pt - 1)
            ncomp = len(comps)
            out = np.zeros((height, width, ncomp), np.int64)
            prev_rows = [None] * ncomp
            for y in range(height):
                rows = [np.zeros(width, np.int64) for _ in range(ncomp)]
                for x in range(width):
                    for k, (_cs, td) in enumerate(comps):
                        tab = dc_tabs.get(td)
                        if tab is None:
                            raise ValueError("missing DC huffman table")
                        ssss = br.huff(tab)
                        if ssss == 16:
                            diff = 32768
                        else:
                            diff = _extend(br.read(ssss), ssss)
                        pred = _lossless_predict(rows[k], prev_rows[k],
                                                 x, sel, default)
                        rows[k][x] = (pred + diff) & 0xFFFF
                for k in range(ncomp):
                    out[y, :, k] = rows[k]
                prev_rows = rows
            out = (out << pt) & 0xFFFF
            dt = np.uint8 if prec <= 8 else np.uint16
            out = out.astype(dt)
            return out[:, :, 0] if ncomp == 1 else out
    raise ValueError("lossless JPEG without SOS")


def encode_lossless_jpeg(img: np.ndarray, *, predictor: int = 1,
                         point_transform: int = 0) -> bytes:
    """Mirror encoder: uint8 (P=8) or uint16 (P=16) grayscale or
    (H, W, 3) arrays → SOF3 stream with one optimal-order DC-style
    Huffman table shared by all components."""
    if not 1 <= predictor <= 7:
        raise ValueError("bad predictor")
    arr = np.asarray(img)
    prec = 8 if arr.dtype == np.uint8 else 16
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ncomp = arr.shape
    pt = point_transform
    if pt:
        arr = arr >> pt
    samples = arr.astype(np.int64)
    default = 1 << (prec - pt - 1)
    # category table for SSSS 0..16: Annex-K-shaped canonical code
    # (1 len-2, 5 len-3, one each len 4..14; Kraft = 0.99993)
    bits = [0, 1, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0]
    vals = list(range(17))
    codes = _build_codes(bits, vals)
    bw = _BitWriterJ()
    prev_rows = [None] * ncomp
    for y in range(h):
        rows = [samples[y, :, k] for k in range(ncomp)]
        for x in range(w):
            for k in range(ncomp):
                pred = _lossless_predict(rows[k], prev_rows[k], x,
                                         predictor, default)
                diff = int(rows[k][x] - pred)
                # wrap to 16-bit two's complement window
                diff = ((diff + 32768) & 0xFFFF) - 32768
                if diff == 32768 or diff == -32768:
                    code, lncode = codes[16]
                    bw.write(code, lncode)
                else:
                    cat, mant = _magnitude(diff)
                    code, lncode = codes[cat]
                    bw.write(code, lncode)
                    if cat:
                        bw.write(mant, cat)
        prev_rows = rows
    bw.flush()
    dht = bytes([0x00]) + bytes(bits) + bytes(vals)
    sof = (bytes([prec]) + struct.pack(">HH", h, w) + bytes([ncomp])
           + b"".join(bytes([k + 1, 0x11, 0]) for k in range(ncomp)))
    sos = (bytes([ncomp])
           + b"".join(bytes([k + 1, 0x00]) for k in range(ncomp))
           + bytes([predictor, 0, pt]))
    out = bytearray(b"\xff\xd8")
    out += _seg(0xFFC4, dht)
    out += _seg(0xFFC3, sof)
    out += _seg(0xFFDA, sos)
    out += bw.out
    out += b"\xff\xd9"
    return bytes(out)


# ---------------------------------------------------------------------------
# 12-bit extended sequential (SOF1, T.81 §4.11 "extended DCT") — the
# medical/scientific-archive precision. Decode rides the normal scan
# machinery (precision threaded into reconstruction); this encoder
# emits grayscale test vectors with full-range DC (cat ≤ 15) / AC
# (s ≤ 14) Huffman tables Annex K lacks.
# ---------------------------------------------------------------------------

_DC12_BITS = [0, 0, 0, 0, 16] + [0] * 11
_DC12_VALS = list(range(16))
_AC12_SYMS = ([0x00, 0xF0]
              + [(r << 4) | s for r in range(16) for s in range(1, 15)])
_AC12_BITS = [0] * 7 + [128, len(_AC12_SYMS) - 128] + [0] * 7
_AC12_VALS = list(_AC12_SYMS)


def encode_jpeg12(img: np.ndarray) -> bytes:
    """uint16 grayscale (values 0..4095) → 12-bit SOF1 JPEG. A unit
    quantization table keeps block-constant inputs bit-exact through
    the float DCT (the DC-exact trick the 8-bit fixtures use)."""
    arr = np.asarray(img)
    if arr.dtype != np.uint16 or arr.ndim != 2 or arr.max() > 4095:
        raise ValueError("encode_jpeg12 expects 12-bit uint16 grayscale")
    h, w = arr.shape
    bwn, bhn = (w + 7) // 8, (h + 7) // 8
    pad = np.pad(arr.astype(np.float64),
                 ((0, bhn * 8 - h), (0, bwn * 8 - w)), mode="edge")
    blocks = (pad.reshape(bhn, 8, bwn, 8).transpose(0, 2, 1, 3)
              .reshape(-1, 8, 8) - 2048.0)
    coef = _C[None] @ blocks @ _C.T[None]
    zz = np.round(coef).astype(np.int64).reshape(-1, 64)[:, ZIGZAG]
    dc_enc = _build_codes(_DC12_BITS, _DC12_VALS)
    ac_enc = _build_codes(_AC12_BITS, _AC12_VALS)
    bw_ = _BitWriterJ()
    pred = 0
    for bi in range(zz.shape[0]):
        pred = _encode_block_seq(bw_, zz[bi], pred, dc_enc, ac_enc)
    bw_.flush()
    out = bytearray(b"\xff\xd8")
    out += _seg(0xFFDB, bytes([0]) + bytes([1] * 64))   # unit table
    out += _seg(0xFFC4, bytes([0x00]) + bytes(_DC12_BITS)
                + bytes(_DC12_VALS))
    out += _seg(0xFFC4, bytes([0x10]) + bytes(_AC12_BITS)
                + bytes(_AC12_VALS))
    out += _seg(0xFFC1, bytes([12]) + struct.pack(">HH", h, w)
                + bytes([1, 1, 0x11, 0]))
    out += _seg(0xFFDA, bytes([1, 1, 0x00, 0, 63, 0]))
    out += bw_.out
    out += b"\xff\xd9"
    return bytes(out)
