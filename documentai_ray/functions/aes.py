"""AES-128/192/256 (FIPS-197) + CBC mode — pure Python, table-based.

Implements the public Rijndael cipher for the PDF standard security
handler's /AESV2 crypt filter (ISO 32000 §7.6.2): 16-byte-block
encrypt/decrypt, key expansion for all three key sizes, CBC with a
random-IV prefix and PKCS#7 padding as PDF uses it. Correctness is
pinned against the FIPS-197 appendix known-answer vectors in tests.
Throughput is modest (pure Python) — right for per-document streams in
a batch pipeline, not bulk-disk encryption.
"""

from __future__ import annotations

_SBOX = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16]
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


_MUL2 = [_xtime(i) for i in range(256)]
_MUL3 = [_MUL2[i] ^ i for i in range(256)]


def _mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a = _xtime(a)
        b >>= 1
    return r


_MUL9 = [_mul(i, 9) for i in range(256)]
_MUL11 = [_mul(i, 11) for i in range(256)]
_MUL13 = [_mul(i, 13) for i in range(256)]
_MUL14 = [_mul(i, 14) for i in range(256)]


def key_expansion(key: bytes) -> list[list[int]]:
    """Round keys as a flat list of 4-byte words."""
    nk = len(key) // 4
    if nk not in (4, 6, 8):
        raise ValueError("AES key must be 16/24/32 bytes")
    nr = nk + 6
    words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        t = list(words[i - 1])
        if i % nk == 0:
            t = t[1:] + t[:1]
            t = [_SBOX[b] for b in t]
            t[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            t = [_SBOX[b] for b in t]
        words.append([a ^ b for a, b in zip(words[i - nk], t)])
    return words


def _add_round_key(s: list[int], words, rnd: int) -> None:
    for c in range(4):
        w = words[4 * rnd + c]
        for r in range(4):
            s[4 * c + r] ^= w[r]


def encrypt_block(block: bytes, words) -> bytes:
    nr = len(words) // 4 - 1
    s = list(block)
    _add_round_key(s, words, 0)
    for rnd in range(1, nr + 1):
        s = [_SBOX[b] for b in s]                       # SubBytes
        # ShiftRows (state stored column-major: s[4c+r])
        t = s[:]
        for r in range(1, 4):
            for c in range(4):
                s[4 * c + r] = t[4 * ((c + r) % 4) + r]
        if rnd != nr:                                   # MixColumns
            t = s[:]
            for c in range(4):
                a0, a1, a2, a3 = t[4 * c:4 * c + 4]
                s[4 * c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
                s[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
                s[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
                s[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        _add_round_key(s, words, rnd)
    return bytes(s)


def decrypt_block(block: bytes, words) -> bytes:
    nr = len(words) // 4 - 1
    s = list(block)
    _add_round_key(s, words, nr)
    for rnd in range(nr - 1, -1, -1):
        # InvShiftRows
        t = s[:]
        for r in range(1, 4):
            for c in range(4):
                s[4 * c + r] = t[4 * ((c - r) % 4) + r]
        s = [_INV_SBOX[b] for b in s]                   # InvSubBytes
        _add_round_key(s, words, rnd)
        if rnd != 0:                                    # InvMixColumns
            t = s[:]
            for c in range(4):
                a0, a1, a2, a3 = t[4 * c:4 * c + 4]
                s[4 * c + 0] = (_MUL14[a0] ^ _MUL11[a1]
                                ^ _MUL13[a2] ^ _MUL9[a3])
                s[4 * c + 1] = (_MUL9[a0] ^ _MUL14[a1]
                                ^ _MUL11[a2] ^ _MUL13[a3])
                s[4 * c + 2] = (_MUL13[a0] ^ _MUL9[a1]
                                ^ _MUL14[a2] ^ _MUL11[a3])
                s[4 * c + 3] = (_MUL11[a0] ^ _MUL13[a1]
                                ^ _MUL9[a2] ^ _MUL14[a3])
    return bytes(s)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """CBC with PKCS#7 padding; returns ciphertext WITHOUT the IV (the
    PDF layout prepends the IV to the stream — caller's choice)."""
    words = key_expansion(key)
    pad = 16 - len(plaintext) % 16
    data = plaintext + bytes([pad]) * pad
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i:i + 16], prev))
        prev = encrypt_block(block, words)
        out += prev
    return bytes(out)


def cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC over an exact block multiple (no padding) — the PDF R6 key
    machinery (Algorithm 2.B / UE / OE) uses this mode."""
    if len(data) % 16:
        raise ValueError("nopad CBC needs a block multiple")
    words = key_expansion(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i:i + 16], prev))
        prev = encrypt_block(block, words)
        out += prev
    return bytes(out)


def cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    if len(data) % 16:
        raise ValueError("nopad CBC needs a block multiple")
    if not data:
        return b""
    return _cbc_decrypt_np(key, iv, data)


def ecb_encrypt(key: bytes, data: bytes) -> bytes:
    """Single-shot ECB (block multiple) — PDF R6 /Perms only."""
    if len(data) % 16:
        raise ValueError("ECB needs a block multiple")
    words = key_expansion(key)
    return b"".join(encrypt_block(data[i:i + 16], words)
                    for i in range(0, len(data), 16))


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) % 16 or not ciphertext:
        raise ValueError("CBC ciphertext must be a positive block multiple")
    out = bytearray(_cbc_decrypt_np(key, iv, ciphertext))
    pad = out[-1]
    if not 1 <= pad <= 16 or out[-pad:] != bytes([pad]) * pad:
        raise ValueError("bad CBC padding")
    return bytes(out[:-pad])


# ---------------------------------------------------------------------------
# vectorized block-parallel decryption (numpy)
#
# CBC DECRYPTION has no inter-block dependency (P_i = D(C_i) XOR
# C_{i-1}, all ciphertext blocks known up front), so every block of a
# stream decrypts in one numpy pass over an (n, 16) state matrix —
# table-lookup SubBytes/round-key XOR/fixed-permutation ShiftRows/
# table-built InvMixColumns. Encryption stays scalar: the CBC chain
# feeds each block the previous CIPHERTEXT, which is inherently
# sequential. Pinned bit-identical to the scalar path by test.
# ---------------------------------------------------------------------------

import numpy as _np

_INV_SBOX_NP = _np.array(_INV_SBOX, _np.uint8)
_MUL9_NP = _np.array([_mul(9, i) for i in range(256)], _np.uint8)
_MUL11_NP = _np.array([_mul(11, i) for i in range(256)], _np.uint8)
_MUL13_NP = _np.array([_mul(13, i) for i in range(256)], _np.uint8)
_MUL14_NP = _np.array([_mul(14, i) for i in range(256)], _np.uint8)
# column-major state s[4c+r]: InvShiftRows source = 4*((c - r) % 4) + r
_INV_SHIFT_IDX = _np.array([4 * ((j // 4 - j % 4) % 4) + j % 4
                            for j in range(16)], _np.int64)


def _round_keys_np(words) -> _np.ndarray:
    nr = len(words) // 4 - 1
    rk = _np.zeros((nr + 1, 16), _np.uint8)
    for rnd in range(nr + 1):
        for c in range(4):
            for r in range(4):
                rk[rnd, 4 * c + r] = words[4 * rnd + c][r]
    return rk


def _decrypt_blocks_np(data: bytes, words) -> _np.ndarray:
    """AES-decrypt every 16-byte block of ``data`` at once → (n, 16)."""
    nr = len(words) // 4 - 1
    rk = _round_keys_np(words)
    s = _np.frombuffer(data, _np.uint8).reshape(-1, 16).copy()
    s ^= rk[nr]
    for rnd in range(nr - 1, -1, -1):
        s = s[:, _INV_SHIFT_IDX]            # InvShiftRows
        s = _INV_SBOX_NP[s]                 # InvSubBytes
        s ^= rk[rnd]
        if rnd:                             # InvMixColumns
            a = s.reshape(-1, 4, 4)
            m9, m11 = _MUL9_NP[a], _MUL11_NP[a]
            m13, m14 = _MUL13_NP[a], _MUL14_NP[a]
            out = _np.empty_like(a)
            out[:, :, 0] = (m14[:, :, 0] ^ m11[:, :, 1]
                            ^ m13[:, :, 2] ^ m9[:, :, 3])
            out[:, :, 1] = (m9[:, :, 0] ^ m14[:, :, 1]
                            ^ m11[:, :, 2] ^ m13[:, :, 3])
            out[:, :, 2] = (m13[:, :, 0] ^ m9[:, :, 1]
                            ^ m14[:, :, 2] ^ m11[:, :, 3])
            out[:, :, 3] = (m11[:, :, 0] ^ m13[:, :, 1]
                            ^ m9[:, :, 2] ^ m14[:, :, 3])
            s = out.reshape(-1, 16)
    return s


def _cbc_decrypt_np(key: bytes, iv: bytes, data: bytes) -> bytes:
    words = key_expansion(key)
    dec = _decrypt_blocks_np(data, words)
    prev = _np.frombuffer(iv + data[:-16], _np.uint8).reshape(-1, 16)
    return (dec ^ prev).tobytes()
