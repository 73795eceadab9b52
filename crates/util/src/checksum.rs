//! CRC-32C (Castagnoli) checksums.
//!
//! Snapshot and checkpoint files end in a CRC over every preceding byte,
//! so a truncated or bit-flipped file is rejected at load time instead of
//! deserializing into a silently-wrong model. With memory-mapped
//! snapshots the checksum pass *is* the load, so its throughput sets the
//! serve start-up floor: on x86-64 with SSE 4.2, [`crc32c`] runs on the
//! hardware `crc32` instruction; elsewhere on slicing-by-16 tables
//! (sixteen independent table lookups per 16-byte block instead of
//! sixteen sequential per-byte steps).
//!
//! Either way a single CRC is bound by the serial dependency on the
//! running 32-bit state. Large inputs therefore take a *braided* path:
//! each block is split into three equal streams checksummed independently
//! (three dependency chains the CPU can overlap), and the per-stream CRCs
//! are stitched back together with GF(2) length-shift operators,
//! precomputed at compile time for the fixed stream length.

/// The reflected Castagnoli polynomial (iSCSI; what the x86 `crc32`
/// instruction implements).
const POLY_C: u32 = 0x82F6_3B78;

/// Builds slicing-by-16 lookup tables for a reflected polynomial at
/// compile time. `[0]` is the classic Sarwate byte table; `[k][n]`
/// advances the CRC of byte `n` through `k` additional zero bytes.
const fn make_tables(poly: u32) -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1usize;
    while t < 16 {
        let mut n = 0usize;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        t += 1;
    }
    tables
}

/// Slicing-by-16 tables for CRC-32C (Castagnoli), the software fallback
/// when the hardware instruction is unavailable.
const TABLES_C: [[u32; 256]; 16] = make_tables(POLY_C);

/// One slicing-by-16 step: folds a 16-byte chunk into the running CRC.
#[inline(always)]
fn step16(tables: &[[u32; 256]; 16], c: u32, chunk: &[u8; 16]) -> u32 {
    let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    tables[15][(lo & 0xFF) as usize]
        ^ tables[14][((lo >> 8) & 0xFF) as usize]
        ^ tables[13][((lo >> 16) & 0xFF) as usize]
        ^ tables[12][(lo >> 24) as usize]
        ^ tables[11][chunk[4] as usize]
        ^ tables[10][chunk[5] as usize]
        ^ tables[9][chunk[6] as usize]
        ^ tables[8][chunk[7] as usize]
        ^ tables[7][chunk[8] as usize]
        ^ tables[6][chunk[9] as usize]
        ^ tables[5][chunk[10] as usize]
        ^ tables[4][chunk[11] as usize]
        ^ tables[3][chunk[12] as usize]
        ^ tables[2][chunk[13] as usize]
        ^ tables[1][chunk[14] as usize]
        ^ tables[0][chunk[15] as usize]
}

/// Bytes per independent stream in the braided fast path.
const STREAM: usize = 8192;

/// GF(2) operator advancing a CRC across one stream of zero bytes.
const OP_STREAM_C: [u32; 32] = shift_operator(POLY_C, STREAM as u64);

/// GF(2) operator advancing a CRC across one whole braided block.
const OP_BLOCK_C: [u32; 32] = shift_operator(POLY_C, 3 * STREAM as u64);

/// Multiplies the GF(2) matrix `mat` by the bit-vector `vec`.
const fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0usize;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Squares the GF(2) matrix `mat`.
const fn gf2_matrix_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut square = [0u32; 32];
    let mut n = 0usize;
    while n < 32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
        n += 1;
    }
    square
}

/// Multiplies two GF(2) matrices (`a ∘ b`: apply `b`, then `a`).
const fn gf2_matrix_mul(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut n = 0usize;
    while n < 32 {
        out[n] = gf2_matrix_times(a, b[n]);
        n += 1;
    }
    out
}

/// The GF(2) operator that advances a CRC (reflected polynomial `poly`)
/// across `len` zero bytes, materialized whole by repeated squaring so it
/// can be baked in at compile time.
const fn shift_operator(poly: u32, mut len: u64) -> [u32; 32] {
    let mut result = [0u32; 32];
    let mut n = 0usize;
    while n < 32 {
        result[n] = 1u32 << n; // identity
        n += 1;
    }
    if len == 0 {
        return result;
    }
    let mut odd = [0u32; 32]; // operator for one zero *bit*
    odd[0] = poly;
    let mut row = 1u32;
    let mut n = 1usize;
    while n < 32 {
        odd[n] = row;
        row <<= 1;
        n += 1;
    }
    let mut even = gf2_matrix_square(&odd); // two zero bits
    odd = gf2_matrix_square(&even); // four → one zero byte after next square
    loop {
        even = gf2_matrix_square(&odd);
        if len & 1 != 0 {
            result = gf2_matrix_mul(&even, &result);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
        odd = gf2_matrix_square(&even);
        if len & 1 != 0 {
            result = gf2_matrix_mul(&odd, &result);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
    }
    result
}

/// One-shot CRC-32C (Castagnoli) of `bytes` — the snapshot and
/// checkpoint trailer checksum (check value `0xE306_9283`). On x86-64 with SSE 4.2 the
/// braided streams ride the hardware `crc32` instruction (three-cycle
/// latency, single-cycle throughput — three independent chains run ~3×
/// faster than one and an order of magnitude faster than tables);
/// elsewhere the same braid runs on slicing-by-16 tables.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Continues a CRC-32C: given `crc = crc32c(prefix)`, returns
/// `crc32c(prefix ‖ bytes)` without the prefix at hand, so a file can be
/// checksummed section by section as it is written.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the required CPU feature was just detected.
        return unsafe { crc32c_hw(crc, bytes) };
    }
    crc32c_sw(crc, bytes)
}

/// Hardware CRC-32C, continuing from `crc`. Same braid as
/// [`crc32c_sw`], with the per-stream loops on `_mm_crc32_u64` instead of
/// table lookups.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut state = crc ^ 0xFFFF_FFFF;
    let mut rest = bytes;
    if rest.len() >= 3 * STREAM {
        let mut total = state ^ 0xFFFF_FFFF;
        while rest.len() >= 3 * STREAM {
            let (block, tail) = rest.split_at(3 * STREAM);
            rest = tail;
            let (a, bc) = block.split_at(STREAM);
            let (b, c) = bc.split_at(STREAM);
            let mut ca = 0xFFFF_FFFFu64;
            let mut cb = 0xFFFF_FFFFu64;
            let mut cc = 0xFFFF_FFFFu64;
            let lanes = a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8));
            for ((ka, kb), kc) in lanes {
                ca = _mm_crc32_u64(ca, u64::from_le_bytes(ka.try_into().unwrap()));
                cb = _mm_crc32_u64(cb, u64::from_le_bytes(kb.try_into().unwrap()));
                cc = _mm_crc32_u64(cc, u64::from_le_bytes(kc.try_into().unwrap()));
            }
            let ab =
                gf2_matrix_times(&OP_STREAM_C, ca as u32 ^ 0xFFFF_FFFF) ^ (cb as u32 ^ 0xFFFF_FFFF);
            let abc = gf2_matrix_times(&OP_STREAM_C, ab) ^ (cc as u32 ^ 0xFFFF_FFFF);
            total = gf2_matrix_times(&OP_BLOCK_C, total) ^ abc;
        }
        state = total ^ 0xFFFF_FFFF;
    }
    let mut c = u64::from(state);
    let mut chunks = rest.chunks_exact(8);
    for chunk in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// Software CRC-32C, continuing from `crc`: the table braid. (Also the
/// reference the hardware path is tested against.)
fn crc32c_sw(crc: u32, bytes: &[u8]) -> u32 {
    let mut state = crc ^ 0xFFFF_FFFF;
    let mut rest = bytes;
    if rest.len() >= 3 * STREAM {
        let mut total = state ^ 0xFFFF_FFFF;
        while rest.len() >= 3 * STREAM {
            let (block, tail) = rest.split_at(3 * STREAM);
            rest = tail;
            let (a, bc) = block.split_at(STREAM);
            let (b, c) = bc.split_at(STREAM);
            let mut ca = 0xFFFF_FFFFu32;
            let mut cb = 0xFFFF_FFFFu32;
            let mut cc = 0xFFFF_FFFFu32;
            let lanes = a.chunks_exact(16).zip(b.chunks_exact(16)).zip(c.chunks_exact(16));
            for ((ka, kb), kc) in lanes {
                ca = step16(&TABLES_C, ca, ka.try_into().unwrap());
                cb = step16(&TABLES_C, cb, kb.try_into().unwrap());
                cc = step16(&TABLES_C, cc, kc.try_into().unwrap());
            }
            let ab = gf2_matrix_times(&OP_STREAM_C, ca ^ 0xFFFF_FFFF) ^ (cb ^ 0xFFFF_FFFF);
            let abc = gf2_matrix_times(&OP_STREAM_C, ab) ^ (cc ^ 0xFFFF_FFFF);
            total = gf2_matrix_times(&OP_BLOCK_C, total) ^ abc;
        }
        state = total ^ 0xFFFF_FFFF;
    }
    let mut c = state;
    let mut chunks = rest.chunks_exact(16);
    for chunk in &mut chunks {
        c = step16(&TABLES_C, c, chunk.try_into().unwrap());
    }
    for &b in chunks.remainder() {
        c = TABLES_C[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn braided_path_matches_bytewise_reference() {
        // 100 KB crosses the braid threshold several times over; the
        // reference is the classic one-byte-at-a-time recurrence.
        let data: Vec<u8> = (0..100_000).map(|i| (i * 131 % 256) as u8).collect();
        let mut c = 0xFFFF_FFFFu32;
        for &b in &data {
            c = TABLES_C[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        assert_eq!(crc32c_sw(0, &data), c ^ 0xFFFF_FFFF);
    }

    #[test]
    fn crc32c_hardware_matches_software() {
        // Lengths straddling the braid threshold and odd tails; on
        // machines without SSE 4.2 this degenerates to sw == sw.
        for len in [0usize, 1, 7, 15, 100, 3 * STREAM - 1, 3 * STREAM, 100_000, 6 * STREAM + 13] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            assert_eq!(crc32c(&data), crc32c_sw(0, &data), "len {len}");
        }
    }

    #[test]
    fn continuation_matches_the_one_shot_crc_at_every_split() {
        // Buffers short of, at and just past the braid threshold, so a
        // continued tail runs the braid from a non-initial CRC too. Both
        // paths are checked (on machines without SSE 4.2 the public one
        // is the software path again).
        for len in [0usize, 1, 9, 64, 3 * STREAM + 21] {
            let data: Vec<u8> = (0..len).map(|i| (i * 73 % 251) as u8).collect();
            let whole = crc32c(&data);
            assert_eq!(whole, crc32c_sw(0, &data), "len {len}");
            for split in 0..=len {
                let (head, tail) = data.split_at(split);
                assert_eq!(crc32c_append(crc32c(head), tail), whole, "len {len}, split {split}");
                assert_eq!(crc32c_sw(crc32c_sw(0, head), tail), whole, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 64];
        data[10] = 0x5A;
        let reference = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupt), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
