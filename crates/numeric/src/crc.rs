//! CRC-32 (IEEE 802.3, the zlib polynomial): the checksum framing the
//! telemetry blobs, the verifier's v2 snapshots and its WAL records.
//!
//! Slicing-by-8: eight lookup tables, built at compile time, fold eight
//! input bytes per step instead of one. `CRC_TABLES[0]` is the classic
//! bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed
//! by `k` zero bytes, so the eight lookups of one step combine by XOR.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The eight slicing tables, built at compile time.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
///
/// ```
/// assert_eq!(ropuf_numeric::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC-32: the reference the sliced
    /// implementation must agree with everywhere.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn pseudo_random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = crate::splitmix64(x);
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value from the CRC catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        // Every length 0..=64 at every start offset 0..8 covers each
        // split between the 8-byte body and the bytewise tail, on
        // every alignment of the input slice.
        let buf = pseudo_random_bytes(64 + 8, 0x5EED);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_on_large_random_buffers() {
        let mut x = 0xC0FF_EE00_u64;
        for round in 0..12 {
            x = crate::splitmix64(x);
            let len = if round == 0 {
                64 * 1024
            } else {
                (x % (64 * 1024 + 1)) as usize
            };
            let buf = pseudo_random_bytes(len, x);
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
    }
}
