//! CRC-32 (IEEE 802.3 polynomial) used to checksum every WAL record.
//!
//! Torn or bit-flipped tails are the failure mode a write-ahead log
//! must detect on recovery; a per-record checksum lets the scanner stop
//! at the first record the disk did not persist intact.
//!
//! The checksum is the append path's fixed per-record tax, so it is
//! computed slice-by-8: eight table lookups fold eight input bytes per
//! step instead of one. The polynomial, initial value and final XOR are
//! unchanged, so every value equals the bytewise algorithm's.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which lets one step combine
/// eight bytes that sit at different distances from the end.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
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
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

#[inline]
fn step_byte(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize]
}

/// Computes the CRC-32 checksum of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][usize::from(c[4])]
            ^ TABLES[2][usize::from(c[5])]
            ^ TABLES[1][usize::from(c[6])]
            ^ TABLES[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = step_byte(crc, b);
    }
    !crc
}

/// The byte-at-a-time algorithm every WAL and ledger record on disk was
/// written with; the tests hold [`crc32`] equal to it.
#[cfg(test)]
pub(crate) fn crc32_bytewise(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| step_byte(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_check_value() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"rivulet wal record".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn equals_bytewise_at_every_length_and_alignment() {
        // Seeded buffer (SplitMix64), every length 0..=257 — across the
        // 8-byte fold boundary many times, plus every tail length — at
        // every start offset 0..8, so the slice's address alignment
        // never matters.
        let mut state = 0x5EED_u64;
        let buf: Vec<u8> = (0..8 + 257)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset} len {len}"
                );
            }
        }
    }
}
