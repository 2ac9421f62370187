//! CRC-32 (IEEE 802.3 polynomial).
//!
//! Frame footprints (§5.2) embed a CRC over the current and two prior
//! frame headers so that clients can validate that a reconstructed chain
//! ordering is consistent with what each relaying node observed.

/// Reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic byte table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight bytes fold in one step.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// A streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the CRC.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            // The register folds into the block's first four bytes; byte
            // `k` is then followed by `7 - k` more.
            let word = u64::from_le_bytes(block.try_into().expect("8-byte block")) ^ crc as u64;
            crc = (0..8).fold(0, |acc, k| {
                acc ^ TABLES[7 - k][(word >> (8 * k)) as u8 as usize]
            });
        }
        for &b in blocks.remainder() {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finalises and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 of a single slice.
    fn crc32(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }

    /// Bit-at-a-time CRC-32: the definition the tables must reproduce.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn sensitive_to_order() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn slicing_matches_bitwise_at_every_length_and_split() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 73 + 19) as u8).collect();
        for len in 0..=data.len() {
            let want = bitwise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "length {len}");
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finish(), want, "length {len} split at {split}");
            }
        }
        // Every byte value in every lane of an 8-byte block reads every
        // entry of every table.
        for b in 0..=255u8 {
            assert_eq!(crc32(&[b; 8]), bitwise(&[b; 8]), "byte {b:#04x}");
        }
    }
}
