//! CRC32C (Castagnoli) — the checksum of NMSEQDB format v2.
//!
//! A safe software implementation (reflected polynomial `0x82F63B78`, the
//! iSCSI/ext4 variant) using slicing-by-8: eight compile-time tables let
//! each step fold eight input bytes with eight independent lookups instead
//! of a chain of eight dependent ones. Every strict v2 scan runs CRC32C
//! twice over each record (record CRC and whole-file CRC), so this loop is
//! most of a scan's CPU time; slicing-by-8 cuts it about 4x over the
//! byte-at-a-time table on x86-64 without `unsafe`, `std::arch` or a
//! second code path. CRC32C detects all single-bit and all 2-bit errors
//! within its span, and any burst up to 32 bits.
//!
//! CRC32C is linear over GF(2), which lets the disk writer keep a whole-file
//! checksum current without re-reading the file: [`Crc32c::patch`] folds in
//! a change to bytes already checksummed (the header count), and
//! [`Crc32c::rewind`] takes trailing bytes back out (a stored footer).

/// Reflected CRC32C polynomial (Castagnoli, normal form `0x1EDC6F41`).
const POLY: u32 = 0x82F6_3B78;

/// The slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte table; `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
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
}

/// `a · b mod P` for polynomials in the reflected representation (bit 31
/// holds `x^0`), as in zlib's `multmodp`.
fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `x^(8·n) mod P`: the operator that feeds `n` zero bytes through the
/// register, built by square-and-multiply (zlib's `x2nmodp`).
fn zero_bytes_operator(n: u64) -> u32 {
    let mut power = 1u32 << 31; // x^0
    let mut square = 1u32 << 23; // x^8: one zero byte
    let mut n = n;
    while n != 0 {
        if n & 1 != 0 {
            power = mul_mod(square, power);
        }
        square = mul_mod(square, square);
        n >>= 1;
    }
    power
}

/// Incremental CRC32C state.
///
/// ```
/// use noisemine_seqdb::crc::Crc32c;
/// let mut crc = Crc32c::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xE306_9283); // the CRC32C check value
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh state (initial value `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Self(u32::MAX)
    }

    /// The state whose [`Crc32c::finish`] is `crc`: a stored checksum,
    /// resumed so more bytes can be folded in or taken back out.
    pub fn resume(crc: u32) -> Self {
        Self(!crc)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// Takes `bytes`, the last ones folded in, back out of the checksum:
    /// `update(x); rewind(x)` is a no-op. Runs the register backwards one
    /// bit at a time, so it is meant for short tails such as a footer.
    pub fn rewind(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes.iter().rev() {
            for _ in 0..8 {
                // A forward step shifts right and XORs in POLY when the
                // low bit was set; POLY's top bit marks that case.
                crc = if crc & (1 << 31) != 0 {
                    ((crc ^ POLY) << 1) | 1
                } else {
                    crc << 1
                };
            }
            crc ^= b as u32;
        }
        self.0 = crc;
    }

    /// Updates the checksum as if bytes folded in earlier had been XORed
    /// with `delta`, where `trailing` bytes were folded in after them.
    /// Costs O(log `trailing`) instead of re-reading those bytes: by
    /// linearity the change is `delta`'s own CRC register moved past
    /// `trailing` zero bytes (zlib's `crc32_combine` operator).
    pub fn patch(&mut self, delta: &[u8], trailing: u64) {
        let mut change = Self(0);
        change.update(delta);
        self.0 ^= mul_mod(zero_bytes_operator(trailing), change.0);
    }

    /// The final checksum (with output reflection/inversion applied).
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The plain bit-at-a-time definition the tables must agree with.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= b as u32;
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

    #[test]
    fn check_value() {
        // The standard CRC32C check value for "123456789".
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(reference(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn slicing_matches_bytewise_reference_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0x43_5243);
        let data: Vec<u8> = (0..600).map(|_| rng.gen()).collect();
        for start in 0..9 {
            for len in 0..70 {
                let s = &data[start..start + len];
                assert_eq!(crc32c(s), reference(s), "start {start} len {len}");
            }
        }
        for _ in 0..200 {
            let start = rng.gen_range(0..data.len());
            let end = rng.gen_range(start..=data.len());
            let s = &data[start..end];
            assert_eq!(crc32c(s), reference(s), "range {start}..{end}");
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for step in [1, 3, 7, 8, 13, 64] {
            let mut crc = Crc32c::new();
            for chunk in data.chunks(step) {
                crc.update(chunk);
            }
            assert_eq!(crc.finish(), crc32c(&data), "chunks of {step}");
        }
    }

    #[test]
    fn rewind_undoes_update() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let head: Vec<u8> = (0..rng.gen_range(0..100usize)).map(|_| rng.gen()).collect();
            let tail: Vec<u8> = (0..rng.gen_range(0..30usize)).map(|_| rng.gen()).collect();
            let mut crc = Crc32c::new();
            crc.update(&head);
            crc.update(&tail);
            crc.rewind(&tail);
            assert_eq!(crc.finish(), crc32c(&head));
            let mut resumed = Crc32c::resume(crc32c(&[head.as_slice(), &tail].concat()));
            resumed.rewind(&tail);
            assert_eq!(resumed.finish(), crc32c(&head));
        }
    }

    #[test]
    fn patch_equals_recomputing_the_changed_bytes() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let len = rng.gen_range(8..3000usize);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let at = rng.gen_range(0..=len - 8);
            let new_field = rng.gen::<u64>().to_le_bytes();
            let mut changed = data.clone();
            let mut delta = [0u8; 8];
            for i in 0..8 {
                delta[i] = data[at + i] ^ new_field[i];
                changed[at + i] = new_field[i];
            }
            let mut crc = Crc32c::new();
            crc.update(&data);
            crc.patch(&delta, (len - at - 8) as u64);
            assert_eq!(crc.finish(), crc32c(&changed), "len {len} at {at}");
        }
    }

    #[test]
    fn patch_moves_over_long_zero_runs() {
        // Distances past the register width exercise the square-and-multiply.
        let zeros = vec![0u8; 100_000];
        let mut crc = Crc32c::new();
        crc.update(&[0u8; 4]);
        crc.update(&zeros);
        crc.patch(&[0xA5, 0, 0, 0x5A], zeros.len() as u64);
        let mut expected = vec![0xA5, 0, 0, 0x5A];
        expected.extend_from_slice(&zeros);
        assert_eq!(crc.finish(), crc32c(&expected));
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data = b"noisemine sequence database".to_vec();
        let clean = crc32c(&data);
        for bit in 0..data.len() * 8 {
            let mut corrupt = data.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&corrupt), clean, "bit {bit} undetected");
        }
    }
}
