//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Used for message digests Δ(m), block hashes, and Merkle trees.  The CPU
//! *cost* of hashing in the modelled system is charged by the network
//! simulator's service-time model; what runs here is host time, and it is on
//! every replica's commit path, so three things keep it small:
//!
//! * x86-64 CPUs with the SHA extensions (asked once; std caches the answer)
//!   compress on them, in `compress_sha_ni`; elsewhere `compress_portable`, a
//!   16-word rolling schedule in plain Rust, runs — the reference the tests
//!   hold the hardware path to.  Both are FIPS 180-4 exactly: every digest
//!   is bit-identical whichever ran.
//! * Whole blocks are hashed straight from the input and padding is one step.
//! * Hashing happens once per value, not once per holder.  A
//!   `saguaro_ledger::Block` and a `saguaro_consensus::Batch` keep their
//!   members immutably behind an `Arc` together with the memoized digest /
//!   Merkle verdict, so every clone — every replica a multicast reaches, at
//!   every level of the hierarchy — reads the value the first holder
//!   computed.  The simulator may share a verdict across replicas because
//!   verification is a pure function of the bytes and the bytes cannot change
//!   behind the `Arc`: a tampered copy is a different body, built through a
//!   constructor that starts with no verdict, and is hashed on its own.

use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of genesis blocks.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hex representation of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(HEX[(b >> 4) as usize]);
            s.push(HEX[(b & 0xf) as usize]);
        }
        s
    }
}

const HEX: [char; 16] = [
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f',
];

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of the current, not yet compressed block (`buffer_len < 64`
    /// between calls).
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill the partial buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks straight from the input.
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        // Stash the tail.
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// Finalises the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding in one step: 0x80, zeros up to the length field, then the
        // 64-bit big-endian bit length — spilling into a second block when
        // fewer than nine bytes of the current one are free.
        let bit_len = self.total_len.wrapping_mul(8);
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used + 1 > 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        to_digest(self.state)
    }
}

/// The big-endian bytes of a final state.
fn to_digest(state: [u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Compresses one 64-byte block into `state`, on the SHA extensions where
/// the CPU has them.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !compress_hw(state, block) {
        compress_portable(state, block);
    }
}

/// Compresses `block` into `state` with `compress_sha_ni` if this CPU has
/// the SHA extensions; returns false, `state` untouched, if not.
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn compress_hw(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `compress_sha_ni` is safe code that requires the `sha`,
        // `sse2`, `ssse3` and `sse4.1` target features.  The runtime check
        // just above found `sha`, `ssse3` and `sse4.1` on this CPU, and
        // `sse2` is part of the x86-64 baseline.
        unsafe { compress_sha_ni(state, block) };
        return true;
    }
    false
}

/// One block on the SHA extensions, the standard 16 × 4-round schedule: the
/// state is two lanes, `ABEF` and `CDGH`, each `sha256rnds2` two rounds;
/// `w0..w3` are the next four groups of message words, rotated in registers
/// (through memory the schedule's store-to-load chain outlasts the rounds).
/// Lanes are built from `u32` words and read back by index: no pointers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;
    let lanes = |w: &[u32]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    let mut words = [0u32; 16];
    for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [a, b, c, d, e, f, g, h] = *state;
    let (abef_in, cdgh_in) = (lanes(&[f, e, b, a]), lanes(&[h, g, d, c]));
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);
    let [mut w0, mut w1, mut w2, mut w3] = [0, 4, 8, 12].map(|i| lanes(&words[i..i + 4]));
    for group in 0..16 {
        let kw = _mm_add_epi32(w0, lanes(&K[4 * group..4 * group + 4]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(kw, 0x0E));
        if group < 12 {
            let w7 = _mm_alignr_epi8(w3, w2, 4);
            let next = _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w7), w3);
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        } else {
            (w0, w1, w2) = (w1, w2, w3);
        }
    }
    let abef = _mm_add_epi32(abef, abef_in);
    let cdgh = _mm_add_epi32(cdgh, cdgh_in);
    *state = [
        _mm_extract_epi32(abef, 3) as u32,
        _mm_extract_epi32(abef, 2) as u32,
        _mm_extract_epi32(cdgh, 3) as u32,
        _mm_extract_epi32(cdgh, 2) as u32,
        _mm_extract_epi32(abef, 1) as u32,
        _mm_extract_epi32(abef, 0) as u32,
        _mm_extract_epi32(cdgh, 1) as u32,
        _mm_extract_epi32(cdgh, 0) as u32,
    ];
}

/// Compresses one 64-byte block into `state` in plain Rust.  The message
/// schedule is a 16-word rolling window: word `i ≥ 16` overwrites word
/// `i − 16`, the oldest one it depends on.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // One round over `k + w`; `ch` and `maj` in their three-operation forms.
    macro_rules! round {
        ($kw:expr) => {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = g ^ (e & (f ^ g));
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) | (c & (a | b));
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    for i in 0..16 {
        round!(K[i].wrapping_add(w[i]));
    }
    for i in 16..64 {
        let w15 = w[(i + 1) % 16];
        let w2 = w[(i + 14) % 16];
        w[i % 16] = w[i % 16]
            .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
            .wrapping_add(w[(i + 9) % 16])
            .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
        round!(K[i].wrapping_add(w[i % 16]));
    }
    for (s, x) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(x);
    }
}

/// One-shot SHA-256 of a byte string.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Digest of the concatenation of several byte strings (domain-separated by
/// length prefixes so `["ab","c"]` and `["a","bc"]` hash differently).
pub fn sha256_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_be_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// SHA-256 on `compress_portable` alone, padded longhand: the reference
    /// `Sha256` and the hardware kernel are held to.
    fn portable_sha256(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((data.len() + 8) / 64 * 64 + 56, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().expect("64 bytes"));
        }
        to_digest(state)
    }

    /// `Sha256` (on whichever kernel this CPU runs) and `compress_portable`
    /// called directly both give the known answer.
    fn assert_known_answer(data: &[u8], expected: &str) {
        let n = data.len();
        assert_eq!(sha256(data).to_hex(), expected, "Sha256, {n} B");
        assert_eq!(portable_sha256(data).to_hex(), expected, "portable, {n} B");
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_known_answer(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_known_answer(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_known_answer(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        assert_known_answer(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// `compress_sha_ni` equals `compress_portable` on 10 000 random (state,
    /// block) pairs (with the extensions), and `Sha256` on random chunkings
    /// of every length 0..=300 equals the portable reference.
    #[test]
    fn sha_ni_equals_portable_on_random_blocks_and_chunkings() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let sha_ni = compress_hw(&mut H0.clone(), &[0; 64]);
        // Past the harness's capture: every test log says what it covered.
        let _ = match sha_ni {
            true => writeln!(std::io::stderr(), "sha256: compress_sha_ni = portable"),
            false => writeln!(std::io::stderr(), "sha256: portable only, no SHA-NI"),
        };
        for _ in 0..if sha_ni { 10_000 } else { 0 } {
            let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let block: [u8; 64] = std::array::from_fn(|_| next() as u8);
            let (mut portable, mut hw) = (state, state);
            compress_portable(&mut portable, &block);
            assert!(compress_hw(&mut hw, &block));
            assert_eq!(hw, portable, "state {state:08x?} block {block:02x?}");
        }
        for len in 0..=300 {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut h = Sha256::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let take = next() as usize % (rest.len().min(130) + 1);
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(h.finalize(), portable_sha256(&data), "{len} bytes");
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let one_shot = sha256(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 200] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk}");
        }
    }

    /// Known answers (`hashlib.sha256(b"a" * n)`) on both sides of the two
    /// padding boundaries: 55/56 (the length field still fits / spills into
    /// a second block) and 63/64 (a block fills exactly), plus the same one
    /// block further on.
    #[test]
    fn known_answers_at_the_padding_boundaries() {
        for (len, expected) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ] {
            assert_known_answer(&vec![b'a'; len], expected);
        }
    }

    /// `sha256_parts` is plain SHA-256 of the length-prefixed concatenation,
    /// wherever the split falls.
    #[test]
    fn parts_equal_one_shot_over_the_prefixed_concatenation() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..200 {
            let data: Vec<u8> = (0..next() % 200).map(|_| next() as u8).collect();
            let (a, b) = data.split_at((next() % (data.len() as u64 + 1)) as usize);
            let mut flat = Vec::new();
            for part in [a, b] {
                flat.extend_from_slice(&(part.len() as u64).to_be_bytes());
                flat.extend_from_slice(part);
            }
            assert_eq!(sha256_parts(&[a, b]), sha256(&flat));
        }
    }

    #[test]
    fn parts_are_length_prefixed() {
        assert_ne!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"a", b"bc"]));
        assert_eq!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"ab", b"c"]));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert!(format!("{d:?}").starts_with('#'));
        assert_eq!(d.as_ref().len(), 32);
    }
}
