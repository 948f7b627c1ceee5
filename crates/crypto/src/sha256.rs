//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Used for message digests Δ(m), block hashes, and Merkle trees.  The CPU
//! *cost* of hashing in the modelled system is charged by the network
//! simulator's service-time model; what runs here is host time, and it is on
//! every replica's commit path, so two things keep it small:
//!
//! * The compression function keeps a 16-word rolling message schedule,
//!   hashes whole blocks straight from the input and pads in one step.
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

    /// First eight bytes interpreted as a big-endian integer; handy for
    /// deterministic tie-breaking (e.g. choosing which conflicting optimistic
    /// transaction to abort).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }

    /// Combines two digests into one (parent node of a Merkle tree or chained
    /// hash of a block header).
    pub fn combine(&self, other: &Digest) -> Digest {
        let mut buf = [0u8; 64];
        buf[..32].copy_from_slice(&self.0);
        buf[32..].copy_from_slice(&other.0);
        sha256(&buf)
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

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Compresses one 64-byte block into `state`.  The message schedule is a
/// 16-word rolling window: word `i ≥ 16` overwrites word `i − 16`, the
/// oldest one it depends on.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
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

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
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
            assert_eq!(hex(&sha256(&vec![b'a'; len])), expected, "{len} bytes");
        }
    }

    /// `sha256_parts` is plain SHA-256 of the length-prefixed concatenation,
    /// wherever the split falls.
    #[test]
    fn parts_equal_one_shot_over_the_prefixed_concatenation() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
    fn combine_is_order_sensitive() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_ne!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_ne!(d.prefix_u64(), 0);
        assert_eq!(Digest::ZERO.prefix_u64(), 0);
        assert!(format!("{d:?}").starts_with('#'));
        assert_eq!(d.as_ref().len(), 32);
    }
}
