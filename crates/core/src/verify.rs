//! Complete-exchange correctness verification.
//!
//! Blocks carry *provenance stamps*: byte `k` of the block travelling
//! from `src` to `dst` is a pseudo-random function of `(src, dst, k)`.
//! After a run, every node's memory is checked slot by slot against
//! the expected stamps, so any mis-routed, mis-shuffled, duplicated or
//! corrupted block is detected.
//!
//! # The lane kernel
//!
//! [`stamp_byte`] is the specification of every stamp. The bulk paths
//! ([`fill_block`], [`stamped_memories`], [`block_matches`],
//! [`verify_complete_exchange`], [`verify_naive_exchange`]) do not call
//! it byte by byte: they run one kernel that computes the stamps of
//! bytes `k0..k0 + 8` (`k0 % 8 == 0`) in one step and writes or compares
//! them as one little-endian `u64` word. For such `k0` the lane inputs
//! are `base ^ (k0 + j) = base ^ k0 ^ j`, and `j < 8` never reaches the
//! first xor-shift's bit 30, so that xor-shift is done once per word
//! (`premix`) and each lane only xors in its `j`. Bytes past the last
//! whole word (`m % 8` of them) use `stamp_byte` itself. A block whose
//! words differ is rescanned with `stamp_byte` to report its first bad
//! byte, so verification returns exactly what the per-byte definition
//! gives.
//!
//! **Dispatch.** The loops that drive the kernel are written once,
//! generic over the 8-lane word function, and compiled twice: a
//! baseline build with portable lanes, and on x86-64 an
//! `avx512f,avx512dq` build whose lanes are one 512-bit vector
//! (`vpmullq` for the two 64-bit multiplies, `vpmovqb` to pack the eight
//! low bytes). Each public entry point picks one per call with
//! `is_x86_feature_detected!`. Both builds are pinned byte-equal to
//! `stamp_byte` by this module's differential tests.

use mce_hypercube::NodeId;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// The stamp byte for offset `k` of the block `src -> dst`.
///
/// A splitmix64-style mix of the triple; distinct `(src, dst)` pairs
/// produce byte streams that differ with overwhelming probability at
/// every offset, so comparing whole blocks catches swaps.
#[inline]
pub fn stamp_byte(src: NodeId, dst: NodeId, k: usize) -> u8 {
    let mut z = ((src.0 as u64) << 40) ^ ((dst.0 as u64) << 20) ^ k as u64 ^ GOLDEN;
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    (z ^ (z >> 31)) as u8
}

/// The first xor-shift of [`stamp_byte`]'s mix for the word of bytes
/// `k0..k0 + 8` (`k0 % 8 == 0`) of block `src -> dst`: lane `j` of that
/// word continues the mix from `premix(src, dst, k0) ^ j`.
#[inline(always)]
fn premix(src: NodeId, dst: NodeId, k0: usize) -> u64 {
    let z = ((src.0 as u64) << 40) ^ ((dst.0 as u64) << 20) ^ k0 as u64 ^ GOLDEN;
    z ^ (z >> 30)
}

/// The eight stamps of one word, from its [`premix`] `y`, packed
/// little-endian: byte `j` is the stamp of offset `k0 + j`.
#[inline(always)]
fn lanes_portable(y: u64) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|j| {
        let z = (y ^ j as u64).wrapping_mul(MIX1);
        let z = (z ^ (z >> 27)).wrapping_mul(MIX2);
        (z ^ (z >> 31)) as u8
    }))
}

/// [`lanes_portable`] as one 512-bit vector of eight 64-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn lanes_avx512(y: u64) -> u64 {
    use std::arch::x86_64::*;
    let j = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    let z = _mm512_xor_si512(_mm512_set1_epi64(y as i64), j);
    let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX1 as i64));
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
    let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX2 as i64));
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
    _mm_cvtsi128_si64(_mm512_cvtepi64_epi8(z)) as u64
}

/// One call's work for the lane kernel: `run` drives the kernel through
/// the 8-lane word function it is given, and is inlined into each build
/// [`dispatch`] chooses from.
trait Job {
    type Out;
    fn run(self, lanes: impl Fn(u64) -> u64 + Copy) -> Self::Out;
}

/// Run `job` on the widest build of the kernel this CPU supports.
fn dispatch<J: Job>(job: J) -> J::Out {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
        // SAFETY: `avx512` needs exactly the two target features it is
        // compiled with, and the CPU has just reported both.
        return unsafe { avx512(job) };
    }
    job.run(lanes_portable)
}

/// The AVX-512 build of `job`. Only [`dispatch`] calls it, after
/// checking that the CPU has both target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn avx512<J: Job>(job: J) -> J::Out {
    job.run(|y| lanes_avx512(y))
}

/// Append the `m`-byte stamped block `src -> dst` to `out`.
#[inline(always)]
fn push_with(lanes: impl Fn(u64) -> u64, out: &mut Vec<u8>, m: usize, src: NodeId, dst: NodeId) {
    for w in 0..m / 8 {
        out.extend_from_slice(&lanes(premix(src, dst, 8 * w)).to_le_bytes());
    }
    out.extend((m & !7..m).map(|k| stamp_byte(src, dst, k)));
}

/// Whether `block` holds the stamps of `src -> dst`. Whole words are
/// compared without an early exit, so the lanes of one block overlap.
#[inline(always)]
fn matches_with(lanes: impl Fn(u64) -> u64, block: &[u8], src: NodeId, dst: NodeId) -> bool {
    let mut words = block.chunks_exact(8);
    let mut diff = 0u64;
    for (w, word) in (&mut words).enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of 8 bytes"));
        diff |= word ^ lanes(premix(src, dst, 8 * w));
    }
    let tail = block.len() & !7;
    diff == 0 && words.remainder().iter().zip(tail..).all(|(&b, k)| b == stamp_byte(src, dst, k))
}

/// Write the stamps of `src -> dst` over `buf`; see [`fill_block`].
struct Fill<'a> {
    buf: &'a mut [u8],
    src: NodeId,
    dst: NodeId,
}

impl Job for Fill<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self, lanes: impl Fn(u64) -> u64 + Copy) {
        let (src, dst) = (self.src, self.dst);
        let tail = self.buf.len() & !7;
        let mut words = self.buf.chunks_exact_mut(8);
        for (w, word) in (&mut words).enumerate() {
            word.copy_from_slice(&lanes(premix(src, dst, 8 * w)).to_le_bytes());
        }
        for (b, k) in words.into_remainder().iter_mut().zip(tail..) {
            *b = stamp_byte(src, dst, k);
        }
    }
}

/// See [`block_matches`].
struct Matches<'a> {
    block: &'a [u8],
    src: NodeId,
    dst: NodeId,
}

impl Job for Matches<'_> {
    type Out = bool;
    #[inline(always)]
    fn run(self, lanes: impl Fn(u64) -> u64 + Copy) -> bool {
        matches_with(lanes, self.block, self.src, self.dst)
    }
}

/// The initial memories of a complete exchange; see [`stamped_memories`].
struct Stamp {
    d: u32,
    m: usize,
}

impl Job for Stamp {
    type Out = Vec<Vec<u8>>;
    #[inline(always)]
    fn run(self, lanes: impl Fn(u64) -> u64 + Copy) -> Vec<Vec<u8>> {
        let (n, m) = (1usize << self.d, self.m);
        (0..n)
            .map(|x| {
                let mut mem = Vec::with_capacity(n * m);
                for q in 0..n {
                    push_with(lanes, &mut mem, m, NodeId(x as u32), NodeId(q as u32));
                }
                mem
            })
            .collect()
    }
}

/// Check that node `x`'s slot `p`, `offset` bytes into its memory,
/// holds block `p -> x`, for every node and every `p < n` (but
/// `p != x` when `skip_self`).
struct Check<'a> {
    n: usize,
    m: usize,
    memories: &'a [Vec<u8>],
    offset: usize,
    skip_self: bool,
}

impl Job for Check<'_> {
    type Out = Vec<Mismatch>;
    #[inline(always)]
    fn run(self, lanes: impl Fn(u64) -> u64 + Copy) -> Vec<Mismatch> {
        let m = self.m;
        let mut mismatches = Vec::new();
        for (xi, mem) in self.memories.iter().enumerate() {
            let (x, slots) = (NodeId(xi as u32), &mem[self.offset..]);
            for p in 0..self.n {
                if self.skip_self && p == xi {
                    continue;
                }
                let (src, block) = (NodeId(p as u32), &slots[p * m..(p + 1) * m]);
                if !matches_with(lanes, block, src, x) {
                    let first_bad_byte = (0..m)
                        .position(|k| block[k] != stamp_byte(src, x, k))
                        .expect("a mismatched block has a differing byte");
                    mismatches.push(Mismatch {
                        node: x,
                        slot: p,
                        expected_src: src,
                        first_bad_byte,
                    });
                }
            }
        }
        mismatches
    }
}

/// Fill one block buffer with the stamp of `src -> dst`.
pub fn fill_block(buf: &mut [u8], src: NodeId, dst: NodeId) {
    dispatch(Fill { buf, src, dst })
}

/// Whether `block` holds exactly the stamp of `src -> dst` (its length
/// is the block size).
pub fn block_matches(block: &[u8], src: NodeId, dst: NodeId) -> bool {
    dispatch(Matches { block, src, dst })
}

/// Build the initial node memories for a complete exchange on a
/// dimension-`d` cube with `m`-byte blocks: node `x`, slot `q` holds
/// the stamped block `x -> q` (destination-major layout).
pub fn stamped_memories(d: u32, m: usize) -> Vec<Vec<u8>> {
    dispatch(Stamp { d, m })
}

/// A verification failure at one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Node whose memory is wrong.
    pub node: NodeId,
    /// Slot (block index) within the node's memory.
    pub slot: usize,
    /// The source whose block should be there (`slot` itself in the
    /// source-major final layout).
    pub expected_src: NodeId,
    /// First differing byte offset within the block.
    pub first_bad_byte: usize,
}

/// Check the **final** layout: node `x`, slot `p` must hold the
/// stamped block `p -> x`. Returns all mismatches (empty = success).
pub fn verify_complete_exchange(d: u32, m: usize, memories: &[Vec<u8>]) -> Vec<Mismatch> {
    let n = 1usize << d;
    assert_eq!(memories.len(), n, "one memory per node");
    for (xi, mem) in memories.iter().enumerate() {
        assert!(mem.len() >= n * m, "node {xi} memory too small");
    }
    dispatch(Check { n, m, memories, offset: 0, skip_self: false })
}

/// Check a naive-layout result (see
/// [`crate::builder::build_naive_programs`]): the *second half* of
/// node `x`'s memory, slot `p != x`, must hold block `p -> x`.
pub fn verify_naive_exchange(d: u32, m: usize, memories: &[Vec<u8>]) -> Vec<Mismatch> {
    let n = 1usize << d;
    // No self-message in the naive pattern.
    dispatch(Check { n, m, memories, offset: n * m, skip_self: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte check the lane kernel replaced, kept as the
    /// reference its results must equal.
    fn scalar_verify_complete_exchange(d: u32, m: usize, memories: &[Vec<u8>]) -> Vec<Mismatch> {
        let n = 1usize << d;
        let mut mismatches = Vec::new();
        for (xi, mem) in memories.iter().enumerate() {
            for p in 0..n {
                let block = &mem[p * m..(p + 1) * m];
                let bad = block
                    .iter()
                    .enumerate()
                    .find(|&(k, &b)| b != stamp_byte(NodeId(p as u32), NodeId(xi as u32), k));
                if let Some((k, _)) = bad {
                    mismatches.push(Mismatch {
                        node: NodeId(xi as u32),
                        slot: p,
                        expected_src: NodeId(p as u32),
                        first_bad_byte: k,
                    });
                }
            }
        }
        mismatches
    }

    /// [`scalar_verify_complete_exchange`] for the naive layout.
    fn scalar_verify_naive_exchange(d: u32, m: usize, memories: &[Vec<u8>]) -> Vec<Mismatch> {
        let n = 1usize << d;
        let second_halves: Vec<Vec<u8>> =
            memories.iter().map(|mem| mem[n * m..].to_vec()).collect();
        let mut mismatches = scalar_verify_complete_exchange(d, m, &second_halves);
        mismatches.retain(|mm| mm.slot != mm.node.index());
        mismatches
    }

    /// Node memories in the final layout, stamped byte by byte.
    fn spec_finals(d: u32, m: usize) -> Vec<Vec<u8>> {
        let n = 1usize << d;
        (0..n)
            .map(|x| {
                (0..n * m)
                    .map(|i| stamp_byte(NodeId((i / m) as u32), NodeId(x as u32), i % m))
                    .collect()
            })
            .collect()
    }

    /// Damage `mems` (each `slot_bytes` long after `offset`) by one of
    /// the faults an exchange can make: 0 none, 1 one corrupted byte,
    /// 2 two blocks swapped within a node, 3 memories never exchanged.
    fn damage(mems: &mut [Vec<u8>], d: u32, m: usize, offset: usize, fault: u32, pick: (u64, u64)) {
        let n = 1usize << d;
        let node = (pick.0 % n as u64) as usize;
        match fault {
            1 if m > 0 => {
                let at = (pick.1 % (n * m) as u64) as usize;
                mems[node][offset + at] ^= 1 + (pick.0 >> 32) as u8 % 255;
            }
            2 => {
                let p = (pick.1 % n as u64) as usize;
                let q = (p + 1 + (pick.1 >> 32) as usize % (n - 1)) % n;
                let (lo, hi) = (p.min(q), p.max(q));
                let (a, b) = mems[node][offset..].split_at_mut(hi * m);
                a[lo * m..(lo + 1) * m].swap_with_slice(&mut b[..m]);
            }
            3 => {
                for (mem, init) in mems.iter_mut().zip(stamped_memories(d, m)) {
                    mem[offset..].copy_from_slice(&init);
                }
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both builds of the kernel write and accept exactly the bytes
        /// of `stamp_byte`, and reject a block with any byte changed.
        #[test]
        fn kernel_fill_and_match_equal_stamp_byte(
            src in 0u32..=1 << 20,
            dst in 0u32..=1 << 20,
            m in 0usize..=200,
            at in 0usize..200,
        ) {
            let (src, dst) = (NodeId(src), NodeId(dst));
            let spec: Vec<u8> = (0..m).map(|k| stamp_byte(src, dst, k)).collect();
            let mut baseline = vec![0xA5; m];
            Fill { buf: &mut baseline, src, dst }.run(lanes_portable);
            let mut widest = vec![0x5A; m];
            fill_block(&mut widest, src, dst);
            prop_assert_eq!(&baseline, &spec);
            prop_assert_eq!(&widest, &spec);
            prop_assert!(Matches { block: &spec, src, dst }.run(lanes_portable));
            prop_assert!(block_matches(&spec, src, dst));
            if m > 0 {
                let mut bad = spec.clone();
                bad[at % m] ^= 0x80;
                prop_assert!(!Matches { block: &bad, src, dst }.run(lanes_portable));
                prop_assert!(!block_matches(&bad, src, dst));
            }
        }

        /// Both builds stamp initial memories byte-equal to `stamp_byte`.
        #[test]
        fn kernel_stamped_memories_equal_stamp_byte(d in 0u32..=5, m in 0usize..=200) {
            let n = 1usize << d;
            let spec: Vec<Vec<u8>> = (0..n)
                .map(|x| (0..n * m).map(|i| stamp_byte(NodeId(x as u32), NodeId((i / m) as u32), i % m)).collect())
                .collect();
            prop_assert!(Stamp { d, m }.run(lanes_portable) == spec);
            prop_assert!(stamped_memories(d, m) == spec);
        }

        /// Both builds report the same mismatches, in the same order, as
        /// the per-byte reference, on both result layouts.
        #[test]
        fn kernel_verify_equals_scalar_reference(
            d in 1u32..=5,
            m in 0usize..=200,
            fault in 0u32..4,
            pick in (0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            let n = 1usize << d;
            let mut finals = spec_finals(d, m);
            damage(&mut finals, d, m, 0, fault, pick);
            let expected = scalar_verify_complete_exchange(d, m, &finals);
            let check = |memories, offset, skip_self| Check { n, m, memories, offset, skip_self };
            prop_assert_eq!(&check(&finals, 0, false).run(lanes_portable), &expected);
            prop_assert_eq!(&verify_complete_exchange(d, m, &finals), &expected);

            let mut naive: Vec<Vec<u8>> =
                spec_finals(d, m).into_iter().map(|half| [vec![0x33; n * m], half].concat()).collect();
            damage(&mut naive, d, m, n * m, fault, pick);
            let expected = scalar_verify_naive_exchange(d, m, &naive);
            prop_assert_eq!(&check(&naive, n * m, true).run(lanes_portable), &expected);
            prop_assert_eq!(&verify_naive_exchange(d, m, &naive), &expected);
        }
    }

    #[test]
    fn stamps_differ_between_pairs() {
        let a: Vec<u8> = (0..32).map(|k| stamp_byte(NodeId(1), NodeId(2), k)).collect();
        let b: Vec<u8> = (0..32).map(|k| stamp_byte(NodeId(2), NodeId(1), k)).collect();
        let c: Vec<u8> = (0..32).map(|k| stamp_byte(NodeId(1), NodeId(3), k)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn initial_memories_have_destination_major_layout() {
        let mems = stamped_memories(3, 4);
        assert_eq!(mems.len(), 8);
        for (x, mem) in mems.iter().enumerate() {
            assert_eq!(mem.len(), 32);
            for q in 0..8 {
                for k in 0..4 {
                    assert_eq!(mem[q * 4 + k], stamp_byte(NodeId(x as u32), NodeId(q as u32), k));
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // x, p are node labels
    fn verify_detects_correct_exchange() {
        // Manually construct the exchanged state.
        let d = 3u32;
        let m = 4usize;
        let n = 8usize;
        let mut finals = vec![vec![0u8; n * m]; n];
        for x in 0..n {
            for p in 0..n {
                fill_block(&mut finals[x][p * m..(p + 1) * m], NodeId(p as u32), NodeId(x as u32));
            }
        }
        assert!(verify_complete_exchange(d, m, &finals).is_empty());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // x, p are node labels
    fn verify_detects_swapped_blocks() {
        let d = 2u32;
        let m = 8usize;
        let n = 4usize;
        let mut finals = vec![vec![0u8; n * m]; n];
        for x in 0..n {
            for p in 0..n {
                fill_block(&mut finals[x][p * m..(p + 1) * m], NodeId(p as u32), NodeId(x as u32));
            }
        }
        // Swap the blocks in slots 0 and 1 at node 1.
        let (a, b) = finals[1].split_at_mut(m);
        a.swap_with_slice(&mut b[..m]);
        let bad = verify_complete_exchange(d, m, &finals);
        assert_eq!(bad.len(), 2, "both slots report: {bad:?}");
        assert!(bad.iter().all(|mm| mm.node == NodeId(1)));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // x, p are node labels
    fn verify_detects_single_corrupt_byte() {
        let d = 2u32;
        let m = 16usize;
        let n = 4usize;
        let mut finals = vec![vec![0u8; n * m]; n];
        for x in 0..n {
            for p in 0..n {
                fill_block(&mut finals[x][p * m..(p + 1) * m], NodeId(p as u32), NodeId(x as u32));
            }
        }
        finals[2][3 * m + 7] ^= 0xFF;
        let bad = verify_complete_exchange(d, m, &finals);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].node, NodeId(2));
        assert_eq!(bad[0].slot, 3);
        assert_eq!(bad[0].first_bad_byte, 7);
    }

    #[test]
    fn unexchanged_memories_fail_verification() {
        let d = 3u32;
        let m = 4usize;
        let mems = stamped_memories(d, m);
        let bad = verify_complete_exchange(d, m, &mems);
        // Every slot except the self-block (x -> x at slot x) is wrong.
        assert_eq!(bad.len(), 8 * 8 - 8);
    }

    #[test]
    fn batched_exchange_runs_verify_across_block_ladder() {
        // The stamp check must hold for every run of a batched
        // block-size ladder: simulation moves real bytes, so any
        // cross-run state leakage in the arena would corrupt a stamp.
        use mce_simnet::batch::SimBatch;
        use mce_simnet::SimConfig;
        let d = 4u32;
        let sizes = [8usize, 16, 48];
        let mut batch = SimBatch::new(SimConfig::ipsc860(d));
        batch.block_ladder(&sizes, |m| {
            (crate::builder::build_multiphase_programs(d, &[2, 2], m), stamped_memories(d, m))
        });
        for (&m, r) in sizes.iter().zip(batch.run()) {
            let r = r.unwrap();
            assert!(verify_complete_exchange(d, m, &r.memories).is_empty(), "m={m}");
        }
    }
}
