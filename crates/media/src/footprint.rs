//! Frame footprints and local frame chains (§5.2).
//!
//! Mainstream live protocols carry no frame sequence identifier, so RLive
//! lets each best-effort node generate a *local frame chain*: a list of
//! lightweight footprints `(dts, crc, cnt)` for the most recent frames it
//! has relayed, embedded into every data packet. The CRC covers the
//! current header and the two prior headers so a client can validate that
//! the ordering it reconstructs matches what the relay observed; the
//! packet count (`cnt`) lets the client know when a frame is complete.
//! The chain length δ is 4 in the deployed system.

use crate::crc::Crc32;
use crate::frame::FrameHeader;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Deployed chain length δ (§5.2): each packet carries the footprints of
/// the current frame and its three predecessors.
pub const CHAIN_LEN: usize = 4;

/// Number of prior headers mixed into each footprint's CRC.
pub const CRC_DEPTH: usize = 2;

/// A lightweight, unique frame identifier: `(dts, crc, cnt)`.
///
/// `crc` embeds the current and the prior two frame headers, giving
/// uniqueness without hashing payload bytes (which would force relays to
/// pull substreams they do not serve, §5.2). `cnt` is the number of
/// fixed-size packets the frame was split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Footprint {
    /// Decoding timestamp of the frame, in milliseconds.
    pub dts_ms: u64,
    /// CRC-32 over the current and previous two frame headers.
    pub crc: u32,
    /// Packet count of the frame.
    pub cnt: u32,
}

impl Footprint {
    /// Computes the footprint of `header` given the up-to-two headers
    /// that precede it in the *full stream* order (most recent last).
    pub fn compute(header: &FrameHeader, prior: &[FrameHeader], packet_count: u32) -> Footprint {
        let mut crc = Crc32::new();
        let start = prior.len().saturating_sub(CRC_DEPTH);
        for p in &prior[start..] {
            crc.update(&p.to_bytes());
        }
        crc.update(&header.to_bytes());
        Footprint {
            dts_ms: header.dts_ms,
            crc: crc.finish(),
            cnt: packet_count,
        }
    }

    /// Wire size of an encoded footprint.
    pub const WIRE_SIZE: usize = 16;

    /// Encodes into 16 bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.dts_ms.to_be_bytes());
        out[8..12].copy_from_slice(&self.crc.to_be_bytes());
        out[12..16].copy_from_slice(&self.cnt.to_be_bytes());
        out
    }

    /// Decodes from 16 bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Footprint {
        Footprint {
            dts_ms: u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes")),
            crc: u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes")),
            cnt: u32::from_be_bytes(bytes[12..16].try_into().expect("4 bytes")),
        }
    }
}

/// A local frame chain: the footprints of the most recent δ frames a
/// relay has observed for its substream's *stream* (the CDN supplies
/// headers of the other substreams too, §5.1), oldest first.
///
/// Stored inline (`Copy`, no heap): every packet and slice carries one,
/// so a chain must cost a memcpy, not an allocation. Slots past `len`
/// stay zeroed, which keeps the derived equality exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LocalChain {
    footprints: [Footprint; CHAIN_LEN],
    len: u8,
}

impl LocalChain {
    /// Creates a chain from footprints, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if more than [`CHAIN_LEN`] footprints are supplied.
    pub fn new(footprints: Vec<Footprint>) -> Self {
        footprints.into_iter().collect()
    }

    /// The footprints, oldest first.
    pub fn footprints(&self) -> &[Footprint] {
        &self.footprints[..self.len as usize]
    }

    /// The newest footprint, if any.
    pub fn head(&self) -> Option<&Footprint> {
        self.footprints().last()
    }

    /// Number of footprints in the chain.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encodes as `1 + 16·len` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.len() * Footprint::WIRE_SIZE);
        out.push(self.len);
        for f in self.footprints() {
            out.extend_from_slice(&f.to_bytes());
        }
        out
    }

    /// Decodes a chain; returns the chain and bytes consumed, or `None`
    /// on truncation or an oversized length byte.
    pub fn from_bytes(bytes: &[u8]) -> Option<(LocalChain, usize)> {
        let n = *bytes.first()? as usize;
        if n > CHAIN_LEN {
            return None;
        }
        let need = 1 + n * Footprint::WIRE_SIZE;
        if bytes.len() < need {
            return None;
        }
        let chain = bytes[1..need]
            .chunks_exact(Footprint::WIRE_SIZE)
            .map(|c| Footprint::from_bytes(c.try_into().expect("16 bytes")))
            .collect();
        Some((chain, need))
    }
}

/// Collects footprints, oldest first; panics past [`CHAIN_LEN`].
impl FromIterator<Footprint> for LocalChain {
    fn from_iter<I: IntoIterator<Item = Footprint>>(iter: I) -> Self {
        let mut chain = LocalChain::default();
        for fp in iter {
            assert!((chain.len as usize) < CHAIN_LEN, "chain too long");
            chain.footprints[chain.len as usize] = fp;
            chain.len += 1;
        }
        chain
    }
}

/// Builds local chains incrementally as a relay observes frame headers of
/// a stream in order.
///
/// The CDN delivers the relay complete frames for its substream and
/// headers for every other substream (§5.1), so the generator sees the
/// full-stream header sequence and chains are consistent across relays.
#[derive(Debug, Clone)]
pub struct ChainGenerator {
    /// Recent headers, for CRC context (bounded by `CRC_DEPTH`).
    recent_headers: VecDeque<FrameHeader>,
    /// Recent footprints, oldest first (bounded by `CHAIN_LEN`).
    recent_footprints: VecDeque<Footprint>,
    payload_per_packet: u32,
}

impl ChainGenerator {
    /// Creates a generator that packetises at `payload_per_packet` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `payload_per_packet == 0`.
    pub fn new(payload_per_packet: u32) -> Self {
        assert!(payload_per_packet > 0, "payload size must be positive");
        ChainGenerator {
            recent_headers: VecDeque::with_capacity(CRC_DEPTH + 1),
            recent_footprints: VecDeque::with_capacity(CHAIN_LEN + 1),
            payload_per_packet,
        }
    }

    /// Observes the next frame header in stream order and returns the
    /// local chain to embed in that frame's packets (ending at this
    /// frame's footprint).
    pub fn observe(&mut self, header: &FrameHeader) -> LocalChain {
        let mut prior = [*header; CRC_DEPTH];
        for (slot, h) in prior.iter_mut().zip(&self.recent_headers) {
            *slot = *h;
        }
        let cnt = header.size.div_ceil(self.payload_per_packet).max(1);
        let fp = Footprint::compute(header, &prior[..self.recent_headers.len()], cnt);

        self.recent_headers.push_back(*header);
        while self.recent_headers.len() > CRC_DEPTH {
            self.recent_headers.pop_front();
        }
        self.recent_footprints.push_back(fp);
        while self.recent_footprints.len() > CHAIN_LEN {
            self.recent_footprints.pop_front();
        }
        self.recent_footprints.iter().copied().collect()
    }

    /// The most recently generated footprint.
    pub fn last_footprint(&self) -> Option<&Footprint> {
        self.recent_footprints.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;
    use crate::gop::{GopConfig, GopGenerator};
    use rlive_sim::SimRng;

    fn headers(n: usize) -> Vec<FrameHeader> {
        let mut g = GopGenerator::new(9, GopConfig::default(), SimRng::new(3));
        g.take_frames(n).iter().map(|f| f.header).collect()
    }

    #[test]
    fn footprint_round_trip() {
        let hs = headers(3);
        let fp = Footprint::compute(&hs[2], &hs[..2], 7);
        assert_eq!(Footprint::from_bytes(&fp.to_bytes()), fp);
    }

    #[test]
    fn footprint_depends_on_prior_headers() {
        let hs = headers(4);
        let with_correct_prior = Footprint::compute(&hs[2], &hs[..2], 7);
        let with_wrong_prior = Footprint::compute(&hs[2], &[hs[0], hs[3]], 7);
        assert_ne!(with_correct_prior.crc, with_wrong_prior.crc);
    }

    #[test]
    fn footprint_unique_across_frames() {
        let hs = headers(500);
        let mut seen = std::collections::HashSet::new();
        for i in 0..hs.len() {
            let prior = &hs[i.saturating_sub(2)..i];
            let fp = Footprint::compute(&hs[i], prior, 1);
            assert!(
                seen.insert((fp.dts_ms, fp.crc)),
                "duplicate footprint at {i}"
            );
        }
    }

    #[test]
    fn generator_chains_grow_to_delta() {
        let mut g = ChainGenerator::new(1200);
        let hs = headers(10);
        for (i, h) in hs.iter().enumerate() {
            let chain = g.observe(h);
            assert_eq!(chain.len(), (i + 1).min(CHAIN_LEN));
            assert_eq!(chain.head().expect("head").dts_ms, h.dts_ms);
        }
    }

    #[test]
    fn two_relays_generate_identical_chains() {
        // Relays serve different substreams but observe the same header
        // sequence, so their chains must agree — the core property that
        // lets the client merge them (§5.2).
        let hs = headers(50);
        let mut a = ChainGenerator::new(1200);
        let mut b = ChainGenerator::new(1200);
        for h in &hs {
            assert_eq!(a.observe(h), b.observe(h));
        }
    }

    #[test]
    fn chain_wire_round_trip() {
        let mut g = ChainGenerator::new(1200);
        let hs = headers(6);
        let mut chain = LocalChain::default();
        for h in &hs {
            chain = g.observe(h);
        }
        let bytes = chain.to_bytes();
        let (decoded, used) = LocalChain::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, chain);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn chain_decode_rejects_truncation_and_oversize() {
        let mut g = ChainGenerator::new(1200);
        let hs = headers(5);
        let mut chain = LocalChain::default();
        for h in &hs {
            chain = g.observe(h);
        }
        let bytes = chain.to_bytes();
        assert!(LocalChain::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut oversized = bytes.clone();
        oversized[0] = CHAIN_LEN as u8 + 1;
        assert!(LocalChain::from_bytes(&oversized).is_none());
    }

    #[test]
    fn cnt_matches_packetisation() {
        let mut g = ChainGenerator::new(1000);
        let h = FrameHeader {
            stream_id: 1,
            dts_ms: 0,
            frame_type: FrameType::I,
            size: 2500,
        };
        let chain = g.observe(&h);
        assert_eq!(chain.head().expect("head").cnt, 3);
    }

    #[test]
    fn empty_chain_encodes_one_byte() {
        let chain = LocalChain::default();
        assert_eq!(chain.to_bytes(), vec![0]);
        let (decoded, used) = LocalChain::from_bytes(&[0]).expect("decodes");
        assert!(decoded.is_empty());
        assert_eq!(used, 1);
    }
}
