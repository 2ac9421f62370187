//! Fixed-size packetisation and the data-packet wire format.
//!
//! Best-effort nodes segment each frame into fixed-size packets, embed
//! the local frame chain, and push them sequentially to subscribers over
//! UDP (§5.1). The packet also carries the publisher's IP so clients can
//! bypass DNS when recovering (§8.1, "Accelerating Frame Recovery via
//! DNS Bypass"); we model that as a 4-byte publisher id.

use crate::footprint::LocalChain;
use crate::frame::{Frame, FrameHeader};
use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// Payload bytes carried per packet — 1200 B keeps packets under typical
/// path MTUs after UDP/IP headers.
pub const PACKET_PAYLOAD: u32 = 1200;

/// One data packet of a substream, as pushed by a best-effort node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPacket {
    /// Stream the packet belongs to.
    pub stream_id: u64,
    /// Substream within the stream.
    pub substream: u16,
    /// Header of the frame this packet carries a slice of.
    pub frame: FrameHeader,
    /// Index of this packet within the frame (`0..cnt`).
    pub packet_index: u32,
    /// Total packets in the frame.
    pub packet_count: u32,
    /// Bytes of payload in this packet.
    pub payload_len: u32,
    /// Local frame chain of the publishing node.
    pub chain: LocalChain,
    /// Identifier of the publishing node (stands in for the embedded
    /// publisher IP used for DNS bypass).
    pub publisher: u32,
}

impl DataPacket {
    /// Total wire size: header fields + chain + payload.
    pub fn wire_size(&self) -> usize {
        // stream_id(8) substream(2) frame header(21) idx(4) cnt(4)
        // payload_len(4) publisher(4) + chain + payload
        8 + 2 + 21 + 4 + 4 + 4 + 4 + self.chain.to_bytes().len() + self.payload_len as usize
    }

    /// Encodes the packet header + chain (payload bytes are synthetic and
    /// represented by `payload_len` zeros).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(self.wire_size());
        out.put_u64(self.stream_id);
        out.put_u16(self.substream);
        out.put_slice(&self.frame.to_bytes());
        out.put_u32(self.packet_index);
        out.put_u32(self.packet_count);
        out.put_u32(self.payload_len);
        out.put_u32(self.publisher);
        out.put_slice(&self.chain.to_bytes());
        out.resize(out.len() + self.payload_len as usize, 0);
        out.to_vec()
    }

    /// Decodes a packet produced by [`DataPacket::encode`].
    pub fn decode(bytes: &[u8]) -> Option<DataPacket> {
        const FIXED: usize = 8 + 2 + 21 + 4 + 4 + 4 + 4;
        if bytes.len() < FIXED + 1 {
            return None;
        }
        let stream_id = u64::from_be_bytes(bytes[0..8].try_into().ok()?);
        let substream = u16::from_be_bytes(bytes[8..10].try_into().ok()?);
        let frame_bytes: [u8; 21] = bytes[10..31].try_into().ok()?;
        let frame = FrameHeader::from_bytes(&frame_bytes)?;
        let packet_index = u32::from_be_bytes(bytes[31..35].try_into().ok()?);
        let packet_count = u32::from_be_bytes(bytes[35..39].try_into().ok()?);
        let payload_len = u32::from_be_bytes(bytes[39..43].try_into().ok()?);
        let publisher = u32::from_be_bytes(bytes[43..47].try_into().ok()?);
        let (chain, used) = LocalChain::from_bytes(&bytes[47..])?;
        if bytes.len() < 47 + used + payload_len as usize {
            return None;
        }
        Some(DataPacket {
            stream_id,
            substream,
            frame,
            packet_index,
            packet_count,
            payload_len,
            chain,
            publisher,
        })
    }
}

/// Splits a frame into data packets carrying the given chain.
pub fn packetize(
    frame: &Frame,
    substream: u16,
    chain: &LocalChain,
    publisher: u32,
) -> Vec<DataPacket> {
    let cnt = frame.packet_count(PACKET_PAYLOAD);
    let size = frame.size();
    (0..cnt)
        .map(|i| {
            let payload_len = if i + 1 == cnt {
                size - (cnt - 1) * PACKET_PAYLOAD.min(size)
            } else {
                PACKET_PAYLOAD
            };
            DataPacket {
                stream_id: frame.header.stream_id,
                substream,
                frame: frame.header,
                packet_index: i,
                packet_count: cnt,
                payload_len,
                chain: *chain,
                publisher,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::ChainGenerator;
    use crate::frame::FrameType;

    fn frame(size: u32) -> Frame {
        Frame::new(FrameHeader {
            stream_id: 5,
            dts_ms: 99,
            frame_type: FrameType::P,
            size,
        })
    }

    fn chain_for(f: &Frame) -> LocalChain {
        let mut g = ChainGenerator::new(PACKET_PAYLOAD);
        g.observe(&f.header)
    }

    #[test]
    fn packetize_covers_frame() {
        let f = frame(3000);
        let pkts = packetize(&f, 2, &chain_for(&f), 1);
        assert_eq!(pkts.len(), 3);
        let total: u32 = pkts.iter().map(|p| p.payload_len).sum();
        assert_eq!(total, 3000);
        assert_eq!(pkts[0].payload_len, 1200);
        assert_eq!(pkts[2].payload_len, 600);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.packet_index, i as u32);
            assert_eq!(p.packet_count, 3);
            assert_eq!(p.substream, 2);
        }
    }

    #[test]
    fn exact_multiple_has_full_last_packet() {
        let f = frame(2400);
        let pkts = packetize(&f, 0, &chain_for(&f), 1);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[1].payload_len, 1200);
    }

    #[test]
    fn tiny_frame_single_packet() {
        let f = frame(100);
        let pkts = packetize(&f, 0, &chain_for(&f), 1);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload_len, 100);
    }

    #[test]
    fn wire_round_trip() {
        let f = frame(2500);
        let pkts = packetize(&f, 3, &chain_for(&f), 42);
        for p in &pkts {
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.wire_size());
            assert_eq!(DataPacket::decode(&bytes), Some(p.clone()));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = frame(500);
        let p = &packetize(&f, 0, &chain_for(&f), 1)[0];
        let bytes = p.encode();
        assert_eq!(DataPacket::decode(&bytes[..20]), None);
        assert_eq!(DataPacket::decode(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn chain_overhead_is_small() {
        // The paper stresses lightweight metadata: with δ=4 the chain
        // adds 65 bytes to a 1200-byte payload — ~5% overhead.
        let f = frame(1200);
        let p = &packetize(&f, 0, &chain_for(&f), 1)[0];
        let overhead = p.wire_size() - p.payload_len as usize;
        assert!(overhead < 120, "overhead {overhead}");
    }
}
