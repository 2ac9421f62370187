//! Video stream substrate for RLive.
//!
//! The RLive data plane (§5 of the paper) operates on compressed video
//! frames (NALUs) pulled from the CDN as an FLV stream, split into
//! substreams at frame granularity, packetised into fixed-size UDP
//! payloads and chained with lightweight frame footprints so clients can
//! reorder them. This crate provides all of those pieces:
//!
//! - frame and GoP modelling with realistic size/cadence statistics
//!   ([`frame`], [`gop`]),
//! - a byte-level FLV tag codec ([`flv`]),
//! - FNV-1a hashing and the static round-robin substream partitioner
//!   `ssid(f) = fnv1a(dts) mod K` (§6) ([`hash`], [`substream`]),
//! - CRC-32 and the frame footprint `(dts, crc, cnt)` with local frame
//!   chains of length δ (§5.2) ([`crc`], [`footprint`]),
//! - fixed-size packetisation with a wire codec for the subscribe-push
//!   data path ([`packet`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod flv;
pub mod footprint;
pub mod frame;
pub mod gop;
pub mod hash;
pub mod packet;
pub mod substream;

pub use footprint::{Footprint, LocalChain, CHAIN_LEN};
pub use frame::{Frame, FrameHeader, FrameType};
pub use gop::{GopConfig, GopGenerator};
pub use packet::{DataPacket, PACKET_PAYLOAD};
pub use substream::{substream_of, SubstreamId};
