//! Byte-level FLV container codec.
//!
//! FLV is RLive's primary CDN-to-edge protocol (§7.4). The format has a
//! 9-byte file header followed by back-pointer-delimited tags; each tag
//! carries a type (audio/video/script), a 24-bit payload size, and a
//! 24+8-bit timestamp. This module implements the subset needed for the
//! delivery path: encoding frames into video tags and parsing tag streams
//! back into headers — including the paper's observation that FLV carries
//! *no frame sequence identifier*, which is what forces the distributed
//! frame-chain design (§2.4, challenge 2).

use crate::frame::{FrameHeader, FrameType};
use bytes::{BufMut, Bytes, BytesMut};

/// FLV tag types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagType {
    /// Audio payload.
    Audio,
    /// Video payload.
    Video,
    /// Script data (onMetaData etc.).
    Script,
}

impl TagType {
    fn to_byte(self) -> u8 {
        match self {
            TagType::Audio => 8,
            TagType::Video => 9,
            TagType::Script => 18,
        }
    }

    fn from_byte(b: u8) -> Option<TagType> {
        match b {
            8 => Some(TagType::Audio),
            9 => Some(TagType::Video),
            18 => Some(TagType::Script),
            _ => None,
        }
    }
}

/// A decoded FLV tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tag {
    /// Tag type.
    pub tag_type: TagType,
    /// Timestamp in milliseconds (32-bit, reassembled from 24+8 bits).
    pub timestamp_ms: u32,
    /// Tag payload.
    pub payload: Bytes,
}

/// Errors from FLV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlvError {
    /// The 9-byte file header was malformed.
    BadFileHeader,
    /// A tag header declared an unknown type.
    BadTagType(u8),
    /// The buffer ended mid-structure.
    Truncated,
    /// A back-pointer did not match the preceding tag size.
    BadBackPointer {
        /// Value found on the wire.
        found: u32,
        /// Value implied by the preceding tag.
        expected: u32,
    },
}

impl std::fmt::Display for FlvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlvError::BadFileHeader => write!(f, "malformed FLV file header"),
            FlvError::BadTagType(t) => write!(f, "unknown FLV tag type {t}"),
            FlvError::Truncated => write!(f, "truncated FLV data"),
            FlvError::BadBackPointer { found, expected } => {
                write!(f, "bad back pointer: found {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for FlvError {}

/// Writes the 9-byte FLV file header (signature "FLV", version 1,
/// video-only flag) plus the initial zero back-pointer.
pub fn encode_file_header(out: &mut BytesMut) {
    out.put_slice(b"FLV");
    out.put_u8(1);
    out.put_u8(0x01); // video only
    out.put_u32(9); // data offset
    out.put_u32(0); // PreviousTagSize0
}

/// Parses and validates the file header, returning the bytes consumed.
pub fn decode_file_header(buf: &[u8]) -> Result<usize, FlvError> {
    if buf.len() < 13 {
        return Err(FlvError::Truncated);
    }
    if &buf[0..3] != b"FLV" || buf[3] != 1 {
        return Err(FlvError::BadFileHeader);
    }
    let offset = u32::from_be_bytes(buf[5..9].try_into().expect("4 bytes")) as usize;
    if offset != 9 {
        return Err(FlvError::BadFileHeader);
    }
    let ptr0 = u32::from_be_bytes(buf[9..13].try_into().expect("4 bytes"));
    if ptr0 != 0 {
        return Err(FlvError::BadBackPointer {
            found: ptr0,
            expected: 0,
        });
    }
    Ok(13)
}

/// Encodes one tag (11-byte header, payload, 4-byte back pointer).
pub fn encode_tag(out: &mut BytesMut, tag: &Tag) {
    let size = tag.payload.len() as u32;
    out.put_u8(tag.tag_type.to_byte());
    out.put_u8(((size >> 16) & 0xFF) as u8);
    out.put_u8(((size >> 8) & 0xFF) as u8);
    out.put_u8((size & 0xFF) as u8);
    // Timestamp: lower 24 bits, then the extension byte holds bits 24-31.
    out.put_u8(((tag.timestamp_ms >> 16) & 0xFF) as u8);
    out.put_u8(((tag.timestamp_ms >> 8) & 0xFF) as u8);
    out.put_u8((tag.timestamp_ms & 0xFF) as u8);
    out.put_u8(((tag.timestamp_ms >> 24) & 0xFF) as u8);
    out.put_slice(&[0, 0, 0]); // stream id, always 0
    out.put_slice(&tag.payload);
    out.put_u32(11 + size);
}

/// Decodes one tag from the front of `buf`, returning it and the bytes
/// consumed (including the trailing back pointer).
pub fn decode_tag(buf: &[u8]) -> Result<(Tag, usize), FlvError> {
    if buf.len() < 11 {
        return Err(FlvError::Truncated);
    }
    let tag_type = TagType::from_byte(buf[0]).ok_or(FlvError::BadTagType(buf[0]))?;
    let size = ((buf[1] as u32) << 16) | ((buf[2] as u32) << 8) | buf[3] as u32;
    let ts_low = ((buf[4] as u32) << 16) | ((buf[5] as u32) << 8) | buf[6] as u32;
    let ts_ext = buf[7] as u32;
    let timestamp_ms = (ts_ext << 24) | ts_low;
    let total = 11 + size as usize + 4;
    if buf.len() < total {
        return Err(FlvError::Truncated);
    }
    let payload = Bytes::copy_from_slice(&buf[11..11 + size as usize]);
    let back = u32::from_be_bytes(buf[11 + size as usize..total].try_into().expect("4 bytes"));
    if back != 11 + size {
        return Err(FlvError::BadBackPointer {
            found: back,
            expected: 11 + size,
        });
    }
    Ok((
        Tag {
            tag_type,
            timestamp_ms,
            payload,
        },
        total,
    ))
}

/// Encodes a frame header as the payload of a video tag.
///
/// The first payload byte mimics FLV's video-data byte: the upper nibble
/// is the frame flavour (1 = keyframe, 2 = inter), the lower nibble the
/// codec id (7 = AVC). The remaining bytes carry the 21-byte frame
/// header so the relay can reconstruct it without the full stream.
pub fn encode_frame_tag(header: &FrameHeader) -> Tag {
    let mut payload = BytesMut::with_capacity(1 + 21);
    let flavour = match header.frame_type {
        FrameType::I => 1u8,
        FrameType::P | FrameType::B => 2u8,
    };
    payload.put_u8((flavour << 4) | 7);
    payload.put_slice(&header.to_bytes());
    Tag {
        tag_type: TagType::Video,
        timestamp_ms: header.dts_ms as u32,
        payload: payload.freeze(),
    }
}

/// Parses a full FLV byte stream into tags.
pub fn decode_stream(buf: &[u8]) -> Result<Vec<Tag>, FlvError> {
    let mut pos = decode_file_header(buf)?;
    let mut tags = Vec::new();
    while pos < buf.len() {
        let (tag, used) = decode_tag(&buf[pos..])?;
        tags.push(tag);
        pos += used;
    }
    Ok(tags)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recovers a frame header from a video tag produced by
    /// [`encode_frame_tag`].
    fn decode_frame_tag(tag: &Tag) -> Result<FrameHeader, FlvError> {
        match tag.payload.get(1..22) {
            Some(bytes) if tag.tag_type == TagType::Video => {
                FrameHeader::from_bytes(bytes.try_into().expect("21 bytes"))
                    .ok_or(FlvError::Truncated)
            }
            _ => Err(FlvError::Truncated),
        }
    }

    fn sample_header(dts: u64) -> FrameHeader {
        FrameHeader {
            stream_id: 42,
            dts_ms: dts,
            frame_type: if dts.is_multiple_of(2000) {
                FrameType::I
            } else {
                FrameType::P
            },
            size: 9_000,
        }
    }

    #[test]
    fn tag_round_trip() {
        let tag = Tag {
            tag_type: TagType::Video,
            timestamp_ms: 0x0123_4567,
            payload: Bytes::from_static(b"hello world"),
        };
        let mut out = BytesMut::new();
        encode_tag(&mut out, &tag);
        let (decoded, used) = decode_tag(&out).expect("decodes");
        assert_eq!(decoded, tag);
        assert_eq!(used, out.len());
    }

    #[test]
    fn extended_timestamp_bits_survive() {
        // Timestamps beyond 24 bits use the extension byte.
        let tag = Tag {
            tag_type: TagType::Video,
            timestamp_ms: 0xFF00_0001,
            payload: Bytes::new(),
        };
        let mut out = BytesMut::new();
        encode_tag(&mut out, &tag);
        let (decoded, _) = decode_tag(&out).expect("decodes");
        assert_eq!(decoded.timestamp_ms, 0xFF00_0001);
    }

    #[test]
    fn file_header_round_trip() {
        let mut out = BytesMut::new();
        encode_file_header(&mut out);
        assert_eq!(decode_file_header(&out), Ok(13));
    }

    #[test]
    fn file_header_rejects_garbage() {
        assert_eq!(
            decode_file_header(b"GIF89a..............."),
            Err(FlvError::BadFileHeader)
        );
        assert_eq!(decode_file_header(b"FLV"), Err(FlvError::Truncated));
    }

    #[test]
    fn bad_back_pointer_detected() {
        let tag = Tag {
            tag_type: TagType::Audio,
            timestamp_ms: 1,
            payload: Bytes::from_static(b"xy"),
        };
        let mut out = BytesMut::new();
        encode_tag(&mut out, &tag);
        let n = out.len();
        out[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_tag(&out),
            Err(FlvError::BadBackPointer { .. })
        ));
    }

    #[test]
    fn unknown_tag_type_rejected() {
        let mut out = BytesMut::new();
        encode_tag(
            &mut out,
            &Tag {
                tag_type: TagType::Video,
                timestamp_ms: 0,
                payload: Bytes::new(),
            },
        );
        out[0] = 77;
        assert_eq!(decode_tag(&out), Err(FlvError::BadTagType(77)));
    }

    #[test]
    fn frame_tag_round_trip() {
        let h = sample_header(4000);
        let tag = encode_frame_tag(&h);
        assert_eq!(decode_frame_tag(&tag), Ok(h));
        // Keyframe flavour bit set for I-frames.
        assert_eq!(tag.payload[0] >> 4, 1);
        let p = sample_header(4033);
        assert_eq!(encode_frame_tag(&p).payload[0] >> 4, 2);
    }

    #[test]
    fn stream_round_trip() {
        let mut out = BytesMut::new();
        encode_file_header(&mut out);
        let headers: Vec<FrameHeader> = (0..50).map(|i| sample_header(i * 33)).collect();
        for h in &headers {
            encode_tag(&mut out, &encode_frame_tag(h));
        }
        let tags = decode_stream(&out).expect("parses");
        assert_eq!(tags.len(), 50);
        for (tag, h) in tags.iter().zip(&headers) {
            assert_eq!(decode_frame_tag(tag), Ok(*h));
        }
    }

    #[test]
    fn truncation_mid_tag_detected() {
        let mut out = BytesMut::new();
        encode_file_header(&mut out);
        encode_tag(&mut out, &encode_frame_tag(&sample_header(0)));
        let cut = out.len() - 3;
        assert_eq!(decode_stream(&out[..cut]), Err(FlvError::Truncated));
    }
}
