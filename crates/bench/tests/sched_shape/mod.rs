//! The standalone-scheduler population shared by the scheduler's count
//! tests: node `i` and client `i` are pure functions of `i`, spread over
//! `ISPS` ISPs, 16 regions and 128 BGP prefixes, with one node in a
//! hundred of the high-quality class.

use rlive_bench::perf::alloc_snapshot;
use rlive_control::features::{
    ClientId, ClientInfo, ConnectionType, NodeClass, StaticFeatures, StreamKey,
};
use rlive_control::scoring::Platform;
use rlive_sim::nat::NatType;

pub const ISPS: u64 = 4;

pub fn client(i: u64) -> ClientInfo {
    ClientInfo {
        id: ClientId(i),
        isp: (i % ISPS) as u16,
        region: (i % 16) as u16,
        bgp_prefix: (i % 128) as u32,
        geo: ((i % 40) as f64, 3.0),
        platform: Platform::Android,
    }
}

pub fn key(i: u64) -> StreamKey {
    StreamKey {
        stream_id: i % 8,
        substream: (i % 4) as u16,
    }
}

/// `(blocks, bytes)` allocated by `f`.
pub fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let (blocks0, bytes0) = alloc_snapshot();
    f();
    let (blocks1, bytes1) = alloc_snapshot();
    (blocks1 - blocks0, bytes1 - bytes0)
}

pub fn statics(i: u64) -> StaticFeatures {
    StaticFeatures {
        isp: (i % ISPS) as u16,
        region: (i % 16) as u16,
        bgp_prefix: (i % 128) as u32,
        geo: ((i % 40) as f64, (i / 40 % 40) as f64),
        class: if i.is_multiple_of(100) {
            NodeClass::HighQuality
        } else {
            NodeClass::Normal
        },
        conn_type: ConnectionType::Cable,
        nat: NatType::ALL[(i % 7) as usize],
    }
}
