//! GoP (group of pictures) and frame sequence generation.
//!
//! Live encoders emit a periodic GoP structure — an I-frame followed by
//! P/B frames — at a fixed frame rate, with frame sizes fluctuating
//! around the bitrate target. The generator reproduces that structure so
//! the data plane sees realistic dts cadence, size skew (I-frames several
//! times larger than P/B) and per-frame jitter.

use crate::frame::{Frame, FrameHeader, FrameType};
use rlive_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Encoder configuration for one stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GopConfig {
    /// Frames per second.
    pub fps: u32,
    /// Target video bitrate in bits per second.
    pub bitrate_bps: u64,
    /// GoP length in frames (one I-frame per GoP).
    pub gop_frames: u32,
    /// Number of B-frames between P anchors (0 disables B-frames).
    pub b_frames: u32,
    /// Relative size of an I-frame vs the average frame.
    pub i_frame_scale: f64,
    /// Coefficient of variation of individual frame sizes.
    pub size_jitter: f64,
}

impl Default for GopConfig {
    fn default() -> Self {
        // 30 fps, 3 Mbps, 2-second GoP: a typical mobile live profile.
        GopConfig {
            fps: 30,
            bitrate_bps: 3_000_000,
            gop_frames: 60,
            b_frames: 2,
            i_frame_scale: 6.0,
            size_jitter: 0.25,
        }
    }
}

impl GopConfig {
    /// Mean frame size in bytes implied by bitrate and fps.
    pub fn mean_frame_size(&self) -> f64 {
        self.bitrate_bps as f64 / 8.0 / self.fps as f64
    }

    /// Frame interval in milliseconds (fractional).
    pub fn frame_interval_ms(&self) -> f64 {
        1000.0 / self.fps as f64
    }
}

/// Generates the frame sequence of one live stream.
///
/// # Examples
///
/// ```
/// use rlive_media::gop::{GopConfig, GopGenerator};
/// use rlive_media::frame::FrameType;
/// use rlive_sim::SimRng;
///
/// let mut gen = GopGenerator::new(1, GopConfig::default(), SimRng::new(7));
/// let frames = gen.take_frames(60);
/// assert_eq!(frames[0].header.frame_type, FrameType::I);
/// assert!(frames.iter().all(|f| f.size() > 0));
/// ```
#[derive(Debug, Clone)]
pub struct GopGenerator {
    cfg: GopConfig,
    stream_id: u64,
    rng: SimRng,
    index: u64,
}

impl GopGenerator {
    /// Creates a generator for `stream_id` with its own RNG stream.
    pub fn new(stream_id: u64, cfg: GopConfig, rng: SimRng) -> Self {
        GopGenerator {
            cfg,
            stream_id,
            rng,
            index: 0,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GopConfig {
        &self.cfg
    }

    fn type_for(&self, idx_in_gop: u64) -> FrameType {
        if idx_in_gop == 0 {
            FrameType::I
        } else if self.cfg.b_frames == 0 || idx_in_gop.is_multiple_of(self.cfg.b_frames as u64 + 1)
        {
            FrameType::P
        } else {
            FrameType::B
        }
    }

    /// Produces the next frame in decode order.
    pub fn next_frame(&mut self) -> Frame {
        let idx = self.index;
        self.index += 1;
        let idx_in_gop = idx % self.cfg.gop_frames as u64;
        let frame_type = self.type_for(idx_in_gop);

        // Budget the GoP so the average rate meets the bitrate target:
        // one I-frame of scale s and (g-1) inter frames sharing the rest.
        let g = self.cfg.gop_frames as f64;
        let s = self.cfg.i_frame_scale;
        let mean = self.cfg.mean_frame_size();
        let inter_mean = mean * g / (s + g - 1.0);
        // P frames are heavier than B frames; normalise the weights by the
        // P:B mix so the average inter frame still hits `inter_mean`.
        let (w_p, w_b) = (1.25, 0.75);
        let b = self.cfg.b_frames as f64;
        let mix = (w_p + w_b * b) / (1.0 + b);
        let base = match frame_type {
            FrameType::I => inter_mean * s,
            FrameType::P => inter_mean * w_p / mix,
            FrameType::B => inter_mean * w_b / mix,
        };
        let jitter = 1.0 + self.cfg.size_jitter * self.rng.normal();
        let size = (base * jitter.clamp(0.3, 3.0)).max(200.0) as u32;

        let dts_ms = (idx as f64 * self.cfg.frame_interval_ms()).round() as u64;
        Frame::new(FrameHeader {
            stream_id: self.stream_id,
            dts_ms,
            frame_type,
            size,
        })
    }

    /// Produces the next `n` frames.
    pub fn take_frames(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64) -> GopGenerator {
        GopGenerator::new(1, GopConfig::default(), SimRng::new(seed))
    }

    #[test]
    fn dts_is_monotonic_at_frame_interval() {
        let mut g = generator(1);
        let frames = g.take_frames(100);
        for w in frames.windows(2) {
            let gap = w[1].dts_ms() - w[0].dts_ms();
            assert!((33..=34).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn gop_structure() {
        let mut g = generator(2);
        let frames = g.take_frames(180);
        // One I-frame at the head of each 60-frame GoP.
        for (i, f) in frames.iter().enumerate() {
            if i % 60 == 0 {
                assert_eq!(f.header.frame_type, FrameType::I, "frame {i}");
            } else {
                assert_ne!(f.header.frame_type, FrameType::I, "frame {i}");
            }
        }
        // With b_frames = 2, pattern after I is B B P B B P ...
        assert_eq!(frames[1].header.frame_type, FrameType::B);
        assert_eq!(frames[2].header.frame_type, FrameType::B);
        assert_eq!(frames[3].header.frame_type, FrameType::P);
    }

    #[test]
    fn average_rate_meets_bitrate_target() {
        let mut g = generator(3);
        let frames = g.take_frames(3_000);
        let total_bytes: u64 = frames.iter().map(|f| f.size() as u64).sum();
        let duration_s = 3_000.0 / 30.0;
        let rate = total_bytes as f64 * 8.0 / duration_s;
        let target = GopConfig::default().bitrate_bps as f64;
        assert!(
            (rate - target).abs() / target < 0.05,
            "rate {rate} vs target {target}"
        );
    }

    #[test]
    fn i_frames_dominate_sizes() {
        let mut g = generator(4);
        let frames = g.take_frames(600);
        let i_mean: f64 = {
            let v: Vec<f64> = frames
                .iter()
                .filter(|f| f.header.frame_type == FrameType::I)
                .map(|f| f.size() as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let p_mean: f64 = {
            let v: Vec<f64> = frames
                .iter()
                .filter(|f| f.header.frame_type == FrameType::P)
                .map(|f| f.size() as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(i_mean > p_mean * 3.0, "I {i_mean} vs P {p_mean}");
    }

    #[test]
    fn bitrate_switch_changes_sizes() {
        let before: u64 = generator(5)
            .take_frames(300)
            .iter()
            .map(|f| f.size() as u64)
            .sum();
        let cfg = GopConfig {
            bitrate_bps: 6_000_000,
            ..GopConfig::default()
        };
        let mut g = GopGenerator::new(1, cfg, SimRng::new(5));
        let after: u64 = g.take_frames(300).iter().map(|f| f.size() as u64).sum();
        assert!(after as f64 > before as f64 * 1.7, "{before} -> {after}");
    }

    #[test]
    fn no_b_frames_profile() {
        let cfg = GopConfig {
            b_frames: 0,
            ..GopConfig::default()
        };
        let mut g = GopGenerator::new(1, cfg, SimRng::new(6));
        let frames = g.take_frames(10);
        assert_eq!(frames[0].header.frame_type, FrameType::I);
        for f in &frames[1..] {
            assert_eq!(f.header.frame_type, FrameType::P);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<u32> = generator(7)
            .take_frames(50)
            .iter()
            .map(|f| f.size())
            .collect();
        let b: Vec<u32> = generator(7)
            .take_frames(50)
            .iter()
            .map(|f| f.size())
            .collect();
        assert_eq!(a, b);
    }
}
