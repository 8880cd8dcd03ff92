//! Seeded load generation: the RNG, open-loop Poisson schedules, the op
//! mix, and the self-describing record payloads.
//!
//! Everything the program under test receives is derived here from the
//! workload seed. Ops that name an existing record carry a *rank* (a
//! fraction of the target color's record list) rather than an SN, because
//! SNs are assigned by the system; the runner resolves a rank against the
//! records it has seen acked, so the same seed picks the same records.

use std::time::Duration;

/// Bytes in every record the benchmark writes.
pub const PAYLOAD_BYTES: usize = 256;
const MAGIC: &[u8; 4] = b"FLPB";
const HEADER: usize = 24;

/// SplitMix64: small, fast and fully specified, so a schedule replays
/// bit for bit from its seed on any platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `label` under `seed`.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, label.as_bytes());
        h = fnv1a(h, &seed.to_le_bytes());
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`/s, in ns.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit(); // (0, 1]
        (-u.ln() / rate * 1e9) as u64
    }
}

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Which records a read or replay targets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReadTarget {
    /// Uniform over every record of the color.
    Uniform,
    /// Uniform over the newest `1/n` of the color's records.
    Newest(u32),
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpKind {
    /// Blocking append of one record to `color`, carrying per-color `idx`.
    Append { color: u32, idx: u64 },
    /// Point read of the record at `rank` (in [0, 1)) of `color`'s list.
    Read {
        color: u32,
        target: ReadTarget,
        rank: f64,
    },
    /// Replay (subscribe from genesis) of a whole color.
    Replay { color: u32 },
}

/// An op and the instant it is due, in ns from the phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub at_ns: u64,
    pub kind: OpKind,
}

/// The op mix of one open-loop generator.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Poisson arrival rate, ops/s.
    pub rate: f64,
    /// Weighted op classes; weights need not sum to 1.
    pub classes: Vec<(f64, Class)>,
}

/// A class of ops in a [`Mix`].
#[derive(Clone, Debug)]
pub enum Class {
    /// Appends to a uniformly chosen color of the list.
    Append(Vec<u32>),
    /// Reads of a uniformly chosen color of the list.
    Read(Vec<u32>, ReadTarget),
    /// Replays of a uniformly chosen color of the list.
    Replay(Vec<u32>),
}

/// Generates the open-loop schedule of one generator for `dur`.
/// `writer` tags append indices so two generators writing the same color
/// never reuse an index: idx = writer << 40 | per-color counter.
pub fn schedule(seed: u64, label: &str, mix: &Mix, dur: Duration, writer: u64) -> Vec<Op> {
    let mut rng = Rng::derive(seed, label);
    let total: f64 = mix.classes.iter().map(|(w, _)| w).sum();
    let end = dur.as_nanos() as u64;
    let mut counters: std::collections::BTreeMap<u32, u64> = Default::default();
    let mut ops = Vec::new();
    let mut t = 0u64;
    loop {
        t += rng.exp_gap_ns(mix.rate);
        if t >= end {
            return ops;
        }
        let mut pick = rng.unit() * total;
        let class = mix
            .classes
            .iter()
            .find(|(w, _)| {
                pick -= w;
                pick < 0.0
            })
            .map(|(_, c)| c)
            .unwrap_or(&mix.classes[mix.classes.len() - 1].1);
        let kind = match class {
            Class::Append(colors) => {
                let color = colors[rng.below(colors.len() as u64) as usize];
                let n = counters.entry(color).or_insert(0);
                let idx = writer << 40 | *n;
                *n += 1;
                OpKind::Append { color, idx }
            }
            Class::Read(colors, target) => OpKind::Read {
                color: colors[rng.below(colors.len() as u64) as usize],
                target: *target,
                rank: rng.unit(),
            },
            Class::Replay(colors) => OpKind::Replay {
                color: colors[rng.below(colors.len() as u64) as usize],
            },
        };
        ops.push(Op { at_ns: t, kind });
    }
}

/// Order-sensitive hash of a schedule (times, kinds, colors, indices and
/// ranks), so two runs can show they offered the same load.
pub fn schedule_hash(h: u64, ops: &[Op]) -> u64 {
    let mut h = h;
    for op in ops {
        h = fnv1a(h, &op.at_ns.to_le_bytes());
        let (tag, color, a, b) = match op.kind {
            OpKind::Append { color, idx } => (1u8, color, idx, 0u64),
            OpKind::Read {
                color,
                target,
                rank,
            } => {
                let t = match target {
                    ReadTarget::Uniform => 0,
                    ReadTarget::Newest(n) => n as u64,
                };
                (2, color, rank.to_bits(), t)
            }
            OpKind::Replay { color } => (3, color, 0, 0),
        };
        h = fnv1a(h, &[tag]);
        h = fnv1a(h, &color.to_le_bytes());
        h = fnv1a(h, &a.to_le_bytes());
        h = fnv1a(h, &b.to_le_bytes());
    }
    h
}

/// The record payload for (color, per-color index, scheduled instant):
/// a header carrying the three, then filler derived from them, so any
/// returned record can be checked byte for byte.
pub fn payload(color: u32, idx: u64, sched_ns: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&color.to_le_bytes());
    out.extend_from_slice(&idx.to_le_bytes());
    out.extend_from_slice(&sched_ns.to_le_bytes());
    let mut rng = Rng::new(fnv1a(
        fnv1a(color as u64, &idx.to_le_bytes()),
        &sched_ns.to_le_bytes(),
    ));
    while out.len() < PAYLOAD_BYTES {
        let w = rng.next_u64().to_le_bytes();
        let n = (PAYLOAD_BYTES - out.len()).min(8);
        out.extend_from_slice(&w[..n]);
    }
    out
}

/// Decodes (color, idx, sched_ns) from a payload, returning `None` unless
/// every byte matches what [`payload`] writes for them.
pub fn decode(bytes: &[u8]) -> Option<(u32, u64, u64)> {
    if bytes.len() != PAYLOAD_BYTES || &bytes[..4] != MAGIC {
        return None;
    }
    let color = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let idx = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let sched = u64::from_le_bytes(bytes[16..HEADER].try_into().ok()?);
    (payload(color, idx, sched) == bytes).then_some((color, idx, sched))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            rate: 2_000.0,
            classes: vec![
                (0.7, Class::Read(vec![1, 2, 3], ReadTarget::Newest(8))),
                (0.2, Class::Append(vec![1, 2])),
                (0.1, Class::Replay(vec![9])),
            ],
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let d = Duration::from_millis(500);
        let a = schedule(7, "w1", &mix(), d, 0);
        let b = schedule(7, "w1", &mix(), d, 0);
        assert_eq!(a, b);
        assert_eq!(schedule_hash(0, &a), schedule_hash(0, &b));
        assert!(a.len() > 500, "about rate x duration ops: {}", a.len());
    }

    #[test]
    fn different_seeds_or_labels_differ() {
        let d = Duration::from_millis(500);
        let a = schedule(7, "w1", &mix(), d, 0);
        let b = schedule(8, "w1", &mix(), d, 0);
        let c = schedule(7, "w2", &mix(), d, 0);
        assert_ne!(schedule_hash(0, &a), schedule_hash(0, &b));
        assert_ne!(schedule_hash(0, &a), schedule_hash(0, &c));
    }

    #[test]
    fn poisson_rate_and_mix_are_as_asked() {
        let ops = schedule(3, "w", &mix(), Duration::from_secs(5), 0);
        let n = ops.len() as f64;
        assert!((n / 5.0 - 2_000.0).abs() < 100.0, "rate {}", n / 5.0);
        let reads = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Read { .. }))
            .count();
        assert!((reads as f64 / n - 0.7).abs() < 0.03);
        assert!(ops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn append_indices_are_unique_per_color_and_writer() {
        let m = Mix {
            rate: 1_000.0,
            classes: vec![(1.0, Class::Append(vec![1, 2]))],
        };
        let a = schedule(1, "a", &m, Duration::from_secs(1), 1);
        let b = schedule(1, "b", &m, Duration::from_secs(1), 2);
        let mut seen = std::collections::HashSet::new();
        for op in a.iter().chain(&b) {
            if let OpKind::Append { color, idx } = op.kind {
                assert!(seen.insert((color, idx)));
            }
        }
    }

    #[test]
    fn payload_roundtrip_and_corruption() {
        let p = payload(5, 1 << 40 | 17, 123_456);
        assert_eq!(p.len(), PAYLOAD_BYTES);
        assert_eq!(decode(&p), Some((5, 1 << 40 | 17, 123_456)));
        let mut bad = p.clone();
        bad[200] ^= 1;
        assert_eq!(decode(&bad), None);
        assert_eq!(decode(&p[..100]), None);
    }
}
