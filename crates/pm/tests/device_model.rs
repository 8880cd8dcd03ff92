//! The single-image [`PmDevice`] against a reference model that keeps two
//! full images (media + working) and a merged dirty-range map. Every byte
//! of both the CPU view and the media must agree after every operation,
//! including seeded torn crashes, which must draw one coin per 8-byte unit
//! of each merged dirty span in address order.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_pm::{PmDevice, PmDeviceConfig};

const CAPACITY: usize = 512;
const UNIT: usize = 8;

/// Two images: what survives a crash and what the CPU sees.
struct TwoImages {
    media: Vec<u8>,
    working: Vec<u8>,
    /// Unpersisted ranges (start → end), merged: never overlapping or
    /// adjacent.
    dirty: BTreeMap<usize, usize>,
}

impl TwoImages {
    fn new() -> Self {
        TwoImages {
            media: vec![0; CAPACITY],
            working: vec![0; CAPACITY],
            dirty: BTreeMap::new(),
        }
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        self.working[offset..offset + data.len()].copy_from_slice(data);
        let (mut start, mut end) = (offset, offset + data.len());
        let touching: Vec<usize> = self
            .dirty
            .range(..=end)
            .filter(|(_, &e)| e >= start)
            .map(|(&s, _)| s)
            .collect();
        for s in touching {
            let e = self.dirty.remove(&s).unwrap();
            start = start.min(s);
            end = end.max(e);
        }
        self.dirty.insert(start, end);
    }

    fn persist(&mut self, start: usize, end: usize) {
        self.media[start..end].copy_from_slice(&self.working[start..end]);
        let affected: Vec<(usize, usize)> = self
            .dirty
            .range(..end)
            .filter(|(_, &e)| e > start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in affected {
            self.dirty.remove(&s);
            if s < start {
                self.dirty.insert(s, start);
            }
            if e > end {
                self.dirty.insert(end, e);
            }
        }
    }

    fn persist_all(&mut self) {
        self.media.copy_from_slice(&self.working);
        self.dirty.clear();
    }

    fn crash(&mut self) {
        self.working.copy_from_slice(&self.media);
        self.dirty.clear();
    }

    fn crash_torn(&mut self, rng: &mut StdRng) {
        for (&start, &end) in &self.dirty {
            let mut unit = start - start % UNIT;
            while unit < end {
                let lo = unit.max(start);
                let hi = (unit + UNIT).min(end);
                if rng.gen_bool(0.5) {
                    self.media[lo..hi].copy_from_slice(&self.working[lo..hi]);
                }
                unit += UNIT;
            }
        }
        self.working.copy_from_slice(&self.media);
        self.dirty.clear();
    }

    fn dirty_bytes(&self) -> usize {
        self.dirty.iter().map(|(s, e)| e - s).sum()
    }
}

#[derive(Clone, Debug)]
enum DevOp {
    Write(usize, Vec<u8>),
    Persist(usize, usize),
    PersistAll,
    Crash,
    CrashTorn(u64),
}

/// Writes and persists of at least one byte: the reference model turns an
/// empty range into a phantom dirty range, which no caller produces.
fn dev_op() -> impl Strategy<Value = DevOp> {
    prop_oneof![
        8 => (0..CAPACITY - 1, proptest::collection::vec(any::<u8>(), 1..48))
            .prop_map(|(off, mut v)| {
                v.truncate(CAPACITY - off);
                DevOp::Write(off, v)
            }),
        4 => (0..CAPACITY - 1, 1usize..96)
            .prop_map(|(off, len)| DevOp::Persist(off, len.min(CAPACITY - off))),
        1 => Just(DevOp::PersistAll),
        1 => Just(DevOp::Crash),
        2 => any::<u64>().prop_map(DevOp::CrashTorn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn single_image_device_matches_two_image_model(
        ops in proptest::collection::vec(dev_op(), 1..120)
    ) {
        let dev = PmDevice::new(PmDeviceConfig { capacity: CAPACITY, ..Default::default() });
        let mut model = TwoImages::new();
        for op in ops {
            match op {
                DevOp::Write(off, data) => {
                    dev.write(off, &data).unwrap();
                    model.write(off, &data);
                }
                DevOp::Persist(off, len) => {
                    dev.persist(off, len).unwrap();
                    model.persist(off, off + len);
                }
                DevOp::PersistAll => {
                    dev.persist_all();
                    model.persist_all();
                }
                DevOp::Crash => {
                    dev.crash();
                    model.crash();
                }
                DevOp::CrashTorn(seed) => {
                    dev.crash_torn(&mut StdRng::seed_from_u64(seed));
                    model.crash_torn(&mut StdRng::seed_from_u64(seed));
                }
            }
            prop_assert_eq!(dev.read(0, CAPACITY).unwrap(), model.working.clone());
            prop_assert_eq!(dev.read_media(0, CAPACITY).unwrap(), model.media.clone());
            prop_assert_eq!(dev.dirty_bytes(), model.dirty_bytes());
            // Partial media reads overlay the saved bytes at the right place.
            prop_assert_eq!(dev.read_media(37, 101).unwrap(), model.media[37..138].to_vec());
        }
    }
}
