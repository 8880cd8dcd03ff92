//! The simulated persistent-memory device.
//!
//! [`PmDevice`] is a byte-addressable region with the *persistence boundary*
//! semantics of real PM behind a CPU cache hierarchy:
//!
//! * [`PmDevice::write`] stores into a **volatile overlay** (the "CPU cache")
//!   — visible to subsequent reads, but *not* yet durable;
//! * [`PmDevice::persist`] (= `CLWB` + `SFENCE` in PMDK terms) makes a range
//!   of the overlay durable;
//! * [`PmDevice::crash`] simulates a power failure: the overlay is discarded
//!   and only persisted bytes survive. [`PmDevice::crash_torn`] additionally
//!   models torn flushes at the 8-byte power-fail-atomicity granularity.
//!
//! The device holds a **single image**: the working bytes plus, for each
//! unpersisted span, the media bytes it hides. Memory is one image of
//! touched pages, and a persist only forgets saved bytes.
//!
//! Every operation charges its modelled latency (see [`LatencyModel`]) via
//! the device's [`DeviceClock`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::Rng;

use crate::{DeviceClock, LatencyModel};

/// Power-fail atomicity unit of PM hardware (8 bytes, like real Optane).
pub const ATOMIC_UNIT: usize = 8;

/// Configuration for a [`PmDevice`].
#[derive(Clone, Debug)]
pub struct PmDeviceConfig {
    /// Device capacity in bytes.
    pub capacity: usize,
    /// Latency model (defaults to kernel-bypass PM).
    pub latency: LatencyModel,
    /// Latency accounting mode.
    pub clock: DeviceClock,
}

impl Default for PmDeviceConfig {
    fn default() -> Self {
        PmDeviceConfig {
            capacity: 16 << 20, // 16 MiB is plenty for the simulated logs
            latency: LatencyModel::pm_bypass(),
            clock: DeviceClock::off(),
        }
    }
}

/// Errors from device accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// Access past the end of the device.
    OutOfBounds { offset: usize, len: usize, capacity: usize },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "access [{offset}, {}) out of bounds (capacity {capacity})",
                offset + len
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// An unpersisted run `[start, end)` and the media bytes it hides: the
/// bytes as they were when the run first became dirty.
struct Span {
    start: usize,
    end: usize,
    media: Vec<u8>,
}

struct Inner {
    /// Current state as seen by the CPU: media + unflushed writes.
    working: Box<[u8]>,
    /// Unflushed spans in address order. Each is a maximal run — no two
    /// overlap or touch — so the media image is `working` with every
    /// span's saved bytes laid back over it.
    dirty: Vec<Span>,
    /// Emptied `Span::media` buffers kept for reuse, so the steady state
    /// of write → persist allocates nothing.
    spare: Vec<Vec<u8>>,
}

/// Spare buffers kept, and the largest capacity worth keeping.
const SPARE_BUFFERS: usize = 16;
const SPARE_MAX_CAPACITY: usize = 1 << 20;

fn recycle(spare: &mut Vec<Vec<u8>>, mut buf: Vec<u8>) {
    if spare.len() < SPARE_BUFFERS && buf.capacity() <= SPARE_MAX_CAPACITY {
        buf.clear();
        spare.push(buf);
    }
}

impl Inner {
    /// Marks `[lo, hi)` dirty, saving the media bytes of whatever part was
    /// clean; runs before `working` is overwritten. Costs the bytes newly
    /// dirtied plus those of any later span it absorbs, so a write that
    /// extends the span it follows (a log append) copies nothing else.
    fn mark_dirty(&mut self, lo: usize, hi: usize) {
        let Inner { working, dirty, spare } = self;
        // Spans [i, j) overlap or touch [lo, hi).
        let i = dirty.partition_point(|s| s.end < lo);
        let mut j = dirty.partition_point(|s| s.start <= hi);
        if i == j || lo < dirty[i].start {
            let media = spare.pop().unwrap_or_default();
            dirty.insert(i, Span { start: lo, end: lo, media });
            j += 1;
        }
        for _ in i + 1..j {
            let next = dirty.remove(i + 1);
            let span = &mut dirty[i];
            span.media.extend_from_slice(&working[span.end..next.start]);
            span.media.extend_from_slice(&next.media);
            span.end = next.end;
            recycle(spare, next.media);
        }
        let span = &mut dirty[i];
        if hi > span.end {
            span.media.extend_from_slice(&working[span.end..hi]);
            span.end = hi;
        }
    }

    /// Forgets the saved media bytes of `[lo, hi)`: the media now equals
    /// `working` there. Splits a span that straddles the range.
    fn clear_dirty(&mut self, lo: usize, hi: usize) {
        let Inner { dirty, spare, .. } = self;
        let mut k = dirty.partition_point(|s| s.end <= lo);
        while k < dirty.len() && dirty[k].start < hi {
            let mut span = dirty.remove(k);
            if hi < span.end {
                let mut media = spare.pop().unwrap_or_default();
                media.extend_from_slice(&span.media[hi - span.start..]);
                dirty.insert(k, Span { start: hi, end: span.end, media });
            }
            if span.start < lo {
                span.media.truncate(lo - span.start);
                span.end = lo;
                dirty.insert(k, span);
                k += 1;
            } else {
                recycle(spare, span.media);
            }
        }
    }

    /// Drops every span; `restore` first lays its media bytes back.
    fn drain(&mut self, restore: bool) {
        for span in self.dirty.drain(..) {
            if restore {
                self.working[span.start..span.end].copy_from_slice(&span.media);
            }
            recycle(&mut self.spare, span.media);
        }
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Default)]
pub struct DeviceStats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub persists: AtomicU64,
}

/// See module docs.
pub struct PmDevice {
    inner: Mutex<Inner>,
    latency: LatencyModel,
    clock: DeviceClock,
    capacity: usize,
    pub stats: DeviceStats,
}

impl PmDevice {
    pub fn new(config: PmDeviceConfig) -> Self {
        PmDevice {
            inner: Mutex::new(Inner {
                working: vec![0u8; config.capacity].into_boxed_slice(),
                dirty: Vec::new(),
                spare: Vec::new(),
            }),
            latency: config.latency,
            clock: config.clock,
            capacity: config.capacity,
            stats: DeviceStats::default(),
        }
    }

    /// A device with default capacity and no latency accounting.
    pub fn for_testing() -> Self {
        PmDevice::new(PmDeviceConfig::default())
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), DeviceError> {
        if offset.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Stores `data` at `offset` (volatile until persisted).
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.check(offset, data.len())?;
        self.clock.consume(self.latency.write_ns(data.len()));
        let mut inner = self.inner.lock();
        if !data.is_empty() {
            inner.mark_dirty(offset, offset + data.len());
            inner.working[offset..offset + data.len()].copy_from_slice(data);
        }
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads `len` bytes starting at `offset` (sees unpersisted writes, like
    /// a CPU load through the cache).
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.check(offset, len)?;
        self.clock.consume(self.latency.read_ns(len));
        let inner = self.inner.lock();
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(inner.working[offset..offset + len].to_vec())
    }

    /// Flushes `[offset, offset+len)` to the media and drains (CLWB+SFENCE):
    /// on return those bytes are durable. Charges the flush+fence cost
    /// (~150 ns base + per-cache-line work), like real Optane persists.
    pub fn persist(&self, offset: usize, len: usize) -> Result<(), DeviceError> {
        self.check(offset, len)?;
        self.clock.consume(150 + (len as u64) / 32);
        let mut inner = self.inner.lock();
        if len > 0 {
            inner.clear_dirty(offset, offset + len);
        }
        self.stats.persists.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Persists everything outstanding.
    pub fn persist_all(&self) {
        self.inner.lock().drain(false);
        self.stats.persists.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes currently dirty (unpersisted).
    pub fn dirty_bytes(&self) -> usize {
        self.inner.lock().dirty.iter().map(|s| s.end - s.start).sum()
    }

    /// Power failure: all unpersisted writes are lost; the working state is
    /// reset to the media contents.
    pub fn crash(&self) {
        self.inner.lock().drain(true);
    }

    /// Power failure with torn flushes: each dirty 8-byte unit independently
    /// survives with probability 1/2, modelling cache lines that happened to
    /// be evicted (and the hardware's 8-byte atomicity). Used by
    /// crash-consistency tests to attack the recovery paths. One coin is
    /// drawn per unit of each dirty span, in address order.
    pub fn crash_torn<R: Rng>(&self, rng: &mut R) {
        let mut inner = self.inner.lock();
        let Inner { working, dirty, .. } = &mut *inner;
        for span in dirty.iter() {
            let mut unit = span.start - span.start % ATOMIC_UNIT;
            while unit < span.end {
                let lo = unit.max(span.start);
                let hi = (unit + ATOMIC_UNIT).min(span.end);
                if !rng.gen_bool(0.5) {
                    // This unit never reached the media before power was lost.
                    working[lo..hi].copy_from_slice(&span.media[lo - span.start..hi - span.start]);
                }
                unit += ATOMIC_UNIT;
            }
        }
        inner.drain(false);
    }

    /// Reads directly from the media, bypassing the overlay — what a fresh
    /// boot would see. Charges no latency; used by recovery code and tests.
    pub fn read_media(&self, offset: usize, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.check(offset, len)?;
        let inner = self.inner.lock();
        let (lo, hi) = (offset, offset + len);
        let mut out = inner.working[lo..hi].to_vec();
        let first = inner.dirty.partition_point(|s| s.end <= lo);
        for span in inner.dirty[first..].iter().take_while(|s| s.start < hi) {
            let (a, b) = (span.start.max(lo), span.end.min(hi));
            out[a - lo..b - lo].copy_from_slice(&span.media[a - span.start..b - span.start]);
        }
        Ok(out)
    }

    /// The device's latency model (used by benchmarks to report modelled
    /// costs without performing I/O).
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn write_read_roundtrip() {
        let dev = PmDevice::for_testing();
        dev.write(100, b"hello").unwrap();
        assert_eq!(dev.read(100, 5).unwrap(), b"hello");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dev = PmDevice::new(PmDeviceConfig {
            capacity: 64,
            ..Default::default()
        });
        assert!(dev.write(60, b"too long").is_err());
        assert!(dev.read(64, 1).is_err());
        assert!(dev.read(usize::MAX, 2).is_err()); // overflow-safe
    }

    #[test]
    fn unpersisted_writes_lost_on_crash() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"durable").unwrap();
        dev.persist(0, 7).unwrap();
        dev.write(100, b"volatile").unwrap();
        dev.crash();
        assert_eq!(dev.read(0, 7).unwrap(), b"durable");
        assert_eq!(dev.read(100, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn persist_range_only_persists_that_range() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"aaaa").unwrap();
        dev.write(10, b"bbbb").unwrap();
        dev.persist(0, 4).unwrap();
        dev.crash();
        assert_eq!(dev.read(0, 4).unwrap(), b"aaaa");
        assert_eq!(dev.read(10, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn persist_all_flushes_everything() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"x").unwrap();
        dev.write(1000, b"y").unwrap();
        assert!(dev.dirty_bytes() >= 2);
        dev.persist_all();
        assert_eq!(dev.dirty_bytes(), 0);
        dev.crash();
        assert_eq!(dev.read(0, 1).unwrap(), b"x");
        assert_eq!(dev.read(1000, 1).unwrap(), b"y");
    }

    #[test]
    fn reads_see_unpersisted_writes() {
        let dev = PmDevice::for_testing();
        dev.write(5, b"cache").unwrap();
        assert_eq!(dev.read(5, 5).unwrap(), b"cache");
        assert_eq!(dev.read_media(5, 5).unwrap(), vec![0u8; 5]);
    }

    fn spans(dev: &PmDevice) -> Vec<(usize, usize)> {
        dev.inner.lock().dirty.iter().map(|s| (s.start, s.end)).collect()
    }

    #[test]
    fn dirty_ranges_merge() {
        let dev = PmDevice::for_testing();
        dev.write(0, &[1; 10]).unwrap();
        dev.write(10, &[2; 10]).unwrap(); // adjacent
        dev.write(5, &[3; 10]).unwrap(); // overlapping
        assert_eq!(spans(&dev), vec![(0, 20)]);
        dev.write(30, &[4; 10]).unwrap();
        assert_eq!(spans(&dev), vec![(0, 20), (30, 40)]);
        dev.write(15, &[5; 20]).unwrap(); // bridges both
        assert_eq!(spans(&dev), vec![(0, 40)]);
        assert_eq!(dev.read_media(0, 40).unwrap(), vec![0u8; 40]);
    }

    #[test]
    fn clear_dirty_splits_ranges() {
        let dev = PmDevice::for_testing();
        dev.write(0, &[7; 100]).unwrap();
        dev.persist(40, 20).unwrap();
        assert_eq!(spans(&dev), vec![(0, 40), (60, 100)]);
        let media = dev.read_media(0, 100).unwrap();
        assert!(media[..40].iter().chain(&media[60..]).all(|&b| b == 0));
        assert!(media[40..60].iter().all(|&b| b == 7));
    }

    #[test]
    fn torn_crash_preserves_persisted_data() {
        let dev = PmDevice::for_testing();
        dev.write(0, &[7u8; 256]).unwrap();
        dev.persist(0, 256).unwrap();
        dev.write(512, &[9u8; 256]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        dev.crash_torn(&mut rng);
        // Persisted range intact regardless of tearing.
        assert_eq!(dev.read(0, 256).unwrap(), vec![7u8; 256]);
        // Torn range: each 8-byte unit is either all-old or all-new.
        let torn = dev.read(512, 256).unwrap();
        for unit in torn.chunks(ATOMIC_UNIT) {
            assert!(
                unit.iter().all(|&b| b == 0) || unit.iter().all(|&b| b == 9),
                "unit torn below atomicity granularity: {unit:?}"
            );
        }
    }

    #[test]
    fn stats_track_operations() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"ab").unwrap();
        dev.read(0, 2).unwrap();
        assert_eq!(dev.stats.writes.load(Ordering::Relaxed), 1);
        assert_eq!(dev.stats.reads.load(Ordering::Relaxed), 1);
        assert_eq!(dev.stats.bytes_written.load(Ordering::Relaxed), 2);
    }
}
