//! Per-layer figures, taken from outside the program at phase boundaries:
//! the metrics registry, per-thread schedstat, the PM/SSD device stats of
//! every write-quorum replica, the object store's stats, and the flight
//! recorder's drop count.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use flexlog_core::{FlexLogCluster, Snapshot as Registry};
use flexlog_tier::SimObjectStore;

use crate::schedstat::{self, Layer, Times};

/// Summed device counters of the write-quorum replicas.
#[derive(Clone, Copy, Debug, Default)]
pub struct Devices {
    pub pm_persists: u64,
    pub pm_bytes_written: u64,
    pub ssd_writes: u64,
    pub ssd_fsyncs: u64,
    pub ssd_reads: u64,
}

/// Object-store counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Store {
    pub puts: u64,
    pub gets: u64,
    pub bytes_get: u64,
}

/// Everything read at one phase boundary.
pub struct Snap {
    pub at: Instant,
    pub reg: Registry,
    pub threads: schedstat::Snapshot,
    pub dev: Devices,
    pub store: Store,
    pub trace_dropped: u64,
    /// Host-wide (all, steal) CPU ticks from `/proc/stat`.
    pub steal: (u64, u64),
}

/// (all, steal) ticks of the `cpu` line of `/proc/stat`: on a virtual
/// machine, steal is time the host ran someone else on our vCPUs.
fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let line = stat.lines().next().ok_or("empty /proc/stat")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    if v.len() < 8 {
        return Err(format!("short cpu line in /proc/stat: {line:?}"));
    }
    Ok((v[..8].iter().sum(), v[7]))
}

impl Snap {
    pub fn take(c: &FlexLogCluster, store: Option<&Arc<SimObjectStore>>) -> Result<Snap, String> {
        let mut dev = Devices::default();
        for node in c.data().all_replicas() {
            let Some(s) = c.data().storage_of(node) else {
                continue;
            };
            let (pm, ssd) = s.devices();
            dev.pm_persists += pm.stats.persists.load(Relaxed);
            dev.pm_bytes_written += pm.stats.bytes_written.load(Relaxed);
            dev.ssd_writes += ssd.stats.writes.load(Relaxed);
            dev.ssd_fsyncs += ssd.stats.fsyncs.load(Relaxed);
            dev.ssd_reads += ssd.stats.reads.load(Relaxed);
        }
        let store = store.map_or(Store::default(), |s| {
            let st = s.stats();
            Store {
                puts: st.puts.load(Relaxed),
                gets: st.gets.load(Relaxed),
                bytes_get: st.bytes_get.load(Relaxed),
            }
        });
        Ok(Snap {
            at: Instant::now(),
            reg: c.obs().snapshot(),
            threads: schedstat::Snapshot::take()?,
            dev,
            store,
            trace_dropped: c.obs().tracer().dropped(),
            steal: cpu_ticks()?,
        })
    }
}

/// The change between two snapshots.
pub struct Delta<'a> {
    pub a: &'a Snap,
    pub b: &'a Snap,
    pub threads: BTreeMap<Layer, Times>,
}

impl<'a> Delta<'a> {
    pub fn new(a: &'a Snap, b: &'a Snap) -> Self {
        Delta {
            a,
            b,
            threads: b.threads.since(&a.threads),
        }
    }

    pub fn secs(&self) -> f64 {
        (self.b.at - self.a.at).as_secs_f64()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.b
            .reg
            .counter(name)
            .saturating_sub(self.a.reg.counter(name))
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_prefix(&self, prefix: &str) -> u64 {
        let sum = |r: &Registry| -> u64 {
            r.counters
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum()
        };
        sum(&self.b.reg).saturating_sub(sum(&self.a.reg))
    }

    /// (samples, sum) recorded into a histogram between the snapshots.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        let get = |r: &Registry| r.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = get(&self.a.reg);
        let (c1, s1) = get(&self.b.reg);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    /// Mean of a ns histogram over the interval, in µs (0 with no samples).
    pub fn hist_mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self.hist(name);
        ratio(sum as f64 / 1e3, n as f64)
    }

    pub fn layer(&self, l: Layer) -> Times {
        self.threads.get(&l).copied().unwrap_or_default()
    }

    /// CPU of every thread alive at the end plus `exited_ns` (threads that
    /// ended in between), over wall time × cores.
    pub fn cpu_util(&self, exited_ns: u64, cores: usize) -> f64 {
        let cpu: u64 = self.threads.values().map(|t| t.cpu_ns).sum::<u64>() + exited_ns;
        ratio(cpu as f64 / 1e9, self.secs() * cores as f64)
    }
}

/// `num / den`, or 0 when nothing was counted (reported with its count).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
