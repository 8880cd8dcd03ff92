//! Per-thread CPU and run-queue time from `/proc/self/task/*/schedstat`,
//! grouped into the layers whose threads the program names.
//!
//! `schedstat` holds three numbers: ns on CPU, ns waiting on a run queue,
//! and timeslices. The kernel truncates thread names (`comm`) to 15
//! bytes, so `simnet-scheduler-N` reads as `simnet-schedule`.

use std::collections::BTreeMap;
use std::fs;

/// Thread classes the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Write-quorum replica node loops (`replica#N`, `replica#N-r` after
    /// a restart).
    Replica,
    /// Read-only replica node loops (`rreplica#N`).
    ReadReplica,
    /// Sequencer node loops (`seq-N`).
    Sequencer,
    /// Simnet delay-scheduler shards (`simnet-scheduler-N`).
    Scheduler,
    /// The benchmark's load generators, where the client library runs.
    Generator,
    /// Everything else (main thread, backups, helpers).
    Other,
}

/// Prefix of the benchmark's generator thread names.
pub const GEN_PREFIX: &str = "gen-";

pub fn layer_of(comm: &str) -> Layer {
    if comm.starts_with("rreplica#") {
        Layer::ReadReplica
    } else if comm.starts_with("replica#") {
        Layer::Replica
    } else if comm.starts_with("seq-") {
        Layer::Sequencer
    } else if comm.starts_with("simnet-schedule") {
        Layer::Scheduler
    } else if comm.starts_with(GEN_PREFIX) {
        Layer::Generator
    } else {
        Layer::Other
    }
}

/// Parses one `schedstat` line into (cpu ns, run-queue wait ns).
pub fn parse(line: &str) -> Result<(u64, u64), String> {
    let mut it = line.split_whitespace().map(str::parse::<u64>);
    match (it.next(), it.next(), it.next()) {
        (Some(Ok(cpu)), Some(Ok(wait)), Some(Ok(_slices))) => Ok((cpu, wait)),
        _ => Err(format!("malformed schedstat line {line:?}")),
    }
}

/// CPU and wait time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Times {
    pub cpu_ns: u64,
    pub wait_ns: u64,
    pub threads: u64,
}

/// Every live thread's (layer, cpu ns, wait ns), keyed by thread id.
#[derive(Clone, Debug, Default)]
pub struct Snapshot(BTreeMap<u64, (Layer, u64, u64)>);

impl Snapshot {
    /// Reads every thread of this process. Fails loudly when schedstat is
    /// unavailable (a kernel without `CONFIG_SCHEDSTATS`): a missing
    /// measurement must never be reported as 0.
    pub fn take() -> Result<Snapshot, String> {
        fs::read_to_string("/proc/thread-self/schedstat")
            .map_err(|e| format!("/proc/thread-self/schedstat: {e}; no per-thread CPU figures"))?;
        let mut out = BTreeMap::new();
        let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        for entry in dir {
            let entry = entry.map_err(|e| e.to_string())?;
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
                continue;
            };
            let path = entry.path();
            // A thread may exit between listing and reading: skip it.
            let (Ok(comm), Ok(stat)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            let (cpu, wait) = parse(&stat)?;
            out.insert(tid, (layer_of(comm.trim_end()), cpu, wait));
        }
        Ok(Snapshot(out))
    }

    /// Per-layer time spent since `earlier`, over threads alive now (a
    /// thread born in between counts from zero).
    pub fn since(&self, earlier: &Snapshot) -> BTreeMap<Layer, Times> {
        let mut out: BTreeMap<Layer, Times> = BTreeMap::new();
        for (tid, &(layer, cpu, wait)) in &self.0 {
            let (c0, w0) = match earlier.0.get(tid) {
                Some(&(l, c, w)) if l == layer => (c, w),
                _ => (0, 0),
            };
            let t = out.entry(layer).or_default();
            t.cpu_ns += cpu.saturating_sub(c0);
            t.wait_ns += wait.saturating_sub(w0);
            t.threads += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_captured_lines() {
        // Lines as read from /proc/<pid>/task/<tid>/schedstat.
        assert_eq!(parse("507644 76561 1\n"), Ok((507_644, 76_561)));
        assert_eq!(parse("18446744 0 12"), Ok((18_446_744, 0)));
        assert!(parse("").is_err());
        assert!(parse("12 x 3").is_err());
        assert!(parse("12 13").is_err());
    }

    #[test]
    fn maps_thread_names_to_layers() {
        assert_eq!(layer_of("replica#3"), Layer::Replica);
        assert_eq!(layer_of("replica#3-r"), Layer::Replica);
        assert_eq!(layer_of("rreplica#1"), Layer::ReadReplica);
        assert_eq!(layer_of("seq-2"), Layer::Sequencer);
        assert_eq!(layer_of("simnet-schedule"), Layer::Scheduler);
        assert_eq!(layer_of("gen-1"), Layer::Generator);
        assert_eq!(layer_of("backup-1-0"), Layer::Other);
        assert_eq!(layer_of("flexlog-perfben"), Layer::Other);
    }

    #[test]
    fn deltas_count_new_threads_from_zero() {
        let a = Snapshot(BTreeMap::from([(1, (Layer::Replica, 100, 10))]));
        let b = Snapshot(BTreeMap::from([
            (1, (Layer::Replica, 150, 15)),
            (2, (Layer::Replica, 30, 3)),
            (3, (Layer::Sequencer, 7, 1)),
        ]));
        let d = b.since(&a);
        assert_eq!(
            d[&Layer::Replica],
            Times {
                cpu_ns: 80,
                wait_ns: 8,
                threads: 2
            }
        );
        assert_eq!(
            d[&Layer::Sequencer],
            Times {
                cpu_ns: 7,
                wait_ns: 1,
                threads: 1
            }
        );
    }

    #[test]
    fn this_host_has_schedstat() {
        let s = Snapshot::take().expect("schedstat readable");
        assert!(s.0.values().any(|&(_, cpu, _)| cpu > 0));
    }
}
