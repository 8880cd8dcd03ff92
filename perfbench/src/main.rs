//! FlexLog end-to-end and per-layer benchmark.
//!
//! Usage: `flexlog-perfbench --workload <append_path|state_mix|push_fanout|all>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Drives an in-process `FlexLogCluster` through the public
//! `flexlog_core::FlexLog` handle from at most two generator threads,
//! checks every output, and prints one JSON object as the last line of
//! stdout (human-readable lines, with sample counts, go to stderr). With
//! `--trace 0` it reports the gated end-to-end metrics; with `--trace 1`
//! it runs the same load twice, untraced then traced, and reports the
//! per-layer metrics, the wall-clock figures and the tracing overhead on
//! each. See README.md for the metric tables and why each workload exists.

mod gen;
mod layers;
mod run;
mod schedstat;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_core::{ClusterSpec, ColorId, FlexLog, FlexLogCluster};
use flexlog_pm::{ClockMode, DeviceClock};
use flexlog_simnet::NetConfig;
use flexlog_storage::{StorageConfig, TierConfig};
use flexlog_tier::SimObjectStore;

use gen::{Class as Mixed, Mix, ReadTarget};
use layers::{ratio, Delta, Snap};
use run::{Book, Class, Clock, Expect, Tally};
use schedstat::{Layer, GEN_PREFIX};
use stats::Samples;

const RF: usize = 3;
const PAYLOAD: f64 = gen::PAYLOAD_BYTES as f64;
/// Cluster set-ups per run; `setup_s` is their median and the first one is
/// measured.
const SETUPS: usize = 3;
/// Share of `--seconds` given to the main, saturate and probe phases.
const MAIN_SHARE: f64 = 0.55;
const SATURATE_SHARE: f64 = 0.25;
const PROBE_SHARE: f64 = 0.20;
/// The probe: one generator mixing read-backs, replays and appends to a
/// push color at this rate, the other holding `PROBE_SUBS` subscriptions.
const PROBE_RATE: f64 = 600.0;
const PROBE_SUBS: usize = 4;
const PROBE_COLOR: u32 = 99;
const OBJECT_BASE: u32 = 100;
/// Every Nth pipelined token of the traced saturate phase is looked up in
/// the flight recorder.
const HOP_SAMPLE_EVERY: u64 = 50;
/// Writer tags of the append indices (see `gen::schedule`).
const W_PRELOAD: u64 = 0;
const W_SATURATE: u64 = 3;
const W_PROBE: u64 = 4;

/// The main phase's load.
#[derive(Clone, Copy)]
enum Main {
    /// Both generators append open-loop, each at half of `rate`.
    Appends { rate: f64 },
    /// Generator 0: point reads (90 %: 80 % of them on the newest eighth)
    /// and replays (10 %) at `rate`; generator 1 appends at `rate / 9`.
    StateMix { rate: f64 },
    /// Generator 0 appends at `rate`; generator 1 polls `subs_per_color`
    /// push subscriptions per write color.
    Fanout { rate: f64, subs_per_color: usize },
}

struct Workload {
    name: &'static str,
    datacenter_net: bool,
    read_replicas: usize,
    tier: bool,
    write_colors: u32,
    /// Records preloaded into every write color during set-up.
    preload: u64,
    /// Object colors: count, records each, and whether the oldest half is
    /// trimmed (archived, then dropped locally) during set-up.
    objects: (u32, u64, bool),
    main: Main,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "append_path",
        datacenter_net: false,
        read_replicas: 0,
        tier: false,
        write_colors: 8,
        // Puts each replica at its 4 MiB PM watermark before the load.
        preload: 4096,
        objects: (16, 64, false),
        main: Main::Appends { rate: 600.0 },
    },
    Workload {
        name: "state_mix",
        datacenter_net: false,
        read_replicas: 0,
        tier: true,
        write_colors: 8,
        // >= 8 MiB per replica: 8x the DRAM cache, 2x the PM watermark.
        preload: 8448,
        objects: (64, 512, true),
        main: Main::StateMix { rate: 600.0 },
    },
    Workload {
        name: "push_fanout",
        datacenter_net: true,
        read_replicas: 1,
        tier: false,
        write_colors: 4,
        preload: 0,
        objects: (16, 64, false),
        main: Main::Fanout {
            rate: 200.0,
            subs_per_color: 8,
        },
    },
];

impl Workload {
    fn colors(&self) -> Vec<u32> {
        (1..=self.write_colors).collect()
    }

    fn object_colors(&self) -> Vec<u32> {
        (OBJECT_BASE..OBJECT_BASE + self.objects.0).collect()
    }

    /// Which latency classes the main phase produces; the others come
    /// from the probe phase.
    fn main_has(&self, c: Class) -> bool {
        match self.main {
            Main::Appends { .. } => c == Class::Append,
            Main::StateMix { .. } => matches!(c, Class::Append | Class::Read | Class::Replay),
            Main::Fanout { .. } => matches!(c, Class::Append | Class::PushLag),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}")),
                }
            }
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

/// A started cluster with its colors created and preloaded.
struct Setup {
    c: FlexLogCluster,
    store: Option<Arc<SimObjectStore>>,
    h: [FlexLog; 2],
    book: Book,
    clk: Clock,
    secs: f64,
}

fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let clk = Clock::new();
    let mut spec = ClusterSpec::tree(2, 1);
    spec.replication_factor = RF;
    spec.read_replicas_per_shard = w.read_replicas;
    spec.storage.clock = ClockMode::Spin;
    spec.net = if w.datacenter_net {
        NetConfig {
            seed: Some(seed),
            ..NetConfig::datacenter()
        }
        .with_scheduler_shards(4)
    } else {
        NetConfig::instant()
    };
    let store = w
        .tier
        .then(|| Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off))));
    if let Some(s) = &store {
        spec.storage.tier = Some(TierConfig::new(s.clone()));
    }
    let c = FlexLogCluster::start(spec);
    let colors = w.colors();
    let objects = w.object_colors();
    // Each color is owned by one leaf (and so lives on its one shard);
    // consecutive colors alternate between the two leaves.
    let leaves = c.leaf_roles();
    for &color in colors.iter().chain(&objects).chain(&[PROBE_COLOR]) {
        let leaf = leaves[color as usize % leaves.len()];
        c.colors()
            .add_color_at(ColorId(color), leaf)
            .map_err(|e| format!("add color {color}: {e:?}"))?;
    }
    let mut h = [c.handle(), c.handle()];
    let mut book = Book::default();
    // Each handle preloads (and trims) the colors of one leaf, so the two
    // shards fill in parallel.
    let mine = |k: usize| -> Vec<(u32, u64)> {
        let hot = colors.iter().map(|&x| (x, w.preload));
        let all = hot.chain(objects.iter().map(|&x| (x, w.objects.1)));
        all.filter(|&(x, _)| x as usize % leaves.len() == k)
            .collect()
    };
    let (work0, work1) = (mine(0), mine(1));
    let [h0, h1] = &mut h;
    let (a, b) = two_gens(
        || run::preload(h0, &work0, W_PRELOAD, &clk),
        || run::preload(h1, &work1, W_PRELOAD, &clk),
    );
    for (color, rec) in a?.into_iter().chain(b?) {
        book.add(color, rec);
    }
    book.sort();
    let preloaded = t0.elapsed().as_secs_f64();
    if w.tier {
        // The hot colors alone hold at least 8x the DRAM cache and 2x the
        // PM watermark on every replica of each shard.
        let cfg = StorageConfig::default();
        let want = (8 * cfg.cache_capacity).max(2 * cfg.pm_watermark);
        for k in 0..leaves.len() {
            let hot = colors.iter().filter(|&&x| x as usize % leaves.len() == k);
            let got: usize = hot.map(|&x| book.list(x).len() * gen::PAYLOAD_BYTES).sum();
            if got < want {
                return Err(format!(
                    "leaf {k}'s shard holds {got} B of hot records, want >= {want}"
                ));
            }
        }
    }
    if w.objects.2 {
        let trim = |h: &mut FlexLog, k: usize| -> Result<(), String> {
            for &color in objects.iter().filter(|&&x| x as usize % leaves.len() == k) {
                let list = book.list(color);
                let cut = list[list.len() / 2 - 1].sn;
                let (head, _) = h
                    .trim(cut, ColorId(color))
                    .map_err(|e| format!("trim {color}: {e}"))?;
                if head != Some(cut) {
                    return Err(format!("trim of color {color} left head {head:?}"));
                }
            }
            Ok(())
        };
        let [h0, h1] = &mut h;
        let (a, b) = two_gens(|| trim(h0, 0), || trim(h1, 1));
        a?;
        b?;
    }
    let trimmed = t0.elapsed().as_secs_f64();
    settle(&c);
    eprintln!(
        "  set-up: preload {preloaded:.2} s, trims {:.2} s, settle {:.2} s, {} records",
        trimmed - preloaded,
        t0.elapsed().as_secs_f64() - trimmed,
        book.total()
    );
    Ok(Setup {
        c,
        store,
        h,
        book,
        clk,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// Waits (at most 5 s) until background storage work has drained: no
/// commit, spill or archive for two consecutive 100 ms polls. Each phase
/// starts from that state; after set-up the wait counts in `setup_s`.
fn settle(c: &FlexLogCluster) {
    let work = || {
        let s = c.obs().snapshot();
        [
            "storage.commits",
            "storage.spilled_records",
            "storage.archived_records",
        ]
        .map(|k| s.counter(k))
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let (mut last, mut quiet) = (work(), 0);
    while quiet < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        let now = work();
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
    }
}

/// Runs `f1` on generator thread `gen-0` and `f2` on `gen-1`.
fn two_gens<A: Send, B: Send>(
    f1: impl FnOnce() -> A + Send,
    f2: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|s| {
        let a = std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}0"))
            .spawn_scoped(s, f1)
            .expect("spawn gen-0");
        let b = std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}1"))
            .spawn_scoped(s, f2)
            .expect("spawn gen-1");
        (
            a.join().expect("gen-0 panicked"),
            b.join().expect("gen-1 panicked"),
        )
    })
}

/// Writer on gen-0, push subscriber on gen-1. The subscriptions are opened
/// before the first append; the writer publishes per-color totals when it
/// is done so the subscriber knows what to drain.
fn push_phase(
    s: &mut Setup,
    ops: &[gen::Op],
    colors: &[u32],
    per_color: usize,
    traced: bool,
    op_base: u64,
) -> Result<Tally, String> {
    let [h1, h2] = &mut s.h;
    let mut subs = Vec::new();
    for &color in colors {
        for _ in 0..per_color {
            subs.push((
                h2.subscribe_push(ColorId(color))
                    .map_err(|e| format!("subscribe {color}: {e}"))?,
                color,
            ));
        }
    }
    let expect: Expect = Default::default();
    let (book, clk) = (&s.book, s.clk);
    let start = clk.ns() + 2_000_000;
    let (mut w, mut r) = two_gens(
        || {
            let t = run::open_loop(h1, ops, start, &clk, book, traced, op_base);
            let mut counts: BTreeMap<u32, usize> =
                colors.iter().map(|&c| (c, book.list(c).len())).collect();
            for (c, _) in &t.acked {
                *counts.entry(*c).or_default() += 1;
            }
            *expect.lock().expect("expect lock") = Some(counts);
            t
        },
        || run::subscriber(h2, &subs, &clk, &expect, Duration::from_secs(5)),
    );
    for (c, rec) in w.acked.drain(..) {
        s.book.add(c, rec);
    }
    s.book.sort();
    run::check_push(&mut r, &s.book);
    for (sub, _) in subs {
        h2.unsubscribe(sub);
    }
    w.merge(r.tally);
    Ok(w)
}

fn add_acks(book: &mut Book, t: &mut Tally) {
    for (c, rec) in t.acked.drain(..) {
        book.add(c, rec);
    }
    book.sort();
}

/// A metric: name, value, unit, samples behind it.
type Metric = (String, f64, &'static str, usize);

/// Everything one measured pass produced.
struct Pass {
    /// The gated end-to-end metrics: figures that stay steady when the
    /// hypervisor takes CPU away (see README.md).
    e2e: Vec<Metric>,
    /// Wall-clock latency medians and capacity: what a user sees, but they
    /// move with host steal, so they are reported ungated.
    wall: Vec<Metric>,
    /// Tail percentiles (ungated).
    tails: Vec<Metric>,
    layers: Vec<Metric>,
    tally: Tally,
}

fn measure(w: &Workload, seed: u64, secs: f64, traced: bool, mut s: Setup) -> Result<Pass, String> {
    let colors = w.colors();
    let objects = w.object_colors();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut all = Tally::default();
    let snap = |s: &Setup| -> Result<Option<Snap>, String> {
        if traced {
            Snap::take(&s.c, s.store.as_ref()).map(Some)
        } else {
            Ok(None)
        }
    };

    // --- main phase ---------------------------------------------------
    let dur = Duration::from_secs_f64(secs * MAIN_SHARE);
    let s0 = snap(&s)?;
    let main_threads0 = schedstat::Snapshot::take()?;
    let mut main = match w.main {
        Main::Fanout {
            rate,
            subs_per_color,
        } => {
            let mix = Mix {
                rate,
                classes: vec![(1.0, Mixed::Append(colors.clone()))],
            };
            let ops = gen::schedule(seed, "main.gen0", &mix, dur, 1);
            hash = gen::schedule_hash(hash, &ops);
            push_phase(&mut s, &ops, &colors, subs_per_color, traced, 0)?
        }
        Main::Appends { rate } | Main::StateMix { rate } => {
            let appends = |rate| Mix {
                rate,
                classes: vec![(1.0, Mixed::Append(colors.clone()))],
            };
            let (mix0, mix1) = match w.main {
                Main::StateMix { .. } => {
                    let reads = Mix {
                        rate,
                        classes: vec![
                            (
                                0.9 * 0.8,
                                Mixed::Read(colors.clone(), ReadTarget::Newest(8)),
                            ),
                            (0.9 * 0.2, Mixed::Read(colors.clone(), ReadTarget::Uniform)),
                            (0.1, Mixed::Replay(objects.clone())),
                        ],
                    };
                    (reads, appends(rate / 9.0))
                }
                _ => (appends(rate / 2.0), appends(rate / 2.0)),
            };
            let ops0 = gen::schedule(seed, "main.gen0", &mix0, dur, 1);
            let ops1 = gen::schedule(seed, "main.gen1", &mix1, dur, 2);
            hash = gen::schedule_hash(gen::schedule_hash(hash, &ops0), &ops1);
            let (book, clk) = (&s.book, s.clk);
            let [h0, h1] = &mut s.h;
            let start = clk.ns() + 2_000_000;
            let (mut a, b) = two_gens(
                || run::open_loop(h0, &ops0, start, &clk, book, traced, 0),
                || run::open_loop(h1, &ops1, start, &clk, book, traced, 1 << 32),
            );
            a.merge(b);
            add_acks(&mut s.book, &mut a);
            a
        }
    };
    let s1 = snap(&s)?;
    // Process CPU per op: node threads alive now, plus the generators
    // (which have exited and measured themselves).
    let main_cpu_ns = cpu_since(&main_threads0)? + main.gen_cpu_ns;
    let main_samples: BTreeMap<Class, Samples> = std::mem::take(&mut main.lat);
    let main_lag = std::mem::take(&mut main.lag);
    let main_ops = main.attempted;

    // --- saturate phase -----------------------------------------------
    settle(&s.c);
    let dur = Duration::from_secs_f64(secs * SATURATE_SHARE);
    let trace_every = traced.then_some((&s.c, HOP_SAMPLE_EVERY));
    let clk = s.clk;
    let h1 = &mut s.h[0];
    let threads0 = schedstat::Snapshot::take()?;
    let mut sat = std::thread::scope(|sc| {
        std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}0"))
            .spawn_scoped(sc, || {
                run::saturate(h1, &colors, dur, &clk, W_SATURATE, trace_every)
            })
            .expect("spawn gen-0")
            .join()
            .expect("gen-0 panicked")
    });
    // Node threads plus the generator, which measured itself.
    let sat_cpu_ns = cpu_since(&threads0)? + sat.gen_cpu_ns;
    add_acks(&mut s.book, &mut sat.tally);
    let capacity = ratio(sat.records as f64, sat.secs);
    let capacity_per_cpu = ratio(sat.records as f64, sat_cpu_ns as f64 / 1e9);

    // --- probe phase --------------------------------------------------
    settle(&s.c);
    let dur = Duration::from_secs_f64(secs * PROBE_SHARE);
    let mix = Mix {
        rate: PROBE_RATE,
        classes: vec![
            (0.60, Mixed::Read(colors.clone(), ReadTarget::Uniform)),
            (0.15, Mixed::Replay(objects.clone())),
            (0.25, Mixed::Append(vec![PROBE_COLOR])),
        ],
    };
    let ops = gen::schedule(seed, "probe.gen0", &mix, dur, W_PROBE);
    hash = gen::schedule_hash(hash, &ops);
    let mut probe = push_phase(&mut s, &ops, &[PROBE_COLOR], PROBE_SUBS, traced, 2 << 32)?;
    let probe_samples = std::mem::take(&mut probe.lat);

    // --- run-wide checks ----------------------------------------------
    let end = s.c.obs().snapshot();
    all.check(end.counter("net.dropped") == 0, || {
        format!("net.dropped = {}", end.counter("net.dropped"))
    });
    let af = end.counter("storage.archive_failures");
    all.check(af == 0, || format!("storage.archive_failures = {af}"));
    let faulted = s.store.as_ref().map_or(0, |st| {
        st.stats()
            .faulted_ops
            .load(std::sync::atomic::Ordering::Relaxed)
    });
    all.check(faulted == 0, || {
        format!("object store faulted_ops = {faulted}")
    });

    // --- end-to-end metrics -------------------------------------------
    let pick = |c: Class| -> Samples {
        let src = if w.main_has(c) {
            &main_samples
        } else {
            &probe_samples
        };
        src.get(&c).cloned().unwrap_or_default()
    };
    let e2e: Vec<Metric> = vec![
        ("peak_rss_mib".into(), peak_rss_mib()?, "MiB", 1),
        (
            "append_capacity_rec_per_cpu_s".into(),
            capacity_per_cpu,
            "rec/cpu-s",
            sat.records as usize,
        ),
        (
            "client_cpu_us_per_op".into(),
            ratio(main.client_cpu_ns as f64 / 1e3, main.attempted as f64),
            "us",
            main.attempted as usize,
        ),
    ];
    let mut wall: Vec<Metric> = vec![
        (
            "append_capacity_rec_s".into(),
            capacity,
            "rec/s",
            sat.records as usize,
        ),
        (
            "cpu_us_per_op".into(),
            ratio(main_cpu_ns as f64 / 1e3, main.attempted as f64),
            "us",
            main.attempted as usize,
        ),
    ];
    let mut tails: Vec<Metric> = Vec::new();
    for (c, name) in [
        (Class::Append, "append"),
        (Class::Read, "read"),
        (Class::Replay, "replay"),
        (Class::PushLag, "push_lag"),
    ] {
        let smp = pick(c);
        let (v, n, per) = smp.windows_us(50.0).map_err(|e| format!("{name}: {e}"))?;
        let per: Vec<String> = per.iter().map(|x| format!("{x:.0}")).collect();
        eprintln!("  {name} p50 windows (us): {}", per.join(" "));
        wall.push((format!("{name}_p50_us"), v, "us", n));
        // Reported at each percentile the samples support, else 0.
        for p in [90.0, 99.0] {
            let v = smp.windows_us(p).map_or(0.0, |x| x.0);
            tails.push((format!("tail.{name}_p{}_us", p as u32), v, "us", n));
        }
    }

    // --- per-layer metrics (traced pass only) --------------------------
    let mut lay: Vec<Metric> = Vec::new();
    if let (Some(a), Some(b)) = (&s0, &s1) {
        let d = Delta::new(a, b);
        let recs = main_samples.get(&Class::Append).map_or(0, Samples::len) as f64;
        let reads = main_samples.get(&Class::Read).map_or(0, Samples::len) as f64;
        let replays = main_samples.get(&Class::Replay).map_or(0, Samples::len) as f64;
        let deliveries = main_samples.get(&Class::PushLag).map_or(0, Samples::len) as f64;
        let ops = main_ops as f64;
        let us = |ns: u64| ns as f64 / 1e3;
        let rep = d.layer(Layer::Replica);
        let seq = d.layer(Layer::Sequencer);
        let sch = d.layer(Layer::Scheduler);
        let rr = d.layer(Layer::ReadReplica);
        let sent = d.counter("net.sent") as f64;
        let served = ["cache_hits", "pm_hits", "ssd_hits", "archive_hits"]
            .map(|k| d.counter(&format!("storage.{k}")) as f64);
        let served_all: f64 = served.iter().sum();
        let (batches, _) = d.hist("seq.batch_wait_ns");
        let (commit_batches, _) = d.hist("replica.commit_batch_ns");
        let mut put = |n: &str, v: f64, u: &'static str| lay.push((n.to_string(), v, u, 1));
        put("bench.main_ops", ops, "count");
        put("bench.main_records", recs, "count");
        put("bench.main_reads", reads, "count");
        put("bench.main_replays", replays, "count");
        put("bench.main_push_deliveries", deliveries, "count");
        put(
            "replication.replica_cpu_us_per_rec",
            ratio(us(rep.cpu_ns), recs * RF as f64),
            "us",
        );
        put(
            "replication.replica_runq_us_per_rec",
            ratio(us(rep.wait_ns), recs * RF as f64),
            "us",
        );
        put("ordering.cpu_us_per_rec", ratio(us(seq.cpu_ns), recs), "us");
        put(
            "ordering.runq_us_per_rec",
            ratio(us(seq.wait_ns), recs),
            "us",
        );
        put(
            "ordering.batch_wait_mean_us",
            d.hist_mean_us("seq.batch_wait_ns"),
            "us",
        );
        put(
            "ordering.recs_per_batch",
            ratio(d.counter_prefix("seq.color_sns.") as f64, batches as f64),
            "count",
        );
        put(
            "replication.commit_batch_mean_us",
            d.hist_mean_us("replica.commit_batch_ns"),
            "us",
        );
        put(
            "replication.recs_per_commit_batch",
            ratio(d.counter("storage.commits") as f64, commit_batches as f64),
            "count",
        );
        put(
            "storage.commit_mean_us",
            d.hist_mean_us("storage.commit_ns"),
            "us",
        );
        put(
            "storage.spilled_records",
            d.counter("storage.spilled_records") as f64,
            "count",
        );
        put(
            "storage.bytes_appended_per_user_byte",
            ratio(d.counter("storage.bytes_appended") as f64, recs * PAYLOAD),
            "ratio",
        );
        let dev = |f: fn(&layers::Devices) -> u64| f(&b.dev).saturating_sub(f(&a.dev)) as f64;
        put(
            "pm.persists_per_rec",
            ratio(dev(|x| x.pm_persists), recs),
            "count",
        );
        put(
            "pm.bytes_written_per_user_byte",
            ratio(dev(|x| x.pm_bytes_written), recs * PAYLOAD),
            "ratio",
        );
        put(
            "pm.ssd_writes_per_rec",
            ratio(dev(|x| x.ssd_writes), recs),
            "count",
        );
        put(
            "pm.ssd_fsyncs_per_rec",
            ratio(dev(|x| x.ssd_fsyncs), recs),
            "count",
        );
        put(
            "pm.ssd_reads_per_read",
            ratio(dev(|x| x.ssd_reads), reads),
            "count",
        );
        put(
            "storage.cache_hit_rate",
            ratio(
                served[0],
                served[0] + d.counter("storage.cache_misses") as f64,
            ),
            "ratio",
        );
        put(
            "storage.cache_evictions",
            d.counter("storage.cache_evictions") as f64,
            "count",
        );
        put(
            "storage.pm_hit_share",
            ratio(served[1], served_all),
            "ratio",
        );
        put(
            "storage.ssd_hit_share",
            ratio(served[2], served_all),
            "ratio",
        );
        put(
            "storage.archive_hit_share",
            ratio(served[3], served_all),
            "ratio",
        );
        put(
            "storage.archive_fetches_per_replay",
            ratio(d.counter("storage.archive_fetches") as f64, replays),
            "count",
        );
        put(
            "tier.gets_per_replay",
            ratio(b.store.gets.saturating_sub(a.store.gets) as f64, replays),
            "count",
        );
        put(
            "tier.bytes_get_per_replay",
            ratio(
                b.store.bytes_get.saturating_sub(a.store.bytes_get) as f64,
                replays,
            ),
            "B",
        );
        put("tier.puts", b.store.puts as f64, "count");
        put(
            "replication.push_mean_us",
            d.hist_mean_us("sub.push_ns"),
            "us",
        );
        put(
            "replication.recs_per_push_batch",
            ratio(
                d.counter("sub.push_records") as f64,
                d.counter("sub.push_batches") as f64,
            ),
            "count",
        );
        put(
            "replication.rreplica_cpu_us_per_push_rec",
            ratio(us(rr.cpu_ns), d.counter("sub.push_records") as f64),
            "us",
        );
        put(
            "replication.rreplica_sync_fetches",
            d.counter("rreplica.sync_fetches") as f64,
            "count",
        );
        put("simnet.msgs_per_op", ratio(sent, ops), "count");
        put("simnet.delay_mean_us", d.hist_mean_us("net.delay_ns"), "us");
        put(
            "simnet.sched_cpu_us_per_msg",
            ratio(us(sch.cpu_ns), sent),
            "us",
        );
        put(
            "simnet.sched_runq_us_per_msg",
            ratio(us(sch.wait_ns), sent),
            "us",
        );
        put(
            "obs.trace_dropped",
            b.trace_dropped.saturating_sub(a.trace_dropped) as f64,
            "count",
        );
        let hop = |i: usize| {
            let mut smp = Samples::default();
            sat.hops.iter().for_each(|h| smp.push(h[i]));
            smp.percentile_us_or_zero(50.0)
        };
        put("obs.hop_send_staged_p50_us", hop(0), "us");
        put("obs.hop_staged_assign_p50_us", hop(1), "us");
        put("obs.hop_assign_commit_p50_us", hop(2), "us");
        put("obs.hop_commit_ack_p50_us", hop(3), "us");
        put(
            "obs.hop_coverage",
            ratio(sat.hops.len() as f64, sat.sampled as f64),
            "ratio",
        );
        put("obs.hop_samples", sat.sampled as f64, "count");
        put(
            "bench.gen_lag_p99_us",
            main_lag.percentile_us_or_zero(99.0),
            "us",
        );
        put(
            "bench.steal_frac",
            ratio(
                (b.steal.1 - a.steal.1) as f64,
                (b.steal.0 - a.steal.0) as f64,
            ),
            "ratio",
        );
        put(
            "bench.cpu_util",
            d.cpu_util(main.gen_cpu_ns, cores()),
            "ratio",
        );
    }

    for t in [main, sat.tally, probe] {
        all.merge(t);
    }
    if traced {
        for kind in run::ERROR_KINDS {
            lay.push((
                format!("core.errors.{kind}"),
                all.errors.get(kind).copied().unwrap_or(0) as f64,
                "count",
                1,
            ));
        }
        lay.push((
            "bench.failed_frac".into(),
            ratio(all.failed as f64, all.attempted as f64),
            "ratio",
            1,
        ));
        // 48 bits, so the value survives a JSON double exactly.
        lay.push((
            "bench.schedule_hash".into(),
            (hash & ((1 << 48) - 1)) as f64,
            "hash",
            1,
        ));
        for (c, name) in [
            (Class::Append, "append"),
            (Class::Read, "read"),
            (Class::Replay, "replay"),
            (Class::PushLag, "push_lag"),
        ] {
            lay.push((
                format!("bench.samples.{name}"),
                pick(c).len() as f64,
                "count",
                1,
            ));
        }
        write_spans(w.name, seed, &all.spans)?;
    }
    s.c.shutdown();
    Ok(Pass {
        e2e,
        wall,
        tails,
        layers: lay,
        tally: all,
    })
}

/// CPU spent since `before` by every thread alive now.
fn cpu_since(before: &schedstat::Snapshot) -> Result<u64, String> {
    Ok(schedstat::Snapshot::take()?
        .since(before)
        .values()
        .map(|t| t.cpu_ns)
        .sum())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Writes the benchmark's own spans (JSON lines) under `out/` in the
/// benchmark's directory.
fn write_spans(workload: &str, seed: u64, spans: &[run::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut out = String::with_capacity(spans.len() * 100);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"sched_ns\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.op,
            s.name,
            if s.parent { "null".to_string() } else { s.op.to_string() },
            s.sched_ns,
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_workload(w: &Workload, a: &Args) -> Result<Report, String> {
    // The first set-up is measured (traced: untraced, and the second one
    // traced), so `peak_rss_mib` is read before later clusters exist.
    // More set-ups follow for timing only; `setup_s` is the median.
    let first = setup(w, a.seed)?;
    let mut times = vec![first.secs];
    let (untraced, mut pass) = if a.trace {
        let plain = measure(w, a.seed, a.seconds, false, first)?;
        let second = setup(w, a.seed)?;
        times.push(second.secs);
        (Some(plain), measure(w, a.seed, a.seconds, true, second)?)
    } else {
        (None, measure(w, a.seed, a.seconds, false, first)?)
    };
    while times.len() < SETUPS {
        let s = setup(w, a.seed)?;
        times.push(s.secs);
        s.c.shutdown();
    }
    times.sort_by(f64::total_cmp);
    let setup_s = times[SETUPS / 2];
    let mut untraced = untraced;
    for p in std::iter::once(&mut pass).chain(untraced.as_mut()) {
        p.e2e.insert(0, ("setup_s".into(), setup_s, "s", SETUPS));
    }

    eprintln!(
        "== {} seed={} seconds={} trace={}",
        w.name, a.seed, a.seconds, a.trace as u8
    );
    let shown = if let Some(u) = &untraced { u } else { &pass };
    for (n, v, u, count) in shown.e2e.iter().chain(&shown.wall).chain(&shown.tails) {
        eprintln!("  {n:<32} {v:>14.3} {u:<9} (n={count})");
    }
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut tally = pass.tally;
    if let Some(u) = untraced {
        // Per-layer figures from the traced pass; the wall-clock figures
        // from the untraced one, and the difference as tracing overhead.
        // Set-up is never traced, and peak RSS is one figure for the
        // whole process, so neither has an overhead.
        let gated = pass
            .e2e
            .iter()
            .zip(&u.e2e)
            .filter(|((n, ..), _)| n != "setup_s" && n != "peak_rss_mib");
        for ((n, traced, unit, _), (_, plain, _, _)) in gated.chain(pass.wall.iter().zip(&u.wall)) {
            metrics.push((format!("overhead.{n}"), traced - plain, unit.to_string()));
        }
        let rest = u.wall.into_iter().chain(u.tails).chain(pass.layers);
        metrics.extend(rest.map(|(n, v, unit, _)| (n, v, unit.to_string())));
        for (n, v, u) in &metrics {
            eprintln!("  {n:<44} {v:>14.4} {u}");
        }
        tally.merge(u.tally);
    } else {
        metrics.extend(
            pass.e2e
                .into_iter()
                .map(|(n, v, u, _)| (n, v, u.to_string())),
        );
    }
    for b in &tally.bad {
        eprintln!("  CHECK FAILED: {b}");
    }
    if tally.bad_count > tally.bad.len() as u64 {
        eprintln!("  ... {} failed checks in all", tally.bad_count);
    }
    for (k, v) in &tally.errors {
        eprintln!("  client error {k}: {v}");
    }
    Ok(Report {
        correct: tally.bad_count == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn json(r: &Report) -> String {
    let mut m = String::new();
    for (i, (n, v, u)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(m, "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        r.correct, r.attempted, r.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        WORKLOADS
            .iter()
            .filter(|w| w.name == args.workload)
            .collect()
    };
    if chosen.is_empty() {
        eprintln!("error: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let mut total = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in &chosen {
        let r = match run_workload(w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                std::process::exit(2);
            }
        };
        if chosen.len() > 1 {
            println!("{}", json(&r));
        }
        total.correct &= r.correct;
        total.attempted += r.attempted;
        total.failed += r.failed;
        let prefix = if chosen.len() > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        total.metrics.extend(
            r.metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{prefix}{n}"), v, u)),
        );
    }
    println!("{}", json(&total));
    if !total.correct || total.failed > 0 {
        std::process::exit(1);
    }
}
