//! Load generators and output checks against a running cluster.
//!
//! Every op goes through the public `flexlog_core::FlexLog` handle. Each
//! worker owns one handle and runs on one generator thread; the cluster's
//! own node threads are the program under test.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use flexlog_core::{ClientError, ColorId, FlexLog, FlexLogCluster, SeqNum, Stage, Subscription};
use flexlog_types::Payload;

use crate::gen::{self, Op, OpKind, ReadTarget};
use crate::stats::{gen_lag, latency_from_sched, Samples};

/// The run's clock: ns since the run started. Payloads carry scheduled
/// instants on this clock, so push lag can be read off a delivered record.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps until `at_ns`, then yields until it is due: plain sleeps
    /// overshoot by tens of µs, which would add to every open-loop latency.
    pub fn wait_until(&self, at_ns: u64) {
        const SPIN_NS: u64 = 50_000;
        let now = self.ns();
        if at_ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(at_ns - now - SPIN_NS));
        }
        while self.ns() < at_ns {
            std::thread::yield_now();
        }
    }
}

/// One acknowledged record: its SN and the (idx, scheduled instant) its
/// payload was built from.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    pub sn: SeqNum,
    pub idx: u64,
    pub sched: u64,
}

/// Every record the benchmark saw acknowledged, per color, in SN order.
#[derive(Default)]
pub struct Book(BTreeMap<u32, Vec<Rec>>);

impl Book {
    pub fn add(&mut self, color: u32, rec: Rec) {
        self.0.entry(color).or_default().push(rec);
    }

    /// Restores SN order after a batch of adds.
    pub fn sort(&mut self) {
        for v in self.0.values_mut() {
            v.sort_by_key(|r| r.sn);
        }
    }

    pub fn list(&self, color: u32) -> &[Rec] {
        self.0.get(&color).map_or(&[], Vec::as_slice)
    }

    /// The record a read op's (target, rank) names.
    pub fn pick(&self, color: u32, target: ReadTarget, rank: f64) -> Option<Rec> {
        let list = self.list(color);
        let (lo, n) = match target {
            ReadTarget::Uniform => (0, list.len()),
            ReadTarget::Newest(k) => {
                let n = list.len().div_ceil(k as usize);
                (list.len() - n, n)
            }
        };
        (n > 0).then(|| list[lo + ((rank * n as f64) as usize).min(n - 1)])
    }

    pub fn total(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }
}

/// Latency classes the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Append,
    Read,
    Replay,
    PushLag,
}

/// One span of the benchmark's own trace: an op (`parent` = None) or a
/// child around the generator wait or the handle call.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: bool,
    pub sched_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What a worker observed.
#[derive(Default)]
pub struct Tally {
    pub lat: BTreeMap<Class, Samples>,
    pub lag: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<&'static str, u64>,
    /// Failed output checks (the first few are kept verbatim).
    pub bad: Vec<String>,
    pub bad_count: u64,
    pub acked: Vec<(u32, Rec)>,
    pub spans: Vec<Span>,
    /// CPU the generator threads spent (read on the thread itself: it
    /// has exited by the next snapshot).
    pub gen_cpu_ns: u64,
    /// The part of it spent inside `FlexLog` handle calls: the client
    /// library's CPU, without the generator's pacing and checks.
    pub client_cpu_ns: u64,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        for (k, v) in o.lat {
            self.lat.entry(k).or_default().extend(&v);
        }
        self.lag.extend(&o.lag);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (k, v) in o.errors {
            *self.errors.entry(k).or_default() += v;
        }
        self.bad_count += o.bad_count;
        self.bad.extend(
            o.bad
                .into_iter()
                .take(8usize.saturating_sub(self.bad.len())),
        );
        self.acked.extend(o.acked);
        self.spans.extend(o.spans);
        self.gen_cpu_ns += o.gen_cpu_ns;
        self.client_cpu_ns += o.client_cpu_ns;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.bad_count += 1;
            if self.bad.len() < 8 {
                self.bad.push(what());
            }
        }
    }

    fn fail(&mut self, e: ClientError) {
        self.failed += 1;
        *self.errors.entry(error_kind(&e)).or_default() += 1;
    }
}

pub fn error_kind(e: &ClientError) -> &'static str {
    match e {
        ClientError::UnknownColor(_) => "unknown_color",
        ClientError::Timeout => "timeout",
        ClientError::ShardUnreachable(_) => "shard_unreachable",
        ClientError::Disconnected => "disconnected",
    }
}

/// Every `ClientError` kind, for per-kind reporting.
/// `not_issued` counts ops a generator could not send within
/// [`MAX_BEHIND_NS`] of their scheduled instant.
pub const ERROR_KINDS: [&str; 5] = [
    "unknown_color",
    "timeout",
    "shard_unreachable",
    "disconnected",
    "not_issued",
];

fn record_payload(color: u32, idx: u64, sched: u64) -> Payload {
    Payload::from(gen::payload(color, idx, sched))
}

/// Checks one replayed color against the book: exactly its records, in
/// SN order, byte for byte.
fn check_replay(t: &mut Tally, color: u32, got: &[flexlog_core::CommittedRecord], want: &[Rec]) {
    let ok = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.sn == w.sn && g.payload[..] == gen::payload(color, w.idx, w.sched)[..]);
    t.check(ok, || {
        format!(
            "replay of color {color}: {} records, want {}",
            got.len(),
            want.len()
        )
    });
}

/// How far behind schedule a generator may fall before the rest of its
/// ops count as failed.
pub const MAX_BEHIND_NS: u64 = 2_000_000_000;

/// Runs one open-loop schedule on `h`. Ops are due at `start_ns` +
/// `op.at_ns`; reads and replays resolve against `book` (frozen for the
/// phase). `op_base` numbers ops for spans when `spans` is on.
pub fn open_loop(
    h: &mut FlexLog,
    ops: &[Op],
    start_ns: u64,
    clk: &Clock,
    book: &Book,
    spans: bool,
    op_base: u64,
) -> Tally {
    let mut t = Tally::default();
    let cpu0 = thread_cpu_ns();
    for (i, op) in ops.iter().enumerate() {
        let sched = start_ns + op.at_ns;
        clk.wait_until(sched);
        let issued = clk.ns();
        if issued > sched + MAX_BEHIND_NS {
            // The load is not being served: count what is left as failed
            // rather than let the backlog stretch the run without bound.
            let left = (ops.len() - i) as u64;
            t.attempted += left;
            t.failed += left;
            *t.errors.entry("not_issued").or_default() += left;
            break;
        }
        t.attempted += 1;
        let (class, name) = match op.kind {
            OpKind::Append { color, idx } => {
                let p = gen::payload(color, idx, sched);
                match on_cpu(&mut t.client_cpu_ns, || h.append(&p, ColorId(color))) {
                    Ok(sn) => t.acked.push((color, Rec { sn, idx, sched })),
                    Err(e) => t.fail(e),
                }
                (Class::Append, "handle.append")
            }
            OpKind::Read {
                color,
                target,
                rank,
            } => {
                let rec = book
                    .pick(color, target, rank)
                    .expect("read target has records");
                match on_cpu(&mut t.client_cpu_ns, || h.read(rec.sn, ColorId(color))) {
                    Ok(got) => {
                        let want = gen::payload(color, rec.idx, rec.sched);
                        let ok = got.as_deref() == Some(&want[..]);
                        t.check(ok, || {
                            format!("read color {color} sn {:?}: wrong or missing bytes", rec.sn)
                        });
                    }
                    Err(e) => t.fail(e),
                }
                (Class::Read, "handle.read")
            }
            OpKind::Replay { color } => {
                match on_cpu(&mut t.client_cpu_ns, || h.subscribe(ColorId(color))) {
                    Ok(got) => check_replay(&mut t, color, &got, book.list(color)),
                    Err(e) => t.fail(e),
                }
                (Class::Replay, "handle.subscribe")
            }
        };
        let done = clk.ns();
        t.lat
            .entry(class)
            .or_default()
            .push_at(sched, latency_from_sched(sched, done));
        t.lag.push_at(sched, gen_lag(sched, issued));
        if spans {
            let op = op_base + i as u64;
            t.spans.push(Span {
                op,
                name: "op",
                parent: true,
                sched_ns: sched,
                start_ns: sched,
                end_ns: done,
            });
            t.spans.push(Span {
                op,
                name: "gen.wait",
                parent: false,
                sched_ns: sched,
                start_ns: sched,
                end_ns: issued,
            });
            t.spans.push(Span {
                op,
                name,
                parent: false,
                sched_ns: sched,
                start_ns: issued,
                end_ns: done,
            });
        }
    }
    t.gen_cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    t
}

/// Runs `f`, adding the calling thread's CPU time during it to `acc`.
fn on_cpu<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = thread_cpu_ns();
    let out = f();
    *acc += thread_cpu_ns().saturating_sub(before);
    out
}

/// CPU time of the calling thread in ns, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`: exact at any instant, where
/// schedstat's run time is only brought up to date at scheduler ticks and
/// so cannot time one call.
pub fn thread_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two `long`s, as
    // `Timespec` is; `clock_gettime` writes it through the valid, exclusive
    // pointer it is given and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Appends `n` records to each listed color through the pipelined path
/// (set-up preload), interleaving the colors in one stream, and returns
/// every ack.
pub fn preload(
    h: &mut FlexLog,
    colors: &[(u32, u64)],
    writer: u64,
    clk: &Clock,
) -> Result<Vec<(u32, Rec)>, String> {
    let mut sent: HashMap<flexlog_core::Token, (u32, u64, u64)> = HashMap::new();
    let mut done = Vec::new();
    let most = colors.iter().map(|&(_, n)| n).max().unwrap_or(0);
    for i in 0..most {
        for &(color, _) in colors.iter().filter(|&&(_, n)| i < n) {
            let idx = writer << 40 | i;
            let sched = clk.ns();
            let tok = h
                .append_pipelined(&[record_payload(color, idx, sched)], ColorId(color))
                .map_err(|e| format!("preload append: {e}"))?;
            sent.insert(tok, (color, idx, sched));
            done.extend(h.take_completed_appends());
        }
    }
    done.extend(
        h.flush_appends()
            .map_err(|e| format!("preload flush: {e}"))?,
    );
    let mut acked = Vec::with_capacity(done.len());
    for (tok, sn) in done {
        let (color, idx, sched) = sent.remove(&tok).ok_or("ack for an unknown token")?;
        acked.push((color, Rec { sn, idx, sched }));
    }
    if !sent.is_empty() {
        return Err(format!("{} preload appends never acked", sent.len()));
    }
    Ok(acked)
}

/// The four contiguous hops of a traced append, in ns: ClientSend →
/// first ReplicaStaged → first SeqAssign → last StorageCommit → last
/// ClientAck. `None` when one of the five stages is missing (evicted from
/// the ring); `Err` when the stamps are out of order, so the hops would
/// not add up to send→ack.
pub fn hops(trace: &flexlog_core::Trace) -> Option<Result<[u64; 4], String>> {
    let points = [
        trace.first_ns(Stage::ClientSend)?,
        trace.first_ns(Stage::ReplicaStaged)?,
        trace.first_ns(Stage::SeqAssign)?,
        trace.last_ns(Stage::StorageCommit)?,
        trace.last_ns(Stage::ClientAck)?,
    ];
    if points.windows(2).any(|w| w[1] < w[0]) {
        return Some(Err(format!(
            "token {:#x}: stage stamps out of order {points:?}",
            trace.token.0
        )));
    }
    let segs = [0, 1, 2, 3].map(|i| points[i + 1] - points[i]);
    if segs.iter().sum::<u64>() != points[4] - points[0] {
        return Some(Err(format!(
            "token {:#x}: hops do not sum to send->ack",
            trace.token.0
        )));
    }
    Some(Ok(segs))
}

/// Result of a saturating pipelined phase.
#[derive(Default)]
pub struct Saturation {
    pub tally: Tally,
    pub records: u64,
    pub secs: f64,
    /// Sampled tokens, and the complete chains among them.
    pub sampled: u64,
    pub hops: Vec<[u64; 4]>,
    /// CPU of the generator thread during the phase.
    pub gen_cpu_ns: u64,
}

/// Closed-loop saturation of one handle with `append_pipelined` (default
/// window) for `dur`, then a final `flush_appends`. With `trace_every`,
/// every Nth token's flight-recorder trace is read right after it
/// completes.
pub fn saturate(
    h: &mut FlexLog,
    colors: &[u32],
    dur: Duration,
    clk: &Clock,
    writer: u64,
    trace_every: Option<(&FlexLogCluster, u64)>,
) -> Saturation {
    let mut s = Saturation::default();
    let mut sent: HashMap<flexlog_core::Token, (u32, u64, u64)> = HashMap::new();
    let mut sampled: HashSet<flexlog_core::Token> = HashSet::new();
    let mut counters: BTreeMap<u32, u64> = BTreeMap::new();
    let mut done: Vec<(flexlog_core::Token, SeqNum)> = Vec::new();
    let cpu0 = thread_cpu_ns();
    let start = clk.ns();
    let end = start + dur.as_nanos() as u64;
    let mut i = 0u64;
    while clk.ns() < end {
        let color = colors[(i % colors.len() as u64) as usize];
        let n = counters.entry(color).or_insert(0);
        let idx = writer << 40 | *n;
        *n += 1;
        let sched = clk.ns();
        s.tally.attempted += 1;
        match h.append_pipelined(&[record_payload(color, idx, sched)], ColorId(color)) {
            Ok(tok) => {
                sent.insert(tok, (color, idx, sched));
                if let Some((_, every)) = trace_every {
                    if i.is_multiple_of(every) {
                        sampled.insert(tok);
                        s.sampled += 1;
                    }
                }
            }
            Err(e) => s.tally.fail(e),
        }
        let from = done.len();
        done.extend(h.take_completed_appends());
        trace_sampled(trace_every, &mut sampled, &done[from..], &mut s);
        i += 1;
    }
    let from = done.len();
    match h.flush_appends() {
        Ok(rest) => done.extend(rest),
        Err(e) => s.tally.fail(e),
    }
    trace_sampled(trace_every, &mut sampled, &done[from..], &mut s);
    s.secs = (clk.ns() - start) as f64 / 1e9;
    s.gen_cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    for (tok, sn) in done {
        if let Some((color, idx, sched)) = sent.remove(&tok) {
            s.tally.acked.push((color, Rec { sn, idx, sched }));
        }
    }
    s.records = s.tally.acked.len() as u64;
    // Whatever never completed counts as failed.
    s.tally.failed += sent.len() as u64;
    s
}

/// Reads the flight-recorder trace of every sampled token among `done`.
fn trace_sampled(
    trace_every: Option<(&FlexLogCluster, u64)>,
    sampled: &mut HashSet<flexlog_core::Token>,
    done: &[(flexlog_core::Token, SeqNum)],
    s: &mut Saturation,
) {
    let Some((c, _)) = trace_every else { return };
    for (tok, _) in done {
        if sampled.remove(tok) {
            match hops(&c.trace(*tok)) {
                Some(Ok(hp)) => s.hops.push(hp),
                Some(Err(e)) => s.tally.check(false, || e),
                None => {}
            }
        }
    }
}

/// Expected per-color record counts, published by the writer when it is
/// done so the subscriber knows when it has drained.
pub type Expect = Mutex<Option<BTreeMap<u32, usize>>>;

/// What a push subscriber received, per subscription.
#[derive(Default)]
pub struct Received {
    pub tally: Tally,
    pub per_sub: Vec<(u32, Vec<SeqNum>)>,
}

/// Polls `subs` round-robin until the writer has published its counts and
/// every subscription has received them (or `drain` passes after that).
/// Each delivery's lag is measured from the scheduled send instant its
/// payload carries.
pub fn subscriber(
    h: &mut FlexLog,
    subs: &[(Subscription, u32)],
    clk: &Clock,
    expect: &Expect,
    drain: Duration,
) -> Received {
    const WAIT: Duration = Duration::from_micros(100);
    let mut r = Received {
        per_sub: subs.iter().map(|&(_, c)| (c, Vec::new())).collect(),
        ..Default::default()
    };
    let cpu0 = thread_cpu_ns();
    let mut k = 0usize;
    let mut deadline: Option<Instant> = None;
    loop {
        // One waiting poll pumps the handle's endpoint for every stream;
        // zero-wait polls then collect what the others got.
        for j in 0..subs.len() {
            let i = (k + j) % subs.len();
            let wait = if j == 0 { WAIT } else { Duration::ZERO };
            match on_cpu(&mut r.tally.client_cpu_ns, || {
                h.poll_subscription(subs[i].0, wait)
            }) {
                Ok(recs) => {
                    let now = clk.ns();
                    let (color, got) = &mut r.per_sub[i];
                    for rec in recs {
                        match gen::decode(&rec.payload) {
                            Some((c, _, sched)) if c == *color => {
                                r.tally
                                    .lat
                                    .entry(Class::PushLag)
                                    .or_default()
                                    .push_at(sched, latency_from_sched(sched, now));
                            }
                            _ => r.tally.check(false, || {
                                format!("push on color {color}: bad payload at {:?}", rec.sn)
                            }),
                        }
                        let in_order = got.last().is_none_or(|&last| rec.sn > last);
                        r.tally.check(in_order, || {
                            format!(
                                "push on color {color}: {:?} out of order or repeated",
                                rec.sn
                            )
                        });
                        got.push(rec.sn);
                    }
                }
                Err(e) => {
                    r.tally.fail(e);
                    return r;
                }
            }
        }
        k = (k + 1) % subs.len();
        if let Some(want) = expect.lock().expect("expect lock").as_ref() {
            let done = r
                .per_sub
                .iter()
                .all(|(c, got)| got.len() >= want.get(c).copied().unwrap_or(0));
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + drain);
            if done || Instant::now() >= deadline {
                r.tally.gen_cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
                return r;
            }
        }
    }
}

/// Checks that each subscription received exactly the acked records of
/// its color, each once, in SN order.
pub fn check_push(r: &mut Received, book: &Book) {
    for (color, got) in &r.per_sub {
        let want: Vec<SeqNum> = book.list(*color).iter().map(|x| x.sn).collect();
        let ok = *got == want;
        r.tally.check(ok, || {
            format!(
                "subscription on color {color}: {} records, want {}",
                got.len(),
                want.len()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexlog_core::{FunctionId, Token, Trace, TraceEvent};

    fn trace(points: &[(Stage, u64)]) -> Trace {
        let token = Token::new(FunctionId(1), 1);
        let events = points
            .iter()
            .enumerate()
            .map(|(i, &(stage, at_ns))| TraceEvent {
                token,
                stage,
                node: 0,
                detail: 0,
                seq: i as u64,
                at_ns,
            })
            .collect();
        Trace { token, events }
    }

    #[test]
    fn hops_are_contiguous_and_sum_to_send_ack() {
        // Three replicas stage and commit; the ack follows the last commit.
        let t = trace(&[
            (Stage::ClientSend, 100),
            (Stage::ReplicaStaged, 130),
            (Stage::ReplicaStaged, 150),
            (Stage::SeqAssign, 400),
            (Stage::StorageCommit, 450),
            (Stage::StorageCommit, 700),
            (Stage::ClientAck, 760),
        ]);
        let segs = hops(&t).expect("complete").expect("in order");
        assert_eq!(segs, [30, 270, 300, 60]);
        assert_eq!(segs.iter().sum::<u64>(), 660);
    }

    #[test]
    fn incomplete_or_disordered_chains() {
        let missing = trace(&[
            (Stage::ClientSend, 1),
            (Stage::ReplicaStaged, 2),
            (Stage::ClientAck, 9),
        ]);
        assert!(hops(&missing).is_none());
        let disordered = trace(&[
            (Stage::ClientSend, 10),
            (Stage::ReplicaStaged, 5),
            (Stage::SeqAssign, 20),
            (Stage::StorageCommit, 30),
            (Stage::ClientAck, 40),
        ]);
        assert!(hops(&disordered).expect("complete").is_err());
    }

    #[test]
    fn book_picks_by_rank() {
        let mut b = Book::default();
        for i in 0..16u64 {
            b.add(
                3,
                Rec {
                    sn: SeqNum(100 - i),
                    idx: i,
                    sched: 0,
                },
            );
        }
        b.sort();
        assert_eq!(b.list(3)[0].sn, SeqNum(85));
        // Newest eighth: the top 2 of 16.
        assert_eq!(
            b.pick(3, ReadTarget::Newest(8), 0.0).unwrap().sn,
            SeqNum(99)
        );
        assert_eq!(
            b.pick(3, ReadTarget::Newest(8), 0.99).unwrap().sn,
            SeqNum(100)
        );
        assert_eq!(b.pick(3, ReadTarget::Uniform, 0.0).unwrap().sn, SeqNum(85));
        assert!(b.pick(4, ReadTarget::Uniform, 0.5).is_none());
    }
}

#[cfg(test)]
mod cpu_tests {
    use super::thread_cpu_ns;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let spent = thread_cpu_ns() - before;
        assert!(spent > 100_000, "{spent} ns for two million steps ({x})");
    }
}
