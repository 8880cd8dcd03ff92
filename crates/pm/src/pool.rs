//! PMDK-libpmemobj-style transactional object pool.
//!
//! The paper's storage layer models the shared log as a concurrent map kept
//! crash-consistent through PMDK's transactional API (`BEGIN`, `PUT`, `GET`,
//! `COMMIT`/`ROLLBACK`, §2/§8). [`PmPool`] provides that API on top of a
//! [`PmDevice`]:
//!
//! * a transaction stages its puts/deletes privately ([`Tx`]);
//! * [`Tx::commit`] appends all staged operations to a redo log on the
//!   device, persists them, then appends + persists a *commit record* — only
//!   after the commit record is durable does the transaction apply to the
//!   index;
//! * [`PmPool::open`] recovers after a crash by scanning the log and
//!   replaying exactly the transactions whose commit record survived;
//!   half-written transactions are discarded (rollback), guaranteeing
//!   atomicity + durability across power failures.
//!
//! The redo log is **circular** and reclaimed at its head. A 16-byte
//! superblock precedes the ring: the replay start offset (one 8-byte,
//! power-fail-atomic word) and a txid floor above every txid on the device.
//! After each commit the head advances in memory past records the index no
//! longer points at; the superblock is rewritten only when the tail needs
//! that space, so replay may start early and re-apply superseded records
//! harmlessly. A live record at the head is re-appended at the tail only
//! when the tail needs its space; a crash before the new head persists
//! replays both copies, in order. When deletes follow write order (the
//! storage server spills oldest-first) the head is almost always dead and
//! almost nothing is copied.
//!
//! A transaction never straddles the ring's end (a wrap record sends replay
//! back to its start). Replay stops at the zeroed header each commit ends
//! with, and at any record older than the one before it, so bytes left from
//! an earlier lap are never replayed.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{crc32, DeviceError, PmDevice};

/// Bytes of a record header: crc(4) + len(4) + txid(8) + kind(1) + key(16).
const REC_HDR: usize = 33;
/// Superblock: the replay start offset, then the txid floor (8 bytes each).
const SUPERBLOCK: usize = 16;
/// Txids reserved per persist of the txid floor.
const TXID_STEP: u64 = 1 << 16;
const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_COMMIT: u8 = 3;
/// Replay continues at the start of the ring.
const KIND_WRAP: u8 = 4;

/// Errors from pool operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// The live set leaves no room for the transaction.
    PoolFull,
    /// Underlying device error.
    Device(DeviceError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::PoolFull => write!(f, "pm pool is full"),
            PoolError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<DeviceError> for PoolError {
    fn from(e: DeviceError) -> Self {
        PoolError::Device(e)
    }
}

/// A put record in the log; live while the index points at its payload.
struct PutRecord {
    offset: usize,
    key: u128,
}

struct PoolState {
    /// key → (payload offset, payload len) in the device.
    index: HashMap<u128, (usize, usize)>,
    /// Put records from the head to the tail, oldest first. Records of
    /// other kinds are never live, so the head skips them unseen.
    log: VecDeque<PutRecord>,
    /// Replay start held by the superblock: nothing from here to the tail
    /// may be overwritten.
    durable_head: usize,
    /// Next append offset.
    tail: usize,
    next_txid: u64,
    /// Durable txid floor: no record on the device has a txid this high.
    txid_floor: u64,
}

impl PoolState {
    /// Offset of the oldest live record (the tail when nothing is live).
    fn head(&self) -> usize {
        self.log.front().map_or(self.tail, |r| r.offset)
    }

    fn is_live(&self, rec: &PutRecord) -> bool {
        self.index
            .get(&rec.key)
            .is_some_and(|&(off, _)| off == rec.offset + REC_HDR)
    }

    /// Advances the head past every record the index no longer points at.
    fn drop_dead(&mut self) {
        while let Some(rec) = self.log.front() {
            if self.is_live(rec) {
                break;
            }
            self.log.pop_front();
        }
    }
}

/// See module docs.
pub struct PmPool {
    device: Arc<PmDevice>,
    state: Mutex<PoolState>,
}

enum StagedOp {
    Put(u128, Vec<u8>),
    Delete(u128),
}

impl StagedOp {
    fn record_len(&self) -> usize {
        match self {
            StagedOp::Put(_, v) => REC_HDR + v.len(),
            StagedOp::Delete(_) => REC_HDR,
        }
    }
}

/// An open transaction. Dropping without [`Tx::commit`] is a rollback.
pub struct Tx<'a> {
    pool: &'a PmPool,
    ops: Vec<StagedOp>,
    /// Staged view for read-your-writes: key → Some(value) | None(deleted).
    staged: HashMap<u128, Option<Vec<u8>>>,
}

impl PmPool {
    /// Creates a fresh pool on `device`: an empty log at the ring start.
    pub fn create(device: Arc<PmDevice>) -> Self {
        let mut sb = [0u8; SUPERBLOCK];
        sb[..8].copy_from_slice(&(SUPERBLOCK as u64).to_le_bytes());
        device
            .write(0, &sb)
            .expect("device holds at least a superblock");
        device
            .write(SUPERBLOCK, &[0u8; REC_HDR])
            .expect("device holds at least one record header");
        device
            .persist(0, SUPERBLOCK + REC_HDR)
            .expect("superblock persist");
        PmPool::open(device)
    }

    /// Opens a pool from whatever the device's *media* holds, replaying the
    /// redo log from the head the superblock records: only transactions
    /// with a durable commit record apply.
    pub fn open(device: Arc<PmDevice>) -> Self {
        let cap = device.capacity();
        let sb = device.read_media(0, SUPERBLOCK).expect("superblock read");
        let word = |i: usize| u64::from_le_bytes(sb[i..i + 8].try_into().expect("8-byte word"));
        let (head, txid_floor) = (word(0) as usize, word(8));
        // A zeroed (never created) device replays from the ring start.
        let head = Some(head)
            .filter(|&h| h >= SUPERBLOCK && h + REC_HDR <= cap)
            .unwrap_or(SUPERBLOCK);

        let mut index: HashMap<u128, (usize, usize)> = HashMap::new();
        let mut log = VecDeque::new();
        let mut pending: Vec<(u8, u128, usize, usize)> = Vec::new();
        let mut last_txid = 0u64;
        let mut last_committed = 0u64;
        let mut offset = head;
        let mut scanned = 0usize;
        while offset + REC_HDR <= cap && scanned <= cap {
            let hdr = device
                .read_media(offset, REC_HDR)
                .expect("header read within device");
            let crc = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
            let len = u32::from_le_bytes(hdr[4..8].try_into().unwrap()) as usize;
            let txid = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
            let kind = hdr[16];
            let key = u128::from_le_bytes(hdr[17..33].try_into().unwrap());
            if crc == 0 && len == 0 && txid == 0 {
                break; // terminator: end of log
            }
            if offset + REC_HDR + len > cap {
                break; // truncated tail
            }
            let payload = device
                .read_media(offset + REC_HDR, len)
                .expect("payload within device");
            let mut check = Vec::with_capacity(REC_HDR - 4 + len);
            check.extend_from_slice(&hdr[4..]);
            check.extend_from_slice(&payload);
            if crc32(&check) != crc {
                break; // torn record: end of valid prefix
            }
            if txid < last_txid || txid == last_committed {
                break; // left over from an earlier lap
            }
            if txid != last_txid {
                pending.clear(); // an uncommitted transaction: rolled back
                last_txid = txid;
            }
            match kind {
                KIND_WRAP => {
                    scanned += REC_HDR;
                    offset = SUPERBLOCK;
                    continue;
                }
                KIND_PUT | KIND_DELETE => {
                    if kind == KIND_PUT {
                        log.push_back(PutRecord { offset, key });
                    }
                    pending.push((kind, key, offset + REC_HDR, len));
                }
                KIND_COMMIT => {
                    for (k, key, poff, plen) in pending.drain(..) {
                        if k == KIND_PUT {
                            index.insert(key, (poff, plen));
                        } else {
                            index.remove(&key);
                        }
                    }
                    last_committed = txid;
                }
                _ => break, // unknown record kind: treat as corruption
            }
            offset += REC_HDR + len;
            scanned += REC_HDR + len;
        }
        // Appends resume past the valid prefix; the durable head stays
        // where it is until the tail needs the space behind it.
        let mut state = PoolState {
            index,
            log,
            durable_head: head,
            tail: offset,
            next_txid: (last_txid + 1).max(txid_floor),
            txid_floor,
        };
        state.drop_dead();
        PmPool {
            device,
            state: Mutex::new(state),
        }
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Tx<'_> {
        Tx {
            pool: self,
            ops: Vec::new(),
            staged: HashMap::new(),
        }
    }

    /// Reads the committed value for `key`.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        let loc = {
            let st = self.state.lock();
            st.index.get(&key).copied()
        };
        loc.map(|(off, len)| self.device.read(off, len).expect("indexed range valid"))
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u128) -> bool {
        self.state.lock().index.contains_key(&key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.state.lock().index.len()
    }

    /// True if no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys, in log order: oldest write first.
    pub fn keys(&self) -> Vec<u128> {
        let st = self.state.lock();
        st.log
            .iter()
            .filter(|rec| st.is_live(rec))
            .map(|rec| rec.key)
            .collect()
    }

    /// Bytes of the ring between the head and the tail.
    pub fn used_bytes(&self) -> usize {
        let st = self.state.lock();
        self.dist(st.head(), st.tail)
    }

    /// Convenience single-op transactional put.
    pub fn put(&self, key: u128, value: &[u8]) -> Result<(), PoolError> {
        let mut tx = self.begin();
        tx.put(key, value);
        tx.commit()
    }

    /// Convenience single-op transactional delete.
    pub fn delete(&self, key: u128) -> Result<(), PoolError> {
        let mut tx = self.begin();
        tx.delete(key);
        tx.commit()
    }

    /// Reclaims everything reclaimable now: makes the in-memory head (past
    /// every dead record at the front of the log) the durable replay start.
    /// Copies nothing.
    pub fn compact(&self) -> Result<(), PoolError> {
        self.persist_head(&mut self.state.lock())
    }

    /// The underlying device (for crash injection in tests).
    pub fn device(&self) -> &Arc<PmDevice> {
        &self.device
    }

    /// Whether a transaction of `need` bytes (records, commit record and
    /// terminator) fits between the tail and `head`: `Some(wrap)` when it
    /// does, `wrap` meaning it starts at the ring start.
    fn fits(&self, tail: usize, head: usize, need: usize) -> Option<bool> {
        if tail < head {
            (tail + need <= head).then_some(false)
        } else if tail + need <= self.device.capacity() {
            Some(false)
        } else {
            (SUPERBLOCK + need <= head).then_some(true)
        }
    }

    /// Makes the in-memory head the durable replay start.
    fn persist_head(&self, st: &mut PoolState) -> Result<(), PoolError> {
        let head = st.head();
        self.device.write(0, &(head as u64).to_le_bytes())?;
        self.device.persist(0, 8)?;
        st.durable_head = head;
        Ok(())
    }

    /// Room for `need` bytes without touching the live set: `Some(wrap)`,
    /// after persisting the head if the space behind the durable head is
    /// needed, or `None`.
    fn place(&self, st: &mut PoolState, need: usize) -> Result<Option<bool>, PoolError> {
        if let Some(wrap) = self.fits(st.tail, st.durable_head, need) {
            return Ok(Some(wrap));
        }
        let Some(wrap) = self.fits(st.tail, st.head(), need) else {
            return Ok(None);
        };
        self.persist_head(st)?;
        Ok(Some(wrap))
    }

    /// Room for `need` bytes, moving live records from the head to the tail
    /// while they are in the way. Keeps an eighth of the ring free after
    /// every transaction, so a live record at the head always has room to
    /// move. `PoolFull` when nothing is live to move, or a whole lap of
    /// moves made no room.
    fn reserve(&self, st: &mut PoolState, need: usize) -> Result<bool, PoolError> {
        let ring = self.device.capacity() - SUPERBLOCK;
        let spare = ring / 8;
        let mut moved = 0usize;
        loop {
            let head = st.head();
            if let Some(wrap) = self.fits(st.tail, head, need) {
                let end = if wrap { SUPERBLOCK } else { st.tail } + need - REC_HDR;
                if st.log.is_empty() || ring - self.dist(head, end) >= spare {
                    if self.fits(st.tail, st.durable_head, need).is_none() {
                        self.persist_head(st)?;
                    }
                    return Ok(wrap);
                }
            }
            if st.log.is_empty() || moved > ring {
                return Err(PoolError::PoolFull);
            }
            moved += self.move_head_record(st)?;
        }
    }

    /// Ring bytes from `from` forward to `to`.
    fn dist(&self, from: usize, to: usize) -> usize {
        if to >= from {
            to - from
        } else {
            self.device.capacity() - from + to - SUPERBLOCK
        }
    }

    /// Re-appends the live record at the head as a transaction of its own;
    /// the head then advances past the old copy. Returns the bytes moved.
    fn move_head_record(&self, st: &mut PoolState) -> Result<usize, PoolError> {
        let key = st.log.front().expect("head record present").key;
        let (off, len) = st.index[&key];
        let value = self.device.read(off, len)?;
        let op = [StagedOp::Put(key, value)];
        let Some(wrap) = self.place(st, REC_HDR + len + 2 * REC_HDR)? else {
            return Err(PoolError::PoolFull);
        };
        self.write_tx(st, wrap, &op)?;
        Ok(REC_HDR + len)
    }

    fn commit_ops(&self, ops: &[StagedOp]) -> Result<(), PoolError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock();
        // Records + commit record + terminator.
        let need = ops.iter().map(StagedOp::record_len).sum::<usize>() + 2 * REC_HDR;
        let wrap = self.reserve(&mut st, need)?;
        self.write_tx(&mut st, wrap, ops)
    }

    /// Appends `ops` and their commit record at the tail (at the ring start
    /// after a wrap record when `wrap`), persisting the operations before
    /// the commit record, then applies them to the index and advances the
    /// head. The caller has checked that they fit.
    fn write_tx(&self, st: &mut PoolState, wrap: bool, ops: &[StagedOp]) -> Result<(), PoolError> {
        let txid = st.next_txid;
        st.next_txid += 1;
        if txid >= st.txid_floor {
            st.txid_floor = txid + TXID_STEP;
            self.device.write(8, &st.txid_floor.to_le_bytes())?;
            self.device.persist(8, 8)?;
        }
        let mut offset = st.tail;
        if wrap {
            let rec = encode_record(txid, KIND_WRAP, 0, &[]);
            self.device.write(offset, &rec)?;
            self.device.persist(offset, REC_HDR)?;
            offset = SUPERBLOCK;
        }
        let start = offset;
        for op in ops {
            let rec = match op {
                StagedOp::Put(key, value) => encode_record(txid, KIND_PUT, *key, value),
                StagedOp::Delete(key) => encode_record(txid, KIND_DELETE, *key, &[]),
            };
            self.device.write(offset, &rec)?;
            offset += rec.len();
        }
        // Persist the operations *before* the commit record becomes durable
        // (redo-log write ordering).
        self.device.persist(start, offset - start)?;
        let commit = encode_record(txid, KIND_COMMIT, 0, &[]);
        self.device.write(offset, &commit)?;
        // Terminator: the ring past the tail holds records of earlier laps;
        // the zero header stops recovery from replaying them.
        self.device.write(offset + commit.len(), &[0u8; REC_HDR])?;
        self.device.persist(offset, commit.len() + REC_HDR)?;

        let mut offset = start;
        for op in ops {
            match op {
                StagedOp::Put(key, value) => {
                    st.log.push_back(PutRecord { offset, key: *key });
                    st.index.insert(*key, (offset + REC_HDR, value.len()));
                }
                StagedOp::Delete(key) => {
                    st.index.remove(key);
                }
            }
            offset += op.record_len();
        }
        st.tail = offset + REC_HDR;
        st.drop_dead();
        Ok(())
    }
}

impl<'a> Tx<'a> {
    /// Stages a put of `value` under `key`.
    pub fn put(&mut self, key: u128, value: &[u8]) {
        self.ops.push(StagedOp::Put(key, value.to_vec()));
        self.staged.insert(key, Some(value.to_vec()));
    }

    /// Stages a delete of `key`.
    pub fn delete(&mut self, key: u128) {
        self.ops.push(StagedOp::Delete(key));
        self.staged.insert(key, None);
    }

    /// Reads `key`, seeing this transaction's own staged operations first.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        match self.staged.get(&key) {
            Some(v) => v.clone(),
            None => self.pool.get(key),
        }
    }

    /// Atomically and durably applies all staged operations.
    pub fn commit(self) -> Result<(), PoolError> {
        self.pool.commit_ops(&self.ops)
    }

    /// Discards all staged operations (also what dropping does).
    pub fn rollback(self) {
        // Nothing was written: staged ops simply drop.
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

fn encode_record(txid: u64, kind: u8, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(REC_HDR + payload.len());
    rec.extend_from_slice(&[0u8; 4]); // crc placeholder
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&txid.to_le_bytes());
    rec.push(kind);
    rec.extend_from_slice(&key.to_le_bytes());
    rec.extend_from_slice(payload);
    let crc = crc32(&rec[4..]);
    rec[0..4].copy_from_slice(&crc.to_le_bytes());
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmDeviceConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool() -> PmPool {
        PmPool::create(Arc::new(PmDevice::for_testing()))
    }

    #[test]
    fn put_get_roundtrip() {
        let p = pool();
        p.put(1, b"one").unwrap();
        p.put(2, b"two").unwrap();
        assert_eq!(p.get(1).unwrap(), b"one");
        assert_eq!(p.get(2).unwrap(), b"two");
        assert_eq!(p.get(3), None);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn wide_keys_supported() {
        let p = pool();
        let k = (7u128 << 64) | 9;
        p.put(k, b"wide").unwrap();
        assert_eq!(p.get(k).unwrap(), b"wide");
        assert_eq!(p.get(9), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let p = pool();
        p.put(1, b"v1").unwrap();
        p.put(1, b"v2").unwrap();
        assert_eq!(p.get(1).unwrap(), b"v2");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn delete_removes_key() {
        let p = pool();
        p.put(1, b"x").unwrap();
        p.delete(1).unwrap();
        assert_eq!(p.get(1), None);
        assert!(p.is_empty());
    }

    #[test]
    fn tx_reads_its_own_writes() {
        let p = pool();
        p.put(1, b"committed").unwrap();
        let mut tx = p.begin();
        tx.put(2, b"staged");
        tx.delete(1);
        assert_eq!(tx.get(2).unwrap(), b"staged");
        assert_eq!(tx.get(1), None);
        // Pool itself still sees the old state.
        assert_eq!(p.get(1).unwrap(), b"committed");
        assert_eq!(p.get(2), None);
        tx.commit().unwrap();
        assert_eq!(p.get(1), None);
        assert_eq!(p.get(2).unwrap(), b"staged");
    }

    #[test]
    fn rollback_discards_everything() {
        let p = pool();
        let mut tx = p.begin();
        tx.put(9, b"never");
        tx.rollback();
        assert_eq!(p.get(9), None);
    }

    #[test]
    fn dropped_tx_is_rollback() {
        let p = pool();
        {
            let mut tx = p.begin();
            tx.put(9, b"never");
        }
        assert_eq!(p.get(9), None);
    }

    #[test]
    fn committed_data_survives_crash() {
        let dev = Arc::new(PmDevice::for_testing());
        let p = PmPool::create(Arc::clone(&dev));
        p.put(1, b"alpha").unwrap();
        p.put(2, b"beta").unwrap();
        dev.crash();
        let p2 = PmPool::open(dev);
        assert_eq!(p2.get(1).unwrap(), b"alpha");
        assert_eq!(p2.get(2).unwrap(), b"beta");
        assert_eq!(p2.len(), 2);
    }

    #[test]
    fn uncommitted_tx_rolled_back_after_crash() {
        let dev = Arc::new(PmDevice::for_testing());
        let p = PmPool::create(Arc::clone(&dev));
        p.put(1, b"keep").unwrap();
        // Simulate a crash mid-commit: op record persisted, commit record
        // never written.
        let rec = encode_record(99, KIND_PUT, 2, b"lost");
        let tail = SUPERBLOCK + p.used_bytes();
        dev.write(tail, &rec).unwrap();
        dev.persist(tail, rec.len()).unwrap();
        dev.crash();
        let p2 = PmPool::open(dev);
        assert_eq!(p2.get(1).unwrap(), b"keep");
        assert_eq!(p2.get(2), None, "uncommitted put must be rolled back");
    }

    #[test]
    fn recovery_continues_appending_safely() {
        let dev = Arc::new(PmDevice::for_testing());
        let p = PmPool::create(Arc::clone(&dev));
        p.put(1, b"a").unwrap();
        dev.crash();
        let p2 = PmPool::open(Arc::clone(&dev));
        p2.put(2, b"b").unwrap();
        dev.crash();
        let p3 = PmPool::open(dev);
        assert_eq!(p3.get(1).unwrap(), b"a");
        assert_eq!(p3.get(2).unwrap(), b"b");
    }

    #[test]
    fn torn_tail_recovers_valid_prefix() {
        let dev = Arc::new(PmDevice::for_testing());
        let p = PmPool::create(Arc::clone(&dev));
        p.put(1, b"base").unwrap();
        p.put(2, b"maybe").unwrap();
        // Corrupt the most recent commit record's CRC, then crash with torn
        // flushes — recovery must keep key 1 and never panic.
        dev.write(SUPERBLOCK + p.used_bytes() - REC_HDR, &[0xFFu8; 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        dev.crash_torn(&mut rng);
        let p2 = PmPool::open(dev);
        assert_eq!(p2.get(1).unwrap(), b"base");
    }

    #[test]
    fn multi_op_tx_is_atomic_across_crash() {
        let dev = Arc::new(PmDevice::for_testing());
        let p = PmPool::create(Arc::clone(&dev));
        let mut tx = p.begin();
        for k in 0..50u128 {
            tx.put(k, format!("value-{k}").as_bytes());
        }
        tx.commit().unwrap();
        dev.crash();
        let p2 = PmPool::open(dev);
        assert_eq!(p2.len(), 50);
        for k in 0..50u128 {
            assert_eq!(p2.get(k).unwrap(), format!("value-{k}").as_bytes());
        }
    }

    fn small_pool(capacity: usize) -> (Arc<PmDevice>, PmPool) {
        let dev = Arc::new(PmDevice::new(PmDeviceConfig {
            capacity,
            ..Default::default()
        }));
        (Arc::clone(&dev), PmPool::create(dev))
    }

    fn assert_holds(p: &PmPool, model: &HashMap<u128, Vec<u8>>) {
        assert_eq!(p.len(), model.len(), "live key count");
        for (k, v) in model {
            assert_eq!(p.get(*k).as_deref(), Some(v.as_slice()), "key {k}");
        }
    }

    #[test]
    fn head_reclaims_overwritten_records() {
        let (dev, p) = small_pool(64 * 1024);
        for round in 0..20u32 {
            for k in 0..10u128 {
                p.put(k, format!("round-{round}-key-{k}").as_bytes()).unwrap();
            }
        }
        // Only the last round is live, and the head already sits on it.
        let last_round = p.used_bytes();
        assert!(last_round < 10 * 3 * (REC_HDR + 16), "used {last_round}");
        p.compact().unwrap();
        assert_eq!(p.used_bytes(), last_round, "compact copies nothing");
        dev.crash();
        let p2 = PmPool::open(dev);
        for k in 0..10u128 {
            assert_eq!(p2.get(k).unwrap(), format!("round-19-key-{k}").as_bytes());
        }
        assert_eq!(p2.keys(), (0..10u128).collect::<Vec<_>>(), "keys in log order");
    }

    #[test]
    fn crash_between_copy_forward_and_head_persist_loses_nothing() {
        for seed in 0..16u64 {
            let (dev, p) = small_pool(16 * 1024);
            let mut model = HashMap::new();
            for k in 0..6u128 {
                let v = format!("long-lived-{k}-{seed}").into_bytes();
                p.put(k, &v).unwrap();
                model.insert(k, v);
            }
            {
                let mut st = p.state.lock();
                let durable = st.durable_head;
                p.move_head_record(&mut st).unwrap();
                p.move_head_record(&mut st).unwrap();
                assert_eq!(st.durable_head, durable, "head not persisted yet");
                assert_ne!(st.head(), durable, "head advanced in memory");
                if seed % 2 == 1 {
                    // The head write is in flight: a torn crash keeps the
                    // old or the new 8-byte word, never a mix.
                    dev.write(0, &(st.head() as u64).to_le_bytes()).unwrap();
                }
            }
            if seed % 2 == 0 {
                dev.crash();
            } else {
                dev.crash_torn(&mut StdRng::seed_from_u64(seed));
            }
            let p2 = PmPool::open(Arc::clone(&dev));
            assert_holds(&p2, &model);
            p2.put(100, b"after").unwrap();
            model.insert(100, b"after".to_vec());
            dev.crash();
            assert_holds(&PmPool::open(dev), &model);
        }
    }

    #[test]
    fn pool_survives_many_wraps_with_crashes() {
        let (dev, mut p) = small_pool(4096);
        let mut model: HashMap<u128, Vec<u8>> = HashMap::new();
        for k in 0..3u128 {
            let v = format!("pinned-{k}").into_bytes();
            p.put(1000 + k, &v).unwrap();
            model.insert(1000 + k, v);
        }
        for step in 0..2000u32 {
            let k = (step % 5) as u128;
            if step % 7 == 3 {
                p.delete(k).unwrap();
                model.remove(&k);
            } else {
                let v = format!("step-{step:05}-{}", "x".repeat((step % 40) as usize)).into_bytes();
                p.put(k, &v).unwrap();
                model.insert(k, v);
            }
            assert!(p.used_bytes() < 4096);
            if step % 37 == 0 {
                dev.crash();
                p = PmPool::open(Arc::clone(&dev));
                assert_holds(&p, &model);
            } else if step % 53 == 0 {
                dev.crash_torn(&mut StdRng::seed_from_u64(step as u64));
                p = PmPool::open(Arc::clone(&dev));
                assert_holds(&p, &model);
            }
        }
        let written = dev.stats.bytes_written.load(std::sync::atomic::Ordering::Relaxed);
        assert!(written > 20 * 4096, "the ring must wrap many times");
        dev.crash();
        assert_holds(&PmPool::open(dev), &model);
    }

    #[test]
    fn records_of_an_earlier_lap_are_never_replayed() {
        // Equal-sized transactions line up lap after lap, so the bytes past
        // an interrupted transaction are whole, CRC-valid records of older
        // transactions.
        let (dev, p) = small_pool(4096);
        let mut model = HashMap::new();
        for i in 0..200u32 {
            let v = format!("value-{i:04}").into_bytes();
            p.put((i % 4) as u128, &v).unwrap();
            model.insert((i % 4) as u128, v);
        }
        {
            // A transaction whose op record is durable but whose commit
            // record never got written.
            let st = p.state.lock();
            let rec = encode_record(st.next_txid, KIND_PUT, 99, b"value-9999");
            dev.write(st.tail, &rec).unwrap();
            dev.persist(st.tail, rec.len()).unwrap();
        }
        dev.crash();
        assert_holds(&PmPool::open(dev), &model);
    }

    #[test]
    fn txids_keep_rising_after_an_empty_log_recovers() {
        // Laps of equal-sized transactions (an empty put is as long as a
        // delete), then an empty log made durable: replay finds nothing,
        // yet the ring still holds whole records of older laps.
        let (dev, p) = small_pool(4096);
        for i in 0..200u32 {
            p.put((i % 4) as u128, b"").unwrap();
        }
        for k in 0..4u128 {
            p.delete(k).unwrap();
        }
        p.compact().unwrap();
        dev.crash();
        let p = PmPool::open(Arc::clone(&dev));
        assert!(p.is_empty());
        // Key 0 again: older laps end by deleting it.
        p.put(0, b"").unwrap();
        {
            // Interrupted transaction: op record durable, commit missing.
            let st = p.state.lock();
            let rec = encode_record(st.next_txid, KIND_PUT, 99, b"");
            dev.write(st.tail, &rec).unwrap();
            dev.persist(st.tail, rec.len()).unwrap();
        }
        dev.crash();
        let model = HashMap::from([(0u128, Vec::new())]);
        assert_holds(&PmPool::open(dev), &model);
    }

    #[test]
    fn full_ring_of_live_keys_returns_pool_full() {
        let (dev, p) = small_pool(8192);
        let mut model = HashMap::new();
        let mut k = 0u128;
        loop {
            let v = vec![k as u8; 200];
            match p.put(k, &v) {
                Ok(()) => {
                    model.insert(k, v);
                    k += 1;
                }
                Err(e) => {
                    assert_eq!(e, PoolError::PoolFull);
                    break;
                }
            }
        }
        assert!(k > 20, "the ring holds a few dozen records, got {k}");
        assert_holds(&p, &model);
        // Freeing room makes puts succeed again.
        for k in 0..5u128 {
            p.delete(k).unwrap();
            model.remove(&k);
        }
        p.put(999, &[9; 200]).unwrap();
        model.insert(999, vec![9; 200]);
        dev.crash();
        assert_holds(&PmPool::open(dev), &model);
    }

    #[test]
    fn fifo_workload_writes_at_most_four_device_bytes_per_user_byte() {
        let (dev, p) = small_pool(1 << 20);
        let value = [0x5Au8; 256];
        let n = 20_000u128;
        for k in 0..n {
            p.put(k, &value).unwrap();
            if k >= 64 {
                p.delete(k - 64).unwrap();
            }
        }
        let user = n as u64 * value.len() as u64;
        assert!(user > 4 << 20, "the ring must wrap several times");
        let device = dev.stats.bytes_written.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            device <= 4 * user,
            "wrote {device} device bytes for {user} user bytes"
        );
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn truly_full_pool_errors() {
        let dev = Arc::new(PmDevice::new(PmDeviceConfig {
            capacity: 8192,
            ..Default::default()
        }));
        let p = PmPool::create(dev);
        let big = vec![0xAB; 8192];
        let mut tx = p.begin();
        tx.put(1, &big);
        assert_eq!(tx.commit(), Err(PoolError::PoolFull));
    }

    #[test]
    fn empty_tx_commit_is_noop() {
        let p = pool();
        let tx = p.begin();
        assert!(tx.is_empty());
        tx.commit().unwrap();
        assert_eq!(p.used_bytes(), 0);
    }

    #[test]
    fn many_compactions_many_crashes_fuzz() {
        // Interleave puts, compactions and clean crashes; the pool must
        // always recover the full committed state.
        let dev = Arc::new(PmDevice::new(PmDeviceConfig {
            capacity: 64 * 1024,
            ..Default::default()
        }));
        let mut expected: std::collections::HashMap<u128, Vec<u8>> = Default::default();
        let mut p = PmPool::create(Arc::clone(&dev));
        let mut rng = StdRng::seed_from_u64(99);
        use rand::Rng;
        for step in 0..400 {
            let k = rng.gen_range(0..30u128);
            let v = format!("step-{step}");
            p.put(k, v.as_bytes()).unwrap();
            expected.insert(k, v.into_bytes());
            if step % 37 == 0 {
                p.compact().unwrap();
            }
            if step % 53 == 0 {
                dev.crash();
                p = PmPool::open(Arc::clone(&dev));
            }
        }
        dev.crash();
        let p = PmPool::open(dev);
        assert_eq!(p.len(), expected.len());
        for (k, v) in expected {
            assert_eq!(p.get(k).as_deref(), Some(v.as_slice()), "key {k}");
        }
    }
}
