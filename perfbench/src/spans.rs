//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, thread)` on the real clock.
//! Recording is off unless [`enable`] was called, and a disabled span
//! costs one relaxed atomic load. Spans nest through a per-thread stack;
//! worker threads the benchmark does not own (the miner's per-shard
//! fan-out) name their parent explicitly with [`span_under`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static BASE: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One finished span. Times are nanoseconds since the recorder's base.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Record {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn now_ns() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable(on: bool) {
    BASE.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it records itself when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    pushed: bool,
}

impl Guard {
    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            pushed: false,
        };
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open(name, parent)
}

/// Opens a span under an explicit parent, for threads that did not open
/// that parent themselves.
pub fn span_under(name: &'static str, parent: u32) -> Guard {
    if !enabled() {
        return span(name);
    }
    open(name, parent)
}

fn open(name: &'static str, parent: u32) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        pushed: true,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(at) = s.iter().rposition(|&i| i == self.id) {
                s.remove(at);
            }
        });
        let record = Record {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut records) = RECORDS.lock() {
            records.push(record);
        }
    }
}

/// Every span recorded so far, in the order they finished.
pub fn records() -> Vec<Record> {
    RECORDS.lock().expect("span recorder poisoned").clone()
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-span self time: its duration minus the part its children cover.
pub fn self_times(records: &[Record]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if r.parent != 0 {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.end_ns));
        }
    }
    records
        .iter()
        .map(|r| {
            let covered = children
                .get_mut(&r.id)
                .map(|c| covered_ns(c, r.start_ns, r.end_ns))
                .unwrap_or(0);
            (r.id, r.duration_ns() - covered)
        })
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, records: &[Record]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            r.id, r.parent, r.name, r.thread, r.start_ns, r.end_ns
        )?;
    }
    out.flush()
}
