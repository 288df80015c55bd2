//! In-memory span recorder. The benchmark opens a span around each call it
//! makes into a layer's public function; nothing inside the crates is
//! instrumented. Spans are buffered per thread, gathered when the run ends
//! and written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a top-level span.
    pub parent: u64,
    /// Request the span serves (0 when it belongs to no request).
    pub req: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    /// How many calls this span stands for (1 unless sampled).
    pub weight: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a span from its creation until it is dropped.
pub struct Guard(Option<Open>);

struct Open {
    weight: u32,
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    allocs: u64,
    bytes: u64,
}

/// Open a span named `name` for request `req` (0 for none).
pub fn span(name: &'static str, req: u64) -> Guard {
    weighted(name, req, 1)
}

/// Open a span for one request in `every`: for call sites that run
/// millions of times, so the span buffer stays small. The recorded span
/// counts for `every` calls in the totals.
pub fn sampled(name: &'static str, req: u64, every: u32) -> Guard {
    if req.is_multiple_of(every as u64) {
        weighted(name, req, every)
    } else {
        Guard(None)
    }
}

fn weighted(name: &'static str, req: u64, weight: u32) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let (allocs, bytes) = alloc::process_counts();
    Guard(Some(Open {
        weight,
        id,
        parent,
        req,
        name,
        start_ns: now_ns(),
        allocs,
        bytes,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.0.take() else { return };
        let end_ns = now_ns();
        let (allocs, bytes) = alloc::process_counts();
        STACK.with(|s| s.borrow_mut().pop());
        let thread = THREAD.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        BUF.with(|b| {
            b.borrow_mut().push(Span {
                id: o.id,
                parent: o.parent,
                req: o.req,
                name: o.name,
                thread,
                start_ns: o.start_ns,
                end_ns,
                allocs: allocs - o.allocs,
                bytes: bytes - o.bytes,
                weight: o.weight,
            })
        });
    }
}

/// Move this thread's finished spans to the run-wide sink. Every thread
/// that records spans calls this before it ends.
pub fn flush_thread() {
    let mine = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !mine.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(mine);
    }
}

/// Every span recorded so far, sorted by start time.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    let mut all = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Debug)]
pub struct Totals {
    pub count: u64,
    /// Duration minus the part covered by child spans.
    pub self_secs: f64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Aggregate spans by name, with self time.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_secs: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_secs.entry(s.parent).or_default() += s.secs();
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let w = s.weight as f64;
        t.count += s.weight as u64;
        t.self_secs += w * (s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0));
        t.allocs += s.weight as u64 * s.allocs;
        t.bytes += s.weight as u64 * s.bytes;
    }
    out
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 140);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{},\"weight\":{}}}",
            s.id, s.parent, s.req, s.name, s.thread, s.start_ns, s.end_ns, s.allocs, s.bytes, s.weight
        );
    }
    out
}
