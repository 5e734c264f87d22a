//! Wall-clock profiling: stack-attributed hotspot profiles that coexist
//! with the deterministic tracing layer without ever contaminating it.
//!
//! The [`crate::Recorder`] answers "what did the *virtual clock* charge" —
//! a pure function of `(inputs, seed, config)`. This module answers the
//! question the virtual clock cannot: **where do real nanoseconds go?** A
//! [`Profiler`] is a clonable handle (zero-cost when disabled, like
//! `Recorder`) that scoped guards feed into a call-path tree: per node the
//! call count, total wall nanoseconds, and bytes attributed by the code
//! under profile.
//!
//! # Ambient installation
//!
//! Hot paths (BFV NTT kernels, henn layer ops) sit far below the layers
//! that own handles, so the profiler is *installed* per thread rather than
//! threaded through every signature: [`Profiler::install`] makes a handle
//! the thread's current profiler, and the free function [`span`] opens a
//! scope against whatever is installed — a single thread-local read and
//! branch when nothing is (the disabled fast path). Parallel executors
//! re-root their workers with [`Profiler::worker_scope`], so work-stolen
//! kernel time attributes to `par.worker[w]` per-worker subtrees instead
//! of racing the caller's stack.
//!
//! # The determinism contract
//!
//! Wall time NEVER reaches a replay-stable artifact. The profiler exports
//! two faces:
//!
//! * **wall face** — [`Profiler::export_collapsed`] (flamegraph collapsed
//!   stacks, loadable in speedscope/inferno), [`Profiler::hotspots`] /
//!   [`Profiler::hotspot_table`] (sorted self-time table), and
//!   [`Profiler::drift_report`] (measured-vs-modeled join). All carry
//!   nanoseconds; none may be byte-diffed across runs.
//! * **deterministic face** — [`Profiler::deterministic_json`]: tree
//!   shape, call counts, and bytes only. Per-worker roots are merged into
//!   a single `par.worker` node (work stealing makes the per-worker split
//!   scheduling-dependent, but the *sum* over workers is a pure function
//!   of the submitted work), so the encoding is byte-identical across runs
//!   and across HE pool sizes.
//!
//! This file is the one sanctioned consumer of `std::time::Instant`
//! outside `hesgx_tee::wall` and the bench crate: the `wall-clock` lint
//! rule carries a scoped exemption for `crates/obs/src/prof.rs` (this
//! crate sits below `hesgx-tee`, so it cannot route through the
//! `WallTimer` shim without a dependency cycle; the exemption is the
//! same audit boundary, one file lower).

use crate::{json_string, Recorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One node of the call-path tree.
#[derive(Debug, Clone)]
struct Node {
    /// Frame name (one path segment; sanitized — no `;` or spaces).
    name: String,
    /// Children, ordered by name so every walk is deterministic.
    children: BTreeMap<String, usize>,
    /// Completed scope entries.
    calls: u64,
    /// Total wall nanoseconds across entries (children included).
    wall_ns: u64,
    /// Bytes attributed via [`add_bytes`] while this frame was current.
    bytes: u64,
}

/// The shared call-path tree. Node 0 is the synthetic root.
#[derive(Debug)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn new() -> Self {
        Tree {
            nodes: vec![Node {
                name: String::new(),
                children: BTreeMap::new(),
                calls: 0,
                wall_ns: 0,
                bytes: 0,
            }],
        }
    }

    /// Finds or creates the child of `parent` named `name` (sanitized).
    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(name) {
            return idx;
        }
        let clean = sanitize(name);
        if let Some(&idx) = self.nodes[parent].children.get(&clean) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: clean.clone(),
            children: BTreeMap::new(),
            calls: 0,
            wall_ns: 0,
            bytes: 0,
        });
        self.nodes[parent].children.insert(clean, idx);
        idx
    }

    /// Wall nanoseconds directly attributable to `idx` (total minus the
    /// children's totals, floored at zero).
    fn self_ns(&self, idx: usize) -> u64 {
        let child_total: u64 = self.nodes[idx]
            .children
            .values()
            .map(|&c| self.nodes[c].wall_ns)
            .fold(0u64, u64::saturating_add);
        self.nodes[idx].wall_ns.saturating_sub(child_total)
    }

    /// Depth-first walk in child-name order, calling `f(path, idx)` for
    /// every node below the root. Paths join frames with `;` (the
    /// collapsed-stack separator).
    fn walk<F: FnMut(&str, usize)>(&self, f: &mut F) {
        let mut stack: Vec<(usize, String)> = self.nodes[0]
            .children
            .values()
            .rev()
            .map(|&c| (c, self.nodes[c].name.clone()))
            .collect();
        while let Some((idx, path)) = stack.pop() {
            f(&path, idx);
            for &c in self.nodes[idx].children.values().rev() {
                stack.push((c, format!("{path};{}", self.nodes[c].name)));
            }
        }
    }
}

/// Frame names must survive the collapsed-stack format, where `;` splits
/// frames and the last space splits the value off the path.
fn sanitize(name: &str) -> String {
    name.replace([';', ' '], "_")
}

#[derive(Debug)]
struct Shared {
    tree: Mutex<Tree>,
}

impl Shared {
    /// Poison-safe lock: a panicked scope must not kill profiling.
    fn lock(&self) -> MutexGuard<'_, Tree> {
        self.tree.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-thread profiling context: the installed handle plus the open-scope
/// stack whose top is the attribution target for new spans and bytes.
struct ThreadCtx {
    shared: Arc<Shared>,
    stack: Vec<usize>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// A clonable wall-clock profiler handle.
///
/// Disabled by default and zero-cost in that state: every operation is a
/// single `Option` check. See the module docs for the two export faces and
/// the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Shared>>,
}

impl Profiler {
    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// An enabled handle with an empty call-path tree.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(Shared {
                tree: Mutex::new(Tree::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs this profiler as the current thread's ambient profiler and
    /// returns a guard that restores the previous one on drop. A disabled
    /// handle installs nothing (and does *not* clear an already-installed
    /// ambient profiler — layers compose instead of fighting).
    #[must_use = "dropping the guard immediately uninstalls the profiler"]
    pub fn install(&self) -> InstallGuard {
        match &self.inner {
            None => InstallGuard {
                prev: None,
                swapped: false,
            },
            Some(shared) => {
                let prev = CURRENT.replace(Some(ThreadCtx {
                    shared: Arc::clone(shared),
                    stack: vec![0],
                }));
                InstallGuard {
                    prev,
                    swapped: true,
                }
            }
        }
    }

    /// The current thread's ambient profiler (disabled if none installed).
    /// Parallel executors capture this on the submitting thread and re-root
    /// their workers with [`Profiler::worker_scope`].
    pub fn current() -> Profiler {
        CURRENT.with_borrow(|cur| Profiler {
            inner: cur.as_ref().map(|ctx| Arc::clone(&ctx.shared)),
        })
    }

    /// Re-roots the current thread at a fresh `par.worker[w]` top-level
    /// frame until the guard drops, restoring whatever context the thread
    /// had before. Worker roots accumulate wall time (per-worker busy
    /// attribution in the wall face) but never call counts — the
    /// deterministic face merges all workers into one `par.worker` node,
    /// whose children's counts sum identically at every pool size.
    #[must_use = "dropping the guard immediately ends the worker scope"]
    pub fn worker_scope(&self, worker: usize) -> WorkerGuard {
        match &self.inner {
            None => WorkerGuard {
                active: None,
                prev: None,
                swapped: false,
            },
            Some(shared) => {
                let root = shared.lock().child(0, &format!("par.worker[{worker}]"));
                let prev = CURRENT.replace(Some(ThreadCtx {
                    shared: Arc::clone(shared),
                    stack: vec![root],
                }));
                WorkerGuard {
                    active: Some((Arc::clone(shared), root, Instant::now())),
                    prev,
                    swapped: true,
                }
            }
        }
    }

    /// Discards every recorded node, keeping the handle installed-able.
    pub fn reset(&self) {
        if let Some(shared) = &self.inner {
            *shared.lock() = Tree::new();
        }
    }

    /// Collapsed-stack flamegraph text: one `path;to;frame <self_ns>` line
    /// per node with nonzero self time, sorted by path. Loadable in
    /// speedscope or `inferno-flamegraph`. Wall face — never byte-diff it.
    pub fn export_collapsed(&self) -> String {
        let Some(shared) = &self.inner else {
            return String::new();
        };
        let tree = shared.lock();
        let mut lines: Vec<String> = Vec::new();
        tree.walk(&mut |path, idx| {
            let self_ns = tree.self_ns(idx);
            if self_ns > 0 {
                lines.push(format!("{path} {self_ns}"));
            }
        });
        lines.sort_unstable();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Every profiled call path with its wall statistics, sorted hottest
    /// (largest self time) first, ties by path. Wall face.
    pub fn hotspots(&self) -> Vec<Hotspot> {
        let Some(shared) = &self.inner else {
            return Vec::new();
        };
        let tree = shared.lock();
        let mut out = Vec::new();
        tree.walk(&mut |path, idx| {
            let node = &tree.nodes[idx];
            out.push(Hotspot {
                path: path.to_string(),
                self_ns: tree.self_ns(idx),
                total_ns: node.wall_ns,
                calls: node.calls,
                bytes: node.bytes,
            });
        });
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        out
    }

    /// Renders the top `limit` hotspots as an aligned text table. Wall face.
    pub fn hotspot_table(&self, limit: usize) -> String {
        let hotspots = self.hotspots();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>14} {:>14} {:>10} {:>12}  stack",
            "self (ns)", "total (ns)", "calls", "bytes"
        );
        for h in hotspots.iter().take(limit) {
            let _ = writeln!(
                out,
                "{:>14} {:>14} {:>10} {:>12}  {}",
                h.self_ns, h.total_ns, h.calls, h.bytes, h.path
            );
        }
        out
    }

    /// The replay-stable face: tree shape, call counts, and bytes — no
    /// nanoseconds. `par.worker[w]` roots are merged into one `par.worker`
    /// node before encoding, so the output is byte-identical across runs
    /// and across pool sizes (CI diffs it run-twice).
    pub fn deterministic_json(&self) -> String {
        let mut merged: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        if let Some(shared) = &self.inner {
            let tree = shared.lock();
            tree.walk(&mut |path, idx| {
                let node = &tree.nodes[idx];
                let entry = merged.entry(normalize_path(path)).or_insert((0, 0));
                entry.0 += node.calls;
                entry.1 += node.bytes;
            });
        }
        let mut out = String::from("{\"profile\":[");
        for (i, (path, (calls, bytes))) in merged.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{},\"calls\":{calls},\"bytes\":{bytes}}}",
                json_string(path)
            );
        }
        out.push_str("]}");
        out
    }

    /// The full wall-face tree as JSON: per path the calls, bytes, total
    /// and self nanoseconds. Informative and machine-dependent — never
    /// byte-diff it.
    pub fn wall_json(&self) -> String {
        let mut out = String::from("{\"profile_wall\":[");
        if let Some(shared) = &self.inner {
            let tree = shared.lock();
            let mut first = true;
            tree.walk(&mut |path, idx| {
                if !first {
                    out.push(',');
                }
                first = false;
                let node = &tree.nodes[idx];
                let _ = write!(
                    out,
                    "{{\"path\":{},\"calls\":{},\"bytes\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    json_string(path),
                    node.calls,
                    node.bytes,
                    node.wall_ns,
                    tree.self_ns(idx)
                );
            });
        }
        out.push_str("]}");
        out
    }

    /// Sums calls and wall nanoseconds per frame *name* across every path
    /// it appears at — the join key for [`Profiler::drift_report`].
    fn totals_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        if let Some(shared) = &self.inner {
            let tree = shared.lock();
            for node in tree.nodes.iter().skip(1) {
                let entry = totals.entry(node.name.clone()).or_insert((0, 0));
                entry.0 += node.calls;
                entry.1 = entry.1.saturating_add(node.wall_ns);
            }
        }
        totals
    }

    /// Joins measured wall nanoseconds against the modeled virtual-clock
    /// cost, per stage: every recorder span whose name also appears as a
    /// profiled frame becomes a [`DriftEntry`] comparing the profiler's
    /// wall total against the span's `SpanCost::total_ns()`. Systematic
    /// model-vs-reality divergence becomes one diffable number per stage
    /// plus a [`DriftReport::top_ratio_permille`] headline the profile
    /// experiment holds inside a checked-in budget band. Wall face.
    pub fn drift_report(&self, recorder: &Recorder) -> DriftReport {
        let measured = self.totals_by_name();
        let mut entries = Vec::new();
        for (name, stats) in recorder.spans_with_prefix("") {
            let Some(&(calls, wall_ns)) = measured.get(&name) else {
                continue;
            };
            entries.push(DriftEntry {
                stage: name,
                calls,
                measured_ns: wall_ns,
                modeled_ns: stats.cost.total_ns(),
            });
        }
        DriftReport { entries }
    }
}

/// Merges the scheduling-dependent `par.worker[w]` roots into one
/// `par.worker` frame; everything else passes through.
fn normalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for (i, frame) in path.split(';').enumerate() {
        if i > 0 {
            out.push(';');
        }
        if frame.starts_with("par.worker[") && frame.ends_with(']') {
            out.push_str("par.worker");
        } else {
            out.push_str(frame);
        }
    }
    out
}

/// One row of [`Profiler::hotspots`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Full call path, frames joined by `;`.
    pub path: String,
    /// Wall nanoseconds attributable to this frame alone.
    pub self_ns: u64,
    /// Wall nanoseconds including children.
    pub total_ns: u64,
    /// Completed scope entries.
    pub calls: u64,
    /// Bytes attributed while this frame was current.
    pub bytes: u64,
}

/// One joined stage of a [`DriftReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEntry {
    /// The stage / span name both layers recorded.
    pub stage: String,
    /// Profiled scope entries for the stage.
    pub calls: u64,
    /// Measured wall nanoseconds (profiler).
    pub measured_ns: u64,
    /// Modeled virtual-clock nanoseconds (`SpanCost::total_ns()`).
    pub modeled_ns: u64,
}

impl DriftEntry {
    /// measured/modeled ratio in permille (0 when the model charged
    /// nothing — flagged, not divided).
    pub fn ratio_permille(&self) -> u64 {
        if self.modeled_ns == 0 {
            return 0;
        }
        ((u128::from(self.measured_ns) * 1000) / u128::from(self.modeled_ns)) as u64
    }
}

/// The measured-vs-modeled join of [`Profiler::drift_report`].
#[derive(Debug, Clone, Default)]
pub struct DriftReport {
    /// Joined stages, recorder span order (sorted by name).
    pub entries: Vec<DriftEntry>,
}

impl DriftReport {
    /// Top-level measured/modeled ratio in permille, over every joined
    /// stage with a nonzero modeled cost. 1000 means the model predicts
    /// wall time exactly; the profile experiment asserts this stays inside
    /// a generous checked-in band so the cost model cannot silently rot.
    pub fn top_ratio_permille(&self) -> u64 {
        let (mut measured, mut modeled) = (0u128, 0u128);
        for e in &self.entries {
            if e.modeled_ns > 0 {
                measured += u128::from(e.measured_ns);
                modeled += u128::from(e.modeled_ns);
            }
        }
        if modeled == 0 {
            return 0;
        }
        ((measured * 1000) / modeled) as u64
    }

    /// Renders the per-stage join as an aligned text table. Wall face.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>8}  stage",
            "calls", "measured(ns)", "modeled(ns)", "m/m ‰"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:>10} {:>14} {:>14} {:>8}  {}",
                e.calls,
                e.measured_ns,
                e.modeled_ns,
                e.ratio_permille(),
                e.stage
            );
        }
        let _ = writeln!(
            out,
            "top-level measured/modeled ratio: {} permille",
            self.top_ratio_permille()
        );
        out
    }

    /// JSON encoding of the join (wall face — carries nanoseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"drift\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"calls\":{},\"measured_ns\":{},\"modeled_ns\":{},\"ratio_permille\":{}}}",
                json_string(&e.stage),
                e.calls,
                e.measured_ns,
                e.modeled_ns,
                e.ratio_permille()
            );
        }
        let _ = write!(
            out,
            "],\"top_ratio_permille\":{}}}",
            self.top_ratio_permille()
        );
        out
    }
}

/// Opens a scope named `name` against the current thread's installed
/// profiler; a no-op guard when none is installed. The scope closes (and
/// records its wall time) when the guard drops. Guards nest strictly —
/// drop order is enforced by scope structure at every instrumented site.
#[must_use = "dropping the guard immediately closes the span"]
pub fn span(name: &str) -> SpanGuard {
    CURRENT.with_borrow_mut(|cur| match cur {
        None => SpanGuard { active: None },
        Some(ctx) => {
            let parent = ctx.stack.last().copied().unwrap_or(0);
            let node = ctx.shared.lock().child(parent, name);
            ctx.stack.push(node);
            SpanGuard {
                active: Some((Arc::clone(&ctx.shared), node, Instant::now())),
            }
        }
    })
}

/// Attributes `bytes` to the innermost open scope on this thread (no-op
/// when no profiler is installed or no scope is open).
pub fn add_bytes(bytes: u64) {
    CURRENT.with_borrow(|cur| {
        if let Some(ctx) = cur {
            if let Some(&node) = ctx.stack.last() {
                let mut tree = ctx.shared.lock();
                tree.nodes[node].bytes = tree.nodes[node].bytes.saturating_add(bytes);
            }
        }
    });
}

/// Scope guard returned by [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Arc<Shared>, usize, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((shared, node, start)) = self.active.take() else {
            return;
        };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        {
            let mut tree = shared.lock();
            tree.nodes[node].calls += 1;
            tree.nodes[node].wall_ns = tree.nodes[node].wall_ns.saturating_add(elapsed);
        }
        CURRENT.with_borrow_mut(|cur| {
            if let Some(ctx) = cur {
                if Arc::ptr_eq(&ctx.shared, &shared) && ctx.stack.last() == Some(&node) {
                    ctx.stack.pop();
                }
            }
        });
    }
}

/// Guard returned by [`Profiler::install`]; restores the thread's previous
/// ambient profiler on drop.
pub struct InstallGuard {
    prev: Option<ThreadCtx>,
    swapped: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if self.swapped {
            CURRENT.replace(self.prev.take());
        }
    }
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstallGuard")
            .field("swapped", &self.swapped)
            .finish()
    }
}

/// Guard returned by [`Profiler::worker_scope`]; accumulates the worker
/// root's busy wall time and restores the previous thread context on drop.
pub struct WorkerGuard {
    active: Option<(Arc<Shared>, usize, Instant)>,
    prev: Option<ThreadCtx>,
    swapped: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if let Some((shared, root, start)) = self.active.take() {
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut tree = shared.lock();
            // Wall time only: worker-root call counts would expose the
            // scheduler (how many workers touched work varies per run),
            // and the deterministic face must not see that.
            tree.nodes[root].wall_ns = tree.nodes[root].wall_ns.saturating_add(elapsed);
        }
        if self.swapped {
            CURRENT.replace(self.prev.take());
        }
    }
}

impl std::fmt::Debug for WorkerGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerGuard")
            .field("swapped", &self.swapped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanCost;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        let _install = p.install();
        {
            let _g = span("never");
            add_bytes(100);
        }
        assert!(!p.is_enabled());
        assert_eq!(p.export_collapsed(), "");
        assert!(p.hotspots().is_empty());
        assert_eq!(p.deterministic_json(), "{\"profile\":[]}");
    }

    #[test]
    fn span_without_install_is_a_no_op() {
        let _g = span("floating");
        add_bytes(7);
        // Nothing to assert against — the point is that this neither
        // panics nor leaks state into a later install.
        let p = Profiler::enabled();
        let _install = p.install();
        drop(span("real"));
        let hot = p.hotspots();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].path, "real");
    }

    #[test]
    fn nested_spans_build_a_path_tree() {
        let p = Profiler::enabled();
        let _install = p.install();
        {
            let _a = span("outer");
            add_bytes(10);
            {
                let _b = span("inner");
                add_bytes(32);
            }
            {
                let _b = span("inner");
            }
        }
        let hot = p.hotspots();
        let by_path = |path: &str| hot.iter().find(|h| h.path == path).expect(path).clone();
        let outer = by_path("outer");
        let inner = by_path("outer;inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.bytes, 10);
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.bytes, 32);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn collapsed_export_is_sorted_and_parseable() {
        let p = Profiler::enabled();
        let _install = p.install();
        {
            let _a = span("b_root");
            let _b = span("leaf");
        }
        drop(span("a_root"));
        let collapsed = p.export_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert!(!lines.is_empty());
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "collapsed lines must be sorted");
        for line in lines {
            let (path, value) = line.rsplit_once(' ').expect("`path value` shape");
            assert!(!path.is_empty());
            assert!(value.parse::<u64>().is_ok(), "value must be ns: {line}");
        }
    }

    #[test]
    fn frame_names_are_sanitized_for_the_collapsed_format() {
        let p = Profiler::enabled();
        let _install = p.install();
        drop(span("weird name;with[separators]"));
        let hot = p.hotspots();
        assert_eq!(hot[0].path, "weird_name_with[separators]");
    }

    #[test]
    fn worker_roots_merge_deterministically() {
        // Two executions with different scheduling splits of the same four
        // tasks must produce identical deterministic faces.
        let run = |split: &[(usize, usize)]| {
            let p = Profiler::enabled();
            let _install = p.install();
            for &(worker, tasks) in split {
                let _w = p.worker_scope(worker);
                for _ in 0..tasks {
                    let _t = span("kernel");
                    add_bytes(8);
                }
            }
            p.deterministic_json()
        };
        let a = run(&[(0, 1), (1, 3)]);
        let b = run(&[(0, 2), (1, 1), (2, 1)]);
        assert_eq!(
            a, b,
            "scheduling must be invisible in the deterministic face"
        );
        assert!(a.contains("\"path\":\"par.worker;kernel\",\"calls\":4,\"bytes\":32"));
    }

    #[test]
    fn worker_scope_restores_the_callers_stack() {
        let p = Profiler::enabled();
        let _install = p.install();
        let _outer = span("caller");
        {
            let _w = p.worker_scope(0);
            drop(span("task"));
        }
        drop(span("after"));
        let hot = p.hotspots();
        assert!(hot.iter().any(|h| h.path == "par.worker[0];task"));
        assert!(
            hot.iter().any(|h| h.path == "caller;after"),
            "post-scope spans must re-attach to the caller's stack: {hot:?}"
        );
    }

    #[test]
    fn install_guard_restores_the_previous_profiler() {
        let outer = Profiler::enabled();
        let inner = Profiler::enabled();
        let _a = outer.install();
        {
            let _b = inner.install();
            drop(span("inner_span"));
        }
        drop(span("outer_span"));
        assert_eq!(inner.hotspots().len(), 1);
        assert_eq!(inner.hotspots()[0].path, "inner_span");
        assert_eq!(outer.hotspots().len(), 1);
        assert_eq!(outer.hotspots()[0].path, "outer_span");
    }

    #[test]
    fn disabled_install_does_not_clear_the_ambient_profiler() {
        let p = Profiler::enabled();
        let _a = p.install();
        {
            let _b = Profiler::disabled().install();
            drop(span("still_recorded"));
        }
        assert_eq!(p.hotspots()[0].path, "still_recorded");
    }

    #[test]
    fn drift_report_joins_on_stage_names() {
        let p = Profiler::enabled();
        let _install = p.install();
        drop(span("infer.layer[0].he"));
        drop(span("unmodeled.stage"));
        let rec = Recorder::enabled();
        rec.record_span(
            "infer.layer[0].he",
            SpanCost {
                real_ns: 500,
                transition_ns: 100,
                ..SpanCost::default()
            },
        );
        rec.record_span(
            "never.profiled",
            SpanCost {
                real_ns: 9,
                ..SpanCost::default()
            },
        );
        let drift = p.drift_report(&rec);
        assert_eq!(drift.entries.len(), 1, "join is by exact stage name");
        let e = &drift.entries[0];
        assert_eq!(e.stage, "infer.layer[0].he");
        assert_eq!(e.modeled_ns, 600);
        assert_eq!(e.calls, 1);
        let json = drift.to_json();
        assert!(json.contains("\"top_ratio_permille\""));
        assert!(drift.render_table().contains("infer.layer[0].he"));
    }

    #[test]
    fn top_ratio_skips_zero_modeled_stages() {
        let report = DriftReport {
            entries: vec![
                DriftEntry {
                    stage: "a".into(),
                    calls: 1,
                    measured_ns: 500,
                    modeled_ns: 1000,
                },
                DriftEntry {
                    stage: "b".into(),
                    calls: 1,
                    measured_ns: 123_456,
                    modeled_ns: 0,
                },
            ],
        };
        assert_eq!(report.top_ratio_permille(), 500);
        assert_eq!(report.entries[1].ratio_permille(), 0);
    }

    #[test]
    fn reset_clears_the_tree() {
        let p = Profiler::enabled();
        let _install = p.install();
        drop(span("gone"));
        p.reset();
        assert!(p.hotspots().is_empty());
        drop(span("kept"));
        assert_eq!(p.hotspots().len(), 1);
    }

    #[test]
    fn threads_profile_independently_under_one_handle() {
        let p = Profiler::enabled();
        let handle = p.clone();
        let t = std::thread::spawn(move || {
            let _w = handle.worker_scope(7);
            drop(span("thread_kernel"));
        });
        let _install = p.install();
        drop(span("main_kernel"));
        t.join().expect("profiled thread joins");
        let hot = p.hotspots();
        assert!(hot.iter().any(|h| h.path == "main_kernel"));
        assert!(hot.iter().any(|h| h.path == "par.worker[7];thread_kernel"));
    }
}
