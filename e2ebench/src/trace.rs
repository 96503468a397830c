//! The span recorder of the traced run, and the tool wrapper that feeds it.
//!
//! Spans are recorded from outside the program: the benchmark times its
//! own calls into `cuda::Driver`, and [`Traced`] wraps the tool to time
//! its host callbacks and to snapshot `NvbitApi::overhead()` around them.
//! Two spans are derived rather than timed, because the core does its
//! work between the entry callback's return and the device launch, where
//! no public hook reaches:
//!
//! * `core.jit` — the launch's lift/plan/codegen/verify/swap, taken as the
//!   growth of the core's overhead report (all components but user code)
//!   across that window, placed at the window's start;
//! * `gpu.execute` — the rest of the window, up to the exit callback.
//!
//! `core.lift` inside an entry callback is derived the same way (the tool
//! lifts the kernel through `get_instrs`). Spans live in memory, carry a
//! parent and a launch index, and are written out once the run ends.

use crate::round::FuncReport;
use common::json::Json;
use cuda::{CbId, CbParams, CuFunction};
use nvbit::{JitComponent, JitOverhead, NvbitApi, NvbitTool};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One recorded span; times in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `driver.launch`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the launch within the round, for launch-scoped spans.
    pub launch: Option<u32>,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; children are
/// clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-round totals the recorder derives.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Milliseconds inside `Driver::module_load` (set-up and timed).
    pub module_load_ms: f64,
    /// Module loads.
    pub module_loads: u64,
    /// Launches.
    pub launches: u64,
    /// Milliseconds inside the tool's launch callbacks (inclusive).
    pub callback_ms: f64,
    /// Core lift (retrieve, disassemble, convert) milliseconds.
    pub lift_ms: f64,
    /// Core plan+codegen+verify milliseconds.
    pub codegen_ms: f64,
    /// Core swap milliseconds.
    pub swap_ms: f64,
    /// Launches that built no image (served from the code cache).
    pub reused_launches: u64,
    /// Milliseconds of device execution (window minus core work).
    pub execute_ms: f64,
}

/// Collects spans and per-function facts for one round.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Recorded spans.
    pub spans: Vec<Span>,
    round: Option<usize>,
    launch: Option<usize>,
    launch_idx: u32,
    /// Start of the entry-callback-return → exit-callback window, and
    /// the overhead report at that point.
    window: Option<(Instant, JitOverhead)>,
    /// Raw handles of every launched function.
    launched: BTreeSet<u32>,
    totals: LayerTotals,
    /// Per-function facts, filled at tool termination.
    pub funcs: FuncReport,
}

fn lift_of(o: &JitOverhead) -> Duration {
    o.of(JitComponent::Retrieve) + o.of(JitComponent::Disassemble) + o.of(JitComponent::Convert)
}

fn core_of(o: &JitOverhead) -> Duration {
    o.total() - o.of(JitComponent::UserCode)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Recorder {
    /// A recorder; a disabled one only tracks launched functions.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            round: None,
            launch: None,
            launch_idx: 0,
            window: None,
            launched: BTreeSet::new(),
            totals: LayerTotals::default(),
            funcs: FuncReport::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, a: Instant, b: Instant) -> usize {
        let launch = self.launch.map(|_| self.launch_idx);
        let span = Span { name, parent, launch, start_ns: self.ns(a), end_ns: self.ns(b) };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// A `Driver::module_load` call took `[a, b]`.
    pub fn module_load(&mut self, a: Instant, b: Instant) {
        if self.enabled {
            self.totals.module_loads += 1;
            self.totals.module_load_ms += ms(b - a);
            self.push("driver.module_load", self.round, a, b);
        }
    }

    /// The timed phase starts.
    pub fn begin_round(&mut self, t: Instant) {
        if self.enabled {
            self.round = Some(self.push("round", None, t, t));
        }
    }

    /// The timed phase ends.
    pub fn end_round(&mut self, t: Instant) {
        if let Some(r) = self.round {
            self.spans[r].end_ns = self.ns(t);
        }
    }

    /// A launch of `f` is about to start.
    pub fn launch_begin(&mut self, f: CuFunction) {
        self.launched.insert(f.raw());
        if self.enabled {
            let now = Instant::now();
            let l = self.push("driver.launch", self.round, now, now);
            self.spans[l].launch = Some(self.launch_idx);
            self.launch = Some(l);
        }
    }

    /// The launch call took `[a, b]`.
    pub fn launch_end(&mut self, a: Instant, b: Instant) {
        if let Some(l) = self.launch.take() {
            self.spans[l].start_ns = self.ns(a);
            self.spans[l].end_ns = self.ns(b);
            self.totals.launches += 1;
            self.launch_idx += 1;
        }
    }

    /// Per-round totals.
    pub fn totals(&self) -> LayerTotals {
        self.totals.clone()
    }

    /// Spans and their self times as JSON, for the trace file.
    pub fn spans_json(&self, round: usize) -> Vec<Json> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, own))| {
                Json::obj(vec![
                    ("round", Json::Num(round as f64)),
                    ("id", Json::Num(i as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("launch", s.launch.map_or(Json::Null, |l| Json::Num(f64::from(l)))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur_us", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("self_us", Json::Num(own as f64 / 1e3)),
                ])
            })
            .collect()
    }
}

/// Wraps a tool: forwards every callback, times the launch callbacks when
/// tracing, and collects per-function plan, save and verifier facts at
/// termination (always — they feed the failure count).
pub struct Traced<T> {
    inner: T,
    rec: Rc<RefCell<Recorder>>,
}

impl<T: NvbitTool> Traced<T> {
    /// Wraps `inner`, reporting into `rec`.
    pub fn new(inner: T, rec: Rc<RefCell<Recorder>>) -> Traced<T> {
        Traced { inner, rec }
    }
}

impl<T: NvbitTool> NvbitTool for Traced<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_init(api);
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_term(api);
        let mut rec = self.rec.borrow_mut();
        let mut f = FuncReport::default();
        let launched: Vec<CuFunction> =
            rec.launched.iter().map(|&r| CuFunction::from_raw(r)).collect();
        for func in launched {
            f.launched += 1;
            let plan = api.plan_stats(func).ok().flatten();
            let save = api.save_stats(func).ok().flatten();
            let diags = api.verify_instrumented(func).map(|d| d.len()).unwrap_or(1);
            if let (Some(p), Some(s)) = (plan, save) {
                f.instrumented += 1;
                f.requested_calls += p.requested_calls;
                f.emitted_calls += p.emitted_calls;
                f.inlined_calls += p.inlined_calls;
                f.saved_slots += s.saved_slots;
            }
            if diags > 0 {
                f.with_diagnostics += 1;
            }
        }
        rec.funcs = f;
        if rec.enabled {
            let o = api.overhead().total;
            rec.totals.lift_ms = ms(lift_of(&o));
            rec.totals.codegen_ms = ms(o.of(JitComponent::Codegen));
            rec.totals.swap_ms = ms(o.of(JitComponent::Swap));
        }
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let traced = cbid == CbId::LaunchKernel && self.rec.borrow().enabled;
        if !traced {
            self.inner.at_cuda_event(api, is_exit, cbid, params);
            return;
        }
        // The overhead snapshots sit outside both the callback span and
        // the execute window, so their cost lands in the launch span's
        // self time (and in `bench.trace_overhead_frac`), not in a layer.
        if is_exit {
            let window_end = Instant::now();
            let ov = api.overhead().total;
            self.rec.borrow_mut().close_window(window_end, &ov);
        }
        let ov_a = (!is_exit).then(|| api.overhead().total);
        let t0 = Instant::now();
        self.inner.at_cuda_event(api, is_exit, cbid, params);
        let t1 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        let parent = rec.launch;
        let cb = rec.push("tools.callback", parent, t0, t1);
        rec.totals.callback_ms += ms(t1 - t0);
        if let Some(ov_a) = ov_a {
            drop(rec);
            let ov_b = api.overhead().total;
            let mut rec = self.rec.borrow_mut();
            let lift = lift_of(&ov_b).saturating_sub(lift_of(&ov_a));
            if !lift.is_zero() {
                rec.push("core.lift", Some(cb), t0, t0 + lift);
            }
            rec.window = Some((Instant::now(), ov_b));
        }
    }
}

impl Recorder {
    /// Closes the launch's execute window at `end`, splitting it into the
    /// core's work and device execution.
    fn close_window(&mut self, end: Instant, ov: &JitOverhead) {
        let Some((start, ov0)) = self.window.take() else { return };
        let core = core_of(ov).saturating_sub(core_of(&ov0)).min(end - start);
        let built = ov.of(JitComponent::Codegen).saturating_sub(ov0.of(JitComponent::Codegen))
            > Duration::ZERO;
        if !built {
            self.totals.reused_launches += 1;
        }
        if !core.is_zero() {
            self.push("core.jit", self.launch, start, start + core);
        }
        self.push("gpu.execute", self.launch, start + core, end);
        self.totals.execute_ms += ms(end - start - core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, a: u64, b: u64) -> Span {
        Span { name: "t", parent, launch: None, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child
            span(Some(0), 20, 50),  // overlapping child: union 10..50
            span(Some(0), 90, 120), // clipped to 90..100
            span(Some(1), 12, 14),  // grandchild: only affects its parent
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 100 - 40 - 10);
        assert_eq!(s[1], 20 - 2);
        assert_eq!(s[2], 30);
        assert_eq!(s[3], 30);
        assert_eq!(s[4], 2);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration_and_disjoint_children_add_up() {
        let spans = vec![span(None, 5, 25), span(Some(0), 5, 10), span(Some(0), 15, 20)];
        assert_eq!(self_times(&spans), vec![10, 5, 5]);
    }
}
