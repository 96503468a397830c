//! One round: a fresh `Driver`, set-up, the timed steps, and the
//! collection of everything the checks and metrics need.
//!
//! Every round owns its driver, so the code cache starts cold, tool state
//! (counters, trace store) does not accumulate across rounds, and a round
//! measures the same work however many rounds a run fits in.

use crate::trace::{LayerTotals, Recorder, Traced};
use crate::workload::{Arg, Check, Step, Tool, Workload, TRACE_BUF_RECORDS};
use common::channel::Backpressure;
use cuda::{CuFunction, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Scheduler};
use nvbit::{attach_tool, PlanOpts};
use nvbit_tools::{CoalescedInstrCount, InstrCountResults, MemTrace, MemTraceResults};
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// How a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Attach the workload's tool (false: native reference run).
    pub instrument: bool,
    /// CTA scheduler.
    pub scheduler: Scheduler,
    /// Record per-layer spans.
    pub traced: bool,
}

impl Mode {
    /// The untimed oracle: no tool, serial CTAs.
    pub const NATIVE_SERIAL: Mode =
        Mode { instrument: false, scheduler: Scheduler::Serial, traced: false };
}

/// Per-function facts gathered at tool termination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncReport {
    /// Distinct functions launched.
    pub launched: u64,
    /// Launched functions holding an instrumented image.
    pub instrumented: u64,
    /// Launched functions whose image carries verifier diagnostics.
    pub with_diagnostics: u64,
    /// Sum of `PlanStats::requested_calls`.
    pub requested_calls: u64,
    /// Sum of `PlanStats::emitted_calls`.
    pub emitted_calls: u64,
    /// Sum of `PlanStats::inlined_calls`.
    pub inlined_calls: u64,
    /// Sum of `SaveStats::saved_slots`.
    pub saved_slots: u64,
}

/// What the trace tool captured in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOut {
    /// Records demanded by the kernels.
    pub demanded: u64,
    /// Records dropped by the channel.
    pub dropped: u64,
    /// Records captured.
    pub captured: u64,
    /// FNV-1a hash of the canonical address stream.
    pub hash: u64,
    /// Whether the gather kernel's data loads hit exactly
    /// `src + 4·idx[i]` (once per gather launch).
    pub gather_ok: bool,
}

/// Everything one round produced.
#[derive(Clone)]
pub struct RoundOut {
    /// Set-up seconds: driver, tool attach, input generation and upload,
    /// set-up module loads.
    pub setup_s: f64,
    /// Seconds of the timed steps.
    pub wall_s: f64,
    /// Host latency of every `launch_kernel` call, in milliseconds.
    pub launch_ms: Vec<f64>,
    /// Launches that returned `Err`.
    pub launch_errors: u64,
    /// Launches attempted.
    pub launches: u64,
    /// Summed simulated cycles.
    pub cycles: u64,
    /// Summed thread-level instructions.
    pub thread_instr: u64,
    /// Summed warp-level instructions.
    pub warp_instr: u64,
    /// Summed decode-cache hits and misses.
    pub decode: (u64, u64),
    /// Final contents of every buffer.
    pub outputs: Vec<Vec<u8>>,
    /// The counter tool's total, when it ran.
    pub counted: Option<u64>,
    /// The trace tool's capture, when it ran.
    pub trace: Option<TraceOut>,
    /// Per-function facts, when a tool ran.
    pub funcs: FuncReport,
    /// Per-layer totals, when traced.
    pub layers: Option<LayerTotals>,
    /// The recorder, when traced (spans for the trace file).
    pub recorder: Option<Rc<RefCell<Recorder>>>,
}

enum Results {
    None,
    Count(Rc<InstrCountResults>),
    Trace(Rc<MemTraceResults>),
}

/// Runs one round of `w` under `mode`.
///
/// # Errors
///
/// Set-up failures (module load, allocation, upload): the round cannot
/// run at all. Launch failures are counted, not returned.
pub fn run(w: &Workload, mode: Mode) -> Result<RoundOut, String> {
    let t_setup = Instant::now();
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = mode.scheduler);
    let recorder = Rc::new(RefCell::new(Recorder::new(mode.traced)));
    let results = if mode.instrument {
        match w.tool {
            Tool::Counter => {
                let (tool, res) = CoalescedInstrCount::executed(PlanOpts::default());
                attach_tool(&drv, Traced::new(tool, recorder.clone()));
                Results::Count(res)
            }
            Tool::Trace => {
                let (tool, res) = MemTrace::channel(Backpressure::Block, TRACE_BUF_RECORDS);
                attach_tool(&drv, Traced::new(tool, recorder.clone()));
                Results::Trace(res)
            }
        }
    } else {
        Results::None
    };
    let err = |e: cuda::DriverError| e.to_string();
    let ctx = drv.ctx_create().map_err(err)?;
    // Input generation is part of set-up: regenerate from the seed.
    let fresh = crate::workload::Workload::generate(w.kind, w.seed, w.scale);
    debug_assert!(fresh == *w);
    let mut ptrs = Vec::with_capacity(fresh.buffers.len());
    for b in &fresh.buffers {
        let p = drv.mem_alloc(b.init.len() as u64).map_err(err)?;
        drv.memcpy_htod(p, &b.init).map_err(err)?;
        ptrs.push(p);
    }
    let mut funcs: Vec<Vec<CuFunction>> = vec![Vec::new(); w.modules.len()];
    let load = |mi: usize, funcs: &mut Vec<Vec<CuFunction>>| -> Result<(), String> {
        let m = &w.modules[mi];
        let t = Instant::now();
        let module = drv
            .module_load(&ctx, FatBinary::from_ptx(m.name.clone(), m.ptx.clone()))
            .map_err(err)?;
        recorder.borrow_mut().module_load(t, Instant::now());
        funcs[mi] = m
            .kernels
            .iter()
            .map(|k| drv.module_get_function(&module, k))
            .collect::<cuda::Result<_>>()
            .map_err(err)?;
        Ok(())
    };
    for &mi in &w.setup_loads {
        load(mi, &mut funcs)?;
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut launch_ms = Vec::with_capacity(w.launches());
    let mut launch_errors = 0u64;
    let (mut cycles, mut thread_instr, mut warp_instr, mut hits, mut misses) = (0, 0, 0, 0, 0);
    let t_wall = Instant::now();
    recorder.borrow_mut().begin_round(t_wall);
    for step in &w.steps {
        match step {
            Step::Load(mi) => load(*mi, &mut funcs)?,
            Step::Launch(l) => {
                let f = funcs[l.kernel.module][l.kernel.entry];
                let args: Vec<KernelArg> = l
                    .args
                    .iter()
                    .map(|a| match *a {
                        Arg::Buf(i) => KernelArg::Ptr(ptrs[i]),
                        Arg::U32(v) => KernelArg::U32(v),
                        Arg::F32(v) => KernelArg::F32(v),
                    })
                    .collect();
                recorder.borrow_mut().launch_begin(f);
                let t = Instant::now();
                let res = drv.launch_kernel(&f, l.grid, l.block, &args);
                let end = Instant::now();
                recorder.borrow_mut().launch_end(t, end);
                launch_ms.push((end - t).as_secs_f64() * 1e3);
                match res {
                    Ok(s) => {
                        cycles += s.cycles;
                        thread_instr += s.thread_instructions;
                        warp_instr += s.warp_instructions;
                        hits += s.decode_hits;
                        misses += s.decode_misses;
                    }
                    Err(_) => launch_errors += 1,
                }
            }
        }
    }
    let wall_s = t_wall.elapsed().as_secs_f64();
    recorder.borrow_mut().end_round(Instant::now());

    // Untimed from here: tool termination publishes results and collects
    // per-function facts; then read every buffer back.
    drv.shutdown();
    let mut outputs = Vec::with_capacity(ptrs.len());
    for (p, b) in ptrs.iter().zip(&w.buffers) {
        let mut out = vec![0u8; b.init.len()];
        drv.memcpy_dtoh(&mut out, *p).map_err(err)?;
        outputs.push(out);
    }
    let (counted, trace) = match &results {
        Results::None => (None, None),
        Results::Count(r) => (Some(r.total()), None),
        Results::Trace(r) => (None, Some(trace_out(w, r, &ptrs))),
    };
    let rec = recorder.borrow();
    let layers = mode.traced.then(|| rec.totals());
    let funcs = rec.funcs.clone();
    drop(rec);
    Ok(RoundOut {
        setup_s,
        wall_s,
        launches: launch_ms.len() as u64,
        launch_ms,
        launch_errors,
        cycles,
        thread_instr,
        warp_instr,
        decode: (hits, misses),
        outputs,
        counted,
        trace,
        funcs,
        layers,
        recorder: mode.traced.then_some(recorder),
    })
}

fn trace_out(w: &Workload, r: &MemTraceResults, ptrs: &[u64]) -> TraceOut {
    let addrs = r.addresses();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in &addrs {
        for byte in a.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    let gather_ok = w.gather.is_none_or(|g| {
        let src = ptrs[g.src];
        let end = src + w.buffers[g.src].init.len() as u64;
        let mut seen: Vec<u64> = addrs.iter().copied().filter(|a| (src..end).contains(a)).collect();
        let mut expected: Vec<u64> = w.buffers[g.idx]
            .init
            .chunks_exact(4)
            .map(|c| src + 4 * u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as u64)
            .flat_map(|a| std::iter::repeat_n(a, g.launches as usize))
            .collect();
        seen.sort_unstable();
        expected.sort_unstable();
        seen == expected
    });
    TraceOut {
        demanded: r.demanded(),
        dropped: r.dropped(),
        captured: addrs.len() as u64,
        hash,
        gather_ok,
    }
}

/// Compares a round's outputs with the oracle's; returns one message per
/// mismatching buffer.
pub fn compare_outputs(w: &Workload, oracle: &RoundOut, got: &RoundOut) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, b) in w.buffers.iter().enumerate() {
        let (want, have) = (&oracle.outputs[i], &got.outputs[i]);
        let ok = match b.check {
            Check::Exact => want == have,
            Check::RelTol(tol) => want.chunks_exact(4).zip(have.chunks_exact(4)).all(|(a, c)| {
                let a = f32::from_le_bytes(a.try_into().expect("4-byte chunk"));
                let c = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                a.is_finite() && (a - c).abs() <= tol * a.abs().max(f32::MIN_POSITIVE)
            }),
        };
        if !ok {
            bad.push(format!("buffer {i} differs from the serial native reference"));
        }
    }
    bad
}
