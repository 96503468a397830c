//! **sim_wall**: host wall-clock of the simulator's warp step.
//!
//! Runs every workload of the `inject_overhead` sweep natively (no tool)
//! on a fresh driver, once under `Scheduler::Serial` (1 worker) and once
//! under `Scheduler::Parallel` with N workers (one per hardware thread,
//! at least 2). The time spent inside `launch_kernel` — measured by an
//! interposer at the launch's entry and exit callbacks, so module loads
//! and host copies are excluded — divided by the warp instructions
//! executed gives the host nanoseconds per warp step. Each configuration
//! runs [`REPS`] times and keeps the fastest.
//!
//! Writes `results/BENCH_sim_wall.json` with the per-workload and
//! aggregate figures and the host thread count. Timing on a shared host
//! is too noisy to gate, so it is only reported; the run exits non-zero
//! if any launch's statistics differ between repetitions or worker
//! counts.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin sim_wall
//! ```

use bench_harness::apps::{App, WORKLOADS};
use common::json::Json;
use cuda::{CbId, CbParams, Driver, Interposer};
use gpu::{DeviceSpec, ExecStats, Scheduler};
use sass::Arch;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Runs per (workload, worker count); the fastest is kept.
const REPS: usize = 5;

/// Accumulates the host time between each launch's entry and exit
/// callbacks.
struct LaunchTimer {
    started: Option<Instant>,
    total_ns: Rc<Cell<u64>>,
}

impl Interposer for LaunchTimer {
    fn at_cuda_event(&mut self, _: &Driver, is_exit: bool, cbid: CbId, _: &CbParams<'_>) {
        if cbid != CbId::LaunchKernel {
            return;
        }
        if !is_exit {
            self.started = Some(Instant::now());
        } else if let Some(t0) = self.started.take() {
            self.total_ns.set(self.total_ns.get() + t0.elapsed().as_nanos() as u64);
        }
    }
}

/// One native run: time inside launches and every launch's statistics.
fn run(app: App, scheduler: Scheduler) -> (u64, Vec<ExecStats>) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = scheduler);
    let total_ns = Rc::new(Cell::new(0));
    drv.install_interposer(Box::new(LaunchTimer { started: None, total_ns: total_ns.clone() }));
    app(&drv);
    drv.shutdown();
    (total_ns.get(), drv.launches().into_iter().map(|l| l.stats).collect())
}

fn ns_per_step(ns: u64, steps: u64) -> f64 {
    ns as f64 / steps.max(1) as f64
}

fn main() {
    let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let n = hw_threads.max(2);
    let configs = [(1, Scheduler::Serial), (n, Scheduler::Parallel { threads: n })];

    println!("== sim_wall: native ns per warp step, {hw_threads} hardware threads ==\n");
    println!("{:10}  {:>14}  {:>12}  {:>12}", "workload", "warp-steps", "1 worker", "N workers");
    let mut mismatches = Vec::new();
    // Per config: (total ns, total steps, per-workload rows).
    let mut totals = [(0u64, 0u64, Vec::new()), (0u64, 0u64, Vec::new())];
    for &(name, app) in &WORKLOADS {
        let mut reference: Option<Vec<ExecStats>> = None;
        let mut best = [u64::MAX; 2];
        for (c, &(workers, scheduler)) in configs.iter().enumerate() {
            for _ in 0..REPS {
                let (ns, stats) = run(app, scheduler);
                best[c] = best[c].min(ns);
                match &reference {
                    None => reference = Some(stats),
                    Some(r) if *r != stats => {
                        mismatches
                            .push(format!("{name}: statistics differ at {workers} worker(s)"));
                    }
                    Some(_) => {}
                }
            }
        }
        let steps: u64 = reference.iter().flatten().map(|s| s.warp_instructions).sum();
        println!(
            "{name:10}  {steps:>14}  {:>9.1} ns  {:>9.1} ns",
            ns_per_step(best[0], steps),
            ns_per_step(best[1], steps)
        );
        for (c, total) in totals.iter_mut().enumerate() {
            total.0 += best[c];
            total.1 += steps;
            total.2.push(Json::obj(vec![
                ("workload", Json::Str(name.into())),
                ("warp_steps", Json::Num(steps as f64)),
                ("launch_ns", Json::Num(best[c] as f64)),
                ("ns_per_warp_step", Json::Num(ns_per_step(best[c], steps))),
            ]));
        }
    }

    let mut rows = Vec::new();
    for ((workers, scheduler), (ns, steps, workloads)) in configs.iter().zip(totals) {
        println!(
            "{:10}  {steps:>14}  at {workers} worker(s): {:.1} ns per warp step",
            "all",
            ns_per_step(ns, steps)
        );
        rows.push(Json::obj(vec![
            ("workers", Json::Num(*workers as f64)),
            ("scheduler", Json::Str(format!("{scheduler:?}"))),
            ("warp_steps", Json::Num(steps as f64)),
            ("launch_ns", Json::Num(ns as f64)),
            ("ns_per_warp_step", Json::Num(ns_per_step(ns, steps))),
            ("workloads", Json::Arr(workloads)),
        ]));
    }
    let doc = Json::obj(vec![
        ("bench", Json::Str("sim_wall".into())),
        ("mode", Json::Str("native".into())),
        ("hw_threads", Json::Num(hw_threads as f64)),
        ("reps", Json::Num(REPS as f64)),
        ("identical_across_workers", Json::Bool(mismatches.is_empty())),
        ("configs", Json::Arr(rows)),
    ]);
    std::fs::create_dir_all("results").unwrap();
    let path = "results/BENCH_sim_wall.json";
    std::fs::write(path, doc.to_pretty()).unwrap();
    println!("\nwrote {path}");

    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("FAIL: {m}");
        }
        std::process::exit(1);
    }
}
