//! Repository benchmark of the simulated NVBit stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload count_mix|jit_cold|trace_stream --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one client thread, a closed loop of synchronous driver
//! calls. Each run first computes an untimed oracle (the workload with no
//! tool under `Scheduler::Serial`) and one checked warm-up round, then
//! repeats rounds — fresh driver,
//! set-up, the workload's fixed timed steps — for `--seconds`, checks every
//! round against the oracle and prints medians. With `--trace 1` untraced
//! and traced rounds alternate; the traced ones give the per-layer
//! metrics and a span file. The last line of standard output is the
//! result object; see `e2ebench/README.md` for every metric.

mod probe;
mod round;
mod stats;
mod trace;
mod workload;

use common::json::Json;
use gpu::Scheduler;
use round::{Mode, RoundOut};
use std::time::Instant;
use workload::{Kind, Scale, Tool, Workload};

/// Rounds a run makes at least, per kind of round, whatever `--seconds`.
const MIN_ROUNDS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {val} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Failure and attempt counts over a run (the result's `attempted` and
/// `failed`).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

/// The oracle of a workload: the serial native run, and for the trace
/// workload the serial instrumented run whose stream is the reference.
struct Oracle {
    native: RoundOut,
    serial_trace: Option<RoundOut>,
}

fn check(w: &Workload, oracle: &Oracle, r: &RoundOut, first: Option<&RoundOut>, t: &mut Tally) {
    let mut bad = round::compare_outputs(w, &oracle.native, r);
    if let Some(n) = r.counted {
        if n != oracle.native.thread_instr {
            bad.push(format!(
                "executed counter {n} != native thread instructions {}",
                oracle.native.thread_instr
            ));
        }
    }
    let mut records = 0;
    if let Some(tr) = &r.trace {
        records = tr.demanded;
        let reference = oracle.serial_trace.as_ref().and_then(|s| s.trace.as_ref());
        if tr.dropped != 0 {
            bad.push(format!("{} trace records dropped", tr.dropped));
        }
        if tr.demanded != tr.captured {
            bad.push(format!("demanded {} != captured {}", tr.demanded, tr.captured));
        }
        if reference.map(|s| s.hash) != Some(tr.hash) {
            bad.push("trace stream differs from the serial reference".into());
        }
        if !tr.gather_ok {
            bad.push("gather data loads are not src + 4*idx[i]".into());
        }
        t.failed += tr.dropped;
    }
    if let Some(f) = first {
        if (f.cycles, f.warp_instr) != (r.cycles, r.warp_instr) {
            bad.push("simulated cycles or warp instructions changed between rounds".into());
        }
    }
    let f = &r.funcs;
    if f.launched != f.instrumented {
        bad.push(format!("{} launched functions left uninstrumented", f.launched - f.instrumented));
    }
    if f.with_diagnostics != 0 {
        bad.push(format!("{} functions carry verifier diagnostics", f.with_diagnostics));
    }
    if r.launch_errors != 0 {
        bad.push(format!("{} launches failed", r.launch_errors));
    }
    t.attempted += r.launches + records;
    t.failed += r.launch_errors + (f.launched - f.instrumented) + f.with_diagnostics;
    t.mismatches.extend(bad);
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    let v = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]);
    (name.to_string(), v)
}

fn med(v: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&v.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn run(a: &Args) -> Result<bool, String> {
    let w = Workload::generate(a.kind, a.seed, Scale::Full);
    let nproc = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let jit_workers = std::env::var("NVBIT_JIT_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(nproc);

    // Untimed oracle.
    let native = round::run(&w, Mode::NATIVE_SERIAL)?;
    let serial_trace = match w.tool {
        Tool::Trace => Some(round::run(
            &w,
            Mode { instrument: true, scheduler: Scheduler::Serial, traced: false },
        )?),
        Tool::Counter => None,
    };
    let oracle = Oracle { native, serial_trace };
    if oracle.native.launch_errors != 0 {
        return Err(format!("{} native reference launches failed", oracle.native.launch_errors));
    }

    // CTA workers of the measured rounds: one per hardware thread, less
    // one for the trace drain thread, so a round never has more runnable
    // threads than the host has cores and the times measure the stack
    // rather than the OS scheduler. One worker runs every CTA inline on
    // the client thread.
    let drain_threads = usize::from(w.tool == Tool::Trace);
    let cta_workers = nproc.saturating_sub(drain_threads).max(1);
    let scheduler = Scheduler::Parallel { threads: cta_workers };
    let untraced = Mode { instrument: true, scheduler, traced: false };
    let traced = Mode { traced: true, ..untraced };
    let mut plain: Vec<RoundOut> = Vec::new();
    let mut spanned: Vec<RoundOut> = Vec::new();
    let mut tally = Tally::default();
    // Warm-up, checked but not measured: the first instrumented round of
    // a process also pays heap growth and cold host caches.
    let warm = round::run(&w, untraced)?;
    check(&w, &oracle, &warm, None, &mut tally);
    drop(warm);
    let t0 = Instant::now();
    loop {
        let enough = |v: &Vec<RoundOut>| v.len() >= MIN_ROUNDS;
        if t0.elapsed().as_secs_f64() >= a.seconds
            && enough(&plain)
            && (!a.trace || enough(&spanned))
        {
            break;
        }
        let mode = if a.trace && spanned.len() < plain.len() { traced } else { untraced };
        let mut r = round::run(&w, mode)?;
        check(&w, &oracle, &r, plain.first(), &mut tally);
        // Checked: keeping every round's buffers would grow the peak RSS
        // with the number of rounds the host fits in a run.
        r.outputs = Vec::new();
        if mode.traced {
            spanned.push(r)
        } else {
            plain.push(r)
        }
    }

    let first = &plain[0];
    let mut metrics = Vec::new();
    if !a.trace {
        let lat: Vec<f64> = plain.iter().flat_map(|r| r.launch_ms.iter().copied()).collect();
        let p90 = stats::percentile(&lat, 90.0)
            .ok_or_else(|| format!("p90 needs at least 100 launches, have {}", lat.len()))?;
        let p50 = stats::percentile(&lat, 50.0).unwrap_or(f64::NAN);
        let ok = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        metrics.push(metric("setup_s", med(plain.iter().map(|r| r.setup_s)), "s"));
        metrics.push(metric("wall_s", med(plain.iter().map(|r| r.wall_s)), "s"));
        metrics.push(metric("launch_p50_ms", p50, "ms"));
        metrics.push(metric("launch_p90_ms", p90, "ms"));
        metrics.push(metric(
            "sim_slowdown",
            first.cycles as f64 / oracle.native.cycles as f64,
            "x",
        ));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(metric("ok_frac", ok, "fraction"));
    } else {
        metrics = layer_metrics(&w, &plain, &spanned, nproc);
        write_trace_file(&w, &spanned);
    }

    let host = Json::obj(vec![
        ("workload", Json::Str(a.kind.name().into())),
        ("seed", Json::Num(a.seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("cta_workers", Json::Num(cta_workers as f64)),
        ("jit_workers", Json::Num(jit_workers as f64)),
        ("drain_threads", Json::Num(drain_threads as f64)),
        ("client_threads", Json::Num(1.0)),
        ("rounds", Json::Num(plain.len() as f64)),
        ("traced_rounds", Json::Num(spanned.len() as f64)),
        ("launches_per_round", Json::Num(w.launches() as f64)),
        ("launch_samples", Json::Num((plain.len() * w.launches()) as f64)),
    ]);
    println!("{}", Json::obj(vec![("host", host)]).to_compact());
    for m in &tally.mismatches {
        eprintln!("e2ebench: check failed: {m}");
    }
    let correct = tally.mismatches.is_empty();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
    Ok(correct)
}

/// The per-layer metrics of a traced run (medians over traced rounds for
/// times; counts are identical in every round).
fn layer_metrics(
    w: &Workload,
    plain: &[RoundOut],
    spanned: &[RoundOut],
    nproc: usize,
) -> Vec<(String, Json)> {
    let layers: Vec<_> = spanned.iter().filter_map(|r| r.layers.clone()).collect();
    let m = |f: fn(&trace::LayerTotals) -> f64| med(layers.iter().map(f));
    let r0 = &spanned[0];
    let (hits, misses) = r0.decode;
    let execute_ms = m(|l| l.execute_ms);
    let mut out = vec![
        metric("driver.module_load_ms", m(|l| l.module_load_ms), "ms"),
        metric("driver.module_loads", m(|l| l.module_loads as f64), "count"),
        metric("driver.launches", m(|l| l.launches as f64), "count"),
        metric("tools.callback_ms", m(|l| l.callback_ms), "ms"),
        metric("core.lift_ms", m(|l| l.lift_ms), "ms"),
        metric("core.codegen_ms", m(|l| l.codegen_ms), "ms"),
        metric("core.swap_ms", m(|l| l.swap_ms), "ms"),
        metric("core.functions_instrumented", r0.funcs.instrumented as f64, "count"),
        metric(
            "core.image_reuse_ratio",
            m(|l| l.reused_launches as f64 / l.launches.max(1) as f64),
            "ratio",
        ),
        metric("core.plan.requested_calls", r0.funcs.requested_calls as f64, "count"),
        metric("core.plan.emitted_calls", r0.funcs.emitted_calls as f64, "count"),
        metric("core.plan.inlined_calls", r0.funcs.inlined_calls as f64, "count"),
        metric("core.save.saved_slots", r0.funcs.saved_slots as f64, "count"),
        metric("gpu.execute_ms", execute_ms, "ms"),
        metric("gpu.warp_instr", r0.warp_instr as f64, "count"),
        metric("gpu.sim_cycles", r0.cycles as f64, "cycles"),
        metric("gpu.ns_per_warp_instr", execute_ms * 1e6 / r0.warp_instr.max(1) as f64, "ns"),
        metric("gpu.decode_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio"),
    ];
    let (records, dropped, probe) = match (w.tool, &r0.trace) {
        (Tool::Trace, Some(tr)) => {
            let probe = probe::run(tr.demanded, workload::TRACE_BUF_RECORDS, nproc);
            (tr.demanded, tr.dropped, Some(probe))
        }
        _ => (0, 0, None),
    };
    out.push(metric("channel.records", records as f64, "count"));
    out.push(metric("channel.dropped", dropped as f64, "count"));
    out.push(metric("channel.push_ns", probe.as_ref().map_or(0.0, |p| p.push_ns), "ns"));
    out.push(metric(
        "channel.drain_batch_us",
        probe.as_ref().map_or(0.0, |p| p.drain_batch_us),
        "us",
    ));
    let overhead =
        med(spanned.iter().map(|r| r.wall_s)) / med(plain.iter().map(|r| r.wall_s)) - 1.0;
    out.push(metric("bench.trace_overhead_frac", overhead, "fraction"));
    out
}

/// Writes every traced round's spans, with self times and per-name self
/// totals, to `e2ebench/out/trace-<workload>-<seed>.json`.
fn write_trace_file(w: &Workload, spanned: &[RoundOut]) {
    let mut spans = Vec::new();
    let mut self_ms: Vec<(&'static str, f64)> = Vec::new();
    for (i, r) in spanned.iter().enumerate() {
        let Some(rec) = &r.recorder else { continue };
        let rec = rec.borrow();
        spans.extend(rec.spans_json(i));
        for (s, own) in rec.spans.iter().zip(trace::self_times(&rec.spans)) {
            match self_ms.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += own as f64 / 1e6,
                None => self_ms.push((s.name, own as f64 / 1e6)),
            }
        }
    }
    let rounds = spanned.len().max(1) as f64;
    let per_round: Vec<(&str, Json)> =
        self_ms.iter().map(|(n, v)| (*n, Json::Num(v / rounds))).collect();
    let doc = Json::obj(vec![
        ("workload", Json::Str(w.kind.name().into())),
        ("seed", Json::Num(w.seed as f64)),
        ("self_ms_per_round", Json::obj(per_round)),
        ("spans", Json::Arr(spans)),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.json", w.kind.name(), w.seed));
    let res = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_compact()));
    match res {
        Ok(()) => eprintln!("e2ebench: spans written to {}", path.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
}

/// Peak resident set size of this process in MiB, from `getrusage`.
fn peak_rss_mb() -> f64 {
    // The `struct rusage` prefix of 64-bit Linux: two `timeval`s, then
    // `ru_maxrss` (KiB) and 13 further `long`s.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut u = Rusage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `u` is a live, writable value laid out as the C struct
    // `getrusage` fills on 64-bit Linux; `RUSAGE_SELF` (0) reads this
    // process only and the call writes nothing beyond the struct.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let w = Workload::generate(Kind::TraceStream, 1, Scale::Tiny);
        let r = round::run(&w, Mode::NATIVE_SERIAL).expect("tiny native round");
        let names: Vec<String> =
            layer_metrics(&w, std::slice::from_ref(&r), std::slice::from_ref(&r), 1)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
        assert!(names.len() >= 23);
        for n in names.iter().chain(["setup_s", "wall_s", "ok_frac"].map(String::from).iter()) {
            assert!(ok(n), "bad metric name {n}");
        }
        for k in Kind::ALL {
            assert!(ok(k.name()));
        }
    }

    #[test]
    fn a_second_seed_passes_every_check() {
        for kind in Kind::ALL {
            for seed in [1, 2] {
                let w = Workload::generate(kind, seed, Scale::Tiny);
                let native = round::run(&w, Mode::NATIVE_SERIAL).expect("native round");
                let serial_trace = (w.tool == Tool::Trace).then(|| {
                    let m = Mode { instrument: true, scheduler: Scheduler::Serial, traced: false };
                    round::run(&w, m).expect("serial trace round")
                });
                let oracle = Oracle { native, serial_trace };
                let mut t = Tally::default();
                for traced in [false, true] {
                    let m = Mode {
                        instrument: true,
                        scheduler: Scheduler::Parallel { threads: 2 },
                        traced,
                    };
                    let r = round::run(&w, m).expect("instrumented round");
                    check(&w, &oracle, &r, None, &mut t);
                }
                assert!(t.mismatches.is_empty(), "{} seed {seed}: {:?}", kind.name(), t.mismatches);
                assert_eq!(t.failed, 0);
                assert!(t.attempted > 0);
            }
        }
    }
}
