//! Streaming-channel bandwidth (paper §6.1): end-to-end `mem_trace`
//! throughput through the double-buffered GPU→host channel versus the
//! capped baseline (`MemTrace::new`, which keeps only the first
//! `capacity` records of the same stream), at matched buffer sizes,
//! plus a producer microbench of the channel alone.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin channel_bw
//! ```
//!
//! The workload demands 128Ki trace records — 32× the 4Ki flush buffer —
//! so the capped baseline necessarily truncates while the channel
//! streams the full trace. Writes `results/BENCH_channel_bw.json`;
//! the repository gates on zero drops under `Block` at every buffer
//! size and on ≥2× captured-record throughput over the capped
//! baseline at the 4Ki size.
//!
//! The producer microbench is report-only: host nanoseconds per record
//! for per-record `push` versus 32-record `push_warp` batches, at 1 and
//! `available_parallelism` producer threads, and the median interval
//! between drained batches.

use common::channel::{Backpressure, ChannelHost};
use common::json::Json;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::attach_tool;
use nvbit_tools::MemTrace;
use sass::Arch;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// 16 blocks × 32 threads, each looping `ITERS` times over one traced
/// load + one traced store: 16·32·128·2 = 131072 records.
const BLOCKS: u32 = 16;
const ITERS: u32 = 128;
const DEMAND: u64 = BLOCKS as u64 * 32 * ITERS as u64 * 2;

const APP: &str = r#"
.entry k(.param .u64 buf, .param .u32 iters)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [iters];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    mov.u32 %r6, 0;
LOOP:
    ld.global.u32 %r7, [%rd3];
    st.global.u32 [%rd3], %r7;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, %r1;
    @%p1 bra LOOP;
    exit;
}
"#;

struct RunOut {
    captured: u64,
    demanded: u64,
    dropped: u64,
    wall: Duration,
}

/// Runs the loop workload under a [`MemTrace`] built by `make` and
/// returns captured/demanded/dropped plus end-to-end wall time
/// (driver bring-up through shutdown, instrumentation JIT included —
/// both tools pay the same pipeline).
fn run(make: impl FnOnce() -> (MemTrace, std::rc::Rc<nvbit_tools::MemTraceResults>)) -> RunOut {
    let ((captured, demanded, dropped), wall) = bench_harness::timed(|| {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = make();
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("loopapp", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(BLOCKS as u64 * 32 * 4).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(BLOCKS),
            Dim3::linear(32),
            &[KernelArg::Ptr(buf), KernelArg::U32(ITERS)],
        )
        .unwrap();
        drv.shutdown();
        (results.addresses().len() as u64, results.demanded(), results.dropped())
    });
    RunOut { captured, demanded, dropped, wall }
}

fn per_sec(records: u64, wall: Duration) -> f64 {
    records as f64 / wall.as_secs_f64().max(1e-9)
}

/// Records each producer microbench run pushes in total.
const MICRO_RECORDS: u64 = 1 << 20;
/// Flush-buffer size of the producer microbench (the gate size above).
const MICRO_BUF: usize = 4096;
/// Runs per microbench point; the median is reported.
const MICRO_RUNS: usize = 5;

/// One producer microbench run: `producers` threads push
/// `MICRO_RECORDS` records in total, in `batch`-record calls (`1` uses
/// `push`, otherwise `push_warp`), under distinct tags, through a
/// lossless channel whose consumer only logs batch arrivals. Returns the
/// median over producers of nanoseconds per record and the median
/// interval between consecutive drained batches in microseconds.
fn producer_run(producers: usize, batch: usize) -> (f64, f64) {
    let arrivals: Arc<Mutex<Vec<Instant>>> = Arc::default();
    let log = arrivals.clone();
    let (host, dev) = ChannelHost::spawn(
        MICRO_BUF,
        Backpressure::Block,
        Box::new(move |_| log.lock().unwrap().push(Instant::now())),
    );
    let calls = MICRO_RECORDS / (producers * batch) as u64;
    let mut ns: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..producers as u64)
            .map(|tag| {
                let dev = dev.clone();
                s.spawn(move || {
                    let payloads: Vec<u64> = (0..batch as u64).collect();
                    let t = Instant::now();
                    for _ in 0..calls {
                        if batch == 1 {
                            dev.push(tag, std::hint::black_box(payloads[0]));
                        } else {
                            dev.push_warp(tag, std::hint::black_box(&payloads));
                        }
                    }
                    t.elapsed().as_nanos() as f64 / (calls * batch as u64) as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    dev.flush();
    assert_eq!(host.dropped(), 0, "Block backpressure must be lossless");
    host.shutdown();
    let arrivals = arrivals.lock().unwrap();
    let mut gaps: Vec<f64> =
        arrivals.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e6).collect();
    (median(&mut ns), median(&mut gaps))
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The report-only producer microbench: `push` vs 32-record
/// `push_warp` at 1 and `available_parallelism` producers.
fn producer_report() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut producer_counts = vec![1];
    if nproc > 1 {
        producer_counts.push(nproc);
    }
    println!(
        "\n== producer microbench: {MICRO_RECORDS} records, {MICRO_BUF}-record buffer, \
         median of {MICRO_RUNS} ==\n"
    );
    println!("{:>9}  {:>6}  {:>12}  {:>14}", "producers", "batch", "ns/record", "drain batch us");
    let mut rows = Vec::new();
    for &producers in &producer_counts {
        for (api, batch) in [("push", 1usize), ("push_warp", 32)] {
            let (mut ns, mut us): (Vec<f64>, Vec<f64>) =
                (0..MICRO_RUNS).map(|_| producer_run(producers, batch)).unzip();
            let (ns, us) = (median(&mut ns), median(&mut us));
            println!("{producers:>9}  {batch:>6}  {ns:>12.1}  {us:>14.1}");
            rows.push(Json::obj(vec![
                ("api", Json::Str(api.into())),
                ("producers", Json::Num(producers as f64)),
                ("batch", Json::Num(batch as f64)),
                ("ns_per_record", Json::Num(ns)),
                ("drain_batch_us", Json::Num(us)),
            ]));
        }
    }
    Json::obj(vec![
        ("hw_threads", Json::Num(nproc as f64)),
        ("records", Json::Num(MICRO_RECORDS as f64)),
        ("buf_records", Json::Num(MICRO_BUF as f64)),
        ("runs", Json::Num(MICRO_RUNS as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

fn main() {
    println!("== channel_bw: streaming channel vs capped trace, {DEMAND} records ==\n");
    println!(
        "{:>10}  {:>8}  {:>14}  {:>14}  {:>14}  {:>8}",
        "buf", "oversub", "chan rec/s", "capped rec/s", "chan drops", "speedup"
    );

    let mut sizes_json = Vec::new();
    let mut gate_speedup = 0.0;
    let mut gate_oversub = 0.0;
    for buf_records in [256usize, 4096, 65536] {
        let chan = run(|| MemTrace::channel(Backpressure::Block, buf_records));
        let capped = run(|| MemTrace::new(buf_records as u32));

        assert_eq!(chan.demanded, DEMAND, "channel demand is workload-determined");
        assert_eq!(capped.demanded, DEMAND, "capped demand is workload-determined");
        assert_eq!(chan.captured, DEMAND, "Block mode streams the full trace");

        let oversub = DEMAND as f64 / buf_records as f64;
        let chan_tp = per_sec(chan.captured, chan.wall);
        let capped_tp = per_sec(capped.captured, capped.wall);
        let speedup = chan_tp / capped_tp.max(1e-9);
        if buf_records == 4096 {
            gate_speedup = speedup;
            gate_oversub = oversub;
        }
        println!(
            "{buf_records:>10}  {oversub:>7.0}x  {chan_tp:>14.0}  {capped_tp:>14.0}  {:>14}  {speedup:>7.1}x",
            chan.dropped
        );

        assert_eq!(chan.dropped, 0, "Block backpressure must be lossless at {buf_records}");
        sizes_json.push(Json::obj(vec![
            ("buf_records", Json::Num(buf_records as f64)),
            ("oversubscription", Json::Num(oversub)),
            (
                "channel",
                Json::obj(vec![
                    ("captured", Json::Num(chan.captured as f64)),
                    ("demanded", Json::Num(chan.demanded as f64)),
                    ("dropped", Json::Num(chan.dropped as f64)),
                    ("wall_ms", Json::Num(chan.wall.as_secs_f64() * 1e3)),
                    ("records_per_sec", Json::Num(chan_tp)),
                ]),
            ),
            (
                "capped",
                Json::obj(vec![
                    ("captured", Json::Num(capped.captured as f64)),
                    ("demanded", Json::Num(capped.demanded as f64)),
                    ("dropped", Json::Num(capped.dropped as f64)),
                    ("wall_ms", Json::Num(capped.wall.as_secs_f64() * 1e3)),
                    ("records_per_sec", Json::Num(capped_tp)),
                ]),
            ),
            ("throughput_speedup", Json::Num(speedup)),
        ]));
    }

    let producer_json = producer_report();

    let doc = Json::obj(vec![
        ("bench", Json::Str("channel_bw".into())),
        ("workload", Json::Str("loop kernel, 16x32 threads, 128 iters, 2 memops".into())),
        ("tool", Json::Str("mem_trace (channel vs capped)".into())),
        ("arch", Json::Str("volta".into())),
        ("records_demanded", Json::Num(DEMAND as f64)),
        ("record_bytes", Json::Num(common::channel::RECORD_BYTES as f64)),
        ("sizes", Json::Arr(sizes_json)),
        ("gate_buf_records", Json::Num(4096.0)),
        ("gate_oversubscription", Json::Num(gate_oversub)),
        ("gate_speedup", Json::Num(gate_speedup)),
        ("producer", producer_json),
    ]);
    std::fs::create_dir_all("results").unwrap();
    let path = "results/BENCH_channel_bw.json";
    std::fs::write(path, doc.to_pretty()).unwrap();
    println!("\nwrote {path}");

    assert!(
        gate_oversub >= 16.0,
        "the gate workload must oversubscribe the 4Ki buffer ≥16x (got {gate_oversub:.0}x)"
    );
    assert!(
        gate_speedup >= 2.0,
        "channel mem_trace must capture records ≥2x faster than the capped baseline at 4Ki \
         (got {gate_speedup:.1}x)"
    );
}
