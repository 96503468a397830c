//! Determinism suite for the streaming tool channel (`common::channel`).
//!
//! Under `Backpressure::Block` the channel is lossless, and the
//! canonical record stream — per-CTA subsequences reassembled in
//! CTA-linear order — is bit-identical whether CTAs run on one host
//! thread or race across a worker pool. Under `Backpressure::DropCount`
//! an adversarially tiny flush buffer forces drops, and the accounting
//! stays exact: every demanded record is either delivered or counted.
//! Across launches the stream is launch-major, and the capped
//! `MemTrace::new` keeps exactly a prefix of it.

use common::channel::Backpressure;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::attach_tool;
use nvbit_tools::{MemTrace, MemTraceResults};
use sass::Arch;
use std::rc::Rc;

/// A multi-CTA app: each thread loads and stores one word, so a launch
/// of `blocks × threads` threads demands `2 × blocks × threads` trace
/// records with per-CTA payloads that never collide across CTAs.
const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    st.global.u32 [%rd3], %r5;
    exit;
}
"#;

const BLOCKS: u32 = 8;

/// Launches the app under `sched` once per entry of `grids`, with
/// `block` threads per CTA and each launch on its own buffer. Returns
/// the results and the trace as `(launch, byte offset into that
/// launch's buffer)`.
fn launches(
    (tool, results): (MemTrace, Rc<MemTraceResults>),
    sched: Scheduler,
    grids: &[u32],
    block: u32,
) -> (Rc<MemTraceResults>, Vec<(usize, u64)>) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, tool);
    drv.with_device(|d| d.scheduler = sched);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let mut bufs = Vec::new();
    for &g in grids {
        let bytes = g as u64 * block as u64 * 4;
        let buf = drv.mem_alloc(bytes).unwrap();
        let (grid, block) = (Dim3::linear(g), Dim3::linear(block));
        drv.launch_kernel(&f, grid, block, &[KernelArg::Ptr(buf)]).unwrap();
        bufs.push(buf..buf + bytes);
    }
    drv.shutdown();
    let trace = results
        .addresses()
        .iter()
        .map(|a| {
            let l = bufs.iter().position(|b| b.contains(a)).expect("address in a launch buffer");
            (l, a - bufs[l].start)
        })
        .collect();
    (results, trace)
}

/// Runs one `BLOCKS`-CTA launch with a channel-mode [`MemTrace`] and
/// returns the canonical address stream plus (demanded, dropped).
fn run(policy: Backpressure, buf_records: usize, sched: Scheduler) -> (Vec<u64>, u64, u64) {
    let (results, _) = launches(MemTrace::channel(policy, buf_records), sched, &[BLOCKS], 32);
    (results.addresses(), results.demanded(), results.dropped())
}

/// `Block` with a buffer 64× smaller than the trace: the canonical
/// stream is bit-identical between the serial scheduler and a racing
/// CTA-parallel pool, and nothing is dropped in either.
#[test]
fn block_streams_are_bit_identical_across_schedulers() {
    let (serial, ser_demand, ser_drops) = run(Backpressure::Block, 8, Scheduler::Serial);
    let (parallel, par_demand, par_drops) =
        run(Backpressure::Block, 8, Scheduler::Parallel { threads: 4 });
    assert_eq!(ser_demand, BLOCKS as u64 * 64);
    assert_eq!(par_demand, ser_demand);
    assert_eq!(ser_drops, 0);
    assert_eq!(par_drops, 0);
    assert_eq!(serial.len(), BLOCKS as usize * 64);
    assert_eq!(serial, parallel, "canonical streams diverge across schedulers");
}

/// Repeated parallel runs are stable too — the reassembly really is
/// timing-independent, not merely lucky.
#[test]
fn parallel_runs_repeat_bit_identically() {
    let (first, ..) = run(Backpressure::Block, 8, Scheduler::Parallel { threads: 4 });
    for _ in 0..4 {
        let (again, ..) = run(Backpressure::Block, 8, Scheduler::Parallel { threads: 4 });
        assert_eq!(first, again);
    }
}

/// `DropCount` under an adversarially tiny 8-record buffer: drops are
/// possible (and with a serial scheduler pushing 512 records through
/// 8-record flips, overwhelmingly likely), and accounting is exact
/// either way: delivered + dropped == demanded, with the truncation
/// flag tracking the drop count.
#[test]
fn dropcount_accounting_is_exact_under_a_tiny_buffer() {
    for sched in [Scheduler::Serial, Scheduler::Parallel { threads: 4 }] {
        let (addrs, demanded, dropped) = run(Backpressure::DropCount, 8, sched);
        assert_eq!(demanded, BLOCKS as u64 * 64, "demand is workload-determined");
        assert_eq!(
            addrs.len() as u64 + dropped,
            demanded,
            "every demanded record is delivered or counted as dropped"
        );
        // Delivered records are still genuine addresses from the app's
        // buffer range (no torn or invented records under pressure).
        for &a in &addrs {
            assert_eq!(a % 4, 0, "address {a:#x} is not word-aligned");
        }
    }
}

/// Two warps per CTA in the multi-launch tests, so each CTA's stream
/// interleaves warp batches.
const WIDE: u32 = 64;

fn lossless() -> (MemTrace, Rc<MemTraceResults>) {
    MemTrace::channel(Backpressure::Block, 16)
}

/// Two multi-CTA launches trace as the concatenation of each launch
/// traced alone (launch-major), CTA-linear within a launch, and
/// bit-identical under the serial and a 4-worker scheduler.
#[test]
fn multi_launch_trace_is_launch_major_and_scheduler_independent() {
    let par = Scheduler::Parallel { threads: 4 };
    let (serial, serial_trace) = launches(lossless(), Scheduler::Serial, &[4, 3], WIDE);
    let (parallel, trace) = launches(lossless(), par, &[4, 3], WIDE);
    assert_eq!(serial.addresses(), parallel.addresses(), "streams diverge across schedulers");
    assert_eq!(serial_trace, trace);

    let mut expected = launches(lossless(), par, &[4], WIDE).1;
    let second = launches(lossless(), par, &[3], WIDE).1;
    expected.extend(second.into_iter().map(|(_, off)| (1, off)));
    assert_eq!(trace, expected, "not the launch-major concatenation");
    assert_eq!(trace.len() as u64, 2 * 7 * WIDE as u64);
    let cta = |&(l, off): &(usize, u64)| (l, off / (WIDE as u64 * 4));
    assert!(trace.windows(2).all(|w| cta(&w[0]) <= cta(&w[1])), "not CTA-linear");
}

/// The capped trace is exactly the first `cap` records of the lossless
/// stream, with the same demand, for caps inside the first launch, at
/// its end, inside the second launch and past the whole trace.
#[test]
fn capped_trace_is_a_prefix_of_the_lossless_stream() {
    let par = Scheduler::Parallel { threads: 4 };
    let (full, _) = launches(lossless(), par, &[4, 3], WIDE);
    let all = full.addresses();
    for cap in [0u32, 100, 512, 600, 5000] {
        let (capped, _) = launches(MemTrace::new(cap), par, &[4, 3], WIDE);
        let keep = (cap as usize).min(all.len());
        assert_eq!(capped.addresses(), all[..keep], "cap {cap}");
        assert_eq!(capped.demanded(), full.demanded(), "cap {cap}");
        assert_eq!(capped.dropped(), full.demanded() - keep as u64, "cap {cap}");
        assert_eq!(capped.truncated(), keep < all.len(), "cap {cap}");
    }
}

/// Like `APP`, but CTA 1 stores to address 0 and faults, after its
/// trace calls have pushed both of its warp batches.
const FAULTY: &str = r#"
.entry f(.param .u64 buf)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    setp.eq.u32 %p1, %r2, 1;
    @%p1 mov.u64 %rd3, 0;
    st.global.u32 [%rd3], %r5;
    exit;
}
"#;

/// A faulting launch never fires its exit callback. Its records still
/// come before the next launch's, instead of merging with them per CTA.
#[test]
fn a_faulting_launch_stays_launch_major() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = lossless();
    attach_tool(&drv, tool);
    drv.with_device(|d| d.scheduler = Scheduler::Serial);
    let ctx = drv.ctx_create().unwrap();
    let faulty = drv.module_load(&ctx, FatBinary::from_ptx("faulty", FAULTY)).unwrap();
    let app = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let (f, k) = (
        drv.module_get_function(&faulty, "f").unwrap(),
        drv.module_get_function(&app, "k").unwrap(),
    );
    let (a, b) = (drv.mem_alloc(256).unwrap(), drv.mem_alloc(256).unwrap());
    let (grid, block) = (Dim3::linear(2), Dim3::linear(32));
    assert!(drv.launch_kernel(&f, grid, block, &[KernelArg::Ptr(a)]).is_err());
    drv.launch_kernel(&k, grid, block, &[KernelArg::Ptr(b)]).unwrap();
    drv.shutdown();

    let addrs = results.addresses();
    let in_b = |x: &u64| (b..b + 256).contains(x);
    assert_eq!(addrs.len(), 256, "both CTAs of both launches pushed two warp batches");
    assert!(addrs[..128].iter().all(|x| !in_b(x)), "faulting launch's records come first");
    assert!(addrs[128..].iter().all(in_b), "then the next launch's");
}
