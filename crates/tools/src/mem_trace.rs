//! Global-memory address tracing (the substrate for trace-driven cache
//! simulation, paper §6.1).
//!
//! Every executing lane of a traced global access pushes its effective
//! address through the streaming [`common::channel`]; the executor sends
//! one warp batch per warp instruction, tagged with the CTA-linear index.
//! The host drain thread appends each record to a per-CTA bucket while
//! the kernel runs. At launch exit the channel has been flushed, and the
//! buckets are appended to the result in CTA order and cleared, which
//! costs O(records of the launch).
//!
//! The canonical stream is therefore launch-major, then CTA-linear, then
//! per-CTA push order. It is identical across scheduler configurations
//! and append-only as launches are added.
//!
//! Both constructors consume that one stream:
//!
//! * [`MemTrace::channel`] keeps all of it. Under [`Backpressure::Block`]
//!   the trace is lossless whatever its size relative to the flush
//!   buffer; under [`Backpressure::DropCount`] kernel-side stalls are
//!   bounded and every drop is counted.
//! * [`MemTrace::new`] is a capped consumer under `Block`: it keeps the
//!   first `capacity` records of the stream and discards the rest, while
//!   still counting the whole demand.

use common::channel::{Backpressure, ChannelHost};
use cuda::{CbId, CbParams, CuFunction};
use nvbit::{IPoint, NvbitApi, NvbitTool};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// The trace-append device function: every executing lane pushes its
/// effective address into the launch's host-side record channel. No
/// buffer pointer or capacity — backpressure lives in the channel, and
/// the host drains concurrently.
pub(crate) const TRACE_CHAN_FN: &str = r#"
.func nvbit_trace_chan(.reg .u32 %pred, .reg .u64 %base, .reg .u32 %off)
{
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    cvt.s64.s32 %rd1, %off;
    add.u64 %rd2, %base, %rd1;
    chan.push.u64 %rd2;
    ret;
}
"#;

/// Largest flush buffer a capped trace sizes from its capacity.
const MAX_CAPPED_BUF_RECORDS: usize = 1 << 16;

/// Results handle of [`MemTrace`].
#[derive(Debug, Default)]
pub struct MemTraceResults {
    addresses: RefCell<Vec<u64>>,
    demanded: RefCell<u64>,
    dropped: RefCell<u64>,
}

impl MemTraceResults {
    /// The single source of the exact-fill boundary: of `demanded`
    /// records offered to a `capacity`-record store, how many are
    /// captured. A trace that fills the store *exactly*
    /// (`demanded == capacity`) is complete — truncation begins at the
    /// first record past capacity.
    ///
    /// The publish step and [`truncated`](Self::truncated) derive from
    /// this predicate; it is deliberately not hand-rolled at the call
    /// sites.
    pub fn captured(demanded: u64, capacity: u64) -> u64 {
        demanded.min(capacity)
    }

    /// True when every demanded record fits: `captured == demanded`.
    pub fn complete(demanded: u64, capacity: u64) -> bool {
        Self::captured(demanded, capacity) == demanded
    }

    /// The captured addresses in canonical order: launch-major, then
    /// CTA-linear, then per-CTA push order. Identical across scheduler
    /// configurations.
    pub fn addresses(&self) -> Vec<u64> {
        self.addresses.borrow().clone()
    }

    /// Total records the kernel tried to append, whether or not they fit.
    ///
    /// `demanded() >= addresses().len()` always holds; the excess (if any)
    /// is [`dropped`](Self::dropped).
    pub fn demanded(&self) -> u64 {
        *self.demanded.borrow()
    }

    /// Records not captured: always `demanded() - addresses().len()`.
    /// A capped trace drops past its capacity; an uncapped one drops
    /// only under [`Backpressure::DropCount`] with both flush buffers
    /// full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.borrow()
    }

    /// True when at least one record was dropped. Defined through the
    /// shared boundary predicate ([`complete`](Self::complete)) with
    /// the captured count standing in for capacity: the stored
    /// addresses are exactly the captured records, so an exactly-full
    /// capture is complete, not truncated.
    pub fn truncated(&self) -> bool {
        !Self::complete(self.demanded(), self.addresses.borrow().len() as u64)
    }
}

/// The tracing tool.
pub struct MemTrace {
    policy: Backpressure,
    buf_records: usize,
    /// Records of the canonical stream to keep; `u64::MAX` keeps all.
    capacity: u64,
    host: Option<ChannelHost>,
    /// The current launch's payloads, indexed by CTA-linear tag; filled
    /// by the drain thread, emptied by [`MemTrace::publish`].
    buckets: Arc<Mutex<Vec<Vec<u64>>>>,
    results: Rc<MemTraceResults>,
    seen: HashSet<u32>,
}

impl MemTrace {
    /// Creates the tool as a capped consumer: the trace keeps the first
    /// `capacity` records of the canonical stream, and records past it
    /// count as dropped. The flush buffer matches the capacity, up to
    /// 64Ki records.
    pub fn new(capacity: u32) -> (MemTrace, Rc<MemTraceResults>) {
        let buf_records = (capacity as usize).clamp(1, MAX_CAPPED_BUF_RECORDS);
        Self::build(Backpressure::Block, buf_records, capacity as u64)
    }

    /// Creates the tool in streaming-channel mode with a flush-buffer
    /// capacity of `buf_records` records and no cap on the trace.
    /// `Backpressure::Block` makes the trace lossless regardless of its
    /// size relative to the buffer; `Backpressure::DropCount` bounds
    /// kernel-side stalls and accounts every drop exactly.
    pub fn channel(policy: Backpressure, buf_records: usize) -> (MemTrace, Rc<MemTraceResults>) {
        Self::build(policy, buf_records, u64::MAX)
    }

    fn build(
        policy: Backpressure,
        buf_records: usize,
        capacity: u64,
    ) -> (MemTrace, Rc<MemTraceResults>) {
        let results = Rc::new(MemTraceResults::default());
        let tool = MemTrace {
            policy,
            buf_records,
            capacity,
            host: None,
            buckets: Arc::default(),
            results: results.clone(),
            seen: HashSet::new(),
        };
        (tool, results)
    }

    /// Appends the flushed launch's buckets to the result in CTA order,
    /// up to the capacity, and clears them.
    fn publish(&self) {
        let Some(host) = &self.host else { return };
        // The kernel-completion flush inside `Device::launch` already
        // pushed every record through the consumer, so the buckets hold
        // the whole launch. Earlier launches are already in `addresses`.
        let keep = MemTraceResults::captured(host.delivered(), self.capacity);
        let mut addresses = self.results.addresses.borrow_mut();
        for bucket in self.buckets.lock().unwrap().iter_mut() {
            let room = keep as usize - addresses.len();
            addresses.extend(bucket.drain(..).take(room));
        }
        *self.results.demanded.borrow_mut() = host.demanded();
        *self.results.dropped.borrow_mut() = host.demanded() - keep;
    }
}

impl NvbitTool for MemTrace {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(TRACE_CHAN_FN).expect("tool functions compile");
        let sink = self.buckets.clone();
        let (host, dev) = ChannelHost::spawn(
            self.buf_records,
            self.policy,
            Box::new(move |batch| {
                let mut buckets = sink.lock().unwrap();
                for r in batch {
                    let cta = r.tag as usize;
                    if cta >= buckets.len() {
                        buckets.resize_with(cta + 1, Vec::new);
                    }
                    buckets[cta].push(r.payload);
                }
            }),
        );
        api.driver().with_device(|d| d.attach_channel(dev));
        self.host = Some(host);
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.publish();
        api.driver().with_device(|d| d.detach_channel());
        if let Some(host) = self.host.take() {
            host.shutdown();
        }
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if cbid != CbId::LaunchKernel {
            return;
        }
        // Publishing at entry too keeps the stream launch-major after a
        // failed launch, whose exit event never fires.
        self.publish();
        if !is_exit && self.seen.insert(func.raw()) {
            common::obs::counter("tool.mem_trace.sites", insert_trace_calls(api, *func));
        }
    }
}

/// Injects a [`TRACE_CHAN_FN`] call before every global access of `func`
/// and returns the number of sites.
pub(crate) fn insert_trace_calls(api: &NvbitApi<'_>, func: CuFunction) -> u64 {
    let mut sites = 0u64;
    for instr in api.get_instrs(func).expect("inspection") {
        if instr.mem_space() != Some(sass::MemSpace::Global) {
            continue;
        }
        let Some((base, offset)) = instr.mref() else { continue };
        api.insert_call(func, instr.idx, "nvbit_trace_chan", IPoint::Before).unwrap();
        api.add_call_arg_guard_pred(func, instr.idx).unwrap();
        api.add_call_arg_reg_val64(func, instr.idx, base.0).unwrap();
        api.add_call_arg_imm32(func, instr.idx, offset).unwrap();
        sites += 1;
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::{Driver, FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3};
    use nvbit::attach_tool;
    use sass::Arch;

    const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    st.global.u32 [%rd3+64], %r2;
    exit;
}
"#;

    #[test]
    fn trace_captures_every_lane_address() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::new(4096);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        let addrs = results.addresses();
        assert_eq!(addrs.len(), 64, "32 loads + 32 stores");
        assert!(!results.truncated());
        assert_eq!(results.dropped(), 0);
        // Loads at buf + 4t, stores at buf + 4t + 64.
        for t in 0..32u64 {
            assert!(addrs.contains(&(buf + 4 * t)), "missing load address of lane {t}");
            assert!(addrs.contains(&(buf + 4 * t + 64)), "missing store address of lane {t}");
        }
    }

    #[test]
    fn overflow_is_reported_as_truncation() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::new(16);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();
        assert!(results.truncated());
        assert_eq!(results.addresses().len(), 16);
        assert_eq!(results.demanded(), 64);
        assert_eq!(results.dropped(), 48);
    }

    /// Boundary contract: a trace that fills the buffer *exactly* is
    /// complete, not truncated. The app demands exactly 64 records
    /// (32 loads + 32 stores) into a capacity-64 buffer.
    #[test]
    fn exactly_full_buffer_is_complete_not_truncated() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::new(64);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();
        assert_eq!(results.demanded(), 64, "demand equals capacity exactly");
        assert_eq!(results.addresses().len(), 64, "every record captured");
        assert!(!results.truncated(), "an exactly-full buffer is not truncated");
    }

    /// Channel mode with `Block` is lossless even when the trace
    /// exceeds the flush buffer many times over: a 4-record buffer
    /// carries a 64-record trace with zero drops.
    #[test]
    fn channel_trace_is_lossless_past_the_buffer_size() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::Block, 4);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        let addrs = results.addresses();
        assert_eq!(addrs.len(), 64, "32 loads + 32 stores, no capacity cap");
        assert!(!results.truncated());
        assert_eq!(results.dropped(), 0);
        assert_eq!(results.demanded(), 64);
        for t in 0..32u64 {
            assert!(addrs.contains(&(buf + 4 * t)), "missing load address of lane {t}");
            assert!(addrs.contains(&(buf + 4 * t + 64)), "missing store address of lane {t}");
        }
    }

    /// Channel mode under `DropCount` preserves the accounting
    /// contract exactly: whatever gets dropped is counted, and
    /// demanded == captured + dropped always holds.
    #[test]
    fn channel_dropcount_accounting_is_exact() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::DropCount, 8);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        assert_eq!(results.demanded(), 64);
        assert_eq!(
            results.addresses().len() as u64 + results.dropped(),
            results.demanded(),
            "every demanded record is either captured or counted as dropped"
        );
        assert_eq!(results.truncated(), results.dropped() > 0);
    }
}
