//! Seeded workload generation.
//!
//! A [`Workload`] is a pure description: PTX modules, initial buffer
//! contents and an ordered list of steps (module loads and kernel
//! launches). Everything is derived from the seed through `common::Rng`,
//! so the same seed always yields byte-identical PTX and inputs, and the
//! executor ([`crate::round`]) replays the description against a fresh
//! `Driver` every round.
//!
//! Seeds move *values* (data, kernel names, variant constants, the order
//! of template variants), never the amount of work: sizes are fixed and
//! every seeded parameter with a cost (trig iterations, stream
//! directions, walk steps, CSR row lengths) is a seeded permutation of a
//! fixed multiset. That keeps run-to-run spread across seeds down to
//! host noise.

use common::Rng;
use gpu::Dim3;
use workloads::kernels as k;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SpecAccel-like kernel mix relaunched under the executed-instruction
    /// counter: execution-dominated.
    CountMix,
    /// Many unique kernels, each launched once on one CTA: JIT-dominated.
    JitCold,
    /// Memory-heavy kernels under the channel-mode memory tracer.
    TraceStream,
}

impl Kind {
    /// All workloads in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::CountMix, Kind::JitCold, Kind::TraceStream];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CountMix => "count_mix",
            Kind::JitCold => "jit_cold",
            Kind::TraceStream => "trace_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Problem size: `Full` is what the benchmark measures, `Tiny` keeps the
/// benchmark's own unit tests fast in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark size.
    Full,
    /// Test size.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// The instrumentation tool a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// `CoalescedInstrCount::executed(PlanOpts::default())`.
    Counter,
    /// `MemTrace::channel(Backpressure::Block, TRACE_BUF_RECORDS)`.
    Trace,
}

/// How a buffer's final contents are compared against the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Bit-identical.
    Exact,
    /// `f32` elements within a relative tolerance: buffers written by
    /// `red.global.add.f32`, whose rounding depends on CTA order.
    RelTol(f32),
}

/// One device buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// Initial contents (uploaded during set-up).
    pub init: Vec<u8>,
    /// Comparison rule for the final contents.
    pub check: Check,
}

/// A launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Device pointer of buffer `i`.
    Buf(usize),
    /// 32-bit integer.
    U32(u32),
    /// 32-bit float.
    F32(f32),
}

/// One PTX module.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// PTX source.
    pub ptx: String,
    /// Entry names, in definition order.
    pub kernels: Vec<String>,
}

/// A kernel reference: module index and entry index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRef {
    /// Module index.
    pub module: usize,
    /// Entry index within the module.
    pub entry: usize,
}

/// One kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct Launch {
    /// The kernel.
    pub kernel: KernelRef,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Arguments.
    pub args: Vec<Arg>,
}

/// One step of the timed phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Load module `i` and look up its entries.
    Load(usize),
    /// Launch a kernel.
    Launch(Launch),
}

/// The gather kernel of `trace_stream`, for the address check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherCheck {
    /// Buffer holding the `u32` indices.
    pub idx: usize,
    /// Source buffer the data loads read (read by nothing else).
    pub src: usize,
    /// Gather launches per round.
    pub launches: u64,
}

/// A fully generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed it was generated from.
    pub seed: u64,
    /// The size it was generated at.
    pub scale: Scale,
    /// The tool the instrumented runs attach.
    pub tool: Tool,
    /// All modules.
    pub modules: Vec<Module>,
    /// Modules loaded during set-up (the rest load inside the timed phase
    /// through [`Step::Load`]).
    pub setup_loads: Vec<usize>,
    /// Device buffers.
    pub buffers: Vec<Buffer>,
    /// The timed phase.
    pub steps: Vec<Step>,
    /// Address check of `trace_stream`'s gather kernel.
    pub gather: Option<GatherCheck>,
}

impl Workload {
    /// Generates a workload from its seed.
    pub fn generate(kind: Kind, seed: u64, scale: Scale) -> Workload {
        // Mix the workload into the seed so workloads never share streams.
        let mut rng = Rng::seed_from_u64(seed ^ (kind as u64 + 1).wrapping_mul(0x9E37_79B9));
        let mut b = Gen::new(kind, seed, scale);
        match kind {
            Kind::CountMix => count_mix(&mut b, &mut rng, scale),
            Kind::JitCold => jit_cold(&mut b, &mut rng, scale),
            Kind::TraceStream => trace_stream(&mut b, &mut rng, scale),
        }
        b.w
    }

    /// Number of kernel launches in one round.
    pub fn launches(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, Step::Launch(_))).count()
    }
}

struct Gen {
    w: Workload,
}

impl Gen {
    fn new(kind: Kind, seed: u64, scale: Scale) -> Gen {
        let tool = match kind {
            Kind::TraceStream => Tool::Trace,
            _ => Tool::Counter,
        };
        Gen {
            w: Workload {
                kind,
                seed,
                scale,
                tool,
                modules: Vec::new(),
                setup_loads: Vec::new(),
                buffers: Vec::new(),
                steps: Vec::new(),
                gather: None,
            },
        }
    }

    fn module(&mut self, name: &str, sources: Vec<(String, String)>) -> usize {
        let kernels = sources.iter().map(|(n, _)| n.clone()).collect();
        let body: Vec<String> = sources.into_iter().map(|(_, s)| s).collect();
        self.w.modules.push(Module {
            name: name.to_string(),
            ptx: format!(".version 6.0\n{}", body.join("\n")),
            kernels,
        });
        self.w.modules.len() - 1
    }

    fn buf(&mut self, init: Vec<u8>) -> usize {
        self.w.buffers.push(Buffer { init, check: Check::Exact });
        self.w.buffers.len() - 1
    }

    fn f32s(&mut self, vals: impl IntoIterator<Item = f32>) -> usize {
        self.buf(vals.into_iter().flat_map(|v| v.to_bits().to_le_bytes()).collect())
    }

    fn u32s(&mut self, vals: &[u32]) -> usize {
        self.buf(vals.iter().flat_map(|v| v.to_le_bytes()).collect())
    }

    fn zeros(&mut self, words: u32) -> usize {
        self.buf(vec![0u8; words as usize * 4])
    }

    fn launch(&mut self, module: usize, entry: usize, grid: Dim3, block: Dim3, args: Vec<Arg>) {
        let kernel = KernelRef { module, entry };
        self.w.steps.push(Step::Launch(Launch { kernel, grid, block, args }));
    }
}

/// Flush-buffer size of `trace_stream`'s channel, in records: far below
/// the per-launch record volume, so every launch flips buffers many times.
pub const TRACE_BUF_RECORDS: usize = 1024;

const BLOCK: u32 = 128;

fn uniform(rng: &mut Rng, n: u32, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| lo + (hi - lo) * rng.gen_f32()).collect()
}

/// A seeded permutation of `values` repeated to length `n`.
fn shuffled_cycle(rng: &mut Rng, values: &[u32], n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = values.iter().copied().cycle().take(n).collect();
    rng.shuffle(&mut v);
    v
}

fn grid1d(n: u32) -> Dim3 {
    Dim3::linear(n.div_ceil(BLOCK).max(1))
}

/// A CSR matrix: row lengths are a seeded permutation of 1..=15, so the
/// nonzero count is seed-independent while the structure is not.
struct Csr {
    rowptr: Vec<u32>,
    cols: Vec<u32>,
}

fn csr(rng: &mut Rng, rows: u32, ncols: u32) -> Csr {
    let lens = shuffled_cycle(rng, &(1..16).collect::<Vec<u32>>(), rows as usize);
    let mut rowptr = vec![0u32];
    let mut cols = Vec::new();
    for len in lens {
        for _ in 0..len {
            cols.push(rng.gen_range(0..ncols));
        }
        rowptr.push(cols.len() as u32);
    }
    Csr { rowptr, cols }
}

/// Buffers and kernel of one spmv instance: returns the launch arguments.
fn spmv_args(b: &mut Gen, rng: &mut Rng, rows: u32) -> Vec<Arg> {
    let m = csr(rng, rows, rows);
    let nnz = m.cols.len() as u32;
    let rowptr = b.u32s(&m.rowptr);
    let cols = b.u32s(&m.cols);
    let vals = b.f32s(uniform(rng, nnz, -1.0, 1.0));
    let x = b.f32s(uniform(rng, rows, -1.0, 1.0));
    let y = b.zeros(rows);
    vec![Arg::Buf(rowptr), Arg::Buf(cols), Arg::Buf(vals), Arg::Buf(x), Arg::Buf(y), Arg::U32(rows)]
}

/// `count_mix`: one module holding the SpecAccel-like mix, loaded during
/// set-up; every kernel is relaunched `reps` times per round, interleaved.
/// Inputs are read-only and outputs overwritten, except the three
/// accumulating kernels (reduce_sum, rng_hist, line_sweep), whose growth
/// over `reps` launches stays finite.
fn count_mix(b: &mut Gen, rng: &mut Rng, scale: Scale) {
    let (n, reps) = match scale {
        Scale::Full => (4096u32, 8usize),
        Scale::Tiny => (512, 2),
    };
    let names = [
        "stencil5",
        "lbm_stream",
        "axpby",
        "trig_map",
        "md_force",
        "spmv_csr",
        "line_sweep",
        "reduce_sum",
        "rng_hist",
    ];
    let tag = rng.next_u32();
    let names: Vec<String> = names.iter().map(|t| format!("mix_{t}_{tag:08x}")).collect();
    let sources = vec![
        k::stencil5(&names[0]),
        k::lbm_stream(&names[1], 8),
        k::axpby(&names[2]),
        k::trig_map(&names[3], 4),
        k::md_force(&names[4]),
        k::spmv_csr(&names[5]),
        k::line_sweep(&names[6]),
        k::reduce_sum(&names[7]),
        k::rng_hist(&names[8], 8),
    ];
    let m = b.module("count_mix", names.iter().cloned().zip(sources).collect());
    b.w.setup_loads.push(m);

    let w = 128u32;
    let h = n / w;
    let st_in = b.f32s(uniform(rng, h * w, 0.0, 1.0));
    let st_out = b.zeros(h * w);
    let lbm_in = b.f32s(uniform(rng, n + 16, 0.0, 1.0));
    let lbm_out = b.zeros(n);
    let x = b.f32s(uniform(rng, n, -1.0, 1.0));
    let y = b.f32s(uniform(rng, n, -1.0, 1.0));
    let z = b.zeros(n);
    let trig_out = b.zeros(n);
    let md_n = n / 4;
    let pos = b.f32s(uniform(rng, md_n, 0.0, 1.0));
    let force = b.zeros(md_n);
    let spmv = spmv_args(b, rng, n / 8);
    let rows = n / 64;
    let sweep = b.f32s(uniform(rng, rows * 64, 0.0, 0.01));
    let acc = b.zeros(1);
    b.w.buffers[acc].check = Check::RelTol(REDUCE_TOL);
    let hist = b.zeros(64);
    let (a, c) = (0.25 + 0.5 * rng.gen_f32(), 0.25 * rng.gen_f32());
    let cut = 0.01 + 0.01 * rng.gen_f32();
    let walk_seed = rng.next_u32();

    for _ in 0..reps {
        let st = Dim3::xyz(h - 2, (w - 2).div_ceil(BLOCK), 1);
        let args = vec![Arg::Buf(st_in), Arg::Buf(st_out), Arg::U32(h), Arg::U32(w)];
        b.launch(m, 0, st, Dim3::linear(BLOCK), args);
        let args = vec![Arg::Buf(lbm_in), Arg::Buf(lbm_out), Arg::U32(n)];
        b.launch(m, 1, grid1d(n), Dim3::linear(BLOCK), args);
        let args = vec![
            Arg::Buf(x),
            Arg::Buf(y),
            Arg::Buf(z),
            Arg::U32(n),
            Arg::F32(a),
            Arg::F32(1.0 - a),
        ];
        b.launch(m, 2, grid1d(n), Dim3::linear(BLOCK), args);
        let args = vec![Arg::Buf(x), Arg::Buf(trig_out), Arg::U32(n), Arg::F32(c)];
        b.launch(m, 3, grid1d(n), Dim3::linear(BLOCK), args);
        let args =
            vec![Arg::Buf(pos), Arg::Buf(force), Arg::U32(md_n), Arg::U32(16), Arg::F32(cut)];
        b.launch(m, 4, grid1d(md_n), Dim3::linear(BLOCK), args);
        b.launch(m, 5, grid1d(n / 8), Dim3::linear(BLOCK), spmv.clone());
        let args = vec![Arg::Buf(sweep), Arg::U32(rows), Arg::U32(64)];
        b.launch(m, 6, grid1d(rows), Dim3::linear(BLOCK), args);
        let args = vec![Arg::Buf(x), Arg::Buf(acc), Arg::U32(n)];
        b.launch(m, 7, grid1d(n), Dim3::linear(BLOCK), args);
        let args = vec![Arg::Buf(hist), Arg::U32(walk_seed)];
        b.launch(m, 8, grid1d(n), Dim3::linear(BLOCK), args);
    }
}

/// Relative tolerance for buffers accumulated with `red.global.add.f32`:
/// under the parallel scheduler CTA order changes the rounding of every
/// atomic add. Positive summands bound the relative error by
/// `adds × f32::EPSILON`; a round makes at most a few thousand adds into
/// one accumulator, so 1e-3 leaves a wide margin while still catching a
/// lost or doubled contribution.
pub const REDUCE_TOL: f32 = 1e-3;

/// Templates of `jit_cold`, in a fixed order; each module holds
/// `PER_TEMPLATE` instances of every one.
const TEMPLATES: [&str; 12] = [
    "stencil5",
    "trig_map",
    "axpby",
    "rng_hist",
    "spmv_csr",
    "md_force",
    "lbm_stream",
    "reduce_sum",
    "line_sweep",
    "short_unique",
    "transpose_naive",
    "gather",
];

/// `jit_cold`: `modules` modules of unique kernels, loaded inside the timed
/// phase, each kernel launched exactly once on one CTA. The set of
/// templates per module is fixed; the seed picks names, launch constants,
/// the order within each module and which cost variant (trig iterations,
/// stream directions, walk steps) each instance gets.
fn jit_cold(b: &mut Gen, rng: &mut Rng, scale: Scale) {
    let (modules, per_template) = match scale {
        Scale::Full => (8usize, 3usize),
        Scale::Tiny => (2, 1),
    };
    let instances = modules * per_template;
    let trig_iters = shuffled_cycle(rng, &[1, 2, 3, 4, 5, 6, 7, 8], instances);
    let lbm_dirs = shuffled_cycle(rng, &[1, 2, 3, 4, 5, 6, 7, 8], instances);
    let walk_steps = shuffled_cycle(rng, &[4, 5, 6, 7, 8, 9, 10, 11], instances);

    // Shared per-template buffers, sized for one single-warp CTA: the
    // workload prices translation, so each launch executes as little as
    // the template allows.
    let n = COLD_BLOCK;
    let x = b.f32s(uniform(rng, n + 16, -1.0, 1.0));
    let y = b.f32s(uniform(rng, n, -1.0, 1.0));
    let out = b.zeros(n);
    let grid2d_w = 128u32;
    let grid2d = b.f32s(uniform(rng, 4 * grid2d_w, 0.0, 1.0));
    let grid2d_out = b.zeros(4 * grid2d_w);
    let spmv = spmv_args(b, rng, n);
    let sweep = b.f32s(uniform(rng, n * 8, 0.0, 0.01));
    let acc = b.zeros(1);
    b.w.buffers[acc].check = Check::RelTol(REDUCE_TOL);
    let hist = b.zeros(64);
    let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    let idx = b.u32s(&idx);
    let unique = b.f32s(uniform(rng, n, 0.0, 1.0));

    let tag = rng.next_u32();
    // Instances of each template handed out so far: instance `v` of a
    // template takes entry `v` of that template's variant permutation, so
    // every permutation is used exactly once per round.
    let mut handed = [0usize; TEMPLATES.len()];
    for mi in 0..modules {
        let mut order: Vec<usize> =
            (0..TEMPLATES.len()).flat_map(|t| std::iter::repeat_n(t, per_template)).collect();
        rng.shuffle(&mut order);
        let mut sources = Vec::new();
        let mut launches = Vec::new();
        for (ei, &t) in order.iter().enumerate() {
            let name = format!("cold_{}_{mi}_{ei}_{tag:08x}", TEMPLATES[t]);
            let v = handed[t];
            handed[t] += 1;
            let one = Dim3::linear(1);
            let (src, grid, args) = match TEMPLATES[t] {
                "stencil5" => (
                    k::stencil5(&name),
                    one,
                    vec![Arg::Buf(grid2d), Arg::Buf(grid2d_out), Arg::U32(4), Arg::U32(grid2d_w)],
                ),
                "trig_map" => (
                    k::trig_map(&name, trig_iters[v]),
                    one,
                    vec![Arg::Buf(x), Arg::Buf(out), Arg::U32(n), Arg::F32(rng.gen_f32())],
                ),
                "axpby" => {
                    let a = rng.gen_f32();
                    (
                        k::axpby(&name),
                        one,
                        vec![
                            Arg::Buf(x),
                            Arg::Buf(y),
                            Arg::Buf(out),
                            Arg::U32(n),
                            Arg::F32(a),
                            Arg::F32(1.0 - a),
                        ],
                    )
                }
                "rng_hist" => (
                    k::rng_hist(&name, walk_steps[v]),
                    one,
                    vec![Arg::Buf(hist), Arg::U32(rng.next_u32())],
                ),
                "spmv_csr" => (k::spmv_csr(&name), one, spmv.clone()),
                "md_force" => (
                    k::md_force(&name),
                    one,
                    vec![
                        Arg::Buf(y),
                        Arg::Buf(out),
                        Arg::U32(n),
                        Arg::U32(4),
                        Arg::F32(0.5 * rng.gen_f32()),
                    ],
                ),
                "lbm_stream" => (
                    k::lbm_stream(&name, lbm_dirs[v]),
                    one,
                    vec![Arg::Buf(x), Arg::Buf(out), Arg::U32(n)],
                ),
                "reduce_sum" => {
                    (k::reduce_sum(&name), one, vec![Arg::Buf(y), Arg::Buf(acc), Arg::U32(n)])
                }
                "line_sweep" => {
                    (k::line_sweep(&name), one, vec![Arg::Buf(sweep), Arg::U32(n), Arg::U32(8)])
                }
                "short_unique" => (
                    k::short_unique(&name, rng.gen_range(0..1024u32)),
                    one,
                    vec![Arg::Buf(unique), Arg::U32(n)],
                ),
                "transpose_naive" => (
                    k::transpose_naive(&name),
                    one,
                    vec![Arg::Buf(grid2d), Arg::Buf(grid2d_out), Arg::U32(1), Arg::U32(grid2d_w)],
                ),
                "gather" => (
                    k::gather(&name),
                    one,
                    vec![Arg::Buf(idx), Arg::Buf(y), Arg::Buf(out), Arg::U32(n)],
                ),
                other => unreachable!("unknown template {other}"),
            };
            sources.push((name, src));
            launches.push((ei, grid, args));
        }
        let m = b.module(&format!("jit_cold_{mi}"), sources);
        b.w.steps.push(Step::Load(m));
        for (ei, grid, args) in launches {
            b.launch(m, ei, grid, Dim3::linear(COLD_BLOCK), args);
        }
    }
}

/// Threads of every `jit_cold` launch: one warp.
const COLD_BLOCK: u32 = 32;

/// `trace_stream`: stencil5, gather (seeded indices), transpose_naive and
/// spmv_csr relaunched under the channel tracer. Every executing lane of
/// every global memory instruction pushes one record.
fn trace_stream(b: &mut Gen, rng: &mut Rng, scale: Scale) {
    let (n, reps) = match scale {
        Scale::Full => (4096u32, 4usize),
        Scale::Tiny => (512, 2),
    };
    let tag = rng.next_u32();
    let names: Vec<String> = ["stencil5", "gather", "transpose_naive", "spmv_csr"]
        .iter()
        .map(|t| format!("trace_{t}_{tag:08x}"))
        .collect();
    let sources = vec![
        k::stencil5(&names[0]),
        k::gather(&names[1]),
        k::transpose_naive(&names[2]),
        k::spmv_csr(&names[3]),
    ];
    let m = b.module("trace_stream", names.iter().cloned().zip(sources).collect());
    b.w.setup_loads.push(m);

    let w = 128u32;
    let h = n / w;
    let st_in = b.f32s(uniform(rng, h * w, 0.0, 1.0));
    let st_out = b.zeros(h * w);
    let src_len = 2 * n;
    let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(0..src_len)).collect();
    let idx = b.u32s(&idx);
    let src = b.f32s(uniform(rng, src_len, -1.0, 1.0));
    let gathered = b.zeros(n);
    let tr_out = b.zeros(h * w);
    let spmv = spmv_args(b, rng, n / 8);
    b.w.gather = Some(GatherCheck { idx, src, launches: reps as u64 });

    for _ in 0..reps {
        let st = Dim3::xyz(h - 2, (w - 2).div_ceil(BLOCK), 1);
        let args = vec![Arg::Buf(st_in), Arg::Buf(st_out), Arg::U32(h), Arg::U32(w)];
        b.launch(m, 0, st, Dim3::linear(BLOCK), args);
        let args = vec![Arg::Buf(idx), Arg::Buf(src), Arg::Buf(gathered), Arg::U32(n)];
        b.launch(m, 1, grid1d(n), Dim3::linear(BLOCK), args);
        let args = vec![Arg::Buf(st_in), Arg::Buf(tr_out), Arg::U32(h), Arg::U32(w)];
        b.launch(m, 2, Dim3::xyz(1, h, 1), Dim3::linear(w), args);
        b.launch(m, 3, grid1d(n / 8), Dim3::linear(BLOCK), spmv.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_ptx_and_inputs() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 7, Scale::Full);
            let b = Workload::generate(kind, 7, Scale::Full);
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn another_seed_gives_other_inputs_and_the_same_amount_of_work() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 1, Scale::Full);
            let b = Workload::generate(kind, 2, Scale::Full);
            assert_ne!(a.buffers, b.buffers, "{}", kind.name());
            assert_ne!(a.modules, b.modules, "{}", kind.name());
            assert_eq!(a.launches(), b.launches());
            let sizes = |w: &Workload| w.buffers.iter().map(|b| b.init.len()).collect::<Vec<_>>();
            assert_eq!(sizes(&a), sizes(&b), "buffer sizes are seed-independent");
        }
    }

    #[test]
    fn jit_cold_ptx_volume_is_seed_independent() {
        let lines = |seed| {
            let w = Workload::generate(Kind::JitCold, seed, Scale::Full);
            w.modules.iter().map(|m| m.ptx.lines().count()).sum::<usize>()
        };
        assert_eq!(lines(1), lines(2));
    }

    #[test]
    fn jit_cold_kernels_are_unique_and_launched_once() {
        let w = Workload::generate(Kind::JitCold, 3, Scale::Full);
        let mut seen = std::collections::HashSet::new();
        for s in &w.steps {
            if let Step::Launch(l) = s {
                assert!(seen.insert((l.kernel.module, l.kernel.entry)), "relaunched kernel");
                assert_eq!(l.grid.count(), 1, "one CTA per launch");
            }
        }
        let kernels: usize = w.modules.iter().map(|m| m.kernels.len()).sum();
        assert_eq!(seen.len(), kernels);
        assert!(w.launches() >= 100, "p90 needs at least 100 launches per round");
    }

    #[test]
    fn names_parse_back() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
