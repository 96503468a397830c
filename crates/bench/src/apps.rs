//! The deterministic guest applications of the workload sweep: the three
//! kernels of the differential suite (the warp-FFT pipeline, a 5-point
//! stencil, CSR SpMV) and the fifteen SpecAccel-like benchmarks of
//! `workloads::specaccel`. `inject_overhead` instruments them under every
//! plan configuration; `sim_wall` times their native execution.

use cuda::{Driver, FatBinary, KernelArg};
use gpu::Dim3;
use workloads::specaccel::{self, Size};

/// Launches per kernel of the `*_multi` variants: grid-dim sampling
/// instruments the first and extrapolates the rest.
pub const SAMPLING_ROUNDS: u32 = 4;

/// A deterministic guest application.
pub type App = fn(&Driver);

fn fft_app_rounds(drv: &Driver, rounds: u32) {
    const BLOCKS: u32 = 8;
    let bytes = BLOCKS as u64 * 32 * 8;
    let ctx = drv.ctx_create().unwrap();
    let src = workloads::fft::soft_fft_kernel_ptx();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", src)).unwrap();
    let f = drv.module_get_function(&m, "fft32_soft").unwrap();
    let din = drv.mem_alloc(bytes).unwrap();
    let dout = drv.mem_alloc(bytes).unwrap();
    let input: Vec<u8> = (0..BLOCKS * 32)
        .flat_map(|_| {
            let mut rec = [0u8; 8];
            rec[..4].copy_from_slice(&1.0f32.to_le_bytes());
            rec
        })
        .collect();
    drv.memcpy_htod(din, &input).unwrap();
    for _ in 0..rounds {
        drv.launch_kernel(
            &f,
            Dim3::linear(BLOCKS),
            Dim3::linear(32),
            &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
        )
        .unwrap();
    }
}

/// The FFT pipeline, one launch.
pub fn run_fft_app(drv: &Driver) {
    fft_app_rounds(drv, 1);
}

/// The FFT pipeline, [`SAMPLING_ROUNDS`] launches.
pub fn run_fft_multi(drv: &Driver) {
    fft_app_rounds(drv, SAMPLING_ROUNDS);
}

fn stencil_app_rounds(drv: &Driver, rounds: u32) {
    let (h, w) = (16u32, 128u32);
    let n = h * w;
    let ctx = drv.ctx_create().unwrap();
    let src = format!(".version 6.0\n{}", workloads::kernels::stencil5("step"));
    let m = drv.module_load(&ctx, FatBinary::from_ptx("stencil", src)).unwrap();
    let f = drv.module_get_function(&m, "step").unwrap();
    let a = drv.mem_alloc(n as u64 * 4).unwrap();
    let b = drv.mem_alloc(n as u64 * 4).unwrap();
    let init: Vec<u8> = (0..n).flat_map(|i| ((i % 17) as f32).to_bits().to_le_bytes()).collect();
    drv.memcpy_htod(a, &init).unwrap();
    for _ in 0..rounds {
        drv.launch_kernel(
            &f,
            Dim3::xyz(h - 2, 1, 1),
            Dim3::linear(128),
            &[KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::U32(h), KernelArg::U32(w)],
        )
        .unwrap();
    }
}

/// The 5-point stencil, one launch.
pub fn run_stencil_app(drv: &Driver) {
    stencil_app_rounds(drv, 1);
}

/// The 5-point stencil, [`SAMPLING_ROUNDS`] launches.
pub fn run_stencil_multi(drv: &Driver) {
    stencil_app_rounds(drv, SAMPLING_ROUNDS);
}

fn spmv_app_rounds(drv: &Driver, rounds: u32) {
    let rows = 64u32;
    let ctx = drv.ctx_create().unwrap();
    let src = format!(".version 6.0\n{}", workloads::kernels::spmv_csr("spmv"));
    let m = drv.module_load(&ctx, FatBinary::from_ptx("spmv", src)).unwrap();
    let f = drv.module_get_function(&m, "spmv").unwrap();
    let mut rowptr = vec![0u32];
    let mut cols = Vec::new();
    for r in 0..rows {
        for j in 0..=(r % 9) {
            cols.push((r * 7 + j * 13) % rows);
        }
        rowptr.push(cols.len() as u32);
    }
    let alloc_u32 = |vals: &[u32]| {
        let a = drv.mem_alloc(vals.len() as u64 * 4).unwrap();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        drv.memcpy_htod(a, &bytes).unwrap();
        a
    };
    let alloc_f32 = |n: u32, f: &dyn Fn(u32) -> f32| {
        let a = drv.mem_alloc(n as u64 * 4).unwrap();
        let bytes: Vec<u8> = (0..n).flat_map(|i| f(i).to_bits().to_le_bytes()).collect();
        drv.memcpy_htod(a, &bytes).unwrap();
        a
    };
    let d_rowptr = alloc_u32(&rowptr);
    let d_cols = alloc_u32(&cols);
    let d_vals = alloc_f32(cols.len() as u32, &|i| 1.0 / (1.0 + i as f32));
    let x = alloc_f32(rows, &|_| 1.0);
    let y = alloc_f32(rows, &|_| 0.0);
    for _ in 0..rounds {
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(128),
            &[
                KernelArg::Ptr(d_rowptr),
                KernelArg::Ptr(d_cols),
                KernelArg::Ptr(d_vals),
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::U32(rows),
            ],
        )
        .unwrap();
    }
}

/// CSR SpMV, one launch.
pub fn run_spmv_app(drv: &Driver) {
    spmv_app_rounds(drv, 1);
}

/// CSR SpMV, [`SAMPLING_ROUNDS`] launches.
pub fn run_spmv_multi(drv: &Driver) {
    spmv_app_rounds(drv, SAMPLING_ROUNDS);
}

/// SpecAccel runners, one `fn(&Driver)` per benchmark so every workload
/// shares the same sweep machinery.
macro_rules! spec_app {
    ($fn_name:ident, $bench:literal) => {
        /// Runs the SpecAccel benchmark of the same name at `Size::Small`.
        pub fn $fn_name(drv: &Driver) {
            specaccel::benchmark($bench).unwrap().run(drv, Size::Small).unwrap();
        }
    };
}

spec_app!(spec_ostencil, "ostencil");
spec_app!(spec_olbm, "olbm");
spec_app!(spec_omriq, "omriq");
spec_app!(spec_md, "md");
spec_app!(spec_palm, "palm");
spec_app!(spec_ep, "ep");
spec_app!(spec_clvrleaf, "clvrleaf");
spec_app!(spec_cg, "cg");
spec_app!(spec_seismic, "seismic");
spec_app!(spec_sp, "sp");
spec_app!(spec_csp, "csp");
spec_app!(spec_mini_ghost, "miniGhost");
spec_app!(spec_ilbdc, "ilbdc");
spec_app!(spec_swim, "swim");
spec_app!(spec_bt, "bt");

/// The eighteen workloads, by report name.
pub const WORKLOADS: [(&str, App); 18] = [
    ("fft", run_fft_app),
    ("stencil", run_stencil_app),
    ("spmv", run_spmv_app),
    ("ostencil", spec_ostencil),
    ("olbm", spec_olbm),
    ("omriq", spec_omriq),
    ("md", spec_md),
    ("palm", spec_palm),
    ("ep", spec_ep),
    ("clvrleaf", spec_clvrleaf),
    ("cg", spec_cg),
    ("seismic", spec_seismic),
    ("sp", spec_sp),
    ("csp", spec_csp),
    ("miniGhost", spec_mini_ghost),
    ("ilbdc", spec_ilbdc),
    ("swim", spec_swim),
    ("bt", spec_bt),
];
