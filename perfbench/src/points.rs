//! The fixed simulation points every workload draws from, and the two
//! scales they run at (paper scale for the benchmark, miniatures for its
//! own smoke tests).

use wib_core::MachineConfig;
use wib_isa::program::Program;
use wib_workloads::suite::{fp, int, olden};
use wib_workloads::Workload;

/// Warm-up and detailed instruction counts of one point.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    pub warmup: u64,
    pub insts: u64,
}

/// Kernel sizes and run lengths.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `scale` field of serve result documents (`eval` or `tiny`).
    pub name: &'static str,
    pub suite: fn() -> Vec<Workload>,
    /// Builds one kernel of `suite` by name, for per-kernel spans.
    pub kernel: fn(&str) -> Option<Workload>,
    /// Protocol of `miss_bound` and `ilp_bound` points.
    pub engine: Protocol,
    /// Protocol of `serve_sweep` jobs.
    pub serve: Protocol,
}

impl Scale {
    /// The paper-scale `eval_suite()` instances.
    pub const EVAL: Scale = Scale {
        name: "eval",
        suite: wib_workloads::eval_suite,
        kernel: eval_kernel,
        engine: Protocol {
            warmup: 200_000,
            insts: 200_000,
        },
        serve: Protocol {
            warmup: 20_000,
            insts: 20_000,
        },
    };

    /// The `test_suite()` miniatures. The shortest of them halts after
    /// 1576 instructions, so the warm-up ends before any of them halts,
    /// as it does at paper scale (a warm-up that runs past `halt` is a
    /// known engine defect; see README.md).
    pub const TINY: Scale = Scale {
        name: "tiny",
        suite: wib_workloads::test_suite,
        kernel: tiny_kernel,
        engine: Protocol {
            warmup: 1_000,
            insts: 1_000,
        },
        serve: Protocol {
            warmup: 500,
            insts: 500,
        },
    };
}

/// Miss-bound kernels: pointer chasing (Olden) and large-footprint codes.
pub const MISS_KERNELS: [&str; 8] = [
    "em3d",
    "mst",
    "perimeter",
    "treeadd",
    "art",
    "facerec",
    "parser",
    "vpr",
];

/// ILP- and branch-bound kernels: the rest of the suite.
pub const ILP_KERNELS: [&str; 10] = [
    "bzip2", "gcc", "gzip", "perlbmk", "vortex", "applu", "galgel", "mgrid", "swim", "wupwise",
];

/// One kernel on one machine.
#[derive(Debug, Clone)]
pub struct Point {
    pub kernel: &'static str,
    pub cfg: MachineConfig,
    /// Canonical spec (`MachineConfig::to_spec`).
    pub spec: String,
}

fn point(kernel: &'static str, cfg: MachineConfig) -> Point {
    Point {
        kernel,
        spec: cfg.to_spec(),
        cfg,
    }
}

/// `miss_bound`: the miss-bound kernels on both paper machines.
pub fn miss_bound() -> Vec<Point> {
    MISS_KERNELS
        .iter()
        .flat_map(|&k| {
            [
                point(k, MachineConfig::base_8way()),
                point(k, MachineConfig::wib_2k()),
            ]
        })
        .collect()
}

/// `ilp_bound`: the ILP-bound kernels on the base machine only.
pub fn ilp_bound() -> Vec<Point> {
    ILP_KERNELS
        .iter()
        .map(|&k| point(k, MachineConfig::base_8way()))
        .collect()
}

/// `serve_sweep`: every kernel of the suite on both paper machines.
pub fn serve_grid() -> Vec<Point> {
    MISS_KERNELS
        .iter()
        .chain(ILP_KERNELS.iter())
        .flat_map(|&k| {
            [
                point(k, MachineConfig::base_8way()),
                point(k, MachineConfig::wib_2k()),
            ]
        })
        .collect()
}

/// Identity of a program image, to confirm a per-kernel build matches
/// the suite's instance.
pub fn image_digest(p: &Program) -> u64 {
    let mut bytes = Vec::with_capacity(p.code.len() * 4 + 16);
    bytes.extend_from_slice(&p.code_base.to_le_bytes());
    bytes.extend_from_slice(&p.entry.to_le_bytes());
    for w in &p.code {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    for (base, data) in &p.data {
        bytes.extend_from_slice(&base.to_le_bytes());
        bytes.extend_from_slice(data);
    }
    wib_core::fnv1a64(&bytes)
}

/// The sizes of `eval_suite()`; the traced set-up checks each build
/// against the suite's instance, so a drift fails the run.
fn eval_kernel(name: &str) -> Option<Workload> {
    Some(match name {
        "bzip2" => int::bzip2(1 << 20, 2),
        "gcc" => int::gcc(65_536, 6),
        "gzip" => int::gzip(262_144, 2),
        "parser" => int::parser(8_192, 200_000),
        "perlbmk" => int::perlbmk(220_000),
        "vortex" => int::vortex(32_768, 120_000),
        "vpr" => int::vpr(512, 120_000),
        "applu" => fp::applu(8_192, 120),
        "art" => fp::art(65_536, 4, 2),
        "facerec" => fp::facerec(512, 512, 8),
        "galgel" => fp::galgel(768, 3),
        "mgrid" => fp::mgrid(64, 4),
        "swim" => fp::swim(262_144, 4),
        "wupwise" => fp::wupwise(131_072, 4),
        "em3d" => olden::em3d(20_480, 10, 4),
        "mst" => olden::mst(1024, 16, 32, 8),
        "perimeter" => olden::perimeter(120_000, 8),
        "treeadd" => olden::treeadd(18, 6),
        _ => return None,
    })
}

/// The sizes of `test_suite()`.
fn tiny_kernel(name: &str) -> Option<Workload> {
    Some(match name {
        "bzip2" => int::bzip2(2048, 2),
        "gcc" => int::gcc(256, 2),
        "gzip" => int::gzip(2048, 1),
        "parser" => int::parser(256, 500),
        "perlbmk" => int::perlbmk(500),
        "vortex" => int::vortex(256, 500),
        "vpr" => int::vpr(16, 500),
        "applu" => fp::applu(128, 2),
        "art" => fp::art(64, 2, 2),
        "facerec" => fp::facerec(16, 16, 2),
        "galgel" => fp::galgel(16, 2),
        "mgrid" => fp::mgrid(8, 2),
        "swim" => fp::swim(128, 2),
        "wupwise" => fp::wupwise(64, 2),
        "em3d" => olden::em3d(64, 4, 2),
        "mst" => olden::mst(16, 4, 8, 2),
        "perimeter" => olden::perimeter(64, 2),
        "treeadd" => olden::treeadd(6, 2),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_suite() {
        assert_eq!(miss_bound().len(), 16);
        assert_eq!(ilp_bound().len(), 10);
        assert_eq!(serve_grid().len(), 36);
        let names: Vec<String> = wib_workloads::test_suite()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        for k in MISS_KERNELS.iter().chain(ILP_KERNELS.iter()) {
            assert!(names.iter().any(|n| n == k), "{k} not in the suite");
        }
    }

    #[test]
    fn tiny_kernel_table_matches_test_suite() {
        for w in wib_workloads::test_suite() {
            let built = tiny_kernel(w.name()).expect("every kernel has a size");
            assert_eq!(image_digest(built.program()), image_digest(w.program()));
        }
    }
}
