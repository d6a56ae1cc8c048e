//! # idiomatch-bench — regenerating every table and figure of §8
//!
//! One binary per paper artifact (see `DESIGN.md`'s experiment index):
//!
//! | artifact | binary | what it prints |
//! |---|---|---|
//! | Table 1  | `table1` | idioms detected by IDL vs Polly vs ICC per class |
//! | Table 2  | `table2` | compile time without/with IDL, overhead % |
//! | Table 3  | `table3` | per-API runtime (ms) on CPU/iGPU/GPU |
//! | Figure 16 | `fig16` | idiom instances per benchmark by class |
//! | Figure 17 | `fig17` | runtime coverage per benchmark |
//! | Figure 18 | `fig18` | speedup vs sequential per platform (± lazy copy) |
//! | Figure 19 | `fig19` | IDL best vs handwritten OpenMP/OpenCL |
//!
//! Beyond the paper artifacts, five binaries write machine-readable
//! `BENCH_*.json` artifacts via the shared [`report`] renderer:
//! `bench_json` (detection census and solver steps), `table_replace`
//! (suite-wide replacement coverage), `fuzz` (the `progen` differential
//! fuzz driver), `corpus` (the batch analysis service) and `offload`
//! (the thread-pool backend's bitwise sweep). Each artifact holds only
//! what the code computes — no timings — so CI regenerates it and fails
//! on any `git diff`; wall-clock performance belongs to the repository
//! benchmark (`perfbench/`).
//!
//! The shared measurement logic lives here so the binaries stay thin.

pub mod report;

use idiomatch_core::Analysis;
use std::collections::BTreeMap;

/// Analyses for all 21 benchmarks, in suite order.
#[must_use]
pub fn analyze_all() -> Vec<Analysis> {
    benchsuite::all()
        .iter()
        .map(idiomatch_core::analyze)
        .collect()
}

/// The Table 1 rows: per-detector counts by idiom class.
#[must_use]
pub fn table1(analyses: &[Analysis]) -> BTreeMap<&'static str, [usize; 5]> {
    // columns: scalar red, histogram, stencil, matrix, sparse
    let mut idl = [0usize; 5];
    let mut polly = [0usize; 5];
    let mut icc = [0usize; 5];
    for a in analyses {
        idl[0] += a.by_class.get("Scalar Reduction").copied().unwrap_or(0);
        idl[1] += a.by_class.get("Histogram Reduction").copied().unwrap_or(0);
        idl[2] += a.by_class.get("Stencil").copied().unwrap_or(0);
        idl[3] += a.by_class.get("Matrix Op.").copied().unwrap_or(0);
        idl[4] += a.by_class.get("Sparse Matrix Op.").copied().unwrap_or(0);
        polly[0] += a.polly.0;
        polly[2] += a.polly.1;
        icc[0] += a.icc;
    }
    BTreeMap::from([("IDL", idl), ("Polly", polly), ("ICC", icc)])
}

/// Renders a Markdown-ish table to stdout.
pub fn print_rows(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(k, c)| format!("{:>w$}", c, w = widths[k]))
            .collect();
        println!("| {} |", s.join(" | "));
    };
    line(headers.iter().map(|s| (*s).to_owned()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Formats a time in ms like the paper's Table 3 (two decimals).
#[must_use]
pub fn ms(t: f64) -> String {
    format!("{t:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_paper() {
        let analyses = analyze_all();
        let t = table1(&analyses);
        assert_eq!(t["IDL"], [45, 5, 6, 1, 3]);
        assert_eq!(t["Polly"], [3, 0, 5, 0, 0]);
        assert_eq!(t["ICC"], [28, 0, 0, 0, 0]);
    }

    #[test]
    fn figure18_shape_holds() {
        let analyses = analyze_all();
        let get = |n: &str| analyses.iter().find(|a| a.name == n).unwrap();
        // sgemm: the external GPU wins by a large factor (paper: >275x).
        let sgemm = get("sgemm");
        let (_, gpu) = idiomatch_core::speedup_on(sgemm, hetero::Platform::Gpu, false).unwrap();
        let (_, igpu) = idiomatch_core::speedup_on(sgemm, hetero::Platform::IGpu, false).unwrap();
        let (_, cpu) = idiomatch_core::speedup_on(sgemm, hetero::Platform::Cpu, false).unwrap();
        assert!(gpu > 50.0, "sgemm GPU speedup {gpu}");
        assert!(gpu > igpu && igpu > cpu, "sgemm platform order");
        // MG and histo favour the integrated GPU (paper §8.3).
        for n in ["MG", "histo"] {
            let a = get(n);
            let (_, ig) = idiomatch_core::speedup_on(a, hetero::Platform::IGpu, false).unwrap();
            let (_, dg) = idiomatch_core::speedup_on(a, hetero::Platform::Gpu, false).unwrap();
            assert!(ig > dg, "{n}: iGPU {ig} should beat eager dGPU {dg}");
        }
        // tpacf: CPU beats the discrete GPU (transfer-dominated).
        let tpacf = get("tpacf");
        let (_, cpu) = idiomatch_core::speedup_on(tpacf, hetero::Platform::Cpu, true).unwrap();
        let (_, tgpu) = idiomatch_core::speedup_on(tpacf, hetero::Platform::Gpu, false).unwrap();
        assert!(cpu > tgpu, "tpacf: CPU {cpu} should beat eager GPU {tgpu}");
        // CG: lazy copying is what makes the GPU worthwhile.
        let cg = get("CG");
        let (_, lazy) = idiomatch_core::speedup_on(cg, hetero::Platform::Gpu, true).unwrap();
        let (_, eager) = idiomatch_core::speedup_on(cg, hetero::Platform::Gpu, false).unwrap();
        assert!(lazy > eager, "CG: lazy {lazy} > eager {eager}");
        assert!(lazy > 4.0, "CG speedup {lazy}");
    }
}
