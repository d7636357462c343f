//! Thread-count equivalence for the detection matrix.
//!
//! The executor fans independent (bug, method) runs out over OS worker
//! threads; each scenario builds its own single-threaded simulator. The
//! rows must therefore be completely independent of the thread count —
//! any difference would mean the kernel leaks state across simulator
//! instances or the pool reorders results.

use autovision::Bug;
use verif::{Campaign, MatrixConfig};

/// The matrix rows at `threads` workers. `matrix_rows()` drops any row
/// that is not a matrix row, so first check that every scenario came
/// back as one: a panicking scenario must not pass by vanishing.
fn matrix_rows(threads: usize) -> Vec<verif::MatrixRow> {
    let mc = MatrixConfig::default();
    let report = Campaign::builder()
        .base(mc.base.clone())
        .budget_cycles(mc.budget_cycles)
        .threads(threads)
        .matrix()
        .build()
        .run();
    assert!(
        report.failures().is_empty(),
        "{threads}-thread matrix has failed rows: {}",
        report.digest()
    );
    let rows = report.matrix_rows();
    assert_eq!(rows.len(), Bug::ALL.len() + 1, "{threads}-thread matrix");
    rows
}

#[test]
fn matrix_rows_are_identical_across_thread_counts() {
    let one = matrix_rows(1);
    let four = matrix_rows(4);
    let eight = matrix_rows(8);
    assert_eq!(one, four, "4-thread matrix differs from serial run");
    assert_eq!(one, eight, "8-thread matrix differs from serial run");
}
