//! The paper-reproduction experiments, one module per evaluation section.
//!
//! Each function prints the regenerated table/figure with the paper's
//! reported values alongside and writes its artifacts. A correctness claim
//! (exactness, byte identity, reconciliation) is an `assert!` in the run that
//! computes it, after the artifacts are written; a shape claim (who wins,
//! ratios, crossovers) is printed and left to the reader, since a pricing
//! change can legitimately flip it.

pub mod ablation;
pub mod chaos_sweep;
pub mod e2e;
pub mod figures;
pub mod profile;
pub mod serve_load;
pub mod tables;
pub mod trace;

/// Repetition policy: `quick` trades statistical depth for runtime.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Reduced repetitions / sweep points.
    pub quick: bool,
}

impl RunConfig {
    /// Repetitions, scaled.
    pub fn reps(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(3)
        } else {
            full
        }
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
}
