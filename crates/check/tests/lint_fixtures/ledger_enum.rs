//! Fixture: `ledger-exhaustive`. The enum grows a variant the ledger
//! table has never heard of, and a classification match hides behind a
//! wildcard arm. (Mounted at the virtual path
//! `crates/core/src/error.rs` so the enum parse applies.)

pub enum LfError {
    InvalidInput { detail: String },
    Overloaded { queue_depth: usize },
    DeadlineExceeded { waited_ms: u64 },
    ExecutePanicked { fingerprint: String },
    ResourceExhausted { bytes: usize },
    PlanDecode { detail: String },
    BackendUnavailable { name: String },
}

fn classify(e: &LfError) -> &'static str {
    match e {
        LfError::InvalidInput { .. } => "rejected",
        _ => "failed",
    }
}
