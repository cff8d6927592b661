//! The unified error taxonomy of the LiteForm runtime.
//!
//! Before this module existed, the stack mixed three failure styles:
//! `lf_sparse::SparseError` for structural problems, panics for anything
//! the kernels or the composer considered "impossible", and ad-hoc
//! `expect`s in the serving layer. [`LfError`] folds them into one typed
//! surface so every caller — and above all the serving engine, which
//! must keep a precise outcome ledger — can classify a failure without
//! string-matching panic payloads:
//!
//! * **Rejections** ([`LfError::InvalidInput`], [`LfError::Overloaded`])
//!   happen *before* any plan is touched: the payload is malformed or
//!   the admission gate is closed. Nothing was computed; nothing is
//!   cached.
//! * **Deadline failures** ([`LfError::DeadlineExceeded`]) mean the
//!   cooperative cancellation token fired: partial results are
//!   discarded, never served.
//! * **Contained panics** ([`LfError::ExecutePanicked`]) are unwinds
//!   caught at the request boundary whose reference rescue also failed.
//!   The request fails; the process, the worker pool, and every other
//!   in-flight request keep going. (A composition that panics never
//!   surfaces as an error: the serving engine degrades it to a baseline
//!   CSR plan.)
//! * **Resource failures** ([`LfError::ResourceExhausted`]) are
//!   injectable allocation/capacity failures surfaced as typed errors
//!   instead of aborts.

use lf_sparse::SparseError;
use std::fmt;

/// Result alias for the LiteForm runtime surface.
pub type LfResult<T> = std::result::Result<T, LfError>;

/// Every way a LiteForm serving request can fail, as one typed surface.
#[derive(Debug)]
pub enum LfError {
    /// The payload failed strict CSR validation (or a dimension check):
    /// rejected at ingress, before fingerprinting, caching, or any
    /// kernel execution.
    InvalidInput(SparseError),
    /// The admission gate refused the request: too many requests already
    /// in flight.
    Overloaded {
        /// Requests in flight when the gate closed.
        inflight: usize,
        /// The configured admission limit.
        max_inflight: usize,
    },
    /// The request's deadline expired; any partial work was cancelled
    /// cooperatively and discarded.
    DeadlineExceeded {
        /// Which stage observed the expiry.
        stage: &'static str,
    },
    /// Plan execution panicked; the unwind was caught at the request
    /// boundary (and the offending cached plan quarantined).
    ExecutePanicked {
        /// Stringified panic payload.
        detail: String,
    },
    /// An allocation or capacity limit failed in a way that was surfaced
    /// as an error rather than an abort.
    ResourceExhausted {
        /// What ran out.
        what: String,
    },
    /// A persisted plan record failed decoding or validation (bad
    /// framing, checksum mismatch, version drift, hostile contents).
    /// The record is rejected — skipped, counted, never served — and
    /// the request path falls back to a fresh composition.
    PlanDecode(crate::codec::CodecError),
}

impl LfError {
    /// Stable short code for logs and counters.
    pub fn code(&self) -> &'static str {
        match self {
            LfError::InvalidInput(_) => "invalid_input",
            LfError::Overloaded { .. } => "overloaded",
            LfError::DeadlineExceeded { .. } => "deadline_exceeded",
            LfError::ExecutePanicked { .. } => "execute_panicked",
            LfError::ResourceExhausted { .. } => "resource_exhausted",
            LfError::PlanDecode(_) => "plan_decode",
        }
    }

    /// `true` for failures rejected at ingress (no plan work started).
    pub fn is_rejection(&self) -> bool {
        matches!(self, LfError::InvalidInput(_) | LfError::Overloaded { .. })
    }
}

impl fmt::Display for LfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfError::InvalidInput(e) => write!(f, "invalid input: {e}"),
            LfError::Overloaded {
                inflight,
                max_inflight,
            } => write!(
                f,
                "overloaded: {inflight} requests in flight (max {max_inflight})"
            ),
            LfError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded during {stage}")
            }
            LfError::ExecutePanicked { detail } => {
                write!(f, "execution panicked: {detail}")
            }
            LfError::ResourceExhausted { what } => write!(f, "resource exhausted: {what}"),
            LfError::PlanDecode(e) => write!(f, "plan record rejected: {e}"),
        }
    }
}

impl std::error::Error for LfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LfError::InvalidInput(e) => Some(e),
            LfError::PlanDecode(e) => Some(e),
            LfError::Overloaded { .. }
            | LfError::DeadlineExceeded { .. }
            | LfError::ExecutePanicked { .. }
            | LfError::ResourceExhausted { .. } => None,
        }
    }
}

impl From<SparseError> for LfError {
    fn from(e: SparseError) -> Self {
        LfError::InvalidInput(e)
    }
}

impl From<crate::codec::CodecError> for LfError {
    fn from(e: crate::codec::CodecError) -> Self {
        LfError::PlanDecode(e)
    }
}

/// Render a caught panic payload (`Box<dyn Any>`) into the human-readable
/// string the [`LfError`] panic variants carry.
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_codes_are_informative() {
        let e = LfError::from(SparseError::InvalidFormat("row_ptr not monotone".into()));
        assert_eq!(e.code(), "invalid_input");
        assert!(e.is_rejection());
        assert!(e.to_string().contains("row_ptr"));
        assert!(std::error::Error::source(&e).is_some());

        let e = LfError::Overloaded {
            inflight: 64,
            max_inflight: 32,
        };
        assert!(e.is_rejection());
        assert!(e.to_string().contains("64"));

        let e = LfError::DeadlineExceeded { stage: "execute" };
        assert!(!e.is_rejection());
        assert_eq!(e.code(), "deadline_exceeded");

        let e = LfError::ExecutePanicked {
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert!(!e.is_rejection());
    }

    #[test]
    fn panic_payloads_stringify() {
        let p = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_detail(p.as_ref()), "static str");
        let msg = String::from("owned");
        let p = std::panic::catch_unwind(move || panic!("{msg}")).unwrap_err();
        assert_eq!(panic_detail(p.as_ref()), "owned");
    }
}
