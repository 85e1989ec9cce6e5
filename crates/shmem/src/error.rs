//! Error types for the SHMEM substrate.

/// Errors surfaced by symmetric-memory and SPMD operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmemError {
    /// A PE rank outside `0..n_pes`.
    InvalidPe { pe: usize, n_pes: usize },
    /// A transfer exceeded the bounds of the target symmetric region.
    OutOfBounds {
        offset: usize,
        len: usize,
        region_len: usize,
    },
    /// A [`crate::Grid`] with zero nodes or zero PEs per node.
    EmptyGrid,
    /// One or more SPMD PE threads panicked; the message of the first is kept.
    PePanicked { pe: usize, message: String },
    /// A collective was invoked with inconsistent arguments across PEs
    /// (e.g. different lengths in `alloc_sym`).
    CollectiveMismatch(String),
    /// A checkpoint was requested at a non-quiescent cut: some PE still
    /// had non-blocking puts pending (issue a [`crate::Pe::quiet`] or
    /// barrier first). The cut would not be globally consistent.
    CheckpointNotQuiescent { pending_nbi: usize },
}

impl std::fmt::Display for ShmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmemError::InvalidPe { pe, n_pes } => {
                write!(f, "PE {pe} out of range (grid has {n_pes} PEs)")
            }
            ShmemError::OutOfBounds {
                offset,
                len,
                region_len,
            } => write!(
                f,
                "transfer [{offset}, {}) exceeds symmetric region of length {region_len}",
                offset + len
            ),
            ShmemError::EmptyGrid => write!(f, "grid must have at least one node and one PE"),
            ShmemError::PePanicked { pe, message } => {
                write!(f, "PE {pe} panicked: {message}")
            }
            ShmemError::CollectiveMismatch(m) => write!(f, "collective mismatch: {m}"),
            ShmemError::CheckpointNotQuiescent { pending_nbi } => write!(
                f,
                "checkpoint rejected: cut is not quiescent ({pending_nbi} non-blocking puts pending)"
            ),
        }
    }
}

impl std::error::Error for ShmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ShmemError::OutOfBounds {
            offset: 10,
            len: 5,
            region_len: 12,
        };
        assert!(e.to_string().contains("[10, 15)"));
        assert!(e.to_string().contains("12"));
        let e = ShmemError::InvalidPe { pe: 9, n_pes: 4 };
        assert!(e.to_string().contains("PE 9"));
    }
}
