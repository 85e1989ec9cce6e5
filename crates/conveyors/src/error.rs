//! Conveyor error types.

/// Errors surfaced by conveyor construction and operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConveyorError {
    /// Buffer capacity must hold at least one item.
    ZeroCapacity,
    /// The slab capacity does not fit the ready word's item-count field.
    CapacityTooLarge { capacity: usize, max: usize },
    /// A destination PE outside the grid.
    InvalidDestination { dst: usize, n_pes: usize },
    /// `push` after this PE signalled done.
    PushAfterDone,
    /// Underlying symmetric-memory failure (a bug in the conveyor itself).
    Shmem(String),
}

impl std::fmt::Display for ConveyorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConveyorError::ZeroCapacity => write!(f, "conveyor capacity must be at least 1 item"),
            ConveyorError::CapacityTooLarge { capacity, max } => {
                write!(f, "conveyor slab capacity {capacity} exceeds the maximum of {max} items")
            }
            ConveyorError::InvalidDestination { dst, n_pes } => {
                write!(f, "destination PE {dst} out of range ({n_pes} PEs)")
            }
            ConveyorError::PushAfterDone => {
                write!(f, "push called after done() was signalled on this PE")
            }
            ConveyorError::Shmem(m) => write!(f, "symmetric memory error: {m}"),
        }
    }
}

impl std::error::Error for ConveyorError {}

impl From<fabsp_shmem::ShmemError> for ConveyorError {
    fn from(e: fabsp_shmem::ShmemError) -> Self {
        ConveyorError::Shmem(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ConveyorError::ZeroCapacity.to_string().contains("at least 1"));
        assert!(ConveyorError::CapacityTooLarge { capacity: 70_000, max: 65_535 }
            .to_string()
            .contains("70000 exceeds the maximum of 65535"));
        assert!(ConveyorError::InvalidDestination { dst: 7, n_pes: 4 }
            .to_string()
            .contains("PE 7"));
        assert!(ConveyorError::PushAfterDone.to_string().contains("done"));
    }

    #[test]
    fn from_shmem_error() {
        let e: ConveyorError = fabsp_shmem::ShmemError::EmptyGrid.into();
        assert!(matches!(e, ConveyorError::Shmem(_)));
    }
}
