//! Seeded violation: a dangling happens-before edge. `gate` Acquires what
//! nothing publishes. `ready` is properly paired and must stay silent.

pub fn consume_only(cell: &Slot) -> u64 {
    cell.gate.load(Ordering::Acquire)
}

pub fn paired_writer(cell: &Slot) {
    cell.ready.store(1, Ordering::Release);
}

pub fn paired_reader(cell: &Slot) -> u64 {
    cell.ready.load(Ordering::Acquire)
}
