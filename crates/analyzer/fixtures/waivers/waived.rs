//! Waiver mechanics: a justified waiver (`//` or `////`) silences its
//! finding; a bare waiver, or one naming a rule the analyzer does not
//! have, is itself a violation (and suppresses nothing).

pub fn justified(x: &AtomicU64) -> u64 {
    // analyzer: allow(unlisted-ordering): deliberate — the waiver under test
    x.load(Ordering::Relaxed)
}

pub fn unjustified(x: &AtomicU64) -> u64 {
    // analyzer: allow(unlisted-ordering)
    x.load(Ordering::Relaxed)
}

pub fn unknown_rule(x: &AtomicU64) -> u64 {
    // analyzer: allow(unlisted-orderng): a typo in the rule id
    x.load(Ordering::Relaxed)
}

pub fn four_slashes(x: &AtomicU64) -> u64 {
    //// analyzer: allow(unlisted-ordering): a plain comment still waives
    x.load(Ordering::Relaxed)
}
