//! Seeded violation: blocking calls inside mailbox handlers — directly,
//! through a turbofish registration, and transitively through a same-file
//! free function. The same collective in superstep code, outside the
//! registration, is fine.

pub fn run(pe: &Pe, prof: &mut ProfilerCtx) {
    let mut actor = prof
        .selector(1, move |_mb, slot: u64, _from, _ctx| {
            pe.barrier_all();
            table[slot as usize] += 1;
        })
        .unwrap();
    pe.barrier_all();
    let mut other = Selector::new(pe, 1, cfg, |_mb, m: u64, _from, _ctx| {
        let _ = rx.recv();
    });
    let mut typed = Selector::<u64>::new(pe, 1, cfg, |_mb, m: u64, _from, _ctx| {
        pe.barrier_all();
    });
}

fn slow_path() {
    bus.lock();
}

fn indirect(pe: &Pe) {
    let _s = Selector::new(pe, 1, cfg, move |_mb, _m: u64, _from, _ctx| {
        slow_path();
    });
}
