//! Fixture: a scoped worker pool fanning results back over a channel
//! inside the simulation kernel must be rejected. The kernel runs one
//! world on one thread; parallelism lives only in pds-bench's sweep
//! executor, across whole worlds. The channel is caught as well as the
//! threads: mpsc receive order depends on host scheduling.

fn round(work: &[Vec<u64>]) -> Vec<u64> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        for ids in work {
            let tx = tx.clone();
            s.spawn(move || tx.send(ids.len() as u64));
        }
    });
    drop(tx);
    rx.iter().collect()
}
