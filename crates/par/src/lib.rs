//! The workspace's one fan-out: contiguous blocks of independent pieces,
//! one per core, on one `std::thread::scope` — the paper's "along the
//! dimension of the ensemble" (§III-A3). Callers hand it pieces whose bits
//! depend only on the piece's global index, so no result depends on the
//! core count. No pool, no knob: a serial cycle fans out twice and a scope
//! costs tens of microseconds. Code already running inside a block or on an
//! `hpc::mpi` rank thread never fans out again.

#![warn(missing_docs)]

/// The number of workers a fan-out uses: the machine's available
/// parallelism, 1 when it cannot be queried.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Runs `f(first, block)` over `data` cut into at most [`cores`] contiguous
/// blocks of whole `chunk`-long pieces (only the last piece may be
/// shorter), where `first` is the global index of the block's first piece.
/// The calling thread runs the first block; every other block runs on a
/// scoped worker that opens its spans under the caller's span path.
///
/// # Panics
/// Panics if `chunk == 0`, and when `f` panics.
pub fn for_each_block<T: Send>(data: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    for_each_block_on(cores(), data, chunk, f);
}

/// `(0..n).map(f)` collected in index order, the indices spread over
/// blocks as by [`for_each_block`].
pub fn map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    map_on(cores(), n, f)
}

/// [`for_each_block`] on at most `workers` blocks.
fn for_each_block_on<T: Send>(
    workers: usize,
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "par: chunk must be positive");
    let pieces = data.len().div_ceil(chunk);
    if pieces == 0 {
        return;
    }
    let per_block = pieces.div_ceil(workers.clamp(1, pieces));
    if per_block == pieces {
        return f(0, data);
    }
    let (f, path) = (&f, telemetry::span_path());
    std::thread::scope(|scope| {
        let (head, tail) = data.split_at_mut(per_block * chunk);
        for (b, block) in tail.chunks_mut(per_block * chunk).enumerate() {
            let path = &path;
            scope.spawn(move || {
                let _path = path.adopt();
                f((b + 1) * per_block, block);
            });
        }
        f(0, head);
    });
}

/// [`map`] on at most `workers` blocks.
fn map_on<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_block_on(workers, &mut slots, 1, |first, block| {
        for (i, slot) in (first..).zip(block) {
            *slot = Some(f(i));
        }
    });
    // Every slot was filled by exactly one block.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    const WORKERS: [usize; 5] = [1, 2, 3, 7, 64];

    #[test]
    fn every_piece_is_visited_once_with_its_global_index() {
        for workers in WORKERS {
            for (len, chunk) in [(12, 3), (13, 3), (1, 5), (10, 1), (40, 7)] {
                let mut data = vec![0usize; len];
                let calls = Mutex::new(Vec::new());
                for_each_block_on(workers, &mut data, chunk, |first, block| {
                    calls.lock().unwrap().push((first, block.len()));
                    for (i, piece) in (first..).zip(block.chunks_mut(chunk)) {
                        piece.iter_mut().for_each(|x| *x += i + 1);
                    }
                });
                let want: Vec<usize> = (0..len).map(|e| e / chunk + 1).collect();
                assert_eq!(data, want, "{len}/{chunk} on {workers} workers");
                let calls = calls.into_inner().unwrap();
                assert!(calls.len() <= workers.max(1), "{calls:?}");
                assert!(calls.iter().all(|&(_, n)| n > 0), "empty block: {calls:?}");
            }
        }
    }

    #[test]
    fn empty_data_calls_nothing() {
        for workers in WORKERS {
            for_each_block_on(workers, &mut [0u8; 0], 4, |_, _| {
                panic!("no block expected")
            });
            assert!(map_on(workers, 0, |i| i).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_panics() {
        for_each_block(&mut [1.0f64; 4], 0, |_, _| {});
    }

    #[test]
    fn map_keeps_index_order() {
        for workers in WORKERS {
            for n in [1, 2, 5, 100] {
                let got = map_on(workers, n, |i| i * i);
                assert_eq!(
                    got,
                    (0..n).map(|i| i * i).collect::<Vec<_>>(),
                    "{n} on {workers}"
                );
            }
        }
        assert_eq!(map(9, |i| i + 1), (1..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_spans_record_under_the_callers_path() {
        telemetry::set_enabled(true);
        {
            let _parent = telemetry::span!("par_test_parent");
            for_each_block_on(3, &mut [0u8; 3], 1, |_, _| {
                let _child = telemetry::span!("par_test_child");
            });
        }
        let snap = telemetry::span_snapshot();
        let child = snap
            .iter()
            .find(|s| s.path == "par_test_parent.par_test_child");
        assert_eq!(child.map(|s| s.count), Some(3), "{snap:?}");
        assert!(snap.iter().all(|s| s.path != "par_test_child"), "{snap:?}");
    }
}
