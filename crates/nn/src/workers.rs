//! A small worker abstraction over `rayon` for batch-parallel layer
//! math.
//!
//! The layers parallelise over the batch through `for_each_band`,
//! which splits a mutable output slice into contiguous per-worker
//! bands of whole items and runs a closure per band inside a
//! `rayon::scope`. The GEMMs split their `M` dimension in their own
//! `row_bands` (see [`crate::gemm`]), because a GEMM band is a run of
//! `MR`-aligned rows rather than whole items; both read
//! `worker_count`, so both honour [`with_band_cap`]. Under the
//! pooled `rayon` stand-in the scope dispatches onto persistent,
//! parked workers, so a parallel region costs a queue push per band
//! rather than an OS thread spawn.
//! Small workloads stay on the calling thread — dispatching is only
//! worth it when each band carries real work.
//!
//! Each band receives two private scratch slices: a general per-band
//! buffer (im2col/column matrices, reused across the band's items) and
//! an *aux* buffer used by reductions — [`crate::conv::Conv2d`]'s
//! backward pass accumulates per-band weight-gradient shards there and
//! folds them together after the scope, so gradient accumulation
//! parallelises without any shared mutable state. Both are sized per
//! band, so peak scratch is bounded by the worker count, not the batch
//! size.
//!
//! A multi-tenant serving layer can restrict how much of the pool one
//! inference may claim with [`with_band_cap`]: the cap bounds the band
//! count every parallel region planned inside the closure targets, so a
//! model allocated `c` cores by the resource manager occupies at most
//! `c` workers per forward even though the pool itself is shared.

#[cfg(test)]
thread_local! {
    /// Test-only override of [`worker_count`], so band splitting and
    /// shard reduction can be exercised deterministically on machines
    /// with any core count. Only read on the thread that *plans* the
    /// bands; closures running on pool workers see the real count.
    pub(crate) static FORCE_WORKERS: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

thread_local! {
    /// Per-thread parallelism budget: `0` = uncapped, `n` = plan at
    /// most `n` bands per region. Set scoped via [`with_band_cap`];
    /// read on the thread that *plans* a parallel region (band
    /// closures running on pool workers never re-split).
    static BAND_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with this thread's parallel regions capped at `cap` bands
/// (`0` removes the cap). The previous cap is restored on exit, even
/// on panic, so nested scopes compose.
///
/// This is the core-allocation knob of a multi-tenant executor: the
/// runtime manager grants an application `c` cores, the serving thread
/// wraps every forward pass in `with_band_cap(c, ..)`, and the layers'
/// band math (`band_count`) plans at most `c` parallel work units —
/// the app cannot flood the shared worker pool past its allocation.
/// The cap only bounds *this* thread's fan-out; band outputs are
/// bit-identical across cap values (bands partition whole items and
/// per-item arithmetic order never depends on the split).
pub fn with_band_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BAND_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(BAND_CAP.with(|c| c.replace(cap)));
    f()
}

/// Number of workers parallel regions should target — taken from the
/// executor itself so band math stays correct if a configured rayon
/// pool (smaller or larger than the machine) is swapped in, clamped
/// by this thread's [`with_band_cap`] budget.
pub(crate) fn worker_count() -> usize {
    #[cfg(test)]
    if let Some(n) = FORCE_WORKERS.with(std::cell::Cell::get) {
        return apply_cap(n);
    }
    apply_cap(rayon::current_num_threads().max(1))
}

fn apply_cap(n: usize) -> usize {
    match BAND_CAP.with(std::cell::Cell::get) {
        0 => n,
        cap => n.min(cap).max(1),
    }
}

/// Number of bands [`for_each_band`] will split `items` into — callers
/// size their per-band scratch with this, so peak scratch is bounded by
/// the worker count, not the batch size.
pub(crate) fn band_count(items: usize, parallel: bool) -> usize {
    if parallel {
        worker_count().min(items).max(1)
    } else {
        1
    }
}

/// Splits `data` — `items` logical items of `item_len` elements each —
/// into at most [`band_count`] contiguous bands of whole items and
/// invokes `f(first_item_index, band, band_scratch, band_aux)` for
/// each, in parallel when more than one band results. Every band gets
/// its own `scratch_per_band`-element slice of `scratch` and
/// `aux_per_band`-element slice of `aux` to reuse across its items
/// (each buffer must hold at least `band_count(items, parallel)` times
/// its per-band length; pass an empty `aux` with `aux_per_band == 0`
/// when unused). The data and scratch element types are generic so the
/// quantised forward paths can split `i16` outputs and hand out
/// per-band `i16` column buffers through the same mechanism as the
/// `f32` paths.
#[allow(clippy::too_many_arguments)]
pub(crate) fn for_each_band<T, S, F>(
    data: &mut [T],
    items: usize,
    item_len: usize,
    scratch: &mut [S],
    scratch_per_band: usize,
    aux: &mut [f32],
    aux_per_band: usize,
    parallel: bool,
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S], &mut [f32]) + Sync,
{
    let bands = band_count(items, parallel);
    debug_assert!(data.len() >= items * item_len);
    debug_assert!(scratch.len() >= bands * scratch_per_band);
    debug_assert!(aux.len() >= bands * aux_per_band);
    if bands <= 1 {
        f(
            0,
            &mut data[..items * item_len],
            &mut scratch[..scratch_per_band],
            &mut aux[..aux_per_band],
        );
        return;
    }
    // Balanced split: the first `items % bands` bands carry one extra
    // item. The old `ceil(items / bands)`-sized bands could leave the
    // tail band with a fraction of the work (e.g. 32 items on 5 workers
    // → 7,7,7,7,4), idling its worker for up to a band's worth of time
    // per region; the balanced split (7,7,6,6,6) bounds the spread to
    // one item. Matters most for batched int8 serving, where a
    // micro-batch rarely divides the allocated core count.
    let base = items / bands;
    let extra = items % bands;
    rayon::scope(|s| {
        let mut rest = &mut data[..items * item_len];
        let mut rest_scratch = &mut scratch[..];
        let mut rest_aux = &mut aux[..];
        let mut item0 = 0;
        for band_idx in 0..bands {
            let band_items = base + usize::from(band_idx < extra);
            let (band, tail) = rest.split_at_mut(band_items * item_len);
            let (band_scratch, tail_scratch) = rest_scratch.split_at_mut(scratch_per_band);
            let (band_aux, tail_aux) = rest_aux.split_at_mut(aux_per_band);
            let f = &f;
            s.spawn(move |_| f(item0, band, band_scratch, band_aux));
            rest = tail;
            rest_scratch = tail_scratch;
            rest_aux = tail_aux;
            item0 += band_items;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_item_with_private_scratch() {
        let items = 7;
        let mut data = vec![0.0f32; items * 3];
        let mut scratch = vec![0.0f32; band_count(items, true) * 2];
        let mut aux = vec![0.0f32; band_count(items, true)];
        for_each_band(
            &mut data,
            items,
            3,
            &mut scratch,
            2,
            &mut aux,
            1,
            true,
            |item0, band, s, aux| {
                assert_eq!(s.len(), 2, "one scratch slot per band");
                assert_eq!(aux.len(), 1, "one aux slot per band");
                for (i, item) in band.chunks_mut(3).enumerate() {
                    // Reuse the slot per item, as the layers do.
                    s.fill((item0 + i) as f32);
                    for (v, sv) in item.iter_mut().zip(s.iter()) {
                        *v = *sv;
                    }
                    item[2] = s[0];
                    aux[0] += 1.0;
                }
            },
        );
        for (i, item) in data.chunks(3).enumerate() {
            assert!(item.iter().all(|&v| v == i as f32), "item {i}: {item:?}");
        }
        // Aux slots accumulated one count per item, band by band.
        assert_eq!(aux.iter().sum::<f32>(), items as f32);
    }

    #[test]
    fn serial_mode_is_one_band() {
        let mut data = vec![0.0f32; 4 * 2];
        let mut scratch = vec![0.0f32; 5];
        let mut bands_seen = 0;
        // Serial closure runs inline, so a mutable counter is fine.
        let counter = std::sync::Mutex::new(&mut bands_seen);
        for_each_band(
            &mut data,
            4,
            2,
            &mut scratch,
            5,
            &mut [],
            0,
            false,
            |item0, band, _, aux| {
                assert_eq!(item0, 0);
                assert_eq!(band.len(), 8, "serial = every item in one band");
                assert!(aux.is_empty());
                **counter.lock().expect("no poisoning") += 1;
            },
        );
        assert_eq!(bands_seen, 1);
    }

    #[test]
    fn band_cap_limits_planned_bands_and_restores() {
        FORCE_WORKERS.with(|w| w.set(Some(8)));
        assert_eq!(band_count(32, true), 8);
        with_band_cap(3, || {
            assert_eq!(band_count(32, true), 3, "cap bounds the plan");
            with_band_cap(0, || {
                assert_eq!(band_count(32, true), 8, "0 lifts the cap");
            });
            assert_eq!(band_count(32, true), 3, "inner scope restored");
        });
        assert_eq!(band_count(32, true), 8, "outer scope restored");
        // The cap survives a panic inside the closure.
        let _ = std::panic::catch_unwind(|| with_band_cap(2, || panic!("boom")));
        assert_eq!(band_count(32, true), 8);
        FORCE_WORKERS.with(|w| w.set(None));
    }

    #[test]
    fn bands_are_balanced_to_within_one_item() {
        // 32 items on 5 workers must split 7,7,6,6,6 — not 7,7,7,7,4.
        FORCE_WORKERS.with(|w| w.set(Some(5)));
        let items = 32;
        let mut data = vec![0u32; items];
        let bands = band_count(items, true);
        assert_eq!(bands, 5);
        let mut scratch = vec![0.0f32; bands];
        let sizes = std::sync::Mutex::new(Vec::new());
        for_each_band(
            &mut data,
            items,
            1,
            &mut scratch,
            1,
            &mut [],
            0,
            true,
            |item0, band, _, _| {
                band.fill(1);
                sizes
                    .lock()
                    .expect("no poisoning")
                    .push((item0, band.len()));
            },
        );
        FORCE_WORKERS.with(|w| w.set(None));
        assert!(data.iter().all(|&v| v == 1), "every item covered once");
        let mut sizes = sizes.into_inner().expect("no poisoning");
        sizes.sort_unstable();
        let lens: Vec<usize> = sizes.iter().map(|&(_, l)| l).collect();
        assert_eq!(lens.iter().sum::<usize>(), items);
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced bands: {lens:?}");
        // Bands tile the items contiguously in order.
        let mut next = 0;
        for &(item0, len) in &sizes {
            assert_eq!(item0, next);
            next += len;
        }
    }

    #[test]
    fn handles_single_item() {
        let mut data = vec![1.0f32; 5];
        let mut scratch = vec![0.0f32; 1];
        for_each_band(
            &mut data,
            1,
            5,
            &mut scratch,
            1,
            &mut [],
            0,
            true,
            |item0, band, _, _| {
                assert_eq!(item0, 0);
                band.fill(2.0);
            },
        );
        assert!(data.iter().all(|&v| v == 2.0));
    }
}
