//! Shadow-memory race detection for disjoint-write fast paths.
//!
//! The kernels' single-writer outputs (CSR/ELL/SELL/BCSR rows, STile row
//! subsets, CELL row blocks, `parallel_map` slot fills) skip atomics
//! because *by construction* no two workers write the same element.
//! [`ShadowRegion`] turns that argument into a runtime check: each worker
//! registers the element range it is about to write in a shared interval
//! map, and the claim panics if it overlaps a live exclusive claim or
//! falls outside the region — catching both an overlapping schedule (say,
//! two CELL row blocks that share a row) and an indexing bug the moment
//! it happens, instead of as a silent wrong result.
//!
//! Claims come in two flavors: [`claim_exclusive`] for single-writer
//! ranges (any overlap is an error, including with another claim from
//! the *same* worker — a plain store that writes a row twice clobbers
//! its own first write), and [`claim_shared`] for ranges
//! updated through atomics (overlap with other shared claims is fine;
//! overlap with an exclusive claim means the "single writer" had a
//! concurrent atomic writer after all).
//!
//! Debug builds (`debug_assertions`) carry the real interval map; in
//! release builds `ShadowRegion` is a no-op ZST so the hot paths stay
//! allocation- and branch-free (the dedicated `hot_path_allocs` test
//! relies on this).
//!
//! [`claim_exclusive`]: ShadowRegion::claim_exclusive
//! [`claim_shared`]: ShadowRegion::claim_shared

#[cfg(debug_assertions)]
mod imp {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex, PoisonError};

    #[derive(Default)]
    struct Claims {
        /// start -> (end, claimant thread label). Never overlapping.
        exclusive: BTreeMap<usize, (usize, String)>,
        /// start -> end, merged on insert. May overlap each other but
        /// never an exclusive claim.
        shared: BTreeMap<usize, usize>,
    }

    struct Inner {
        len: usize,
        claims: Mutex<Claims>,
    }

    /// Debug-build shadow map over `0..len` output elements.
    pub struct ShadowRegion {
        inner: Arc<Inner>,
    }

    fn thread_label() -> String {
        let t = std::thread::current();
        match t.name() {
            Some(n) => format!("{n} ({:?})", t.id()),
            None => format!("{:?}", t.id()),
        }
    }

    /// First existing range in `map` (keyed by start, valued by end via
    /// `end_of`) that intersects `[start, end)`.
    fn overlapping<V>(
        map: &BTreeMap<usize, V>,
        start: usize,
        end: usize,
        end_of: impl Fn(&V) -> usize,
    ) -> Option<(usize, usize)> {
        // The only candidates are the last range starting before `end`;
        // ranges never overlap each other (exclusive) or are merged
        // (shared), so one probe plus a range scan suffices.
        map.range(..end)
            .next_back()
            .filter(|(&s, v)| end_of(v) > start && s < end)
            .map(|(&s, v)| (s, end_of(v)))
    }

    impl ShadowRegion {
        pub fn new(len: usize) -> Self {
            ShadowRegion {
                inner: Arc::new(Inner {
                    len,
                    claims: Mutex::new(Claims::default()),
                }),
            }
        }

        fn check_bounds(&self, start: usize, len: usize, kind: &str) {
            let ok = start <= self.inner.len && len <= self.inner.len - start;
            assert!(
                ok,
                "shadow race detector: {kind} claim {start}+{len} out of bounds \
                 (region len {})",
                self.inner.len
            );
        }

        pub fn claim_exclusive(&self, start: usize, len: usize) {
            self.check_bounds(start, len, "exclusive");
            if len == 0 {
                return;
            }
            let end = start + len;
            let mut claims = self
                .inner
                .claims
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some((s, e)) = overlapping(&claims.exclusive, start, end, |v| v.0) {
                let owner = claims.exclusive[&s].1.clone();
                panic!(
                    "shadow race detector: overlapping single-writer claims on a \
                     disjoint-write output: [{start}, {end}) by {} collides with \
                     [{s}, {e}) by {owner} — two writers on a range the kernel \
                     declared atomic-free",
                    thread_label()
                );
            }
            if let Some((s, e)) = overlapping(&claims.shared, start, end, |&v| v) {
                panic!(
                    "shadow race detector: single-writer claim [{start}, {end}) by {} \
                     overlaps atomic (shared) claim [{s}, {e}) — a plain store would \
                     race the atomic updates",
                    thread_label()
                );
            }
            claims.exclusive.insert(start, (end, thread_label()));
        }

        pub fn claim_shared(&self, start: usize, len: usize) {
            self.check_bounds(start, len, "shared");
            if len == 0 {
                return;
            }
            let mut end = start + len;
            let mut start = start;
            let mut claims = self
                .inner
                .claims
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some((s, e)) = overlapping(&claims.exclusive, start, end, |v| v.0) {
                let owner = claims.exclusive[&s].1.clone();
                panic!(
                    "shadow race detector: atomic (shared) claim [{start}, {end}) by {} \
                     overlaps single-writer claim [{s}, {e}) by {owner} — the \
                     \"single writer\" has a concurrent atomic writer",
                    thread_label()
                );
            }
            // Merge into the shared set (coalescing overlapping/adjacent
            // ranges keeps the map small: folded rows re-claim the same
            // output row once per fragment).
            loop {
                let hit = claims
                    .shared
                    .range(..=end)
                    .next_back()
                    .filter(|&(_, &e)| e >= start)
                    .map(|(&s, &e)| (s, e));
                match hit {
                    Some((s, e)) => {
                        claims.shared.remove(&s);
                        start = start.min(s);
                        end = end.max(e);
                    }
                    None => break,
                }
            }
            claims.shared.insert(start, end);
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// Release-build shadow map: a ZST whose claims compile to nothing.
    pub struct ShadowRegion;

    impl ShadowRegion {
        #[inline(always)]
        pub fn new(_len: usize) -> Self {
            ShadowRegion
        }

        #[inline(always)]
        pub fn claim_exclusive(&self, _start: usize, _len: usize) {}

        #[inline(always)]
        pub fn claim_shared(&self, _start: usize, _len: usize) {}
    }
}

/// A shadow interval map over an output buffer of `len` elements.
///
/// See the [module docs](self) for the claim discipline. All methods are
/// thread-safe; in release builds the type is a no-op ZST.
pub struct ShadowRegion(imp::ShadowRegion);

impl ShadowRegion {
    /// Shadow a buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        ShadowRegion(imp::ShadowRegion::new(len))
    }

    /// `true` when claims are actually recorded (debug builds).
    pub const fn enabled() -> bool {
        cfg!(debug_assertions)
    }

    /// Register `[start, start + len)` as written by exactly one worker
    /// through plain stores. Panics (debug builds) on out-of-bounds or
    /// any overlap with an existing claim.
    pub fn claim_exclusive(&self, start: usize, len: usize) {
        self.0.claim_exclusive(start, len);
    }

    /// Register `[start, start + len)` as updated through atomics.
    /// Panics (debug builds) on out-of-bounds or overlap with an
    /// exclusive claim; overlapping shared claims merge.
    pub fn claim_shared(&self, start: usize, len: usize) {
        self.0.claim_shared(start, len);
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::ShadowRegion;

    #[test]
    fn disjoint_exclusive_claims_pass() {
        let r = ShadowRegion::new(100);
        r.claim_exclusive(0, 10);
        r.claim_exclusive(10, 10);
        r.claim_exclusive(90, 10);
    }

    #[test]
    #[should_panic(expected = "single-writer")]
    fn overlapping_exclusive_claims_panic() {
        let r = ShadowRegion::new(100);
        r.claim_exclusive(0, 10);
        r.claim_exclusive(5, 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_claim_panics() {
        let r = ShadowRegion::new(8);
        r.claim_exclusive(6, 4);
    }

    #[test]
    fn shared_claims_merge_and_tolerate_overlap() {
        let r = ShadowRegion::new(64);
        r.claim_shared(0, 16);
        r.claim_shared(8, 16); // overlap with shared: fine (atomics)
        r.claim_shared(8, 8); // fully inside a merged range
        r.claim_exclusive(32, 8); // disjoint from all shared claims
    }

    #[test]
    #[should_panic(expected = "atomic")]
    fn shared_overlapping_exclusive_panics() {
        let r = ShadowRegion::new(64);
        r.claim_exclusive(0, 8);
        r.claim_shared(4, 8);
    }

    #[test]
    #[should_panic(expected = "single-writer")]
    fn exclusive_overlapping_shared_panics() {
        let r = ShadowRegion::new(64);
        r.claim_shared(0, 8);
        r.claim_exclusive(4, 8);
    }

    #[test]
    fn zero_length_claims_are_noops() {
        let r = ShadowRegion::new(4);
        r.claim_exclusive(2, 0);
        r.claim_exclusive(2, 0); // same empty range twice: no overlap
        r.claim_exclusive(4, 0); // at the end boundary: in bounds
        r.claim_exclusive(0, 4);
    }
}
