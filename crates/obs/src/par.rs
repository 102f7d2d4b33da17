//! The workspace's data-parallel loops, run sequentially.
//!
//! Two shapes cover every call site: "for each fixed-size chunk of a
//! `&mut [T]`" ([`chunks_mut`]) and "map an index range into a `Vec` in
//! index order" ([`map`]). Both are the plain std loop on the calling
//! thread — what these sites have always executed here, and what the
//! benchmark pins. The `Send` / `Sync` bounds keep every call site safe
//! to run on several threads, so threading can come back behind these two
//! functions alone once a benchmark workload runs with more than one
//! thread to size it against (ROADMAP item 7).
//!
//! It lives in dp-obs because that is the one crate every user of these
//! loops already links.

/// `f(i, chunk)` for the `i`-th `size`-element chunk of `data` (the last
/// may be shorter), like `data.chunks_mut(size).enumerate()`.
pub fn chunks_mut<T: Send>(data: &mut [T], size: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    for (i, chunk) in data.chunks_mut(size).enumerate() {
        f(i, chunk);
    }
}

/// `(0..n).map(f).collect()`, in index order.
pub fn map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    (0..n).map(f).collect()
}
