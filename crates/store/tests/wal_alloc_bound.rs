//! A WAL record's declared op count must not size an allocation beyond
//! what the record's bytes can hold: a CRC-valid patch record of a few
//! dozen bytes that claims `u32::MAX` ops is corruption, decoded in memory
//! proportional to its length.
//!
//! The counting allocator below is process-global, so this file holds a
//! single test: no other test thread allocates while it measures.

use ic_core::Delta;
use ic_model::{Catalog, Schema};
use ic_store::{crc32, encode_record, read_records, CatalogOp, DomainDelta, StoreError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes allocated on top of the live set while `f` runs, at peak.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(base))
}

#[test]
fn huge_patch_op_count_is_corrupt_within_bounded_memory() {
    let cat = Catalog::new(Schema::single("R", &["A"]));
    let mut bytes = encode_record(
        1,
        &DomainDelta::capture(0, &cat),
        &CatalogOp::Patch {
            name: "x".into(),
            delta: Delta::new(Vec::new()),
        },
    );
    // Record: len u32 | crc u32 | payload. An empty patch ends with its op
    // count; claim u32::MAX ops and reseal the checksum, as a buggy or
    // hostile writer would.
    let at = bytes.len() - 4;
    bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&bytes[8..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    assert!(bytes.len() < 64, "record is {} bytes", bytes.len());

    let mut replay = Catalog::new(Schema::single("R", &["A"]));
    let (result, growth) = peak_growth(|| read_records(&bytes, &mut replay, 0));
    assert!(
        matches!(result, Err(StoreError::Corrupt(_))),
        "expected Corrupt, got {result:?}"
    );
    assert!(
        growth < 1 << 20,
        "decoding a {}-byte record peaked at {growth} extra heap bytes",
        bytes.len()
    );
}
