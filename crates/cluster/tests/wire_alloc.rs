//! Memory bound of the frame reader: neither a frame header's length
//! prefix (not covered by the checksum) nor a count field inside a payload
//! may make the reader reserve memory before the bytes it claims arrive. A
//! counting global allocator records the largest single request made
//! while such a frame is read.
//!
//! This binary holds one test so no other test's allocations interleave.

use cluster::wire::{frame_checksum, Message, WireRound1, HEADER_LEN, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// Reads one frame from `bytes`, returning the error and the largest
/// single allocation request made meanwhile.
fn read_failing(bytes: &[u8]) -> (io::Error, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let err = Message::read_from(&mut &bytes[..]).unwrap_err();
    (err, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn lying_lengths_and_counts_reserve_bounded_buffers() {
    // A `Hello` header claiming the largest legal payload, then 3 bytes.
    let mut frame = Message::Hello.to_frame_bytes();
    frame[1..5].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    frame.truncate(HEADER_LEN + 3);
    let (err, largest) = read_failing(&frame);
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(
        largest <= 1 << 20,
        "a 3-byte payload reserved {largest} bytes"
    );

    // A checksum-valid `Round1Resp` whose n_words claims u32::MAX words
    // while the payload holds three.
    let mut frame = Message::Round1Resp(WireRound1 {
        epsilon: 2.0,
        flip_probability: 0.25,
        eps2: 1.0,
        rr_epsilon: 1.0,
        base_seed: 7,
        universe: 256,
        words: vec![u64::MAX; 4],
    })
    .to_frame_bytes();
    // n_words follows six 8-byte scalars; drop the last real word.
    let at = HEADER_LEN + 48;
    frame[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    frame.truncate(frame.len() - 8);
    let len = (frame.len() - HEADER_LEN) as u32;
    frame[1..5].copy_from_slice(&len.to_le_bytes());
    let sum = frame_checksum(&frame[HEADER_LEN..]);
    frame[5..9].copy_from_slice(&sum.to_le_bytes());
    let (err, largest) = read_failing(&frame);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        largest <= frame.len(),
        "a {}-byte frame reserved {largest} bytes",
        frame.len()
    );
}
