//! Fuzz properties for the decoders that read untrusted bytes: the
//! reactor's [`FrameDecoder`], [`decode_request`] and the action-log
//! TSV [`TupleDecoder`]. Random and mutated inputs — truncations, byte
//! overwrites, huge length and count prefixes — must give a value or a
//! typed error, never a panic, and never an allocation beyond what the
//! input itself holds.
//!
//! The allocation bound is checked by this binary's global allocator,
//! which records the largest single request made on the current thread.

use cdim_actionlog::storage::{read_action_log, StorageError, TupleDecoder};
use cdim_serve::protocol::{decode_request, encode_request, ProtocolError, MAX_FRAME_LEN};
use cdim_serve::{FrameDecoder, Request};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// One request of each shape, from sampled fields.
fn requests(budget: u32, seeds: &[u32]) -> Vec<Request> {
    vec![
        Request::TopKSeeds { budget },
        Request::Spread { seeds: seeds.to_vec() },
        Request::MarginalGain { seeds: seeds.to_vec(), candidate: budget },
        Request::Info,
        Request::Stats,
        Request::Metrics,
        Request::TraceDump,
    ]
}

/// Mutants of `bytes`: a truncation, a byte overwrite, and each 4-byte
/// field at `fields` forged with boundary and random values.
fn mutants(bytes: &[u8], fields: &[usize], cut: u64, at: u64, value: u64) -> Vec<Vec<u8>> {
    let mut out = vec![bytes[..(cut % (bytes.len() as u64 + 1)) as usize].to_vec()];
    if !bytes.is_empty() {
        let mut overwritten = bytes.to_vec();
        overwritten[(at % bytes.len() as u64) as usize] = value as u8;
        out.push(overwritten);
    }
    for &field in fields.iter().filter(|&&f| f + 4 <= bytes.len()) {
        for forged in [u32::MAX, MAX_FRAME_LEN, MAX_FRAME_LEN + 1, value as u32, value as u32 % 64]
        {
            let mut mutant = bytes.to_vec();
            mutant[field..field + 4].copy_from_slice(&forged.to_le_bytes());
            out.push(mutant);
        }
    }
    out
}

/// Feeds `stream` to a fresh decoder in chunks of the given sizes (cycled)
/// and pops frames after every chunk, stopping at the first error as the
/// reactor does. Returns the frames and whether the stream ended in error.
fn drive(stream: &[u8], chunks: &[usize]) -> (Vec<Vec<u8>>, bool) {
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut fed = 0;
    for &size in chunks.iter().cycle() {
        if fed == stream.len() {
            break;
        }
        let end = (fed + size).min(stream.len());
        let ((), peak) = peak_of(|| decoder.extend(&stream[fed..end]));
        fed = end;
        assert!(peak <= (2 * fed).max(8), "extend allocated {peak} B after {fed} B fed");
        loop {
            let (popped, peak) = peak_of(|| decoder.next_frame());
            assert!(peak <= fed, "next_frame allocated {peak} B after {fed} B fed");
            match popped {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(ProtocolError::FrameTooLarge(len)) => {
                    assert!(len > MAX_FRAME_LEN);
                    return (frames, true);
                }
                Err(other) => panic!("untyped frame error {other:?}"),
            }
        }
        assert!(decoder.buffered() <= fed);
    }
    (frames, false)
}

/// A request payload decodes to a request that re-encodes to the same
/// bytes, or to a typed error — allocating no more than the payload.
fn check_request(payload: &[u8]) {
    let (decoded, peak) = peak_of(|| decode_request(payload));
    assert!(peak <= payload.len(), "decode_request allocated {peak} B for {} B", payload.len());
    match decoded {
        Ok(request) => assert_eq!(encode_request(&request), payload),
        Err(ProtocolError::Truncated)
        | Err(ProtocolError::UnknownOpcode(_))
        | Err(ProtocolError::Malformed(_)) => {}
        Err(other) => panic!("untyped request error {other:?}"),
    }
}

/// Bytes over a TSV-flavoured alphabet: the grammar's separators and
/// number characters, plus control, non-ASCII and invalid UTF-8 bytes.
const TSV_ALPHABET: &[u8] = b"0123456789\t\t\n\n-+.eEinfaN# \r\x01\xc3\xa9\xff";

/// The largest allocation decoding one TSV line may make, whatever its
/// length: a rejected line's message echoes a bounded prefix of the
/// offending field.
const TSV_DIAGNOSTIC_MAX: usize = 1024;

proptest! {
    /// Concatenated request frames, intact or mutated (truncated, a byte
    /// overwritten, a length or seed-count prefix forged), fed in random
    /// chunk sizes: intact streams yield exactly their payloads, and every
    /// stream yields frames or `FrameTooLarge`, each frame a request or a
    /// typed error.
    #[test]
    fn frame_streams_decode_or_fail_typed(
        budget in 0u32..u32::MAX,
        seeds in proptest::collection::vec(0u32..u32::MAX, 0..6),
        picks in proptest::collection::vec(0usize..7, 1..5),
        chunks in proptest::collection::vec(1usize..24, 1..8),
        cut in 0u64..u64::MAX,
        at in 0u64..u64::MAX,
        value in 0u64..u64::MAX,
    ) {
        let all = requests(budget, &seeds);
        let payloads: Vec<Vec<u8>> = picks.iter().map(|&i| encode_request(&all[i])).collect();
        let mut stream = Vec::new();
        let mut fields = Vec::new();
        for payload in &payloads {
            fields.extend([stream.len(), stream.len() + 5]);
            stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            stream.extend_from_slice(payload);
        }
        let (frames, failed) = drive(&stream, &chunks);
        prop_assert!(!failed);
        prop_assert_eq!(&frames, &payloads);

        for mutant in mutants(&stream, &fields, cut, at, value) {
            let (frames, _) = drive(&mutant, &chunks);
            for frame in &frames {
                check_request(frame);
            }
        }
    }

    /// Random byte strings as frame streams and as request payloads.
    #[test]
    fn random_bytes_decode_or_fail_typed(
        bytes in proptest::collection::vec(0u16..256, 0..48),
        chunks in proptest::collection::vec(1usize..16, 1..4),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        drive(&bytes, &chunks);
        check_request(&bytes);
        for op in 1..=8u8 {
            let mut payload = vec![op];
            payload.extend_from_slice(&bytes);
            check_request(&payload);
        }
    }

    /// Request payloads with their seed count or a field forged, or cut
    /// short, decode or fail typed without reserving the forged count.
    #[test]
    fn mutated_requests_decode_or_fail_typed(
        budget in 0u32..u32::MAX,
        seeds in proptest::collection::vec(0u32..u32::MAX, 0..6),
        cut in 0u64..u64::MAX,
        at in 0u64..u64::MAX,
        value in 0u64..u64::MAX,
    ) {
        for request in requests(budget, &seeds) {
            let payload = encode_request(&request);
            check_request(&payload);
            for mutant in mutants(&payload, &[1, payload.len().saturating_sub(4)], cut, at, value) {
                check_request(&mutant);
            }
        }
    }

    /// TSV lines over a grammar-flavoured alphabet, and valid lines with a
    /// field forged past `u32`/`f64` range or cut short, decode to a tuple,
    /// a skip, or a line-numbered `Parse` error with a bounded diagnostic;
    /// a whole such file reads to a log or a typed error.
    #[test]
    fn tsv_lines_decode_or_fail_typed(
        symbols in proptest::collection::vec(0usize..TSV_ALPHABET.len(), 0..160),
        user in 0u32..u32::MAX,
        action in 0u32..u32::MAX,
        forged in 0usize..6,
        cut in 0u64..u64::MAX,
    ) {
        let random: Vec<u8> = symbols.iter().map(|&i| TSV_ALPHABET[i]).collect();
        let huge = ["4294967296", "18446744073709551616", "1e400", "-1", "NaN", "0x10"][forged];
        let valid = format!("{user}\t{action}\t1.5\n");
        let mut inputs = vec![random, valid.clone().into_bytes()];
        for field in 0..3 {
            let mut fields: Vec<&str> = valid.trim_end().split('\t').collect();
            fields[field] = huge;
            inputs.push(format!("{}\n", fields.join("\t")).into_bytes());
        }
        inputs.push(valid.as_bytes()[..(cut % (valid.len() as u64 + 1)) as usize].to_vec());
        inputs.push(huge.repeat(1024).into_bytes());

        for input in &inputs {
            let text = String::from_utf8_lossy(input);
            let mut decoder = TupleDecoder::new();
            for line in text.split_inclusive('\n') {
                let (decoded, peak) = peak_of(|| decoder.decode_line(line));
                prop_assert!(peak <= TSV_DIAGNOSTIC_MAX, "{peak} B for a {} B line", line.len());
                match decoded {
                    Ok(_) => {}
                    Err(StorageError::Parse { line, .. }) => {
                        prop_assert_eq!(line, decoder.lines_consumed());
                    }
                    Err(other) => panic!("untyped line error {other:?}"),
                }
            }
            match read_action_log(&input[..], 16) {
                Ok(log) => prop_assert!(log.num_tuples() <= input.len() / 5),
                Err(StorageError::Parse { .. }) | Err(StorageError::Io(_)) => {}
            }
        }
    }
}
