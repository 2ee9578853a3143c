//! Seeded mutation tests of the parsers that read untrusted input: text
//! and binary traces and the metrics JSON `compare` reads. Each case
//! takes a valid input and flips, truncates or extends its bytes; every
//! result must be `Ok` or a typed error, never a panic. An accepted input
//! must also mean what it says: a binary trace re-encodes to exactly its
//! own bytes, and a text trace or JSON document re-reads to the same
//! value.

use proptest::prelude::*;
use vmp::obs::json;
use vmp::trace::{read_binary, read_text, write_binary, write_text, MemRef, Trace};
use vmp::types::{Asid, VirtAddr};

/// One edit of an input: `(kind, position, byte)`. Kind 0 flips bits of
/// the byte at `position`, kind 1 truncates at `position`, kind 2
/// inserts `byte` at `position`.
type Edit = (u8, u64, u8);

/// Bytes the parsers give meaning to, so inserted bytes reach past the
/// first syntax check more often than uniformly random ones would.
const SYNTAX: &[u8] = b"{}[]\",:-+.0123456789eE\\u \n#rwisx";

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..6)
}

fn mutate(input: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut out = input.to_vec();
    for &(kind, pos, byte) in edits {
        let at = (pos % (out.len() as u64 + 1)) as usize;
        match kind {
            0 if at < out.len() => out[at] ^= byte | 1,
            1 => out.truncate(at),
            _ => {
                let b = if byte & 1 == 0 { SYNTAX[byte as usize % SYNTAX.len()] } else { byte };
                out.insert(at, b);
            }
        }
    }
    out
}

fn sample_trace() -> Trace {
    (0..12u64)
        .map(|i| {
            let addr = VirtAddr::new(0x1000 * i + 4 * i);
            let asid = Asid::new(i as u8 % 3);
            match i % 3 {
                0 => MemRef::read(asid, addr),
                1 => MemRef::write(asid, addr).supervisor(),
                _ => MemRef::ifetch(asid, addr),
            }
        })
        .collect()
}

/// A small document using every JSON construct the parser knows.
const HANDWRITTEN_JSON: &str = r#"{"a": [1, -2.5e-3, {"b": null}, true, false],
 "s": "tab\t quote\" slash\/ é \ud800 é", "n": 18446744073709551615}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_binary_traces_decode_exactly_or_fail(edits in edits()) {
        let mut valid = Vec::new();
        write_binary(&mut valid, &sample_trace()).unwrap();
        let input = mutate(&valid, &edits);
        if let Ok(trace) = read_binary(input.as_slice()) {
            // Every record field is stored whole, so an accepted file is
            // exactly the encoding of what it decoded to.
            let mut again = Vec::new();
            write_binary(&mut again, &trace).unwrap();
            prop_assert_eq!(again, input);
        }
    }

    #[test]
    fn mutated_text_traces_read_or_fail(edits in edits()) {
        let mut valid = b"# header\n\n".to_vec();
        write_text(&mut valid, &sample_trace()).unwrap();
        let input = mutate(&valid, &edits);
        if let Ok(trace) = read_text(input.as_slice()) {
            let mut again = Vec::new();
            write_text(&mut again, &trace).unwrap();
            prop_assert_eq!(read_text(again.as_slice()).unwrap(), trace);
        }
    }

    #[test]
    fn mutated_metrics_json_parses_or_fails(edits in edits(), pick in any::<bool>()) {
        let valid = if pick { include_str!("../BENCH_attrib.json") } else { HANDWRITTEN_JSON };
        let input = mutate(valid.as_bytes(), &edits);
        let text = String::from_utf8_lossy(&input);
        if let Ok(doc) = json::parse(&text) {
            // Writing a parsed document and reading it back is a fixed
            // point of the writer.
            let written = doc.to_string();
            let reread = json::parse(&written);
            prop_assert!(reread.is_ok(), "{written}");
            prop_assert_eq!(reread.unwrap().to_string(), written);
        }
    }
}
