//! Trace serialization: a human-readable text format and a compact
//! binary format.
//!
//! Text: one reference per line as `<asid> <kind> <privilege>
//! <hex-address>`, e.g. `3 w u 0x1f00` — trivial to produce or consume
//! with awk/Python. Binary: a 10-byte fixed record (asid, flags,
//! little-endian 64-bit address) behind a magic header, ≈6× smaller and
//! much faster for half-million-reference traces.

use std::fmt;
use std::io::{BufRead, Write};

use vmp_types::{AccessKind, Asid, Privilege, VirtAddr};

use crate::{MemRef, Trace};

/// Errors from reading a text trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line did not parse; carries the 1-based line number and content.
    Parse {
        /// 1-based line number of the malformed line.
        line: usize,
        /// The malformed line's content.
        content: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Parse { line, content } => {
                write!(f, "malformed trace record at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace in the one-record-per-line text format.
///
/// A `&mut` writer may be passed since `Write` is implemented for mutable
/// references.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_text<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    for r in trace.iter() {
        let kind = match r.kind {
            AccessKind::Read => 'r',
            AccessKind::Write => 'w',
            AccessKind::IFetch => 'i',
        };
        let priv_ = match r.privilege {
            Privilege::User => 'u',
            Privilege::Supervisor => 's',
        };
        writeln!(w, "{} {} {} {:#x}", r.asid.raw(), kind, priv_, r.addr.raw())?;
    }
    Ok(())
}

/// Reads a trace from the one-record-per-line text format.
///
/// Blank lines and lines starting with `#` are skipped. A `&mut` reader may
/// be passed since `BufRead` is implemented for mutable references.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] for any malformed record, or
/// [`TraceIoError::Io`] on reader failure.
pub fn read_text<R: BufRead>(r: R) -> Result<Trace, TraceIoError> {
    let mut trace = Trace::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let rec = parse_line(trimmed)
            .ok_or_else(|| TraceIoError::Parse { line: idx + 1, content: trimmed.to_owned() })?;
        trace.push(rec);
    }
    Ok(trace)
}

fn parse_line(line: &str) -> Option<MemRef> {
    let mut parts = line.split_whitespace();
    let asid: u8 = parts.next()?.parse().ok()?;
    let kind = match parts.next()? {
        "r" => AccessKind::Read,
        "w" => AccessKind::Write,
        "i" => AccessKind::IFetch,
        _ => return None,
    };
    let privilege = match parts.next()? {
        "u" => Privilege::User,
        "s" => Privilege::Supervisor,
        _ => return None,
    };
    let addr_str = parts.next()?;
    let addr = if let Some(hex) = addr_str.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()?
    } else {
        addr_str.parse().ok()?
    };
    if parts.next().is_some() {
        return None;
    }
    Some(MemRef { asid: Asid::new(asid), addr: VirtAddr::new(addr), kind, privilege })
}

/// Magic header of the binary trace format (`VMPT` + version 1).
const BINARY_MAGIC: &[u8; 5] = b"VMPT\x01";

/// Writes a trace in the compact binary format.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_binary<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for r in trace.iter() {
        let kind = match r.kind {
            AccessKind::Read => 0u8,
            AccessKind::Write => 1,
            AccessKind::IFetch => 2,
        };
        let flags = kind | if r.privilege == Privilege::Supervisor { 0x80 } else { 0 };
        w.write_all(&[r.asid.raw(), flags])?;
        w.write_all(&r.addr.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Reads a trace written by [`write_binary`].
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on a bad header, a malformed record
/// or bytes after the declared record count, or [`TraceIoError::Io`] on
/// reader failure.
pub fn read_binary<R: std::io::Read>(mut r: R) -> Result<Trace, TraceIoError> {
    let bad = |what: &str| TraceIoError::Parse { line: 0, content: what.to_owned() };
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(bad("bad magic: not a VMP binary trace"));
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len) as usize;
    let mut trace = Trace::new();
    let mut rec = [0u8; 10];
    for i in 0..len {
        r.read_exact(&mut rec).map_err(|_| bad(&format!("truncated at record {i}")))?;
        let kind = match rec[1] & 0x7f {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            2 => AccessKind::IFetch,
            k => return Err(bad(&format!("unknown access kind {k} at record {i}"))),
        };
        let privilege = if rec[1] & 0x80 != 0 { Privilege::Supervisor } else { Privilege::User };
        let addr = u64::from_le_bytes(rec[2..10].try_into().expect("fixed slice"));
        trace.push(MemRef { asid: Asid::new(rec[0]), addr: VirtAddr::new(addr), kind, privilege });
    }
    if r.read(&mut rec)? > 0 {
        return Err(bad(&format!("trailing bytes after record {len}")));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        vec![
            MemRef::read(Asid::new(1), VirtAddr::new(0x100)),
            MemRef::write(Asid::new(2), VirtAddr::new(0x2004)).supervisor(),
            MemRef::ifetch(Asid::new(0), VirtAddr::new(0)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &t).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        assert_eq!(buf.len(), 5 + 8 + 10 * t.len());
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_bad_magic_and_truncation() {
        assert!(read_binary(&b"NOPE\x01"[..]).is_err());
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated") || err.to_string().contains("i/o"));
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        let one = buf.clone();
        buf.extend_from_slice(&one); // two traces back to back
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("trailing bytes after record 3"), "{err}");
        let mut one_byte = one;
        one_byte.push(0);
        assert!(read_binary(one_byte.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_unknown_kind() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[5 + 8 + 1] = 0x7f; // corrupt first record's kind bits
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n1 r u 0x10\n  \n2 w s 32\n";
        let t = read_text(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.as_slice()[1].addr.raw(), 32);
    }

    #[test]
    fn reports_malformed_line_number() {
        let text = "1 r u 0x10\nbogus line\n";
        let err = read_text(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "bogus line");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_bad_kind_priv_and_extra_fields() {
        assert!(read_text("1 x u 0x10\n".as_bytes()).is_err());
        assert!(read_text("1 r k 0x10\n".as_bytes()).is_err());
        assert!(read_text("1 r u 0x10 extra\n".as_bytes()).is_err());
        assert!(read_text("300 r u 0x10\n".as_bytes()).is_err()); // asid > u8
    }

    #[test]
    fn error_display_is_informative() {
        let err = read_text("zzz\n".as_bytes()).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("line 1"));
        assert!(s.contains("zzz"));
    }
}
