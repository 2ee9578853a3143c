//! The reference record and owned trace container.

use core::fmt;

use vmp_types::{AccessKind, Asid, Privilege, VirtAddr};

use crate::TraceStats;

/// One memory reference: the unit of work a processor presents to its cache.
///
/// Matches the information content of an ATUM trace record: a virtual
/// address qualified by address space, access kind and privilege level.
///
/// # Examples
///
/// ```
/// use vmp_trace::MemRef;
/// use vmp_types::{AccessKind, Asid, Privilege, VirtAddr};
///
/// let r = MemRef::read(Asid::new(1), VirtAddr::new(0x1000));
/// assert!(r.kind.is_read());
/// let w = MemRef::write(Asid::new(1), VirtAddr::new(0x1000));
/// assert!(w.kind.is_write());
/// assert_eq!(r.addr, w.addr);
/// let k = MemRef::ifetch(Asid::KERNEL, VirtAddr::new(0x8000)).supervisor();
/// assert_eq!(k.privilege, Privilege::Supervisor);
/// assert_eq!(k.kind, AccessKind::IFetch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Address space of the reference.
    pub asid: Asid,
    /// Virtual address referenced.
    pub addr: VirtAddr,
    /// Read, write, or instruction fetch.
    pub kind: AccessKind,
    /// User or supervisor mode.
    pub privilege: Privilege,
}

impl MemRef {
    /// Creates a user-mode data read.
    pub const fn read(asid: Asid, addr: VirtAddr) -> Self {
        MemRef { asid, addr, kind: AccessKind::Read, privilege: Privilege::User }
    }

    /// Creates a user-mode data write.
    pub const fn write(asid: Asid, addr: VirtAddr) -> Self {
        MemRef { asid, addr, kind: AccessKind::Write, privilege: Privilege::User }
    }

    /// Creates a user-mode instruction fetch.
    pub const fn ifetch(asid: Asid, addr: VirtAddr) -> Self {
        MemRef { asid, addr, kind: AccessKind::IFetch, privilege: Privilege::User }
    }

    /// Returns the same reference marked supervisor-mode.
    #[must_use]
    pub const fn supervisor(mut self) -> Self {
        self.privilege = Privilege::Supervisor;
        self
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {}", self.asid, self.kind, self.privilege, self.addr)
    }
}

/// An owned, in-memory reference trace.
///
/// A thin wrapper over `Vec<MemRef>` adding statistics and collection
/// conveniences; build one from any reference iterator with `collect()`.
///
/// # Examples
///
/// ```
/// use vmp_trace::{MemRef, Trace};
/// use vmp_types::{Asid, VirtAddr};
///
/// let t: Trace = (0..100u64)
///     .map(|i| MemRef::read(Asid::new(0), VirtAddr::new(i * 4)))
///     .collect();
/// assert_eq!(t.len(), 100);
/// assert_eq!(t.iter().count(), 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    refs: Vec<MemRef>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { refs: Vec::new() }
    }

    /// Number of references in the trace.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Returns `true` if the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Iterates over the references.
    pub fn iter(&self) -> std::slice::Iter<'_, MemRef> {
        self.refs.iter()
    }

    /// Returns the references as a slice.
    pub fn as_slice(&self) -> &[MemRef] {
        &self.refs
    }

    /// Appends one reference.
    pub fn push(&mut self, r: MemRef) {
        self.refs.push(r);
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_refs(self.refs.iter().copied())
    }
}

impl FromIterator<MemRef> for Trace {
    fn from_iter<I: IntoIterator<Item = MemRef>>(iter: I) -> Self {
        Trace { refs: iter.into_iter().collect() }
    }
}

impl Extend<MemRef> for Trace {
    fn extend<I: IntoIterator<Item = MemRef>>(&mut self, iter: I) {
        self.refs.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = MemRef;
    type IntoIter = std::vec::IntoIter<MemRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.refs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemRef;
    type IntoIter = std::slice::Iter<'a, MemRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.refs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        vec![
            MemRef::read(Asid::new(1), VirtAddr::new(0)),
            MemRef::write(Asid::new(1), VirtAddr::new(4)),
            MemRef::ifetch(Asid::new(2), VirtAddr::new(8)).supervisor(),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn constructors_set_fields() {
        let r = MemRef::write(Asid::new(3), VirtAddr::new(0x10));
        assert_eq!(r.asid, Asid::new(3));
        assert_eq!(r.addr.raw(), 0x10);
        assert!(r.kind.is_write());
        assert_eq!(r.privilege, Privilege::User);
        assert_eq!(r.supervisor().privilege, Privilege::Supervisor);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = MemRef::read(Asid::new(1), VirtAddr::new(0x20)).to_string();
        assert!(s.contains("asid:1"));
        assert!(s.contains("read"));
        assert!(s.contains("0x20"));
    }

    #[test]
    fn trace_collect_and_iterate() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.iter().filter(|r| r.kind.is_write()).count(), 1);
        let back: Vec<MemRef> = t.clone().into_iter().collect();
        assert_eq!(back.len(), 3);
        assert_eq!((&t).into_iter().count(), 3);
    }

    #[test]
    fn trace_push_and_extend() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(MemRef::read(Asid::new(0), VirtAddr::new(0)));
        t.extend(sample());
        assert_eq!(t.len(), 4);
        assert_eq!(t.as_slice().len(), 4);
    }
}
