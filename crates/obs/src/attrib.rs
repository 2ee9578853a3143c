//! Per-page contention attribution: who generates the bus traffic, and
//! why.
//!
//! The recorder's histograms (PR 3) answer *when* and *how long*; this
//! table answers *which pages* and *which processors*. It keys a
//! per-page accounting record on ⟨ASID, virtual page⟩ and counts, per
//! page and per CPU, the four consistency-protocol transaction kinds
//! (read-shared, read-private, assert-ownership, write-back), the
//! aborts suffered, and the miss-service nanoseconds spent on the page.
//!
//! On top of the raw counts sits the paper's §5.4 failure mode:
//! **page ping-ponging**. Every completed ownership acquisition
//! (read-private or assert-ownership) by a CPU other than the current
//! owner is an *ownership transfer*; a run of consecutive transfers
//! each within [`AttribTable::window`] of the previous one is a
//! *ping-pong episode*. Each within-window transfer (a *bounce*) is
//! classified by comparing the sub-page granules the two CPUs touched
//! during their just-ended tenures: disjoint, non-empty footprints mean
//! the CPUs never shared a word — **probable false sharing** (a larger
//! page would make this worse, a smaller one would cure it);
//! overlapping footprints mean **true sharing** (the contention is in
//! the program, not the page geometry).
//!
//! Attribution is read-only and deterministic: it is fed from the same
//! machine probes as the event rings, allocates only when
//! [`ObsConfig::attrib`](crate::ObsConfig#structfield.attrib) is set,
//! and never feeds back into simulation state.

use std::collections::{BTreeMap, VecDeque};

use vmp_bus::BusTxKind;
use vmp_types::{Asid, FrameNum, Nanos, VirtPageNum};

use crate::json::Value;

/// Number of sub-page granules tracked per CPU tenure footprint.
///
/// 128 granules over a 512 B page give a 4 B granule — one word — so
/// two CPUs writing adjacent words on the prototype's largest page are
/// still seen as disjoint.
pub const GRANULES: u32 = 128;

/// The four consistency-protocol transaction kinds the table accounts.
///
/// Plain (uncached/DMA) reads and writes, notifies and action-table
/// updates are deliberately excluded: they carry no ownership semantics
/// and would dilute the contention signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxClass {
    /// Block fetch of a shared (read-only) copy.
    ReadShared,
    /// Block fetch of a private (owned) copy — an ownership transfer
    /// when the page was owned elsewhere.
    ReadPrivate,
    /// In-place upgrade from shared to private ownership.
    AssertOwnership,
    /// Dirty victim flushed back to memory.
    WriteBack,
}

impl TxClass {
    /// All classes, in accounting-array order.
    pub const ALL: [TxClass; 4] =
        [TxClass::ReadShared, TxClass::ReadPrivate, TxClass::AssertOwnership, TxClass::WriteBack];

    /// Maps a bus transaction kind onto its accounting class, or `None`
    /// for the kinds the table ignores.
    pub const fn from_kind(kind: BusTxKind) -> Option<TxClass> {
        match kind {
            BusTxKind::ReadShared => Some(TxClass::ReadShared),
            BusTxKind::ReadPrivate => Some(TxClass::ReadPrivate),
            BusTxKind::AssertOwnership => Some(TxClass::AssertOwnership),
            BusTxKind::WriteBack => Some(TxClass::WriteBack),
            _ => None,
        }
    }

    /// The bus transaction kind this class accounts.
    pub const fn kind(self) -> BusTxKind {
        match self {
            TxClass::ReadShared => BusTxKind::ReadShared,
            TxClass::ReadPrivate => BusTxKind::ReadPrivate,
            TxClass::AssertOwnership => BusTxKind::AssertOwnership,
            TxClass::WriteBack => BusTxKind::WriteBack,
        }
    }

    /// Stable lower-case label for reports.
    pub const fn label(self) -> &'static str {
        self.kind().label()
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// The attribution key: one page of one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning address space.
    pub asid: Asid,
    /// Virtual page number within that space.
    pub vpn: VirtPageNum,
}

/// Ping-pong verdict for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingVerdict {
    /// No ping-pong episodes: ownership is stable (or the page is
    /// touched by one CPU only).
    Quiet,
    /// Ping-ponging, and the bouncing CPUs touch overlapping words:
    /// the contention is real program sharing.
    TrueSharing,
    /// Ping-ponging, but the bouncing CPUs touch disjoint words:
    /// probable false sharing — a smaller page would decouple them.
    FalseSharing,
    /// Ping-ponging, but the footprints were too sparse to classify.
    Unclassified,
}

impl SharingVerdict {
    /// Stable lower-case label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            SharingVerdict::Quiet => "quiet",
            SharingVerdict::TrueSharing => "true-sharing",
            SharingVerdict::FalseSharing => "false-sharing",
            SharingVerdict::Unclassified => "ping-pong",
        }
    }
}

/// One ownership transfer kept in a page's bounded history ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the acquiring transaction completed.
    pub at: Nanos,
    /// The CPU that lost ownership.
    pub from: usize,
    /// The CPU that acquired ownership.
    pub to: usize,
}

/// Per-CPU slice of one page's accounting record.
#[derive(Debug, Clone, Default)]
struct CpuSlice {
    counts: [u64; 4],
    aborts: u64,
    reads: u64,
    writes: u64,
    /// Granules ever touched by this CPU (cumulative footprint).
    touched: u128,
    /// Granules touched during the current ownership tenure.
    cur_mask: u128,
    /// Footprint of the most recently *ended* tenure.
    last_mask: u128,
}

/// Accounting record for one ⟨ASID, virtual page⟩.
#[derive(Debug, Clone)]
pub struct PageStats {
    counts: [u64; 4],
    aborts: u64,
    service: Nanos,
    serviced: u64,
    cpus: Vec<CpuSlice>,
    owner: Option<usize>,
    transfers: u64,
    last_transfer: Option<Nanos>,
    /// Length of the current run of within-window transfers.
    chain: u64,
    episodes: u64,
    bounces: u64,
    true_bounces: u64,
    false_bounces: u64,
    unknown_bounces: u64,
    ring: VecDeque<Transfer>,
    ring_cap: usize,
}

impl PageStats {
    fn new(cpus: usize, ring_cap: usize) -> Self {
        PageStats {
            counts: [0; 4],
            aborts: 0,
            service: Nanos::ZERO,
            serviced: 0,
            cpus: vec![CpuSlice::default(); cpus],
            owner: None,
            transfers: 0,
            last_transfer: None,
            chain: 0,
            episodes: 0,
            bounces: 0,
            true_bounces: 0,
            false_bounces: 0,
            unknown_bounces: 0,
            ring: VecDeque::new(),
            ring_cap,
        }
    }

    /// Completed transactions of one class on this page.
    pub fn count(&self, class: TxClass) -> u64 {
        self.counts[class.index()]
    }

    /// All completed tracked transactions on this page.
    pub fn traffic(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Transactions on this page that were aborted by a monitor or
    /// fault hook.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Total miss-service time attributed to this page.
    pub fn service(&self) -> Nanos {
        self.service
    }

    /// Completed miss/upgrade services attributed to this page.
    pub fn serviced(&self) -> u64 {
        self.serviced
    }

    /// Completed transactions of one class issued by one CPU.
    pub fn cpu_count(&self, cpu: usize, class: TxClass) -> u64 {
        self.cpus.get(cpu).map_or(0, |c| c.counts[class.index()])
    }

    /// All completed tracked transactions issued by one CPU.
    pub fn cpu_traffic(&self, cpu: usize) -> u64 {
        self.cpus.get(cpu).map_or(0, |c| c.counts.iter().sum())
    }

    /// Aborts suffered by one CPU on this page.
    pub fn cpu_aborts(&self, cpu: usize) -> u64 {
        self.cpus.get(cpu).map_or(0, |c| c.aborts)
    }

    /// Word reads/writes one CPU performed on this page.
    pub fn cpu_accesses(&self, cpu: usize) -> (u64, u64) {
        self.cpus.get(cpu).map_or((0, 0), |c| (c.reads, c.writes))
    }

    /// Cumulative granule footprint of one CPU ([`GRANULES`] bits).
    pub fn cpu_footprint(&self, cpu: usize) -> u128 {
        self.cpus.get(cpu).map_or(0, |c| c.touched)
    }

    /// The CPU currently holding ownership, if any acquisition was seen.
    pub fn owner(&self) -> Option<usize> {
        self.owner
    }

    /// Ownership transfers (acquisitions by a CPU other than the
    /// current owner).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Ping-pong episodes: maximal runs of ≥ 2 consecutive transfers,
    /// each within the table's window of the previous one.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Within-window transfers (the individual bounces inside
    /// episodes).
    pub fn bounces(&self) -> u64 {
        self.bounces
    }

    /// Bounces where the two CPUs' tenure footprints overlapped.
    pub fn true_bounces(&self) -> u64 {
        self.true_bounces
    }

    /// Bounces where the footprints were non-empty but disjoint.
    pub fn false_bounces(&self) -> u64 {
        self.false_bounces
    }

    /// Bounces where at least one footprint was empty.
    pub fn unknown_bounces(&self) -> u64 {
        self.unknown_bounces
    }

    /// The most recent ownership transfers, oldest first.
    pub fn transfer_ring(&self) -> impl Iterator<Item = &Transfer> + '_ {
        self.ring.iter()
    }

    /// Classifies this page's contention.
    ///
    /// A page is [`SharingVerdict::Quiet`] until it has at least one
    /// ping-pong episode; otherwise the majority bounce classification
    /// wins, with true sharing breaking ties (the conservative call:
    /// false sharing is the *actionable* verdict, so it must dominate
    /// to be reported).
    pub fn verdict(&self) -> SharingVerdict {
        if self.episodes == 0 {
            SharingVerdict::Quiet
        } else if self.false_bounces > self.true_bounces
            && self.false_bounces >= self.unknown_bounces
        {
            SharingVerdict::FalseSharing
        } else if self.true_bounces > 0 && self.true_bounces >= self.unknown_bounces {
            SharingVerdict::TrueSharing
        } else {
            SharingVerdict::Unclassified
        }
    }

    fn record_tx(
        &mut self,
        issuer: usize,
        class: TxClass,
        aborted: bool,
        at: Nanos,
        window: Nanos,
    ) {
        if aborted {
            self.aborts += 1;
            if let Some(c) = self.cpus.get_mut(issuer) {
                c.aborts += 1;
            }
            return;
        }
        self.counts[class.index()] += 1;
        if let Some(c) = self.cpus.get_mut(issuer) {
            c.counts[class.index()] += 1;
        }
        if matches!(class, TxClass::ReadPrivate | TxClass::AssertOwnership)
            && issuer < self.cpus.len()
        {
            self.acquire(issuer, at, window);
        }
    }

    fn acquire(&mut self, to: usize, at: Nanos, window: Nanos) {
        let from = match self.owner {
            Some(p) if p != to => p,
            Some(_) => return, // re-assert by the current owner
            None => {
                // First acquisition ever seen: ownership appears, but
                // nothing transfers. Start the acquirer's tenure fresh.
                self.owner = Some(to);
                self.cpus[to].cur_mask = 0;
                return;
            }
        };
        self.owner = Some(to);
        self.transfers += 1;
        if self.ring.len() == self.ring_cap {
            self.ring.pop_front();
        }
        if self.ring_cap > 0 {
            self.ring.push_back(Transfer { at, from, to });
        }

        // Window chaining: a run of transfers each within `window` of
        // the previous one is one episode; every transfer inside a run
        // (from its second link on) is a bounce.
        let within = match self.last_transfer {
            Some(prev) => at.saturating_sub(prev) <= window,
            None => false,
        };
        self.chain = if within { self.chain + 1 } else { 1 };
        self.last_transfer = Some(at);

        // Finalize the loser's tenure footprint before classifying.
        self.cpus[from].last_mask = self.cpus[from].cur_mask;
        self.cpus[from].cur_mask = 0;
        if self.chain >= 2 {
            if self.chain == 2 {
                self.episodes += 1;
            }
            self.bounces += 1;
            let lost = self.cpus[from].last_mask;
            let held = self.cpus[to].last_mask;
            if lost != 0 && held != 0 {
                if lost & held == 0 {
                    self.false_bounces += 1;
                } else {
                    self.true_bounces += 1;
                }
            } else {
                self.unknown_bounces += 1;
            }
        }
        self.cpus[to].cur_mask = 0;
    }

    fn record_touch(&mut self, cpu: usize, offset: u32, page_bytes: u32, write: bool) {
        let Some(c) = self.cpus.get_mut(cpu) else { return };
        if write {
            c.writes += 1;
        } else {
            c.reads += 1;
        }
        let granule = if page_bytes == 0 {
            0
        } else {
            ((offset as u64 * GRANULES as u64) / page_bytes as u64).min(GRANULES as u64 - 1)
        };
        let bit = 1u128 << granule;
        c.touched |= bit;
        c.cur_mask |= bit;
    }
}

/// Table-wide headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttribSummary {
    /// Distinct ⟨ASID, page⟩ keys with any accounted activity.
    pub pages: u64,
    /// Ownership transfers across all pages.
    pub transfers: u64,
    /// Ping-pong episodes across all pages.
    pub episodes: u64,
    /// Within-window transfers (bounces) across all pages.
    pub bounces: u64,
    /// Bounces classified as true sharing.
    pub true_bounces: u64,
    /// Bounces classified as probable false sharing.
    pub false_bounces: u64,
    /// Bounces whose footprints were too sparse to classify.
    pub unknown_bounces: u64,
    /// Tracked transactions on frames with no known mapping.
    pub unattributed: u64,
}

/// The contention attribution table.
///
/// Owned by [`MachineObs`](crate::MachineObs) when
/// [`ObsConfig::attrib`](crate::ObsConfig#structfield.attrib) is set,
/// and fed by [`MachineObs::record`](crate::MachineObs::record) from
/// the same probes as the event rings.
///
/// Bus transactions address *frames*, but attribution is per
/// ⟨ASID, virtual page⟩, so the table maintains its own frame → key
/// map, updated whenever the machine resolves a translation. A tracked
/// transaction on a frame with no known mapping lands in the
/// `unattributed` bucket instead of vanishing — the per-class totals
/// (pages plus unattributed) always equal the bus's own counters.
/// When two address spaces map the same frame the most recent
/// resolution wins, so shared-frame traffic is attributed to the last
/// space that faulted it in.
#[derive(Debug, Clone)]
pub struct AttribTable {
    pages: BTreeMap<PageKey, PageStats>,
    /// Frame → the page it backs, indexed by frame number (frames are
    /// dense and allocated lowest-first, so this stays as short as the
    /// highest mapped frame).
    frames: Vec<Option<PageKey>>,
    unattributed: [u64; 4],
    unattributed_aborts: [u64; 4],
    window: Nanos,
    ring_cap: usize,
    cpus: usize,
}

impl AttribTable {
    /// Creates an empty table for `cpus` processor tracks.
    pub fn new(window: Nanos, ring_cap: usize, cpus: usize) -> Self {
        AttribTable {
            pages: BTreeMap::new(),
            frames: Vec::new(),
            unattributed: [0; 4],
            unattributed_aborts: [0; 4],
            window,
            ring_cap,
            cpus,
        }
    }

    /// The ping-pong window: consecutive ownership transfers at most
    /// this far apart chain into one episode.
    pub fn window(&self) -> Nanos {
        self.window
    }

    /// Processor tracks per page.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Records that `frame` currently backs ⟨`asid`, `vpn`⟩.
    pub(crate) fn map_frame(&mut self, frame: FrameNum, asid: Asid, vpn: VirtPageNum) {
        let f = usize::try_from(frame.raw()).expect("frame numbers fit in memory");
        if f >= self.frames.len() {
            self.frames.resize(f + 1, None);
        }
        self.frames[f] = Some(PageKey { asid, vpn });
    }

    /// Accounts one arbitrated bus transaction (completed or aborted).
    ///
    /// Kinds outside [`TxClass`] are ignored. `at` is the time the
    /// transaction left the bus (its completion), which is what the
    /// ping-pong window measures.
    pub(crate) fn record_tx(
        &mut self,
        frame: FrameNum,
        issuer: usize,
        kind: BusTxKind,
        aborted: bool,
        at: Nanos,
    ) {
        let Some(class) = TxClass::from_kind(kind) else { return };
        let key = usize::try_from(frame.raw()).ok().and_then(|f| self.frames.get(f).copied());
        let Some(key) = key.flatten() else {
            if aborted {
                self.unattributed_aborts[class.index()] += 1;
            } else {
                self.unattributed[class.index()] += 1;
            }
            return;
        };
        let window = self.window;
        self.page_mut(key).record_tx(issuer, class, aborted, at, window);
    }

    /// Accounts one word access by a CPU, updating its sub-page tenure
    /// footprint (used to classify bounces as true vs. false sharing).
    pub(crate) fn record_touch(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
        cpu: usize,
        offset: u32,
        page_bytes: u32,
        write: bool,
    ) {
        self.page_mut(PageKey { asid, vpn }).record_touch(cpu, offset, page_bytes, write);
    }

    /// Attributes one completed miss/upgrade service to a page.
    pub(crate) fn record_service(&mut self, asid: Asid, vpn: VirtPageNum, dur: Nanos) {
        let p = self.page_mut(PageKey { asid, vpn });
        p.service += dur;
        p.serviced += 1;
    }

    /// The record for `key`, created on first activity.
    fn page_mut(&mut self, key: PageKey) -> &mut PageStats {
        let (cpus, ring_cap) = (self.cpus, self.ring_cap);
        self.pages.entry(key).or_insert_with(|| PageStats::new(cpus, ring_cap))
    }

    /// The accounting record for one page, if any activity was seen.
    pub fn page(&self, key: PageKey) -> Option<&PageStats> {
        self.pages.get(&key)
    }

    /// All pages, in key order (deterministic).
    pub fn pages(&self) -> impl Iterator<Item = (PageKey, &PageStats)> + '_ {
        self.pages.iter().map(|(k, v)| (*k, v))
    }

    /// Number of distinct pages with accounted activity.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The `n` hottest pages by tracked bus traffic, ties broken by key
    /// (deterministic).
    pub fn top_by_traffic(&self, n: usize) -> Vec<(PageKey, &PageStats)> {
        let mut all: Vec<(PageKey, &PageStats)> = self.pages().collect();
        all.sort_by(|a, b| b.1.traffic().cmp(&a.1.traffic()).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Completed tracked transactions of one class, across pages *and*
    /// the unattributed bucket — equals the bus's own per-kind counter.
    pub fn class_total(&self, class: TxClass) -> u64 {
        self.unattributed[class.index()]
            + self.pages.values().map(|p| p.counts[class.index()]).sum::<u64>()
    }

    /// Completed tracked transactions of one class that hit a frame
    /// with no known mapping.
    pub fn unattributed(&self, class: TxClass) -> u64 {
        self.unattributed[class.index()]
    }

    /// All aborted tracked transactions (pages plus unattributed) —
    /// equals the sum of the bus's per-kind abort counters over the
    /// four tracked kinds.
    pub fn abort_total(&self) -> u64 {
        self.unattributed_aborts.iter().sum::<u64>()
            + self.pages.values().map(|p| p.aborts).sum::<u64>()
    }

    /// Table-wide headline numbers.
    pub fn summary(&self) -> AttribSummary {
        let mut s = AttribSummary {
            pages: self.pages.len() as u64,
            unattributed: self.unattributed.iter().sum(),
            ..AttribSummary::default()
        };
        for p in self.pages.values() {
            s.transfers += p.transfers;
            s.episodes += p.episodes;
            s.bounces += p.bounces;
            s.true_bounces += p.true_bounces;
            s.false_bounces += p.false_bounces;
            s.unknown_bounces += p.unknown_bounces;
        }
        s
    }
}

/// Renders the attribution table as a JSON value: a `summary` object
/// plus a `pages` array sorted hottest-first (capped at `top`, with
/// `pages_omitted` counting the rest).
pub fn attrib_json(table: &AttribTable, top: usize) -> Value {
    let s = table.summary();
    let summary = Value::obj()
        .set("pages", s.pages)
        .set("ownership_transfers", s.transfers)
        .set("ping_pong_episodes", s.episodes)
        .set("bounces", s.bounces)
        .set("true_sharing_bounces", s.true_bounces)
        .set("false_sharing_bounces", s.false_bounces)
        .set("unknown_bounces", s.unknown_bounces)
        .set("unattributed", s.unattributed);

    let ranked = table.top_by_traffic(top);
    let omitted = table.page_count().saturating_sub(ranked.len());
    let mut pages = Vec::with_capacity(ranked.len());
    for (key, p) in ranked {
        let mut counts = Value::obj();
        for class in TxClass::ALL {
            counts = counts.set(class.label(), p.count(class));
        }
        let mut cpus = Vec::with_capacity(table.cpus());
        for cpu in 0..table.cpus() {
            let (reads, writes) = p.cpu_accesses(cpu);
            cpus.push(
                Value::obj()
                    .set("traffic", p.cpu_traffic(cpu))
                    .set("aborts", p.cpu_aborts(cpu))
                    .set("reads", reads)
                    .set("writes", writes)
                    .set("footprint", format!("{:#x}", p.cpu_footprint(cpu))),
            );
        }
        pages.push(
            Value::obj()
                .set("asid", key.asid.raw() as u64)
                .set("vpn", key.vpn.raw())
                .set("traffic", p.traffic())
                .set("counts", counts)
                .set("aborts", p.aborts())
                .set("service_ns", p.service().as_ns())
                .set("serviced", p.serviced())
                .set("ownership_transfers", p.transfers())
                .set("ping_pong_episodes", p.episodes())
                .set("bounces", p.bounces())
                .set("true_sharing_bounces", p.true_bounces())
                .set("false_sharing_bounces", p.false_bounces())
                .set("verdict", p.verdict().label())
                .set("cpus", cpus),
        );
    }

    Value::obj()
        .set("summary", summary)
        .set("pages", Value::Arr(pages))
        .set("pages_omitted", omitted as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(asid: u8, vpn: u64) -> (Asid, VirtPageNum) {
        (Asid::new(asid), VirtPageNum::new(vpn))
    }

    fn table() -> AttribTable {
        AttribTable::new(Nanos::from_us(100), 8, 2)
    }

    fn mapped_table() -> AttribTable {
        let mut t = table();
        let (asid, vpn) = key(1, 4);
        t.map_frame(FrameNum::new(7), asid, vpn);
        t
    }

    #[test]
    fn unmapped_frames_land_in_the_unattributed_bucket() {
        let mut t = table();
        t.record_tx(FrameNum::new(3), 0, BusTxKind::ReadShared, false, Nanos::ZERO);
        t.record_tx(FrameNum::new(3), 0, BusTxKind::ReadShared, true, Nanos::ZERO);
        t.record_tx(FrameNum::new(3), 0, BusTxKind::Notify, false, Nanos::ZERO);
        assert_eq!(t.page_count(), 0);
        assert_eq!(t.unattributed(TxClass::ReadShared), 1);
        assert_eq!(t.class_total(TxClass::ReadShared), 1);
        assert_eq!(t.abort_total(), 1);
        assert_eq!(t.summary().unattributed, 1);
    }

    #[test]
    fn counts_and_aborts_attribute_to_the_mapped_key() {
        let mut t = mapped_table();
        let (asid, vpn) = key(1, 4);
        t.record_tx(FrameNum::new(7), 0, BusTxKind::ReadPrivate, false, Nanos::from_us(1));
        t.record_tx(FrameNum::new(7), 1, BusTxKind::AssertOwnership, true, Nanos::from_us(2));
        t.record_tx(FrameNum::new(7), 1, BusTxKind::WriteBack, false, Nanos::from_us(3));
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert_eq!(p.count(TxClass::ReadPrivate), 1);
        assert_eq!(p.count(TxClass::WriteBack), 1);
        assert_eq!(p.aborts(), 1);
        assert_eq!(p.cpu_count(0, TxClass::ReadPrivate), 1);
        assert_eq!(p.cpu_aborts(1), 1);
        assert_eq!(p.traffic(), 2);
        assert_eq!(t.class_total(TxClass::ReadPrivate), 1);
        assert_eq!(t.abort_total(), 1);
    }

    #[test]
    fn ping_pong_episode_detection_respects_the_window() {
        let mut t = mapped_table();
        let f = FrameNum::new(7);
        // cpu0 acquires (no transfer), then the page bounces 0→1→0→1
        // within the window: 3 transfers, 2 bounces, 1 episode.
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_us(10));
        t.record_tx(f, 1, BusTxKind::ReadPrivate, false, Nanos::from_us(20));
        t.record_tx(f, 0, BusTxKind::AssertOwnership, false, Nanos::from_us(30));
        t.record_tx(f, 1, BusTxKind::ReadPrivate, false, Nanos::from_us(40));
        // Outside the window: breaks the chain, no new episode yet.
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_ms(1));
        let (asid, vpn) = key(1, 4);
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert_eq!(p.transfers(), 4);
        assert_eq!(p.bounces(), 2);
        assert_eq!(p.episodes(), 1);
        assert_eq!(p.owner(), Some(0));
        let ring: Vec<(usize, usize)> = p.transfer_ring().map(|x| (x.from, x.to)).collect();
        assert_eq!(ring, vec![(0, 1), (1, 0), (0, 1), (1, 0)]);
        let s = t.summary();
        assert_eq!(s.episodes, 1);
        assert_eq!(s.transfers, 4);
    }

    #[test]
    fn reassert_by_owner_is_not_a_transfer() {
        let mut t = mapped_table();
        let f = FrameNum::new(7);
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_us(10));
        t.record_tx(f, 0, BusTxKind::AssertOwnership, false, Nanos::from_us(20));
        let (asid, vpn) = key(1, 4);
        assert_eq!(t.page(PageKey { asid, vpn }).unwrap().transfers(), 0);
    }

    #[test]
    fn disjoint_footprints_classify_as_false_sharing() {
        let mut t = mapped_table();
        let (asid, vpn) = key(1, 4);
        let f = FrameNum::new(7);
        let page = 128;
        // cpu0 only ever touches offset 0; cpu1 only offset 64.
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_us(1));
        t.record_touch(asid, vpn, 0, 0, page, true);
        t.record_tx(f, 1, BusTxKind::ReadPrivate, false, Nanos::from_us(2));
        t.record_touch(asid, vpn, 1, 64, page, true);
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_us(3));
        t.record_touch(asid, vpn, 0, 0, page, true);
        t.record_tx(f, 1, BusTxKind::ReadPrivate, false, Nanos::from_us(4));
        t.record_touch(asid, vpn, 1, 64, page, true);
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_us(5));
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert!(p.false_bounces() >= 2, "false bounces: {}", p.false_bounces());
        assert_eq!(p.true_bounces(), 0);
        assert_eq!(p.verdict(), SharingVerdict::FalseSharing);
        let s = t.summary();
        assert_eq!(s.false_bounces, p.false_bounces());
    }

    #[test]
    fn overlapping_footprints_classify_as_true_sharing() {
        let mut t = mapped_table();
        let (asid, vpn) = key(1, 4);
        let f = FrameNum::new(7);
        let page = 128;
        // Both CPUs hammer the same word (a lock).
        for i in 0..4u64 {
            let cpu = (i % 2) as usize;
            t.record_tx(f, cpu, BusTxKind::ReadPrivate, false, Nanos::from_us(1 + i));
            t.record_touch(asid, vpn, cpu, 4, page, true);
        }
        t.record_tx(f, 0, BusTxKind::ReadPrivate, false, Nanos::from_us(9));
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert!(p.true_bounces() >= 2);
        assert_eq!(p.false_bounces(), 0);
        assert_eq!(p.verdict(), SharingVerdict::TrueSharing);
    }

    #[test]
    fn empty_footprints_stay_unclassified() {
        let mut t = mapped_table();
        let f = FrameNum::new(7);
        for i in 0..4u64 {
            t.record_tx(f, (i % 2) as usize, BusTxKind::ReadPrivate, false, Nanos::from_us(1 + i));
        }
        let (asid, vpn) = key(1, 4);
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert!(p.bounces() > 0);
        assert_eq!(p.true_bounces() + p.false_bounces(), 0);
        assert_eq!(p.verdict(), SharingVerdict::Unclassified);
    }

    #[test]
    fn service_time_accumulates_per_page() {
        let mut t = table();
        let (asid, vpn) = key(2, 9);
        t.record_service(asid, vpn, Nanos::from_us(17));
        t.record_service(asid, vpn, Nanos::from_us(19));
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert_eq!(p.service(), Nanos::from_us(36));
        assert_eq!(p.serviced(), 2);
    }

    #[test]
    fn top_by_traffic_is_deterministically_ordered() {
        let mut t = table();
        t.map_frame(FrameNum::new(1), Asid::new(1), VirtPageNum::new(1));
        t.map_frame(FrameNum::new(2), Asid::new(1), VirtPageNum::new(2));
        t.map_frame(FrameNum::new(3), Asid::new(1), VirtPageNum::new(3));
        for _ in 0..3 {
            t.record_tx(FrameNum::new(2), 0, BusTxKind::ReadShared, false, Nanos::ZERO);
        }
        t.record_tx(FrameNum::new(1), 0, BusTxKind::ReadShared, false, Nanos::ZERO);
        t.record_tx(FrameNum::new(3), 0, BusTxKind::ReadShared, false, Nanos::ZERO);
        let top = t.top_by_traffic(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0.vpn, VirtPageNum::new(2));
        // Tie between vpn 1 and 3 breaks by key order.
        assert_eq!(top[1].0.vpn, VirtPageNum::new(1));
    }

    #[test]
    fn transfer_ring_is_bounded() {
        let mut t = AttribTable::new(Nanos::from_us(100), 2, 2);
        let (asid, vpn) = key(1, 4);
        t.map_frame(FrameNum::new(7), asid, vpn);
        for i in 0..6u64 {
            t.record_tx(
                FrameNum::new(7),
                (i % 2) as usize,
                BusTxKind::ReadPrivate,
                false,
                Nanos::from_us(i),
            );
        }
        let p = t.page(PageKey { asid, vpn }).unwrap();
        assert_eq!(p.transfer_ring().count(), 2);
        assert_eq!(p.transfers(), 5);
    }

    #[test]
    fn json_document_has_summary_and_ranked_pages() {
        let mut t = mapped_table();
        let f = FrameNum::new(7);
        for i in 0..4u64 {
            t.record_tx(f, (i % 2) as usize, BusTxKind::ReadPrivate, false, Nanos::from_us(1 + i));
        }
        let doc = crate::json::parse(&attrib_json(&t, 10).to_string()).unwrap();
        let s = doc.get("summary").unwrap();
        assert_eq!(s.get("pages").unwrap().as_u64(), Some(1));
        assert_eq!(s.get("ping_pong_episodes").unwrap().as_u64(), Some(1));
        let pages = doc.get("pages").unwrap().as_arr().unwrap();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].get("vpn").unwrap().as_u64(), Some(4));
        assert_eq!(pages[0].get("verdict").unwrap().as_str(), Some("ping-pong"));
        assert_eq!(pages[0].get("cpus").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("pages_omitted").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn tx_class_maps_kinds_both_ways() {
        for class in TxClass::ALL {
            assert_eq!(TxClass::from_kind(class.kind()), Some(class));
        }
        assert_eq!(TxClass::from_kind(BusTxKind::Notify), None);
        assert_eq!(TxClass::from_kind(BusTxKind::PlainRead), None);
    }
}
