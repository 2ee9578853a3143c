//! The shared main memory: an array of cache-page frames.

use vmp_types::{FrameNum, Nanos, PageSize, PhysAddr};

use crate::MemTimings;

/// Byte-accurate shared main memory, viewed as a sequence of *cache page
/// frames* (paper §3.1): frame `k` holds bytes
/// `k·page_size .. (k+1)·page_size`.
///
/// Main memory is only modified by `write-back` bus transactions and DMA
/// writes, which is what makes the bus monitor's abort-after-a-few-words
/// behaviour safe (paper §3.2); the simulator preserves that property by
/// funnelling all mutation through [`MainMemory::write`].
///
/// # Examples
///
/// ```
/// use vmp_mem::MainMemory;
/// use vmp_types::{FrameNum, PageSize, PhysAddr};
///
/// let mut mem = MainMemory::new(PageSize::S128, 1024);
/// assert_eq!(mem.frames(), 8);
/// mem.write_u32(PhysAddr::new(0x84), 0xdeadbeef);
/// assert_eq!(mem.read_u32(PhysAddr::new(0x84)), 0xdeadbeef);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    page_size: PageSize,
    frames: u64,
    /// Per frame: 1 + the index of its page in first-write order, or 0 while the
    /// frame has never been written (it reads as zeros).
    slots: Vec<u32>,
    /// The written frames' bytes, one page each in first-write order,
    /// held in chunks of `1 << chunk_shift` pages.
    chunks: Vec<Vec<u8>>,
    /// log2 of the pages per chunk.
    chunk_shift: u32,
    /// One page of zeros: what an unwritten frame reads.
    zeros: Box<[u8]>,
    timings: MemTimings,
}

/// Bytes per chunk of written pages (or one page, if pages are larger).
///
/// Pages live in chunks of one size rather than in one block reserved
/// for the whole memory. A large block that is mostly untouched costs
/// resident memory only where it lands on pages the process does not
/// already hold, so where the allocator placed one 4 MB reservation made
/// the peak resident set of a run that rebuilds machines differ by about
/// the written part from one run to the next. Chunks that size reuse
/// each other's freed space.
const CHUNK_BYTES: usize = 64 * 1024;

impl MainMemory {
    /// Creates zeroed memory of `total_bytes`, rounded up to whole frames.
    ///
    /// Only frames that are written take up host memory: the rest read
    /// as zeros. A first write that finds the last chunk full allocates
    /// the next one; pages never move once written.
    ///
    /// # Panics
    ///
    /// Panics if the memory has `u32::MAX` frames or more.
    pub fn new(page_size: PageSize, total_bytes: u64) -> Self {
        let frames = page_size.frames_in(total_bytes);
        assert!(frames < u64::from(u32::MAX), "{frames} frames is too many");
        let page = page_size.bytes() as usize;
        MainMemory {
            page_size,
            frames,
            slots: vec![0; frames as usize],
            chunks: Vec::new(),
            chunk_shift: (CHUNK_BYTES / page).max(1).trailing_zeros(),
            zeros: vec![0; page].into_boxed_slice(),
            timings: MemTimings::default(),
        }
    }

    /// Creates memory with explicit transfer timings.
    pub fn with_timings(page_size: PageSize, total_bytes: u64, timings: MemTimings) -> Self {
        let mut m = MainMemory::new(page_size, total_bytes);
        m.timings = timings;
        m
    }

    /// The frame size (= cache page size).
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Number of frames.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.frames * self.page_size.bytes()
    }

    /// The transfer timing model.
    pub fn timings(&self) -> &MemTimings {
        &self.timings
    }

    /// Time for a one-page block transfer to or from this memory.
    pub fn page_transfer_time(&self) -> Nanos {
        self.timings.page_transfer(self.page_size)
    }

    /// The page of a written frame's slot entry (`slot >= 1`).
    fn page(&self, slot: u32) -> &[u8] {
        let (chunk, at) = self.locate(slot);
        &self.chunks[chunk][at..at + self.zeros.len()]
    }

    fn page_mut(&mut self, slot: u32) -> &mut [u8] {
        let (chunk, at) = self.locate(slot);
        let page = self.zeros.len();
        &mut self.chunks[chunk][at..at + page]
    }

    /// The chunk and byte offset of a written frame's page.
    fn locate(&self, slot: u32) -> (usize, usize) {
        let i = (slot - 1) as usize;
        let within = i & ((1 << self.chunk_shift) - 1);
        (i >> self.chunk_shift, within * self.zeros.len())
    }

    /// Gives an unwritten frame a zeroed page and returns its slot entry.
    fn materialise(&mut self, frame: FrameNum) -> u32 {
        let chunk_bytes = self.zeros.len() << self.chunk_shift;
        if self.chunks.last().is_none_or(|c| c.len() == chunk_bytes) {
            self.chunks.push(Vec::with_capacity(chunk_bytes));
        }
        let full = (self.chunks.len() - 1) * chunk_bytes;
        let last = self.chunks.last_mut().expect("a chunk with room");
        last.extend_from_slice(&self.zeros);
        let held = full + last.len();
        let slot = (held / self.zeros.len()) as u32;
        self.slots[frame.index()] = slot;
        slot
    }

    /// Checks an access and returns the frame's slot entry.
    fn slot(&self, frame: FrameNum, offset: usize, len: usize) -> u32 {
        assert!(frame.raw() < self.frames, "frame {frame} out of range");
        assert!(offset + len <= self.zeros.len(), "access crosses frame boundary");
        self.slots[frame.index()]
    }

    /// Reads `len` bytes at `offset` within a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range or the access crosses the
    /// frame boundary.
    pub fn read(&self, frame: FrameNum, offset: usize, len: usize) -> &[u8] {
        match self.slot(frame, offset, len) {
            0 => &self.zeros[offset..offset + len],
            slot => &self.page(slot)[offset..offset + len],
        }
    }

    /// Returns a copy of one whole frame (the unit a block transfer moves).
    pub fn read_frame(&self, frame: FrameNum) -> Vec<u8> {
        self.read(frame, 0, self.page_size.bytes() as usize).to_vec()
    }

    /// Every frame that has been written, in ascending frame order, with
    /// its bytes. The frames left out read as zeros.
    pub fn written_frames(&self) -> impl Iterator<Item = (FrameNum, &[u8])> + '_ {
        let written = self.slots.iter().enumerate().filter(|&(_, &slot)| slot != 0);
        written.map(move |(frame, &slot)| (FrameNum::new(frame as u64), self.page(slot)))
    }

    /// Writes bytes at `offset` within a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range or the access crosses the
    /// frame boundary.
    pub fn write(&mut self, frame: FrameNum, offset: usize, bytes: &[u8]) {
        let slot = match self.slot(frame, offset, bytes.len()) {
            0 => self.materialise(frame),
            slot => slot,
        };
        self.page_mut(slot)[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Replaces one whole frame (a write-back block transfer).
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is exactly one frame long.
    pub fn write_frame(&mut self, frame: FrameNum, bytes: &[u8]) {
        assert_eq!(bytes.len() as u64, self.page_size.bytes(), "write_frame needs a full frame");
        self.write(frame, 0, bytes);
    }

    /// Zero-fills one whole frame in place (a demand-zero page). A frame
    /// never written is already zero and stays unwritten.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range.
    pub fn zero_frame(&mut self, frame: FrameNum) {
        if let slot @ 1.. = self.slot(frame, 0, self.zeros.len()) {
            self.page_mut(slot).fill(0);
        }
    }

    /// Reads a little-endian `u32` at a physical address (word-aligned).
    ///
    /// # Panics
    ///
    /// Panics if the address is unaligned or out of range.
    pub fn read_u32(&self, pa: PhysAddr) -> u32 {
        assert_eq!(pa.raw() % 4, 0, "unaligned word read at {pa}");
        let frame = self.page_size.frame_of(pa);
        let offset = self.page_size.offset_of(pa.raw()) as usize;
        let b = self.read(frame, offset, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Writes a little-endian `u32` at a physical address (word-aligned).
    ///
    /// # Panics
    ///
    /// Panics if the address is unaligned or out of range.
    pub fn write_u32(&mut self, pa: PhysAddr, value: u32) {
        assert_eq!(pa.raw() % 4, 0, "unaligned word write at {pa}");
        let frame = self.page_size.frame_of(pa);
        let offset = self.page_size.offset_of(pa.raw()) as usize;
        self.write(frame, offset, &value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of page data the memory holds.
    fn held(m: &MainMemory) -> usize {
        m.chunks.iter().map(Vec::len).sum()
    }

    #[test]
    fn pages_spread_over_chunks_keep_their_bytes() {
        let mut m = MainMemory::new(PageSize::S128, 1024 * 1024);
        let per_chunk = CHUNK_BYTES / 128;
        let frames = m.frames();
        let frame = |k: u64| FrameNum::new(k * 7919 % frames);
        let n = 2 * per_chunk as u64 + 276;
        for k in 0..n {
            m.write(frame(k), 4, &(k as u32).to_le_bytes());
        }
        assert_eq!(held(&m), n as usize * 128);
        assert_eq!(m.chunks.len(), 3);
        for k in 0..n {
            assert_eq!(m.read(frame(k), 0, 8), [[0; 4], (k as u32).to_le_bytes()].concat());
        }
        m.zero_frame(frame(per_chunk as u64 + 9));
        assert_eq!(m.read(frame(per_chunk as u64 + 9), 0, 128), &[0; 128]);
        assert_eq!(m.read(frame(per_chunk as u64 + 8), 4, 4), (per_chunk as u32 + 8).to_le_bytes());
        let frames: Vec<u64> = m.written_frames().map(|(f, _)| f.raw()).collect();
        assert_eq!(frames.len(), n as usize);
        assert!(frames.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pages_larger_than_a_chunk_take_one_chunk_each() {
        let big = PageSize::new(128 * 1024).unwrap();
        let mut m = MainMemory::new(big, 1024 * 1024);
        m.write_u32(PhysAddr::new(5 * 128 * 1024 + 8), 5);
        m.write_u32(PhysAddr::new(2 * 128 * 1024 + 8), 2);
        assert_eq!(m.chunks.len(), 2);
        assert_eq!(m.read_u32(PhysAddr::new(5 * 128 * 1024 + 8)), 5);
        assert_eq!(m.read_u32(PhysAddr::new(2 * 128 * 1024 + 8)), 2);
        assert_eq!(m.read_u32(PhysAddr::new(3 * 128 * 1024 + 8)), 0);
    }

    #[test]
    fn rounds_up_to_whole_frames() {
        let m = MainMemory::new(PageSize::S256, 1000);
        assert_eq!(m.frames(), 4);
        assert_eq!(m.total_bytes(), 1024);
    }

    #[test]
    fn frame_read_write_roundtrip() {
        let mut m = MainMemory::new(PageSize::S128, 1024);
        let page: Vec<u8> = (0..128).map(|i| i as u8).collect();
        m.write_frame(FrameNum::new(3), &page);
        assert_eq!(m.read_frame(FrameNum::new(3)), page);
        assert_eq!(m.read_frame(FrameNum::new(2)), vec![0u8; 128]);
    }

    #[test]
    fn zero_frame_clears_only_its_frame() {
        let mut m = MainMemory::new(PageSize::S128, 512);
        for f in 0..4 {
            m.write_frame(FrameNum::new(f), &[0xab; 128]);
        }
        m.zero_frame(FrameNum::new(2));
        assert_eq!(m.read(FrameNum::new(2), 0, 128), &[0; 128]);
        for f in [0, 1, 3] {
            assert_eq!(m.read(FrameNum::new(f), 0, 128), &[0xab; 128]);
        }
    }

    #[test]
    fn unwritten_frames_read_zero_and_hold_no_page() {
        let m = MainMemory::new(PageSize::S256, 4 * 1024 * 1024);
        assert_eq!(m.frames(), 16 * 1024);
        assert_eq!(m.total_bytes(), 4 * 1024 * 1024);
        assert_eq!(m.read(FrameNum::new(12_345), 0, 256), &[0; 256]);
        assert_eq!(m.read_u32(PhysAddr::new(4 * 1024 * 1024 - 4)), 0);
        assert_eq!(held(&m), 0, "reads materialise nothing");
    }

    #[test]
    fn writing_a_high_frame_stores_only_that_frame() {
        let mut m = MainMemory::new(PageSize::S128, 1024 * 1024);
        let last = FrameNum::new(m.frames() - 1);
        m.write(last, 124, &[1, 2, 3, 4]);
        assert_eq!(held(&m), 128, "one page holds the one written frame");
        assert_eq!(m.read(last, 120, 8), &[0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(m.read_frame(FrameNum::new(m.frames() - 2)), vec![0; 128]);
        // A second write to the same frame reuses its page.
        m.write_u32(PhysAddr::new(1024 * 1024 - 128), 0xfeed_f00d);
        assert_eq!(held(&m), 128);
        assert_eq!(m.read_u32(PhysAddr::new(1024 * 1024 - 128)), 0xfeed_f00d);
        assert_eq!(m.chunks.len(), 1);
        assert_eq!(m.chunks[0].capacity(), CHUNK_BYTES, "a chunk is reserved whole");
    }

    #[test]
    fn written_frames_ascend_and_skip_unwritten_ones() {
        let mut m = MainMemory::new(PageSize::S128, 1024);
        m.write_u32(PhysAddr::new(5 * 128), 5);
        m.write_u32(PhysAddr::new(2 * 128), 2);
        m.zero_frame(FrameNum::new(3));
        let frames: Vec<(u64, u8)> = m.written_frames().map(|(f, b)| (f.raw(), b[0])).collect();
        assert_eq!(frames, vec![(2, 2), (5, 5)]);
    }

    #[test]
    fn zero_frame_on_an_unwritten_frame_stays_unwritten() {
        let mut m = MainMemory::new(PageSize::S128, 512);
        m.zero_frame(FrameNum::new(1));
        assert_eq!(held(&m), 0);
        assert_eq!(m.read(FrameNum::new(1), 0, 128), &[0; 128]);
        m.write_frame(FrameNum::new(1), &[7; 128]);
        m.zero_frame(FrameNum::new(1));
        assert_eq!(m.read(FrameNum::new(1), 0, 128), &[0; 128]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_write() {
        let mut m = MainMemory::new(PageSize::S128, 256);
        m.write(FrameNum::new(2), 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_zero_frame() {
        let mut m = MainMemory::new(PageSize::S128, 256);
        m.zero_frame(FrameNum::new(2));
    }

    #[test]
    fn word_access_little_endian() {
        let mut m = MainMemory::new(PageSize::S128, 1024);
        m.write_u32(PhysAddr::new(0x80), 0x0102_0304);
        assert_eq!(m.read(FrameNum::new(1), 0, 4), &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(m.read_u32(PhysAddr::new(0x80)), 0x0102_0304);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_frame() {
        let m = MainMemory::new(PageSize::S128, 256);
        let _ = m.read(FrameNum::new(2), 0, 1);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn rejects_cross_frame_access() {
        let mut m = MainMemory::new(PageSize::S128, 256);
        m.write(FrameNum::new(0), 126, &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn rejects_unaligned_word() {
        let m = MainMemory::new(PageSize::S128, 256);
        let _ = m.read_u32(PhysAddr::new(2));
    }

    #[test]
    fn transfer_time_uses_timings() {
        let m = MainMemory::new(PageSize::S256, 1024);
        assert_eq!(m.page_transfer_time().as_micros_f64(), 6.6);
        let fast = MainMemory::with_timings(
            PageSize::S256,
            1024,
            MemTimings { first_word: Nanos::from_ns(100), next_word: Nanos::from_ns(50) },
        );
        assert_eq!(fast.page_transfer_time().as_ns(), 100 + 63 * 50);
        assert_eq!(fast.timings().next_word, Nanos::from_ns(50));
    }
}
