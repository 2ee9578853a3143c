//! The bus monitor's two-bit-per-frame action table.

use core::fmt;

use vmp_types::FrameNum;

/// One two-bit action-table entry (paper §3.2).
///
/// | bits | meaning |
/// |------|---------|
/// | `00` | do nothing |
/// | `01` | interrupt the local processor on read-private / assert-ownership (the page is held **shared**) |
/// | `10` | abort the transaction and interrupt on any consistency-related transaction (the page is held **private**, or protected for DMA) |
/// | `11` | interrupt the local processor on a notification transaction |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum ActionCode {
    /// `00` — ignore all transactions on this frame.
    #[default]
    Ignore = 0b00,
    /// `01` — interrupt on ownership requests; the page is held shared.
    InterruptOnOwnership = 0b01,
    /// `10` — abort + interrupt on any consistency-related transaction;
    /// the page is held private (or protected during DMA).
    Protect = 0b10,
    /// `11` — interrupt on a notification transaction.
    NotifyWatch = 0b11,
}

impl ActionCode {
    /// Decodes from the two-bit hardware encoding.
    pub const fn from_bits(bits: u8) -> ActionCode {
        match bits & 0b11 {
            0b00 => ActionCode::Ignore,
            0b01 => ActionCode::InterruptOnOwnership,
            0b10 => ActionCode::Protect,
            _ => ActionCode::NotifyWatch,
        }
    }

    /// Encodes to the two-bit hardware encoding.
    pub const fn bits(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for ActionCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActionCode::Ignore => "00/ignore",
            ActionCode::InterruptOnOwnership => "01/shared",
            ActionCode::Protect => "10/private",
            ActionCode::NotifyWatch => "11/notify",
        };
        f.write_str(s)
    }
}

/// The per-monitor table of [`ActionCode`]s, one per physical cache-page
/// frame.
///
/// For the prototype's maximum of 8 MB of physical memory with 128-byte
/// pages this is 64 Ki entries × 2 bits = 16 KB of SRAM per board (paper
/// §3.2, footnote 6); the simulator stores one byte per entry for
/// simplicity.
///
/// # Examples
///
/// ```
/// use vmp_bus::{ActionCode, ActionTable};
/// use vmp_types::FrameNum;
///
/// let mut t = ActionTable::new(65536);
/// assert_eq!(t.get(FrameNum::new(9)), ActionCode::Ignore);
/// t.set(FrameNum::new(9), ActionCode::Protect);
/// assert_eq!(t.get(FrameNum::new(9)), ActionCode::Protect);
/// ```
#[derive(Debug, Clone)]
pub struct ActionTable {
    entries: Vec<ActionCode>,
}

impl ActionTable {
    /// Creates a table of `frames` entries, all `00` (ignore).
    pub fn new(frames: u64) -> Self {
        ActionTable { entries: vec![ActionCode::Ignore; frames as usize] }
    }

    /// Number of frames covered.
    pub fn frames(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Reads the entry for a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range.
    pub fn get(&self, frame: FrameNum) -> ActionCode {
        self.entries[frame.index()]
    }

    /// Writes the entry for a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range.
    pub fn set(&mut self, frame: FrameNum, code: ActionCode) {
        self.entries[frame.index()] = code;
    }

    /// Iterates over non-ignore entries as `(FrameNum, ActionCode)`.
    pub fn iter_active(&self) -> impl Iterator<Item = (FrameNum, ActionCode)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != ActionCode::Ignore)
            .map(|(i, &c)| (FrameNum::new(i as u64), c))
    }

    /// Resets every entry to `00` (ignore). Used by the FIFO-overflow
    /// recovery path (§3.3): the processor invalidates its shared entries
    /// and rebuilds the table.
    pub fn clear(&mut self) {
        self.entries.fill(ActionCode::Ignore);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        for bits in 0..4u8 {
            assert_eq!(ActionCode::from_bits(bits).bits(), bits);
        }
        assert_eq!(ActionCode::from_bits(0b111), ActionCode::NotifyWatch);
        assert_eq!(ActionCode::default(), ActionCode::Ignore);
    }

    #[test]
    fn table_get_set_clear() {
        let mut t = ActionTable::new(16);
        assert_eq!(t.frames(), 16);
        t.set(FrameNum::new(3), ActionCode::InterruptOnOwnership);
        t.set(FrameNum::new(5), ActionCode::Protect);
        assert_eq!(t.get(FrameNum::new(3)), ActionCode::InterruptOnOwnership);
        let active: Vec<_> = t.iter_active().collect();
        assert_eq!(active.len(), 2);
        assert_eq!(active[0], (FrameNum::new(3), ActionCode::InterruptOnOwnership));
        t.clear();
        assert_eq!(t.iter_active().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_frame_panics() {
        let t = ActionTable::new(4);
        let _ = t.get(FrameNum::new(4));
    }

    #[test]
    fn display() {
        assert_eq!(ActionCode::Protect.to_string(), "10/private");
        assert_eq!(ActionCode::Ignore.to_string(), "00/ignore");
    }
}
