//! DMA devices: unmodified VME masters made consistency-safe in software.
//!
//! Standard DMA devices issue plain (non-consistency) bus transfers that
//! no bus monitor reacts to. The paper's recipe (§3.3): the operating
//! system takes a lock on the target region, the managing processor
//! assert-ownerships every frame (flushing all cached copies machine-
//! wide) and sets its own action table to `10` to protect the region,
//! the device transfers, and the entries are cleared afterwards.
//! [`crate::Machine::queue_dma`] runs exactly this sequence.

use vmp_types::{FrameNum, ProcessorId};

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Device → memory (e.g. Ethernet receive).
    ToMemory,
    /// Memory → device (e.g. framebuffer scan-out, Ethernet send).
    FromMemory,
}

/// A DMA request: a set of frames and, for [`DmaDirection::ToMemory`],
/// the bytes to deposit (one full page per frame).
#[derive(Debug, Clone)]
pub struct DmaRequest {
    /// The physical frames to transfer, in order.
    pub frames: Vec<FrameNum>,
    /// Transfer direction.
    pub direction: DmaDirection,
    /// Source bytes for `ToMemory` (must be `frames.len() × page_size`);
    /// empty for `FromMemory`.
    pub data: Vec<u8>,
}

impl DmaRequest {
    /// A device-write request depositing `data` into `frames`.
    pub fn to_memory(frames: Vec<FrameNum>, data: Vec<u8>) -> Self {
        DmaRequest { frames, direction: DmaDirection::ToMemory, data }
    }

    /// A device-read request capturing the contents of `frames`.
    pub fn from_memory(frames: Vec<FrameNum>) -> Self {
        DmaRequest { frames, direction: DmaDirection::FromMemory, data: Vec::new() }
    }
}

/// Progress of a DMA engine through the §3.3 sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DmaPhase {
    /// Asserting ownership of frame `i` and protecting it.
    Setup(usize),
    /// Transferring frame `i` with plain bus transactions.
    Transfer(usize),
    /// Clearing the protect entries.
    Teardown,
    /// Finished.
    Done,
}

/// One in-flight DMA engine (internal to the machine).
#[derive(Debug)]
pub(crate) struct DmaEngine {
    pub(crate) id: ProcessorId,
    pub(crate) host: usize,
    pub(crate) request: DmaRequest,
    pub(crate) phase: DmaPhase,
    /// An earlier request touching the same frames; this one waits for
    /// it (the OS-level lock of §3.3 serializes overlapping regions).
    pub(crate) blocked_on: Option<usize>,
    /// Bytes captured so far by a `FromMemory` transfer.
    pub(crate) buffer: Vec<u8>,
    /// Sequence number of the engine's latest scheduled event.
    pub(crate) seq: u64,
}

impl DmaEngine {
    pub(crate) fn new(id: ProcessorId, host: usize, request: DmaRequest) -> Self {
        assert!(!request.frames.is_empty(), "DMA request needs at least one frame");
        if request.direction == DmaDirection::ToMemory {
            assert!(!request.data.is_empty(), "ToMemory DMA requires source data");
        }
        DmaEngine {
            id,
            host,
            request,
            phase: DmaPhase::Setup(0),
            blocked_on: None,
            buffer: Vec::new(),
            seq: 0,
        }
    }

    pub(crate) fn bump_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = DmaRequest::to_memory(vec![FrameNum::new(1)], vec![0; 128]);
        assert_eq!(r.direction, DmaDirection::ToMemory);
        let r = DmaRequest::from_memory(vec![FrameNum::new(2), FrameNum::new(3)]);
        assert_eq!(r.direction, DmaDirection::FromMemory);
        assert!(r.data.is_empty());
    }

    #[test]
    fn engine_sequences() {
        let mut e =
            DmaEngine::new(ProcessorId::new(5), 0, DmaRequest::from_memory(vec![FrameNum::new(0)]));
        assert_eq!(e.phase, DmaPhase::Setup(0));
        assert_eq!(e.bump_seq(), 1);
        assert_eq!(e.seq, 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn rejects_empty_request() {
        let _ = DmaEngine::new(ProcessorId::new(5), 0, DmaRequest::from_memory(vec![]));
    }

    #[test]
    #[should_panic(expected = "source data")]
    fn rejects_to_memory_without_data() {
        let _ = DmaEngine::new(
            ProcessorId::new(5),
            0,
            DmaRequest::to_memory(vec![FrameNum::new(0)], vec![]),
        );
    }
}
