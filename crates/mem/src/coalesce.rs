//! The coalescing unit: packs per-lane memory requests into a small set of
//! wide main-memory transactions, using rules similar to early NVIDIA Tesla
//! devices (Lindholm et al. 2008), as in SIMTight.

/// One lane's memory request, as presented to the coalescing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRequest {
    /// Byte address.
    pub addr: u32,
    /// Access size in bytes (1, 2, 4; capability accesses arrive as two
    /// 4-byte flits).
    pub bytes: u32,
}

/// Result of coalescing one warp-wide access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coalesced {
    /// Number of 64-byte DRAM transactions generated.
    pub transactions: u32,
    /// True if every active lane hit the same word (a broadcast — the
    /// "same-block with identical address" fast case).
    pub uniform: bool,
}

/// The coalescing unit (stateless; per-access statistics are accumulated by
/// the caller).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoalescingUnit {
    _private: (),
}

/// DRAM transaction (burst) size in bytes.
pub const TRANSACTION_BYTES: u32 = 64;

impl CoalescingUnit {
    /// Create a coalescing unit.
    pub fn new() -> Self {
        CoalescingUnit { _private: () }
    }

    /// Coalesce the active lanes' requests into 64-byte block transactions:
    /// all requests that fall in the same naturally-aligned 64-byte block
    /// share one transaction. Requests spanning a block boundary (possible
    /// only for misaligned multi-byte accesses, which the pipeline rejects
    /// earlier) are not considered.
    pub fn coalesce(self, reqs: &[LaneRequest]) -> Coalesced {
        // A warp has at most 64 lanes, so the block list fits on the
        // stack; the heap only serves oversized (out-of-contract) sets.
        let mut stack = [0u32; 64];
        let mut heap = Vec::new();
        let blocks = if reqs.len() <= stack.len() {
            &mut stack[..]
        } else {
            heap.resize(reqs.len(), 0);
            &mut heap[..]
        };
        coalesce_blocks(reqs, blocks)
    }
}

/// [`CoalescingUnit::coalesce`], also leaving every request's 64-byte block
/// number in `blocks[..reqs.len()]`, ascending: the one sort a warp-wide
/// DRAM access needs, shared by the transaction count (the number of
/// distinct blocks) and the tag controller's lookups (one per distinct
/// block). Unit-stride and other ascending warps arrive sorted, so the sort
/// runs only when a pair is out of order.
///
/// # Panics
///
/// Panics if `blocks` has fewer slots than `reqs` has requests.
pub fn coalesce_blocks(reqs: &[LaneRequest], blocks: &mut [u32]) -> Coalesced {
    let Some(&first) = reqs.first() else {
        return Coalesced { transactions: 0, uniform: false };
    };
    let blocks = &mut blocks[..reqs.len()];
    let uniform = reqs.iter().all(|r| r.addr == first.addr && r.bytes == first.bytes);
    if uniform {
        blocks.fill(first.addr / TRANSACTION_BYTES);
        return Coalesced { transactions: 1, uniform };
    }
    for (b, r) in blocks.iter_mut().zip(reqs) {
        *b = r.addr / TRANSACTION_BYTES;
    }
    if !blocks.is_sorted() {
        blocks.sort_unstable();
    }
    let transactions = 1 + blocks.windows(2).filter(|w| w[0] != w[1]).count() as u32;
    Coalesced { transactions, uniform }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(addrs: &[u32]) -> Vec<LaneRequest> {
        addrs.iter().map(|&addr| LaneRequest { addr, bytes: 4 }).collect()
    }

    #[test]
    fn consecutive_words_coalesce() {
        let c = CoalescingUnit::new();
        // 16 lanes reading consecutive words = one 64-byte transaction.
        let r = reqs(&(0..16).map(|i| 0x8000_0000 + i * 4).collect::<Vec<_>>());
        assert_eq!(c.coalesce(&r).transactions, 1);
        // 32 lanes reading consecutive words = two transactions.
        let r = reqs(&(0..32).map(|i| 0x8000_0000 + i * 4).collect::<Vec<_>>());
        assert_eq!(c.coalesce(&r).transactions, 2);
    }

    #[test]
    fn uniform_access_is_one_broadcast() {
        let c = CoalescingUnit::new();
        let r = reqs(&[0x8000_0040; 32]);
        let out = c.coalesce(&r);
        assert_eq!(out.transactions, 1);
        assert!(out.uniform);
    }

    #[test]
    fn strided_access_fans_out() {
        let c = CoalescingUnit::new();
        // Stride of 256 bytes: every lane its own block.
        let r = reqs(&(0..32).map(|i| 0x8000_0000 + i * 256).collect::<Vec<_>>());
        assert_eq!(c.coalesce(&r).transactions, 32);
    }

    #[test]
    fn unaligned_block_split() {
        let c = CoalescingUnit::new();
        // Consecutive words starting mid-block span two blocks.
        let r = reqs(&(0..16).map(|i| 0x8000_0020 + i * 4).collect::<Vec<_>>());
        assert_eq!(c.coalesce(&r).transactions, 2);
    }

    #[test]
    fn empty() {
        assert_eq!(CoalescingUnit::new().coalesce(&[]).transactions, 0);
    }
}
