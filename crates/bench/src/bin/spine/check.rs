//! Output checking: every value carries a stamp `(key rank, op seq)`, so a
//! read can be checked against what was written without a copy of the store.
//!
//! The checks rely on one property of how the generator routes: all PUTs of
//! one key travel over one connection, so the store receives — and its
//! ordering authority orders — them in op-seq order. Then under a strongly
//! consistent mode a GET may not return a seq below the highest PUT to its
//! key that was acknowledged before the GET was sent, and after the run each
//! written key holds a PUT between its last acknowledged and its last sent.

pub const VALUE_LEN: usize = 32;

/// The 32-byte value for `(rank, seq)`: both numbers, a check word binding
/// them, and its complement. Preloaded values are seq 0.
pub fn stamp(rank: u64, seq: u64) -> [u8; VALUE_LEN] {
    let check = check_word(rank, seq);
    let mut out = [0u8; VALUE_LEN];
    out[0..8].copy_from_slice(&rank.to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    out[16..24].copy_from_slice(&check.to_le_bytes());
    out[24..32].copy_from_slice(&(!check).to_le_bytes());
    out
}

/// Reads a stamp back; `None` when the check words do not fit the numbers.
pub fn unstamp(value: &[u8; VALUE_LEN]) -> Option<(u64, u64)> {
    let word = |i: usize| u64::from_le_bytes(value[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let (rank, seq, check, not_check) = (word(0), word(1), word(2), word(3));
    (check == check_word(rank, seq) && not_check == !check).then_some((rank, seq))
}

fn check_word(rank: u64, seq: u64) -> u64 {
    // splitmix64 finalizer over both numbers.
    let mut x = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.wrapping_add(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Why a read was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Not a stamp, another key's stamp, or a seq never sent to this key.
    Corrupt,
    /// Older than a PUT acknowledged before the read was sent (SC modes).
    Stale,
}

/// Per-key write history.
pub struct Checker {
    /// Whether reads must observe every acknowledged write (SC modes).
    strong: bool,
    /// Highest PUT seq sent per key rank (0 = never written).
    last_sent: Vec<u64>,
    /// Highest PUT seq acknowledged per key rank.
    last_acked: Vec<u64>,
}

impl Checker {
    pub fn new(keys: u64, strong: bool) -> Self {
        Checker {
            strong,
            last_sent: vec![0; keys as usize],
            last_acked: vec![0; keys as usize],
        }
    }

    /// Call before the PUT's bytes reach the socket.
    pub fn put_sent(&mut self, rank: u64, seq: u64) {
        let sent = &mut self.last_sent[rank as usize];
        *sent = (*sent).max(seq);
    }

    pub fn put_acked(&mut self, rank: u64, seq: u64) {
        let acked = &mut self.last_acked[rank as usize];
        *acked = (*acked).max(seq);
    }

    /// The seq a GET sent now must at least observe; store it with the GET.
    pub fn read_floor(&self, rank: u64) -> u64 {
        self.last_acked[rank as usize]
    }

    /// Checks a GET's value against its key and the floor taken at send.
    pub fn check_read(
        &self,
        rank: u64,
        floor: u64,
        value: &[u8; VALUE_LEN],
    ) -> Result<(), Violation> {
        let (got_rank, got_seq) = unstamp(value).ok_or(Violation::Corrupt)?;
        if got_rank != rank || got_seq > self.last_sent[rank as usize] {
            return Err(Violation::Corrupt);
        }
        if self.strong && got_seq < floor {
            return Err(Violation::Stale);
        }
        Ok(())
    }

    /// Ranks that were written at least once.
    pub fn written(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.last_sent.len() as u64).filter(|&r| self.last_sent[r as usize] > 0)
    }

    /// Checks what a replica holds for `rank` once the run is quiet: a PUT
    /// of this key no older than the last acknowledged one.
    pub fn check_final(&self, rank: u64, value: Option<&[u8; VALUE_LEN]>) -> Result<(), Violation> {
        let (got_rank, got_seq) = value.and_then(unstamp).ok_or(Violation::Corrupt)?;
        if got_rank != rank || got_seq > self.last_sent[rank as usize] {
            return Err(Violation::Corrupt);
        }
        if got_seq < self.last_acked[rank as usize] {
            return Err(Violation::Stale);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips() {
        for (rank, seq) in [(0, 0), (7, 1), (199_999, u32::MAX as u64)] {
            assert_eq!(unstamp(&stamp(rank, seq)), Some((rank, seq)));
        }
    }

    #[test]
    fn corrupted_stamp_is_flagged() {
        let mut c = Checker::new(10, true);
        c.put_sent(3, 5);
        c.put_acked(3, 5);
        let good = stamp(3, 5);
        assert_eq!(c.check_read(3, 5, &good), Ok(()));
        // One flipped bit anywhere breaks the check words.
        for byte in [0, 9, 17, 31] {
            let mut bad = good;
            bad[byte] ^= 0x10;
            assert_eq!(
                c.check_read(3, 5, &bad),
                Err(Violation::Corrupt),
                "byte {byte}"
            );
        }
        // A well-formed stamp of another key, or of a seq never sent.
        assert_eq!(c.check_read(3, 0, &stamp(4, 5)), Err(Violation::Corrupt));
        assert_eq!(c.check_read(3, 0, &stamp(3, 6)), Err(Violation::Corrupt));
        assert_eq!(c.check_final(3, None), Err(Violation::Corrupt));
    }

    #[test]
    fn stale_seq_is_flagged_under_strong_consistency_only() {
        let mut strong = Checker::new(10, true);
        let mut eventual = Checker::new(10, false);
        for c in [&mut strong, &mut eventual] {
            c.put_sent(2, 4);
            c.put_acked(2, 4);
            c.put_sent(2, 9);
        }
        let floor = strong.read_floor(2);
        assert_eq!(floor, 4);
        // The preloaded value (seq 0) after an acknowledged PUT is stale.
        assert_eq!(
            strong.check_read(2, floor, &stamp(2, 0)),
            Err(Violation::Stale)
        );
        assert_eq!(eventual.check_read(2, floor, &stamp(2, 0)), Ok(()));
        // The acknowledged PUT, or the one still in flight, are both fine.
        assert_eq!(strong.check_read(2, floor, &stamp(2, 4)), Ok(()));
        assert_eq!(strong.check_read(2, floor, &stamp(2, 9)), Ok(()));
        // After the run even an eventual store must have converged.
        assert_eq!(
            eventual.check_final(2, Some(&stamp(2, 0))),
            Err(Violation::Stale)
        );
        assert_eq!(eventual.check_final(2, Some(&stamp(2, 9))), Ok(()));
        assert_eq!(eventual.written().collect::<Vec<_>>(), vec![2]);
    }
}
