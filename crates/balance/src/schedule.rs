//! Source-to-sink transfer scheduling shared by the prefix-based balancers.

use cgselect_runtime::{Key, Proc};

use crate::BalanceReport;

/// One planned transfer: `amount` elements from processor `src` to `snk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transfer {
    pub src: usize,
    pub snk: usize,
    pub amount: u64,
}

/// Matches source excesses against sink deficits in the given orders.
///
/// Every unit of excess is assigned a slot number; sources and sinks each
/// cover contiguous slot intervals (this is what the paper computes with
/// prefix sums and binary searches in Algorithms 5 and 7); overlapping
/// intervals become transfers. The two-pointer sweep below produces the
/// identical schedule on every processor, because it runs on the globally
/// concatenated counts.
///
/// `sources` and `sinks` are `(rank, amount)` lists with positive amounts;
/// their total amounts must match.
pub(crate) fn transfer_schedule(sources: &[(usize, u64)], sinks: &[(usize, u64)]) -> Vec<Transfer> {
    debug_assert_eq!(
        sources.iter().map(|(_, a)| a).sum::<u64>(),
        sinks.iter().map(|(_, a)| a).sum::<u64>(),
        "total excess must equal total deficit"
    );
    let mut out = Vec::new();
    let mut si = 0usize;
    let mut ti = 0usize;
    let mut src_left = sources.first().map(|&(_, a)| a).unwrap_or(0);
    let mut snk_left = sinks.first().map(|&(_, a)| a).unwrap_or(0);
    while si < sources.len() && ti < sinks.len() {
        let amount = src_left.min(snk_left);
        if amount > 0 {
            out.push(Transfer { src: sources[si].0, snk: sinks[ti].0, amount });
        }
        src_left -= amount;
        snk_left -= amount;
        if src_left == 0 {
            si += 1;
            if si < sources.len() {
                src_left = sources[si].1;
            }
        }
        if snk_left == 0 {
            ti += 1;
            if ti < sinks.len() {
                snk_left = sinks[ti].1;
            }
        }
    }
    out
}

/// Executes a transfer schedule on this processor: sends peel elements off
/// the tail of `data`; receives append. Sources never receive and sinks
/// never send, so issuing all sends before all receives cannot deadlock.
pub(crate) fn execute_transfers<T: Key>(
    proc: &mut Proc,
    data: &mut Vec<T>,
    schedule: &[Transfer],
    tag: u64,
) -> BalanceReport {
    let me = proc.rank();
    let mut report = BalanceReport::default();
    for t in schedule.iter().filter(|t| t.src == me) {
        let keep = data.len() - t.amount as usize;
        let payload = data.split_off(keep);
        proc.charge_ops(t.amount); // local copy out of the buffer
        proc.send_vec_tagged(t.snk, tag, payload);
        report.elements_sent += t.amount;
        report.messages_sent += 1;
    }
    // A sink knows its whole intake from the schedule: grow once, not per
    // message.
    let incoming: u64 = schedule.iter().filter(|t| t.snk == me).map(|t| t.amount).sum();
    data.reserve(incoming as usize);
    for t in schedule.iter().filter(|t| t.snk == me) {
        let payload: Vec<T> = proc.recv_vec_tagged(t.src, tag);
        debug_assert_eq!(payload.len() as u64, t.amount);
        proc.charge_ops(t.amount); // local copy into the buffer
        data.extend(payload);
        report.elements_recv += t.amount;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_one_to_one() {
        let s = transfer_schedule(&[(0, 5)], &[(3, 5)]);
        assert_eq!(s, vec![Transfer { src: 0, snk: 3, amount: 5 }]);
    }

    #[test]
    fn splits_across_sinks() {
        let s = transfer_schedule(&[(1, 10)], &[(2, 4), (5, 6)]);
        assert_eq!(
            s,
            vec![Transfer { src: 1, snk: 2, amount: 4 }, Transfer { src: 1, snk: 5, amount: 6 },]
        );
    }

    #[test]
    fn splits_across_sources() {
        let s = transfer_schedule(&[(0, 3), (4, 7)], &[(9, 10)]);
        assert_eq!(
            s,
            vec![Transfer { src: 0, snk: 9, amount: 3 }, Transfer { src: 4, snk: 9, amount: 7 },]
        );
    }

    #[test]
    fn interleaved_intervals() {
        let s = transfer_schedule(&[(0, 4), (1, 4)], &[(2, 3), (3, 3), (4, 2)]);
        let total: u64 = s.iter().map(|t| t.amount).sum();
        assert_eq!(total, 8);
        // Per-source and per-sink sums must match the inputs.
        let sum_for = |rank: usize, by_src: bool| -> u64 {
            s.iter()
                .filter(|t| if by_src { t.src == rank } else { t.snk == rank })
                .map(|t| t.amount)
                .sum()
        };
        assert_eq!(sum_for(0, true), 4);
        assert_eq!(sum_for(1, true), 4);
        assert_eq!(sum_for(2, false), 3);
        assert_eq!(sum_for(3, false), 3);
        assert_eq!(sum_for(4, false), 2);
    }

    #[test]
    fn empty_schedule() {
        assert!(transfer_schedule(&[], &[]).is_empty());
    }
}
