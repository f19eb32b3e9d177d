//! `MergeCounter::offer_run` must be indistinguishable from offering each
//! item of the run in turn: same released stream, same outcome tally,
//! same internal state. The arrival schedules mix per-lane FIFO runs that
//! cut across micro-flow boundaries with the fault cases the runtime's
//! merger meets — lost micro-flows, lost closing packets, duplicate
//! copies on the same or a recovery lane, late copies after the counter
//! passed — under flush deadlines from "every offer" to "never".

use mflow::{MergeCounter, MfTag};
use proptest::prelude::*;

/// SplitMix64: the schedule generator's source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

type Item = (MfTag, u64);

/// Builds one arrival schedule as a list of runs. Each lane's queue is
/// FIFO; runs are cut from queue fronts at random lengths, so a run may
/// end mid-micro-flow or span several micro-flows of one lane.
fn schedule(seed: u64, n_mfs: u64, n_lanes: usize) -> Vec<Vec<Item>> {
    let mut rng = Rng(seed);
    let mut queues: Vec<Vec<Item>> = vec![Vec::new(); n_lanes];
    let mut late: Vec<Vec<Item>> = Vec::new();
    for id in 0..n_mfs {
        let size = 1 + rng.below(5);
        let lane = rng.below(n_lanes as u64) as usize;
        let mf: Vec<Item> = (0..size)
            .map(|i| {
                (
                    MfTag {
                        id,
                        lane,
                        last: i + 1 == size,
                    },
                    id * 100 + i,
                )
            })
            .collect();
        match rng.below(10) {
            // Lost entirely: the counter must flush past it.
            0 => continue,
            // Closing packet lost: the micro-flow never closes.
            1 => queues[lane].extend_from_slice(&mf[..mf.len() - 1]),
            // Duplicate copy on the same lane, right behind the original.
            2 => {
                queues[lane].extend_from_slice(&mf);
                queues[lane].extend_from_slice(&mf);
            }
            // Duplicate copy on its own recovery lane.
            3 => {
                queues[lane].extend_from_slice(&mf);
                let recovery = queues.len();
                queues.push(retag(&mf, recovery));
            }
            // Late copy, delivered after everything else.
            4 => {
                queues[lane].extend_from_slice(&mf);
                late.push(retag(&mf, n_lanes + 1000 + late.len()));
            }
            _ => queues[lane].extend_from_slice(&mf),
        }
    }
    let mut runs = Vec::new();
    loop {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&q| !queues[q].is_empty())
            .collect();
        if live.is_empty() {
            break;
        }
        let q = live[rng.below(live.len() as u64) as usize];
        let take = (1 + rng.below(8) as usize).min(queues[q].len());
        runs.push(queues[q].drain(..take).collect());
    }
    runs.extend(late);
    runs
}

fn retag(mf: &[Item], lane: usize) -> Vec<Item> {
    mf.iter()
        .map(|&(tag, v)| (MfTag { lane, ..tag }, v))
        .collect()
}

fn counter(deadline: u64) -> MergeCounter<u64> {
    if deadline == 0 {
        MergeCounter::new()
    } else {
        MergeCounter::with_flush_deadline(deadline)
    }
}

proptest! {
    #[test]
    fn offer_run_equals_item_by_item_offers(
        seed in any::<u64>(),
        n_mfs in 1u64..40,
        n_lanes in 1usize..5,
        deadline in 0u64..12,
    ) {
        let runs = schedule(seed, n_mfs, n_lanes);
        let mut by_item = counter(deadline);
        let mut by_run = counter(deadline);
        let (mut item_out, mut run_out) = (Vec::new(), Vec::new());
        for (k, run) in runs.iter().enumerate() {
            for &(tag, v) in run {
                by_item.offer(tag, v, &mut item_out);
            }
            by_run.offer_run(run, &mut run_out);
            prop_assert_eq!(&run_out, &item_out, "released stream diverged at run {}", k);
            prop_assert_eq!(by_run.stats(), by_item.stats(), "stats diverged at run {}", k);
            prop_assert!(by_run.snapshot() == by_item.snapshot(), "state diverged at run {}", k);
        }
        by_item.flush_stalled(&mut item_out);
        by_run.flush_stalled(&mut run_out);
        prop_assert_eq!(run_out, item_out);
        prop_assert_eq!(by_run.stats(), by_item.stats());
        prop_assert!(by_run.snapshot() == by_item.snapshot());
    }
}
