//! Task eviction policies (Section V-A).
//!
//! The paper deliberately separates the preemption *primitive* (how a task is
//! evicted) from the eviction *policy* (which task is evicted). Two policies
//! are discussed:
//!
//! * suspend the tasks **closest to completion** (Natjam's SRT heuristic) to
//!   keep all tasks of a job close together and improve job sojourn times;
//! * suspend the tasks with the **smallest memory footprint**, which minimises
//!   paging overhead and therefore makespan under the OS-assisted primitive.
//!
//! A couple of extra baselines (least progress, largest memory, random) are
//! provided for the ablation benchmarks.

use mrp_engine::TaskId;
use mrp_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A task that could be evicted, with the attributes policies rank by.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EvictionCandidate {
    /// The task.
    pub(crate) task: TaskId,
    /// Its reported progress in `[0, 1]`.
    pub(crate) progress: f64,
    /// Its (estimated) memory footprint in bytes.
    pub(crate) memory_bytes: u64,
}

/// Which task(s) to evict when a higher-priority job needs slots.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the task closest to completion first (Natjam SRT): it will be
    /// resumed soon and all tasks of the victim job stay close together.
    ClosestToCompletion,
    /// Evict the task with the least progress first: it has the least work to
    /// lose if the eviction turns into a kill.
    LeastProgress,
    /// Evict the task with the smallest memory footprint first: cheapest to
    /// page out and back in under the OS-assisted primitive.
    SmallestMemory,
    /// Evict the task with the largest memory footprint first (worst case for
    /// the OS-assisted primitive; included for the ablation).
    LargestMemory,
    /// Evict uniformly at random.
    Random,
}

impl EvictionPolicy {
    /// Orders `candidates` from first-to-evict to last-to-evict.
    ///
    /// Ties are broken by task id so the ordering is deterministic; the
    /// `Random` policy uses the provided seeded generator.
    pub(crate) fn rank(self, candidates: &[EvictionCandidate], rng: &mut SimRng) -> Vec<TaskId> {
        let mut ranked: Vec<EvictionCandidate> = candidates.to_vec();
        match self {
            EvictionPolicy::ClosestToCompletion => {
                ranked.sort_by(|a, b| {
                    b.progress
                        .partial_cmp(&a.progress)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.task.cmp(&b.task))
                });
            }
            EvictionPolicy::LeastProgress => {
                ranked.sort_by(|a, b| {
                    a.progress
                        .partial_cmp(&b.progress)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.task.cmp(&b.task))
                });
            }
            EvictionPolicy::SmallestMemory => {
                ranked.sort_by(|a, b| {
                    a.memory_bytes
                        .cmp(&b.memory_bytes)
                        .then(a.task.cmp(&b.task))
                });
            }
            EvictionPolicy::LargestMemory => {
                ranked.sort_by(|a, b| {
                    b.memory_bytes
                        .cmp(&a.memory_bytes)
                        .then(a.task.cmp(&b.task))
                });
            }
            EvictionPolicy::Random => {
                // Deterministic given the seed: sort first for a stable base
                // order, then shuffle.
                ranked.sort_by_key(|c| c.task);
                rng.shuffle(&mut ranked);
            }
        }
        ranked.into_iter().map(|c| c.task).collect()
    }

    /// Picks the first `count` victims according to the policy.
    pub(crate) fn pick(
        self,
        candidates: &[EvictionCandidate],
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<TaskId> {
        self.rank(candidates, rng).into_iter().take(count).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{JobId, TaskKind};
    use mrp_sim::MIB;

    fn candidate(index: u32, progress: f64, memory_mib: u64) -> EvictionCandidate {
        EvictionCandidate {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Map,
                index,
            },
            progress,
            memory_bytes: memory_mib * MIB,
        }
    }

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    #[test]
    fn closest_to_completion_prefers_most_progressed() {
        let c = [
            candidate(0, 0.2, 100),
            candidate(1, 0.9, 100),
            candidate(2, 0.5, 100),
        ];
        let order = EvictionPolicy::ClosestToCompletion.rank(&c, &mut rng());
        assert_eq!(
            order.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn least_progress_is_the_reverse() {
        let c = [
            candidate(0, 0.2, 100),
            candidate(1, 0.9, 100),
            candidate(2, 0.5, 100),
        ];
        let order = EvictionPolicy::LeastProgress.rank(&c, &mut rng());
        assert_eq!(
            order.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn memory_policies_sort_by_footprint() {
        let c = [
            candidate(0, 0.5, 2048),
            candidate(1, 0.5, 128),
            candidate(2, 0.5, 512),
        ];
        let small = EvictionPolicy::SmallestMemory.rank(&c, &mut rng());
        assert_eq!(
            small.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
        let large = EvictionPolicy::LargestMemory.rank(&c, &mut rng());
        assert_eq!(
            large.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn random_is_a_deterministic_permutation() {
        let c: Vec<EvictionCandidate> = (0..10).map(|i| candidate(i, 0.1, 64)).collect();
        let a = EvictionPolicy::Random.rank(&c, &mut SimRng::new(7));
        let b = EvictionPolicy::Random.rank(&c, &mut SimRng::new(7));
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted.len(), 10);
        let original: Vec<TaskId> = c.iter().map(|x| x.task).collect();
        let mut orig_sorted = original.clone();
        orig_sorted.sort();
        assert_eq!(sorted, orig_sorted, "must be a permutation");
    }

    #[test]
    fn pick_limits_the_victim_count() {
        let c: Vec<EvictionCandidate> = (0..5).map(|i| candidate(i, i as f64 / 10.0, 64)).collect();
        let victims = EvictionPolicy::ClosestToCompletion.pick(&c, 2, &mut rng());
        assert_eq!(victims.len(), 2);
        assert_eq!(victims[0].index, 4);
        let none = EvictionPolicy::ClosestToCompletion.pick(&[], 3, &mut rng());
        assert!(none.is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let c = [
            candidate(3, 0.5, 100),
            candidate(1, 0.5, 100),
            candidate(2, 0.5, 100),
        ];
        let order = EvictionPolicy::ClosestToCompletion.rank(&c, &mut rng());
        assert_eq!(
            order.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }
}
