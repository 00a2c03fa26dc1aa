//! The PARTITION problem, the NP-complete source of the Theorem 2.1
//! reduction.
//!
//! Given integers `k_1, …, k_n` with `Σ k_i = 2k`, decide whether some
//! subset sums to exactly `k`. The pseudo-polynomial dynamic program here
//! both decides the instance and recovers a witness subset, so the
//! reduction experiment can verify equivalence in both directions.

/// A PARTITION instance with even total sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInstance {
    items: Vec<u64>,
}

/// Construction error: PARTITION requires an even total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OddTotal(pub u64);

impl std::fmt::Display for OddTotal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PARTITION requires an even total, got {}", self.0)
    }
}

impl std::error::Error for OddTotal {}

impl PartitionInstance {
    /// Wrap items; the total must be even (the paper normalises to `2k`).
    pub fn new(items: Vec<u64>) -> Result<Self, OddTotal> {
        let total: u64 = items.iter().sum();
        if !total.is_multiple_of(2) {
            return Err(OddTotal(total));
        }
        Ok(PartitionInstance { items })
    }

    /// The items `k_1, …, k_n`.
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// Half the total sum (`k` in the paper's notation).
    pub fn half_sum(&self) -> u64 {
        self.items.iter().sum::<u64>() / 2
    }

    /// Decide the instance and return a witness subset (as a membership
    /// mask over items) when one exists. `O(n · k)` time and space.
    pub fn solve(&self) -> Option<Vec<bool>> {
        let k = self.half_sum() as usize;
        let n = self.items.len();
        // reach[s] = index of the item that first reached sum s (+1), 0 if
        // unreached; lets us backtrack a witness.
        let mut reach = vec![usize::MAX; k + 1];
        reach[0] = n; // sentinel: sum 0 needs no items
        for (i, &item) in self.items.iter().enumerate() {
            let item = item as usize;
            if item > k {
                continue;
            }
            // Iterate downwards so each item is used at most once.
            for s in (item..=k).rev() {
                if reach[s] == usize::MAX && reach[s - item] != usize::MAX && reach[s - item] != i {
                    // `reach[s - item] != i` cannot fire with downward
                    // iteration, but keeps the intent explicit.
                    reach[s] = i;
                }
            }
        }
        if reach[k] == usize::MAX {
            return None;
        }
        let mut mask = vec![false; n];
        let mut s = k;
        while s > 0 {
            let i = reach[s];
            debug_assert!(i < n);
            mask[i] = true;
            s -= self.items[i] as usize;
        }
        debug_assert_eq!(
            mask.iter().zip(&self.items).filter(|(m, _)| **m).map(|(_, &it)| it).sum::<u64>(),
            self.half_sum()
        );
        Some(mask)
    }

    /// Whether the instance is a yes-instance.
    pub fn is_yes(&self) -> bool {
        self.solve().is_some()
    }
}

/// A guaranteed yes-instance: two mirrored halves plus optional padding
/// pairs.
pub fn yes_instance(half: &[u64]) -> PartitionInstance {
    let mut items = half.to_vec();
    items.extend_from_slice(half);
    PartitionInstance::new(items).expect("mirrored halves have an even total")
}

/// A guaranteed no-instance: powers of two can only balance if the two
/// largest coincide, so `[1, 2, 4, …, 2^(n−1), 2^(n−1) + 1]` with an even
/// total and no equal split. Concretely `{2, 4, 8, …, 2^n, 2}` fails when
/// the largest exceeds the sum of the rest.
pub fn no_instance(n: usize) -> PartitionInstance {
    assert!(n >= 2);
    // {2, 2, 8} style: largest item > sum of the others, total even.
    let mut items: Vec<u64> = (0..n - 1).map(|i| 2 << i).collect();
    let rest: u64 = items.iter().sum();
    items.push(rest + 2); // strictly dominates; total = 2·rest + 2 is even
    PartitionInstance::new(items).expect("even total by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_odd_total() {
        assert!(PartitionInstance::new(vec![1, 2]).is_err());
        assert!(PartitionInstance::new(vec![1, 1]).is_ok());
    }

    #[test]
    fn solves_simple_yes() {
        let inst = PartitionInstance::new(vec![3, 1, 1, 2, 2, 1]).unwrap();
        let mask = inst.solve().expect("3+2 = 1+1+2+1 = 5");
        let sum: u64 = mask.iter().zip(inst.items()).filter(|(m, _)| **m).map(|(_, &i)| i).sum();
        assert_eq!(sum, inst.half_sum());
    }

    #[test]
    fn detects_no_instance() {
        let inst = PartitionInstance::new(vec![2, 2, 8]).unwrap();
        assert!(!inst.is_yes());
        for n in 2..8 {
            assert!(!no_instance(n).is_yes(), "n = {n}");
        }
    }

    #[test]
    fn yes_instances_are_yes() {
        for half in [vec![1], vec![5, 7], vec![2, 2, 9], vec![10, 1, 1, 1]] {
            assert!(yes_instance(&half).is_yes(), "half = {half:?}");
        }
    }

    #[test]
    fn brute_force_agreement_on_small_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        for _ in 0..100 {
            let n = rng.gen_range(1..9);
            let mut items: Vec<u64> = (0..n).map(|_| rng.gen_range(1..12)).collect();
            if items.iter().sum::<u64>() % 2 == 1 {
                items.push(1);
            }
            let inst = PartitionInstance::new(items.clone()).unwrap();
            let total: u64 = items.iter().sum();
            let brute = (0u32..1 << items.len()).any(|mask| {
                let s: u64 = items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .sum();
                2 * s == total
            });
            assert_eq!(inst.is_yes(), brute, "items = {items:?}");
        }
    }

    #[test]
    fn zero_items_partition_trivially() {
        let inst = PartitionInstance::new(vec![]).unwrap();
        assert!(inst.is_yes(), "empty set sums to 0 = half of 0");
    }
}
