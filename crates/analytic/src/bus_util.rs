//! Bus utilization versus miss ratio (Figure 5).

use crate::{AverageMissCost, ProcessorModel};

/// Bus utilization of a single processor at a given miss ratio
/// (Figure 5, footnote 10):
///
/// ```text
/// util = (miss_ratio · bus_time_per_miss)
///      / (ref_interval + miss_ratio · elapsed_per_miss)
/// ```
///
/// i.e. the bus time consumed per reference divided by the total time per
/// reference including miss handling. With 256-byte pages and a miss
/// ratio of 0.6 %, a single processor stays near 10 % bus utilization —
/// the basis of the paper's "up to 5 processors per bus" estimate (§5.3).
///
/// # Examples
///
/// ```
/// use vmp_analytic::{bus_utilization, MissCostModel, ProcessorModel};
/// use vmp_types::PageSize;
///
/// let avg = MissCostModel::paper(PageSize::S256).average(0.75);
/// let util = bus_utilization(0.006, &avg, &ProcessorModel::default());
/// assert!(util > 0.08 && util < 0.12);
/// ```
pub fn bus_utilization(miss_ratio: f64, cost: &AverageMissCost, proc: &ProcessorModel) -> f64 {
    assert!((0.0..=1.0).contains(&miss_ratio), "miss ratio must be a probability");
    if miss_ratio == 0.0 {
        return 0.0;
    }
    let ref_interval = proc.ref_interval();
    let bus_per_ref = miss_ratio * cost.bus.as_ns() as f64;
    let time_per_ref = ref_interval.as_ns() as f64 + miss_ratio * cost.elapsed.as_ns() as f64;
    bus_per_ref / time_per_ref
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MissCostModel;
    use vmp_types::PageSize;

    fn avg(page: PageSize) -> AverageMissCost {
        MissCostModel::paper(page).average(0.75)
    }

    #[test]
    fn paper_example_band() {
        // "for a 256 byte cache page size, with a miss ratio under 0.6%,
        // the bus utilization by a single processor is under 10%"
        // (footnote adds miss-handling elapsed time to the denominator;
        // with that accounting we land at ≈10 %).
        let u = bus_utilization(0.006, &avg(PageSize::S256), &ProcessorModel::default());
        assert!(u < 0.115, "utilization {u}");
        let u_half = bus_utilization(0.003, &avg(PageSize::S256), &ProcessorModel::default());
        assert!(u_half < 0.065, "utilization {u_half}");
    }

    #[test]
    fn monotone_in_miss_ratio() {
        let a = avg(PageSize::S128);
        let p = ProcessorModel::default();
        let mut last = -1.0;
        for i in 0..=30 {
            let u = bus_utilization(i as f64 * 0.001, &a, &p);
            assert!(u > last);
            last = u;
        }
    }

    #[test]
    fn larger_pages_use_more_bus_at_equal_miss_ratio() {
        let p = ProcessorModel::default();
        let m = 0.004;
        let u128 = bus_utilization(m, &avg(PageSize::S128), &p);
        let u256 = bus_utilization(m, &avg(PageSize::S256), &p);
        let u512 = bus_utilization(m, &avg(PageSize::S512), &p);
        assert!(u128 < u256 && u256 < u512, "{u128} {u256} {u512}");
    }

    #[test]
    fn zero_misses_zero_utilization() {
        assert_eq!(bus_utilization(0.0, &avg(PageSize::S256), &ProcessorModel::default()), 0.0);
    }
}
