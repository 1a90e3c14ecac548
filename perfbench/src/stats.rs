//! Sample statistics and the span-attribution arithmetic.

/// Fewest timed ops a run reports, however long each op takes.
pub const MIN_SAMPLES: usize = 5;

/// Sample-count rule of the closed loop: keep issuing ops until the time
/// budget is spent *and* at least [`MIN_SAMPLES`] ops have completed.
pub fn keep_sampling(samples: usize, elapsed_s: f64, budget_s: f64) -> bool {
    samples < MIN_SAMPLES || elapsed_s < budget_s
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A traced op's wall time split into the layer spans and the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    pub covered_ns: u64,
    pub unattributed_ns: u64,
    pub unattributed_frac: f64,
}

/// Split `wall_ns` into the time the (non-overlapping) layer spans cover
/// and the unattributed remainder. Spans cannot cover more than the op
/// that contains them, so that is an error.
pub fn attribute(wall_ns: u64, span_ns: &[u64]) -> Result<Attribution, String> {
    let covered_ns: u64 = span_ns.iter().sum();
    let unattributed_ns = wall_ns.checked_sub(covered_ns).ok_or_else(|| {
        format!("layer spans cover {covered_ns} ns of an op that took {wall_ns} ns")
    })?;
    Ok(Attribution {
        covered_ns,
        unattributed_ns,
        unattributed_frac: if wall_ns == 0 {
            0.0
        } else {
            unattributed_ns as f64 / wall_ns as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sampling_needs_both_the_budget_and_the_minimum_count() {
        assert!(keep_sampling(0, 100.0, 10.0));
        assert!(keep_sampling(MIN_SAMPLES - 1, 100.0, 10.0));
        assert!(keep_sampling(MIN_SAMPLES, 9.9, 10.0));
        assert!(!keep_sampling(MIN_SAMPLES, 10.0, 10.0));
        assert!(!keep_sampling(40, 10.5, 10.0));
    }

    #[test]
    fn spans_plus_unattributed_sum_to_the_wall_time() {
        let a = attribute(1_000, &[100, 250, 600]).unwrap();
        assert_eq!(a.covered_ns, 950);
        assert_eq!(a.unattributed_ns, 50);
        assert_eq!(a.covered_ns + a.unattributed_ns, 1_000);
        assert!((a.unattributed_frac - 0.05).abs() < 1e-15);
    }

    #[test]
    fn spans_covering_more_than_the_op_are_rejected() {
        assert!(attribute(100, &[60, 50]).is_err());
        assert_eq!(attribute(0, &[]).unwrap().unattributed_frac, 0.0);
    }
}
