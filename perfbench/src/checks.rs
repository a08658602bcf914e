//! Output checks computed apart from the program: the confusion counts,
//! precision, recall and F1 are recomputed here from the returned scores,
//! labels and threshold, and the AUC as a Mann–Whitney rank statistic, so a
//! fault in the program's own metrics code cannot vouch for itself.

use idsbench_core::metrics::Metrics;

/// The rule the program calibrates with: `DetectionFirst { max_fpr }`.
pub const MAX_FPR: f64 = 0.25;
const TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy, Default)]
pub struct Confusion {
    pub tp: u64,
    pub fp: u64,
    pub tn: u64,
    pub fn_: u64,
}

impl Confusion {
    pub fn at(scores: &[f64], labels: &[bool], threshold: f64) -> Confusion {
        let mut c = Confusion::default();
        for (&score, &attack) in scores.iter().zip(labels) {
            match (score >= threshold, attack) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    fn share(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    pub fn precision(&self) -> f64 {
        Self::share(self.tp, self.tp + self.fp)
    }

    pub fn recall(&self) -> f64 {
        Self::share(self.tp, self.tp + self.fn_)
    }

    pub fn fpr(&self) -> f64 {
        Self::share(self.fp, self.fp + self.tn)
    }

    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r > 0.0 {
            2.0 * p * r / (p + r)
        } else {
            0.0
        }
    }
}

/// ROC AUC as the Mann–Whitney U statistic over average ranks, ties
/// counting one half; 0 when either class is empty (the program's
/// convention for an undefined curve).
pub fn mann_whitney_auc(scores: &[f64], labels: &[bool]) -> f64 {
    let positives = labels.iter().filter(|&&l| l).count() as f64;
    let negatives = labels.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut positive_rank_sum = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j share their average.
        let average_rank = (i + 1 + j) as f64 / 2.0;
        positive_rank_sum +=
            average_rank * order[i..j].iter().filter(|&&k| labels[k]).count() as f64;
        i = j;
    }
    (positive_rank_sum - positives * (positives + 1.0) / 2.0) / (positives * negatives)
}

fn close(what: &str, ours: f64, reported: f64, failures: &mut Vec<String>) {
    if (ours - reported).abs() > TOLERANCE {
        failures.push(format!("{what}: recomputed {ours} but the report says {reported}"));
    }
}

/// Checks one scored run against its report; returns the recomputed
/// confusion counts. Every failure is appended to `failures` under `tag`.
pub fn check_scored(
    tag: &str,
    scores: &[f64],
    labels: &[bool],
    threshold: f64,
    metrics: &Metrics,
    auc: f64,
    failures: &mut Vec<String>,
) -> Confusion {
    if scores.len() != labels.len() {
        failures.push(format!("{tag}: {} scores but {} labels", scores.len(), labels.len()));
    }
    if let Some(bad) = scores.iter().find(|s| !s.is_finite()) {
        failures.push(format!("{tag}: non-finite score {bad}"));
    }
    if !scores.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!("{tag}: fewer than two distinct scores"));
    }
    let c = Confusion::at(scores, labels, threshold);
    close(&format!("{tag} precision"), c.precision(), metrics.precision, failures);
    close(&format!("{tag} recall"), c.recall(), metrics.recall, failures);
    close(&format!("{tag} f1"), c.f1(), metrics.f1, failures);
    close(&format!("{tag} auc"), mann_whitney_auc(scores, labels), auc, failures);
    // The rule falls back to its lowest-FPR candidate only when no
    // candidate meets the cap; that candidate's FPR is the share of benign
    // events scored +inf ("never alert" is always a candidate).
    let floor = Confusion::at(scores, labels, f64::INFINITY).fpr();
    if c.fpr() > MAX_FPR && c.fpr() != floor {
        failures.push(format!("{tag}: FPR {} at the threshold exceeds {MAX_FPR}", c.fpr()));
    }
    c
}
