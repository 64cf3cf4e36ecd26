//! The ratcheting per-crate budgets.
//!
//! A [`Budget`] pins, per crate, how many sites of one rule the
//! workspace tolerates: `.unwrap()`/`.expect(` calls in library code
//! ([`UNWRAP`]), public items nothing outside their file names
//! ([`DEAD_PUB`]). The gate fails when a crate exceeds its line (a
//! missing line means zero); when a crate drops below it, the check
//! reports slack so the file can be ratcheted down. A budget file may
//! only ever shrink.

use std::collections::BTreeMap;
use std::path::Path;

/// One budget: the rule whose sites it counts and its checked-in file.
pub struct Budget {
    /// Rule the sites and the breaches are reported under.
    pub rule: &'static str,
    /// Workspace-relative path of the baseline file.
    pub file: &'static str,
}

/// Library `.unwrap()`/`.expect(` sites.
pub const UNWRAP: Budget = Budget {
    rule: "no-lib-unwrap",
    file: "crates/analyze/unwrap_budget.txt",
};

/// Public items (and declared dependencies) with no outside user.
pub const DEAD_PUB: Budget = Budget {
    rule: "dead-pub",
    file: "crates/analyze/dead_pub_budget.txt",
};

/// Parses the baseline file: `<crate> <count>` per line, `#` comments.
fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(count)) = (parts.next(), parts.next()) {
            if let Ok(count) = count.parse::<usize>() {
                out.insert(name.to_string(), count);
            }
        }
    }
    out
}

/// Renders a baseline map back into the checked-in file format.
pub fn render_baseline(budget: &Budget, counts: &BTreeMap<String, usize>) -> String {
    let mut out = format!(
        "# cachegen-analyze `{}` budget: the most sites of that rule each crate may\n\
         # hold (`cachegen-analyze rules` says what a site is). Enforced by\n\
         # `cachegen-analyze check` and `cargo test -p cachegen-analyze`. Ratchet DOWN\n\
         # only: lower a number when a site goes, never raise one. A crate with no\n\
         # line has budget 0. Regenerate with `cargo run -p cachegen-analyze --\n\
         # baseline` after legitimate reductions.\n",
        budget.rule
    );
    for (name, count) in counts {
        out.push_str(&format!("{name} {count}\n"));
    }
    out
}

/// Loads the checked-in baseline, or `None` when the file is missing.
pub fn load_baseline(workspace_root: &Path, budget: &Budget) -> Option<BTreeMap<String, usize>> {
    std::fs::read_to_string(workspace_root.join(budget.file))
        .ok()
        .map(|t| parse_baseline(&t))
}

/// Compares measured per-crate counts against the baseline. Returns
/// `(violations, slack)`: crates over budget (name, actual, budget),
/// and crates under it that could be ratcheted down.
#[allow(clippy::type_complexity)] // two parallel (name, actual, budget) lists, not worth newtypes
pub fn compare(
    baseline: &BTreeMap<String, usize>,
    actual: &BTreeMap<String, usize>,
) -> (Vec<(String, usize, usize)>, Vec<(String, usize, usize)>) {
    let mut violations = Vec::new();
    let mut slack = Vec::new();
    for (name, &count) in actual {
        let budget = baseline.get(name).copied().unwrap_or(0);
        if count > budget {
            violations.push((name.clone(), count, budget));
        } else if count < budget {
            slack.push((name.clone(), count, budget));
        }
    }
    // A baseline entry for a crate with no measured sites is slack too:
    // the crate went clean, pin it at zero.
    for (name, &budget) in baseline {
        if budget > 0 && !actual.contains_key(name) {
            slack.push((name.clone(), 0, budget));
        }
    }
    (violations, slack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert("codec".to_string(), 7);
        counts.insert("serving".to_string(), 2);
        for budget in [&UNWRAP, &DEAD_PUB] {
            let parsed = parse_baseline(&render_baseline(budget, &counts));
            assert_eq!(parsed, counts);
        }
    }

    #[test]
    fn over_budget_is_a_violation_under_is_slack() {
        let baseline = parse_baseline("codec 3\nserving 2\nnet 1\n");
        let mut actual = BTreeMap::new();
        actual.insert("codec".to_string(), 5);
        actual.insert("serving".to_string(), 1);
        let (violations, slack) = compare(&baseline, &actual);
        assert_eq!(violations, vec![("codec".to_string(), 5, 3)]);
        assert_eq!(
            slack,
            vec![("serving".to_string(), 1, 2), ("net".to_string(), 0, 1),]
        );
    }

    #[test]
    fn unlisted_crate_has_zero_budget() {
        let baseline = parse_baseline("");
        let mut actual = BTreeMap::new();
        actual.insert("newcrate".to_string(), 1);
        let (violations, _) = compare(&baseline, &actual);
        assert_eq!(violations, vec![("newcrate".to_string(), 1, 0)]);
    }
}
