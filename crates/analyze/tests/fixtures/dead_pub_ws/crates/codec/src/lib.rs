//! Rationale in DESIGN.md (never written); overview in README.md.
use cachegen_kvstore::used_by_a_crate;

pub fn only_in_prose() {}
pub fn only_in_own_tests() {}
pub fn used_by_a_test() {}
pub fn used_by_an_example() {}
pub const USED_BY_THE_BENCHMARK: u8 = 0;
pub(crate) fn crate_private() {}

#[cfg(test)]
mod tests {
    #[test]
    fn own_tests_are_not_callers() {
        super::only_in_own_tests();
    }
}
