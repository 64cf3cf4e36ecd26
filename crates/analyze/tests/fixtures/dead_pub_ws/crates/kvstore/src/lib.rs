use parking_lot::Mutex;

pub fn used_by_a_crate() {}
pub struct Forgotten;
